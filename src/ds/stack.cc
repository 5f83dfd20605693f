#include "ds/stack.h"

#include <algorithm>
#include <vector>

namespace asymnvm {

Status
Stack::reload()
{
    pending_.clear(); // replay re-executes the pending pushes' ops
    const Status st = s_->readAux(id_, backend_, 0, &head_raw_);
    if (!ok(st))
        return st;
    return s_->readAux(id_, backend_, 1, &count_);
}

void
Stack::installHooks()
{
    s_->setFlushHook(id_, backend_, [this] { return materializePending(); });
}

Status
Stack::replay(const ParsedOpLog &op)
{
    if (op.op == OpType::Push)
        return push(loggedValue(op));
    if (op.op == OpType::Pop) {
        Value dummy;
        const Status st = pop(&dummy);
        return st == Status::NotFound ? Status::Ok : st;
    }
    return Status::InvalidArgument;
}

Status
Stack::materializeOne(const Value &v)
{
    Node node{};
    node.value = v;
    node.next_raw = head_raw_;
    RemotePtr p;
    Status st = allocNode(node, &p);
    if (!ok(st))
        return st;
    head_raw_ = p.raw();
    ++count_;
    return Status::Ok;
}

Status
Stack::materializePending()
{
    // On a failure only the materialized prefix leaves pending_, so
    // size() counts every push once; the rest waits for the next flush.
    size_t done = 0;
    Status st = Status::Ok;
    for (; done < pending_.size(); ++done) {
        st = materializeOne(pending_[done]);
        if (!ok(st))
            break;
    }
    if (done == 0)
        return st;
    pending_.erase(pending_.begin(), pending_.begin() + done);
    const uint64_t vals[2] = {head_raw_, count_};
    const Status wst = s_->writeAuxRange(id_, backend_, 0, vals, 2);
    return ok(st) ? wst : st;
}

Status
Stack::push(const Value &v)
{
    return s_->runInline(pushAsync(v));
}

Status
Stack::pop(Value *out)
{
    return s_->runInline(popAsync(out));
}

OpTask
Stack::pushAsync(Value v)
{
    // Stacks are single-front-end (Section 9.5) and the head/count
    // shadows are member state, so window ops on one stack serialize on
    // a per-structure gate; the gate is taken before opBegin so op-log
    // order matches effect order.
    FrontendSession::WindowGate gate(s_, id_, 0);
    while (!gate.tryAcquire())
        co_await s_->pipelineYield();
    Status st = s_->opBegin(id_, backend_, OpType::Push, 0,
                            v.bytes.data(), Value::kSize);
    if (!ok(st))
        co_return st;
    if (deferWrites()) {
        pending_.push_back(v);
    } else {
        st = materializeOne(v);
        if (!ok(st))
            co_return st;
        const uint64_t vals[2] = {head_raw_, count_};
        st = s_->writeAuxRange(id_, backend_, 0, vals, 2);
        if (!ok(st))
            co_return st;
    }
    co_return s_->opEnd();
}

Status
Stack::pushMany(std::span<const Value> vals, Status *results)
{
    return runMany(
        vals.size(), results, pipelineEligible(),
        [&](size_t i) { return push(vals[i]); },
        [&](size_t i) { return pushAsync(vals[i]); });
}

OpTask
Stack::popAsync(Value *out)
{
    FrontendSession::WindowGate gate(s_, id_, 0);
    while (!gate.tryAcquire())
        co_await s_->pipelineYield();
    Status st = s_->opBegin(id_, backend_, OpType::Pop, 0, nullptr, 0);
    if (!ok(st))
        co_return st;
    if (!pending_.empty()) {
        // Annulment: serve the newest un-materialized push locally; its
        // memory logs are never generated (Section 8.1). In a pipelined
        // window the gate ordered us after the push that populated it.
        *out = pending_.back();
        pending_.pop_back();
        co_return s_->opEnd();
    }
    if (head_raw_ == 0) {
        st = s_->opEnd();
        co_return ok(st) ? Status::NotFound : st;
    }
    // Phase A: the head-node read (the hot spot, cached — Section 8.1),
    // suspendable so sibling ops on other structures overlap this round
    // trip. The gate already excludes same-stack writers, but a
    // validation pass keeps the discipline uniform (e.g. the address
    // could be recycled by another structure's free while we were
    // suspended).
    const RemotePtr head = RemotePtr::fromRaw(head_raw_);
    Node node;
    while (true) {
        auto aw = readNodeAsync(head, &node, /*level=*/0,
                                /*use_admission=*/false, /*pin=*/false);
        st = co_await aw;
        if (!ok(st))
            co_return st;
        const FrontendSession::ReadStamp stamp{head.raw(), aw.served_seq};
        if (s_->pipelineReadSetClean({&stamp, 1}))
            break;
        s_->notePipelineRestart();
    }
    // Phase B: shadow update and node free, inline.
    *out = node.value;
    head_raw_ = node.next_raw;
    --count_;
    const uint64_t vals[2] = {head_raw_, count_};
    st = s_->writeAuxRange(id_, backend_, 0, vals, 2);
    if (!ok(st))
        co_return st;
    st = s_->free(head, sizeof(Node));
    if (!ok(st))
        co_return st;
    co_return s_->opEnd();
}

Status
Stack::popMany(std::span<Value> outs, Status *results)
{
    return runMany(
        outs.size(), results, pipelineEligible(),
        [&](size_t i) { return pop(&outs[i]); },
        [&](size_t i) { return popAsync(&outs[i]); });
}

Status
Stack::top(Value *out)
{
    if (!pending_.empty()) {
        *out = pending_.back();
        return Status::Ok;
    }
    if (head_raw_ == 0)
        return Status::NotFound;
    Node node;
    const Status st = readNode(RemotePtr::fromRaw(head_raw_), &node, 0,
                               false);
    if (!ok(st))
        return st;
    *out = node.value;
    return Status::Ok;
}

uint64_t
Stack::size() const
{
    return count_ + pending_.size();
}

} // namespace asymnvm
