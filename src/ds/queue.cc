#include "ds/queue.h"

#include <algorithm>
#include <vector>

namespace asymnvm {

Status
Queue::reload()
{
    pending_.clear(); // replay re-executes the pending enqueues' ops
    Status st = s_->readAux(id_, backend_, 0, &head_raw_);
    if (!ok(st))
        return st;
    st = s_->readAux(id_, backend_, 1, &tail_raw_);
    if (!ok(st))
        return st;
    return s_->readAux(id_, backend_, 2, &count_);
}

void
Queue::installHooks()
{
    s_->setFlushHook(id_, backend_, [this] { return materializePending(); });
}

Status
Queue::replay(const ParsedOpLog &op)
{
    if (op.op == OpType::Enqueue)
        return enqueue(loggedValue(op));
    if (op.op == OpType::Dequeue) {
        Value dummy;
        const Status st = dequeue(&dummy);
        return st == Status::NotFound ? Status::Ok : st;
    }
    return Status::InvalidArgument;
}

Status
Queue::writeShadows()
{
    // head/tail/count always change together: one log entry, and in the
    // naive mode one RDMA_Write instead of three.
    const uint64_t vals[3] = {head_raw_, tail_raw_, count_};
    return s_->writeAuxRange(id_, backend_, 0, vals, 3);
}

Status
Queue::materializeOne(const Value &v)
{
    Node node{};
    node.value = v;
    node.next_raw = 0;
    RemotePtr p;
    Status st = allocNode(node, &p);
    if (!ok(st))
        return st;
    if (tail_raw_ != 0) {
        // Link the old tail to the new node (whole-node rewrite keeps
        // the overlay/cache object-consistent).
        const RemotePtr tail = RemotePtr::fromRaw(tail_raw_);
        Node tail_node;
        st = readNode(tail, &tail_node, 0, false);
        if (!ok(st))
            return st;
        tail_node.next_raw = p.raw();
        st = writeNode(tail, tail_node);
        if (!ok(st))
            return st;
    } else {
        head_raw_ = p.raw();
    }
    tail_raw_ = p.raw();
    ++count_;
    return Status::Ok;
}

Status
Queue::materializePending()
{
    // On a failure only the materialized prefix leaves pending_, so
    // size() counts every enqueue once; the rest waits for the next
    // flush.
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
    const Status wst = writeShadows();
    return ok(st) ? wst : st;
}

Status
Queue::enqueue(const Value &v)
{
    return s_->runInline(enqueueAsync(v));
}

Status
Queue::dequeue(Value *out)
{
    return s_->runInline(dequeueAsync(out));
}

OpTask
Queue::enqueueAsync(Value v)
{
    // Queues are single-front-end (Section 9.5) and the head/tail/count
    // shadows are member state, so window ops on one queue serialize on
    // a per-structure gate taken before opBegin (op-log order matches
    // effect order). The materialized path's old-tail read stays
    // synchronous inside materializeOne: it follows the new node's alloc,
    // so hoisting it into a suspendable phase A would reorder it across
    // a write. The pipeline win here is log-side — batched appends and
    // one coalesced fence per window.
    FrontendSession::WindowGate gate(s_, id_, 0);
    while (!gate.tryAcquire())
        co_await s_->pipelineYield();
    Status st = s_->opBegin(id_, backend_, OpType::Enqueue, 0,
                            v.bytes.data(), Value::kSize);
    if (!ok(st))
        co_return st;
    if (deferWrites()) {
        pending_.push_back(v);
    } else {
        st = materializeOne(v);
        if (!ok(st))
            co_return st;
        st = writeShadows();
        if (!ok(st))
            co_return st;
    }
    co_return s_->opEnd();
}

Status
Queue::enqueueMany(std::span<const Value> vals, Status *results)
{
    return runMany(
        vals.size(), results, pipelineEligible(),
        [&](size_t i) { return enqueue(vals[i]); },
        [&](size_t i) { return enqueueAsync(vals[i]); });
}

OpTask
Queue::dequeueAsync(Value *out)
{
    FrontendSession::WindowGate gate(s_, id_, 0);
    while (!gate.tryAcquire())
        co_await s_->pipelineYield();
    Status st = s_->opBegin(id_, backend_, OpType::Dequeue, 0, nullptr, 0);
    if (!ok(st))
        co_return st;
    if (count_ > 0) {
        // FIFO: materialized elements are older than anything pending.
        // Phase A: the head-node read is the first data access, so it
        // can suspend and share the window's read round trip. The
        // gate excludes same-queue writers; validation keeps the
        // discipline uniform (the address could be recycled by another
        // structure's free while we were suspended).
        const RemotePtr head = RemotePtr::fromRaw(head_raw_);
        Node node;
        while (true) {
            auto aw = readNodeAsync(head, &node, /*level=*/0,
                                    /*use_admission=*/false,
                                    /*pin=*/false);
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
        if (head_raw_ == 0)
            tail_raw_ = 0;
        --count_;
        st = writeShadows();
        if (!ok(st))
            co_return st;
        st = s_->free(head, sizeof(Node));
        if (!ok(st))
            co_return st;
        co_return s_->opEnd();
    }
    if (!pending_.empty()) {
        // Annulment: the oldest pending enqueue is the queue's front (in
        // a pipelined window the gate ordered us after it).
        *out = pending_.front();
        pending_.pop_front();
        co_return s_->opEnd();
    }
    st = s_->opEnd();
    co_return ok(st) ? Status::NotFound : st;
}

Status
Queue::dequeueMany(std::span<Value> outs, Status *results)
{
    return runMany(
        outs.size(), results, pipelineEligible(),
        [&](size_t i) { return dequeue(&outs[i]); },
        [&](size_t i) { return dequeueAsync(&outs[i]); });
}

Status
Queue::front(Value *out)
{
    if (count_ > 0) {
        Node node;
        const Status st =
            readNode(RemotePtr::fromRaw(head_raw_), &node, 0, false);
        if (!ok(st))
            return st;
        *out = node.value;
        return Status::Ok;
    }
    if (!pending_.empty()) {
        *out = pending_.front();
        return Status::Ok;
    }
    return Status::NotFound;
}

uint64_t
Queue::size() const
{
    return count_ + pending_.size();
}

} // namespace asymnvm
