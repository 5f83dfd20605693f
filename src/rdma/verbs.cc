#include "rdma/verbs.h"

#include <algorithm>
#include <cassert>
#include <optional>

namespace asymnvm {

void
Verbs::flushChain(NodeId id, PostChain &chain, bool own_doorbell)
{
    if (chain.wqes == 0)
        return;
    uint64_t cost = lat_->doorbell_batch_wqe_ns * chain.wqes;
    if (own_doorbell) {
        cost += lat_->post_overhead_ns;
        ++counters_.doorbells;
    }
    clock_->advance(cost);
    auto it = targets_.find(id);
    if (it != targets_.end() && it->second.nic != nullptr)
        clock_->advance(it->second.nic->reserveBatch(
            chain.wqes, clock_->now(), qp_id_, verb_class_));
    chain = PostChain{};
}

RdmaTarget *
Verbs::settle(NodeId id)
{
    auto it = targets_.find(id);
    if (it == targets_.end())
        return nullptr;
    // Queue-pair ordering: this verb executes after every pending posted
    // write on the same target, so the chain's deferred cost is settled
    // here, riding this verb's doorbell.
    auto cit = chains_.find(id);
    if (cit != chains_.end()) {
        flushChain(id, cit->second, /*own_doorbell=*/false);
        assert(cit->second.wqes == 0 &&
               "posted chain must drain before a later verb completes");
    }
    return &it->second;
}

Status
Verbs::admit(NodeId id, RdmaTarget &t, VerbKind kind, uint64_t n,
             uint64_t write_len, bool in_bounds, Landing *out)
{
    // One crash point per WQE, stopping at the first that fires. The
    // back-end crashed under this verb: for a write, a torn prefix may
    // still land, and the caller sees the failure through the
    // (simulated) RNIC completion error.
    bool crashed = false;
    for (uint64_t i = 0; t.fail != nullptr && i < n && !crashed; ++i) {
        const std::optional<uint64_t> partial = t.fail->onVerb(write_len);
        crashed = partial.has_value();
        out->torn = partial.value_or(0);
    }
    if (!in_bounds)
        return Status::InvalidArgument; // refused before any fault draw
    if (crashed)
        return Status::BackendCrashed; // fail-stop outranks any fault
    if (qp_error_.count(id) != 0)
        return Status::QpError; // endpoint must reset the QP first
    if (t.faults == nullptr || !t.faults->armed())
        return Status::Ok;
    const FaultVerb fv = kind == VerbKind::Read     ? FaultVerb::Read
                         : kind == VerbKind::Atomic ? FaultVerb::Atomic
                                                    : FaultVerb::Write;
    uint64_t max_delay = 0;
    for (uint64_t i = 0; i < n; ++i) {
        const FaultAction a = t.faults->onVerb(fv, clock_->now());
        clock_->advance(a.slow_ns); // gray node: degraded service
        if (a.qp_error) {
            // A mid-chain QP error flushes the remaining WQEs with error
            // completions and delivers nothing: the retry re-posts all.
            qp_error_.insert(id);
            ++retry_stats_.qp_errors;
            return Status::QpError;
        }
        if (a.drop) {
            // The issuing session waits the full verb timeout before it
            // declares the completion lost.
            clock_->advance(kRetry.verb_timeout_ns);
            ++retry_stats_.timeouts;
            if (!a.drop_after)
                return Status::Timeout; // never a partial gather
            out->lost = true; // executes, then reports the loss
        }
        if (a.delay_ns != 0) {
            max_delay = std::max(max_delay, a.delay_ns);
            ++retry_stats_.delayed;
        }
    }
    clock_->advance(max_delay); // WQEs complete together: worst delay
    return Status::Ok;
}

Status
Verbs::begin(NodeId id, VerbKind kind, uint64_t write_len, RdmaTarget **out,
             Landing *landing)
{
    *out = settle(id);
    if (*out == nullptr)
        return Status::Unavailable;
    RdmaTarget &t = **out;
    const Status st = admit(id, t, kind, 1, write_len, true, landing);
    if (ok(st) && t.nic != nullptr)
        clock_->advance(
            t.nic->reserve(clock_->now(), qp_id_, verb_class_));
    return st;
}

Status
Verbs::land(RdmaTarget &t, Status st, const Landing &l, uint64_t off,
            const void *src, size_t len)
{
    if (st == Status::BackendCrashed) {
        // Apply the torn prefix through the device's journal, then leave
        // the device "down".
        t.nvm->applyTornWrite(off, src, len, l.torn);
        return st;
    }
    if (!ok(st))
        return st;
    t.nvm->write(off, src, len);
    t.nvm->persist(); // DMA into the NVM DIMM is durable on completion
    if (t.on_write)
        t.on_write(off, len);
    // The payload landed but the completion dropped: the retry will land
    // the same (idempotent) bytes again.
    return l.lost ? Status::Timeout : Status::Ok;
}

uint64_t
Verbs::completion(uint64_t base_rtt, uint64_t payload)
{
    ++verbs_issued_;
    ++counters_.doorbells; // every synchronous verb kicks the NIC itself
    return clock_->now() + base_rtt + lat_->wireBytes(payload);
}

void
Verbs::resetQp(NodeId id)
{
    if (qp_error_.erase(id) == 0)
        return;
    clock_->advance(kRetry.qp_reset_ns);
    ++retry_stats_.qp_resets;
}

bool
Verbs::nextAttempt(VerbKind kind, NodeId id, Status st, uint32_t *attempt,
                   uint64_t *backoff)
{
    if (!isTransient(st))
        return false; // fail-stop (or success) escapes to the caller
    if (++*attempt >= kRetry.max_attempts)
        return false; // budget spent: the storm outlived every retry
    if (st == Status::QpError)
        resetQp(id); // RESET -> INIT -> RTR -> RTS before re-issuing
    switch (kind) {
      case VerbKind::Read: ++retry_stats_.retries_read; break;
      case VerbKind::Write: ++retry_stats_.retries_write; break;
      case VerbKind::Posted: ++retry_stats_.retries_posted; break;
      case VerbKind::Atomic: ++retry_stats_.retries_atomic; break;
    }
    // Capped exponential backoff with deterministic jitter, charged to
    // the virtual clock: delay in [d - d*j/2, d + d*j/2].
    uint64_t delay = *backoff;
    if (kRetry.jitter > 0) {
        const uint64_t span = static_cast<uint64_t>(
            static_cast<double>(delay) * kRetry.jitter);
        if (span > 0)
            delay = delay - span / 2 + rng_.nextBounded(span + 1);
    }
    clock_->advance(delay);
    retry_stats_.backoff_ns += delay;
    *backoff = std::min<uint64_t>(*backoff * 2, kRetry.max_backoff_ns);
    return true;
}

Status
Verbs::read(RemotePtr src, void *dst, size_t len, uint64_t *done)
{
    uint64_t at = 0;
    const Status st = retrying(VerbKind::Read, src.backend, [&] {
        return readOnce(src, dst, len, &at);
    });
    if (!ok(st))
        at = clock_->now();
    if (done != nullptr)
        *done = at;
    else
        clock_->advanceTo(at);
    return st;
}

Status
Verbs::readOnce(RemotePtr src, void *dst, size_t len, uint64_t *done)
{
    RdmaTarget *t = nullptr;
    Landing l;
    const Status st = begin(src.backend, VerbKind::Read, 0, &t, &l);
    const bool delivers = ok(st) && src.offset + len <= t->nvm->size();
    const uint64_t at = completion(lat_->rdma_read_rtt_ns, len);
    ++counters_.reads;
    counters_.read_bytes += len;
    if (!delivers) {
        clock_->advanceTo(at); // the error completion takes a round trip
        // An in-bounds verb that failed, or an RNIC access violation.
        return ok(st) ? Status::InvalidArgument : st;
    }
    t->nvm->read(src.offset, dst, len);
    *done = at;
    return Status::Ok;
}

Status
Verbs::write(RemotePtr dst, const void *src, size_t len)
{
    return retrying(VerbKind::Write, dst.backend,
                    [&] { return writeOnce(dst, src, len); });
}

Status
Verbs::writeOnce(RemotePtr dst, const void *src, size_t len)
{
    RdmaTarget *t = nullptr;
    Landing l;
    const Status st = begin(dst.backend, VerbKind::Write, len, &t, &l);
    charge(lat_->rdma_write_rtt_ns, len);
    ++counters_.writes;
    counters_.write_bytes += len;
    if (t == nullptr)
        return st;
    if (dst.offset + len > t->nvm->size())
        return Status::InvalidArgument;
    return land(*t, st, l, dst.offset, src, len);
}

Status
Verbs::writeAsync(RemotePtr dst, const void *src, size_t len)
{
    return retrying(VerbKind::Posted, dst.backend,
                    [&] { return writeAsyncOnce(dst, src, len); });
}

Status
Verbs::writeAsyncOnce(RemotePtr dst, const void *src, size_t len)
{
    RdmaTarget *t = nullptr;
    Landing l;
    const Status st = begin(dst.backend, VerbKind::Posted, len, &t, &l);
    clock_->advance(lat_->post_overhead_ns);
    ++verbs_issued_;
    ++counters_.posted;
    counters_.posted_bytes += len;
    ++counters_.wqes;
    ++counters_.doorbells; // posted alone: its own doorbell kicks the NIC
    if (t == nullptr)
        return st;
    if (dst.offset + len > t->nvm->size())
        return Status::InvalidArgument;
    return land(*t, st, l, dst.offset, src, len);
}

Status
Verbs::postWrite(RemotePtr dst, const void *src, size_t len)
{
    return retrying(VerbKind::Posted, dst.backend,
                    [&] { return postWriteOnce(dst, src, len); });
}

Status
Verbs::postWriteOnce(RemotePtr dst, const void *src, size_t len)
{
    // No chain settling, NIC reservation or doorbell here: the WQE only
    // joins the post list. Failure injection still sees one verb — a
    // crash tears this WQE and the rest of the chain never posts.
    auto it = targets_.find(dst.backend);
    if (it == targets_.end())
        return Status::Unavailable;
    RdmaTarget &t = it->second;
    ++counters_.posted;
    counters_.posted_bytes += len;
    Landing l;
    const Status st =
        admit(dst.backend, t, VerbKind::Posted, 1, len,
              dst.offset + len <= t.nvm->size(), &l);
    if (ok(st) && !l.lost) {
        // Only a WQE that completes joins the chain accounting: a lost
        // one lands in post order too, but its retry posts the bytes
        // again.
        PostChain &chain = chains_[dst.backend];
        if (!chain.has_tail || dst.offset != chain.next_off) {
            // A gap in the destination starts a new WQE; a continuation
            // is one more scatter-gather entry of the running one.
            ++chain.wqes;
            ++counters_.wqes;
            ++verbs_issued_;
        }
        chain.has_tail = true;
        chain.next_off = dst.offset + len;
        chain.bytes += len;
    }
    // The payload lands in post order; durability is guaranteed no later
    // than the completion of the next flushed verb on this queue pair.
    return land(t, st, l, dst.offset, src, len);
}

Status
Verbs::ringDoorbell()
{
    for (auto &[id, chain] : chains_)
        flushChain(id, chain, /*own_doorbell=*/true);
    return Status::Ok;
}

Status
Verbs::ringDoorbellFanout()
{
    // Launch phase: the CPU posts each target's chain and rings its
    // doorbell back to back — that cost is inherently serial on one core.
    uint64_t max_wait = 0;
    for (auto &[id, chain] : chains_) {
        if (chain.wqes == 0)
            continue;
        clock_->advance(lat_->post_overhead_ns +
                        lat_->doorbell_batch_wqe_ns * chain.wqes);
        ++counters_.doorbells;
        // Await phase contribution: this target's completion arrives a
        // round trip plus its chain's wire time plus its NIC queueing
        // delay after the doorbell. All targets progress concurrently, so
        // the fence waits only for the slowest.
        uint64_t wait =
            lat_->rdma_write_rtt_ns + lat_->wireBytes(chain.bytes);
        auto it = targets_.find(id);
        if (it != targets_.end() && it->second.nic != nullptr)
            wait += it->second.nic->reserveBatch(
                chain.wqes, clock_->now(), qp_id_, verb_class_);
        max_wait = std::max(max_wait, wait);
        chain = PostChain{};
    }
    if (max_wait != 0) {
        clock_->advance(max_wait);
        ++verbs_issued_; // the fence consumes one completion wait
    }
    return Status::Ok;
}

uint64_t
Verbs::pendingWqes() const
{
    uint64_t n = 0;
    for (const auto &[id, chain] : chains_)
        n += chain.wqes;
    return n;
}

Status
Verbs::postRead(RemotePtr src, void *dst, uint32_t len)
{
    if (targets_.count(src.backend) == 0)
        return Status::Unavailable;
    read_chains_[src.backend].push_back(ReadWqe{src.offset, dst, len});
    return Status::Ok;
}

Status
Verbs::readGather(uint64_t *done, bool posted)
{
    Status result = Status::Ok;
    uint64_t last = clock_->now();
    for (auto &[id, wqes] : read_chains_) {
        if (wqes.empty())
            continue;
        // A chain of one WQE is a plain RDMA_Read: nothing shares its
        // doorbell, so it pays exactly what read() pays — unless work
        // runs under its wait, which puts its posting on the clock.
        uint64_t at = 0;
        const Status st = retrying(VerbKind::Read, id, [&] {
            return wqes.size() == 1 && !posted
                       ? readOnce(RemotePtr(id, wqes[0].offset),
                                  wqes[0].dst, wqes[0].len, &at)
                       : readGatherOnce(id, wqes, &at);
        });
        if (ok(st))
            last = std::max(last, at); // the slowest chain completes last
        else if (ok(result))
            result = st;
        wqes.clear(); // keep the capacity: the next miss reuses it
    }
    next_gather_ops_ = 1; // the tag covers exactly one gather
    last = std::max(last, clock_->now()); // a failed chain waited itself
    if (done != nullptr)
        *done = last;
    else
        clock_->advanceTo(last);
    return result;
}

Status
Verbs::readGatherOnce(NodeId id, const std::vector<ReadWqe> &wqes,
                      uint64_t *done)
{
    RdmaTarget *t = settle(id);
    if (t == nullptr)
        return Status::Unavailable;

    const uint64_t n = wqes.size();
    uint64_t total = 0;
    for (const ReadWqe &w : wqes)
        total += w.len;

    // Posting cost and per-attempt accounting: ONE doorbell launches the
    // whole chain, and every retry re-posts every WQE, so the counters
    // move in whole-batch increments (the all-or-nothing invariant shows
    // up as reads % chain-size == 0).
    clock_->advance(lat_->post_overhead_ns +
                    lat_->doorbell_batch_wqe_ns * n);
    ++counters_.doorbells;
    ++counters_.read_gathers;
    counters_.reads += n;
    counters_.read_bytes += total;
    verbs_issued_ += n;

    Landing l; // reads deliver nothing on a crash or a lost completion
    const Status st = admit(id, *t, VerbKind::Read, n, 0, true, &l);
    if (!ok(st))
        return st;

    // Validate the WHOLE chain before delivering any byte: a bad address
    // fails the batch, never a prefix of it.
    for (const ReadWqe &w : wqes)
        if (w.offset + w.len > t->nvm->size())
            return Status::InvalidArgument;

    if (t->nic != nullptr)
        clock_->advance(t->nic->reserveGather(
            n, clock_->now(), next_gather_ops_, qp_id_, verb_class_));
    // One completion: the chained WQEs travel back to back, so the
    // session waits a single round trip plus the combined wire time.
    *done = clock_->now() + lat_->rdma_read_rtt_ns + lat_->wireBytes(total);
    for (const ReadWqe &w : wqes)
        t->nvm->read(w.offset, w.dst, w.len);
    return Status::Ok;
}

uint64_t
Verbs::pendingReadWqes() const
{
    uint64_t n = 0;
    for (const auto &[id, wqes] : read_chains_)
        n += wqes.size();
    return n;
}

template <typename Op>
Status
Verbs::atomicOnce(RemotePtr p, uint64_t write_len, Op &&op)
{
    RdmaTarget *t = nullptr;
    Landing l; // an atomic never tears: a crash lands nothing
    const Status st = begin(p.backend, VerbKind::Atomic, write_len, &t, &l);
    charge(lat_->rdma_atomic_rtt_ns, sizeof(uint64_t));
    ++counters_.atomics;
    counters_.atomic_bytes += sizeof(uint64_t);
    if (!ok(st))
        return st;
    if (p.offset + sizeof(uint64_t) > t->nvm->size())
        return Status::InvalidArgument;
    op(*t->nvm);
    if (write_len != 0 && t->on_write)
        t->on_write(p.offset, sizeof(uint64_t));
    return Status::Ok;
}

Status
Verbs::read64(RemotePtr src, uint64_t *out)
{
    return retrying(VerbKind::Atomic, src.backend, [&] {
        return atomicOnce(src, 0, [&](NvmDevice &nvm) {
            *out = nvm.read64(src.offset);
        });
    });
}

Status
Verbs::write64(RemotePtr dst, uint64_t v)
{
    return retrying(VerbKind::Atomic, dst.backend, [&] {
        return atomicOnce(dst, sizeof(uint64_t), [&](NvmDevice &nvm) {
            nvm.write64Atomic(dst.offset, v);
        });
    });
}

Status
Verbs::compareAndSwap(RemotePtr dst, uint64_t expected, uint64_t desired,
                      uint64_t *old)
{
    return retrying(VerbKind::Atomic, dst.backend, [&] {
        return atomicOnce(dst, sizeof(uint64_t), [&](NvmDevice &nvm) {
            *old = nvm.compareAndSwap64(dst.offset, expected, desired);
        });
    });
}

Status
Verbs::fetchAdd(RemotePtr dst, uint64_t delta, uint64_t *old)
{
    return retrying(VerbKind::Atomic, dst.backend, [&] {
        return atomicOnce(dst, sizeof(uint64_t), [&](NvmDevice &nvm) {
            *old = nvm.fetchAdd64(dst.offset, delta);
        });
    });
}

} // namespace asymnvm
