#include "frontend/session.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <deque>
#include <thread>

#include "common/hash.h"

namespace asymnvm {

// ---------------------------------------------------------------------
// SessionConfig presets (the system rows of Table 3)
// ---------------------------------------------------------------------

SessionConfig
SessionConfig::naive(uint64_t id)
{
    SessionConfig c;
    c.session_id = id;
    c.use_oplog = false;
    c.use_txlog = false;
    c.use_cache = false;
    c.batch_size = 1;
    return c;
}

SessionConfig
SessionConfig::r(uint64_t id)
{
    SessionConfig c;
    c.session_id = id;
    c.use_oplog = true;
    c.use_txlog = true;
    c.use_cache = false;
    c.batch_size = 1;
    return c;
}

SessionConfig
SessionConfig::rc(uint64_t id, uint64_t cache_bytes)
{
    SessionConfig c = r(id);
    c.use_cache = true;
    c.cache_bytes = cache_bytes;
    return c;
}

SessionConfig
SessionConfig::rcb(uint64_t id, uint64_t cache_bytes, uint32_t batch)
{
    SessionConfig c = rc(id, cache_bytes);
    c.batch_size = batch;
    return c;
}

SessionConfig
SessionConfig::symmetricBase(uint64_t id, bool batched)
{
    SessionConfig c;
    c.session_id = id;
    c.symmetric = true;
    c.use_cache = false; // data is already local
    c.batch_size = batched ? 1024 : 1;
    return c;
}

// ---------------------------------------------------------------------
// Construction / connection
// ---------------------------------------------------------------------

FrontendSession::FrontendSession(const SessionConfig &cfg,
                                 const LatencyModel &lat)
    : cfg_(cfg), lat_(lat), verbs_(&clock_, &lat_)
{
    verbs_.setQpId(cfg_.session_id);
    cache_ = std::make_unique<PageCache>(cfg_.cache_policy,
                                         cfg_.cache_bytes, &clock_, &lat_,
                                         cfg_.cache_sample_k,
                                         cfg_.rng_seed);
    if (cfg_.symmetric) {
        // The symmetric primary ships its logs to a remote mirror over
        // the same verbs endpoint (postWrite chain + doorbell) the
        // asymmetric group commit uses, so both baselines pay identical
        // wire mechanics per shipped byte.
        sym_replica_ = std::make_unique<NvmDevice>(kSymLogRingSize);
        sym_nic_ = std::make_unique<NicModel>(lat_.nic_verb_service_ns);
        RdmaTarget t;
        t.nvm = sym_replica_.get();
        t.nic = sym_nic_.get();
        verbs_.attach(kSymReplicaId, t);
    }
}

FrontendSession::~FrontendSession() = default;

Status
FrontendSession::connect(BackendNode *backend)
{
    BackendCtx c;
    c.node = backend;
    const Status st = backend->registerFrontend(cfg_.session_id, &c.slot);
    if (!ok(st))
        return st;
    verbs_.attach(backend->id(), backend->rdmaTarget());
    c.rpc = std::make_unique<RfpRpc>(&verbs_, backend, c.slot);

    auto it = backends_.emplace(backend->id(), std::move(c)).first;
    BackendCtx &ctx = it->second;
    ctx.alloc = std::make_unique<FrontendAllocator>(
        backend->id(), backend->config().block_size,
        [this, id = backend->id()](RpcOp op, std::span<const uint64_t> a,
                                   std::span<const uint8_t> p,
                                   uint64_t r[4]) {
            return rpcCall(backends_.at(id), op, a, p, r);
        },
        /*reclaim_threshold=*/32, cfg_.alloc_hysteresis_cycles);

    // Fetch the persisted log positions (one-sided read of the control
    // block), which restores the shadows after a reconnect.
    const LogControl ctl = backend->readControl(ctx.slot);
    if (!cfg_.symmetric)
        clock_.advance(lat_.rdma_read_rtt_ns +
                       lat_.wireBytes(sizeof(LogControl)));
    else
        clock_.advance(lat_.nvm_read_ns);
    ctx.lpn = ctl.lpn;
    ctx.opn = ctl.opn;
    ctx.memlog_head = ctl.memlog_head;
    ctx.oplog_head = ctl.oplog_head;
    return Status::Ok;
}

void
FrontendSession::disconnect(BackendNode *backend)
{
    auto it = backends_.find(backend->id());
    if (it == backends_.end())
        return;
    backend->unregisterFrontend(it->second.slot);
    verbs_.detach(backend->id());
    backends_.erase(it);
}

FrontendSession::BackendCtx *
FrontendSession::ctx(NodeId id)
{
    auto it = backends_.find(id);
    return it == backends_.end() ? nullptr : &it->second;
}

const FrontendSession::BackendCtx *
FrontendSession::ctx(NodeId id) const
{
    auto it = backends_.find(id);
    return it == backends_.end() ? nullptr : &it->second;
}

Status
FrontendSession::rpcCall(BackendCtx &c, RpcOp op,
                         std::span<const uint64_t> args,
                         std::span<const uint8_t> payload, uint64_t rets[4])
{
    if (cfg_.symmetric) {
        // Local back-end: a function call, not a network round trip.
        clock_.advance(lat_.cpu_op_overhead_ns + lat_.persist_fence_ns);
        return c.node->serveRpc(op, args, payload, rets, clock_.now());
    }
    // The RPC channel is exactly-once under transient faults (seq-based
    // dedup), and a failover rebuilds c.rpc against the replacement, so
    // the re-run goes through the fresh channel.
    const NodeId id = c.node->id();
    return guarded(id, [&] { return c.rpc->call(op, args, payload, rets); });
}

// ---------------------------------------------------------------------
// Read path (gather): overlay -> pin -> cache -> remote
// ---------------------------------------------------------------------

bool
FrontendSession::overlayLookup(RemotePtr addr, void *dst,
                               uint32_t len) const
{
    auto it = vol_.view.overlay.find(addr.raw());
    if (it == vol_.view.overlay.end() || it->second.size() != len)
        return false;
    std::memcpy(dst, it->second.data(), len);
    return true;
}

void
FrontendSession::overlayInsert(RemotePtr addr, const void *value,
                               uint32_t len)
{
    auto &slot = vol_.view.overlay[addr.raw()];
    slot.assign(static_cast<const uint8_t *>(value),
                static_cast<const uint8_t *>(value) + len);
}

Status
FrontendSession::symmetricRead(RemotePtr addr, void *dst, uint32_t len)
{
    BackendCtx *c = ctx(addr.backend);
    if (c == nullptr)
        return Status::Unavailable;
    c->node->nvm().read(addr.offset, dst, len);
    clock_.advance(lat_.nvm_read_ns);
    return Status::Ok;
}

Status
FrontendSession::read(RemotePtr addr, void *dst, uint32_t len,
                      const ReadHint &hint)
{
    // Reads are idempotent, so the whole lookup path (overlay, pins,
    // cache, remote) can transparently re-run after a failover heals the
    // back-end under it.
    const uint64_t t0 = clock_.now();
    last_read_remote_ = false;
    const Status st = guarded(
        addr.backend, [&] { return readInner(addr, dst, len, hint); });
    (last_read_remote_ ? ctr_.hist_read_remote : ctr_.hist_read_local)
        .record(clock_.now() - t0);
    return st;
}

Status
FrontendSession::readInner(RemotePtr addr, void *dst, uint32_t len,
                           const ReadHint &hint)
{
    ReadAwaitable rd{this, addr, dst, len, hint};
    if (readLocal(rd))
        return rd.result;
    // Remote NVM, gathering speculative neighbor reads in the same
    // doorbell when the hint carries any (read-side doorbell batching):
    // a flight of one read that lands at once.
    last_read_remote_ = true;
    Flight &f = serial_flight_;
    f.reads.assign(1, &rd);
    f.posted.assign(1, &rd);
    f.copies.clear();
    sendFlight(f, /*posted=*/false);
    landFlight(f);
    return rd.result;
}

bool
FrontendSession::readLocal(ReadAwaitable &rd)
{
    rd.served_seq = vol_.pipe_write_seq; // service happens now (or at park)
    if (vol_.tracking)
        vol_.tracked_reads.push_back(rd.addr);
    if (overlayOrPinHit(rd))
        return true;
    if (cfg_.symmetric) {
        rd.result = symmetricRead(rd.addr, rd.dst, rd.len);
        return true;
    }
    rd.cacheable = cfg_.use_cache && rd.hint.cacheable;
    // A structure whose speculation does not pay trains no runs either.
    if (cfg_.read_prefetch && rd.cacheable && rd.hint.stream != 0 &&
        cache_->speculationPays(rd.hint.ds))
        prefetch_.onAccess(rd.hint.ds, rd.hint.stream, rd.addr.raw(),
                           rd.len);
    rd.admitted = rd.hint.admission == nullptr ||
                  rd.hint.admission->admit(rd.hint.level);
    return cacheHit(rd);
}

bool
FrontendSession::overlayOrPinHit(ReadAwaitable &rd)
{
    // Read-your-writes: buffered memory logs shadow remote state.
    if (!vol_.view.overlay.empty() && overlayLookup(rd.addr, rd.dst, rd.len)) {
        clock_.advance(lat_.dram_access_ns);
        rd.result = Status::Ok;
        return true;
    }
    // Batch-local pins (vector operations reread shared path nodes).
    if (rd.hint.pin && !vol_.view.pinned.empty()) {
        auto it = vol_.view.pinned.find(rd.addr.raw());
        if (it != vol_.view.pinned.end() && it->second.size() == rd.len) {
            std::memcpy(rd.dst, it->second.data(), rd.len);
            clock_.advance(lat_.dram_access_ns);
            rd.result = Status::Ok;
            return true;
        }
    }
    return false;
}

bool
FrontendSession::cacheHit(ReadAwaitable &rd)
{
    if (!rd.cacheable || !cache_->lookup(rd.addr, rd.dst, rd.len))
        return false;
    if (rd.hint.admission != nullptr && rd.admitted)
        rd.hint.admission->record(true);
    rd.result = Status::Ok;
    return true;
}

void
FrontendSession::fillAfterMiss(ReadAwaitable &rd, bool install)
{
    if (rd.cacheable && rd.admitted) {
        // Only admitted levels feed the miss-ratio window; reads the
        // threshold excludes by design must not drag N further down.
        if (rd.hint.admission != nullptr)
            rd.hint.admission->record(false);
        if (install)
            cache_->insert(rd.hint.ds, rd.addr, rd.dst, rd.len);
    }
    if (rd.hint.pin && install) {
        auto &slot = vol_.view.pinned[rd.addr.raw()];
        slot.assign(static_cast<uint8_t *>(rd.dst),
                    static_cast<uint8_t *>(rd.dst) + rd.len);
    }
}

void
FrontendSession::sendFlight(Flight &f, bool posted)
{
    // Speculative neighbors per miss (ReadHint::neighbors and learned
    // pointer-chain runs), kept only when worth the wire bytes: dedupe,
    // drop demanded addresses (a batch of misses is its own best
    // prefetch), other back-ends, and anything already resident (overlay
    // or cache); at most kPrefetchDegree per miss. A miss whose
    // structure fails the speculation gate (its speculative entries are
    // mostly wasted) posts its demanded read alone, as with
    // read_prefetch off; a probe now and then keeps the gate honest.
    f.specs.clear();
    for (ReadAwaitable *aw : f.posted) {
        const ReadHint &hint = aw->hint;
        if (!cfg_.read_prefetch || !cfg_.use_cache || !hint.cacheable ||
            (hint.neighbors.empty() && hint.stream == 0))
            continue;
        if (!cache_->admitSpeculation(hint.ds)) {
            ++ctr_.prefetch.gated;
            continue;
        }
        prefetch_scratch_.assign(hint.neighbors.begin(),
                                 hint.neighbors.end());
        prefetch_.collect(hint.ds, hint.stream, aw->addr.raw(),
                          &prefetch_scratch_);
        uint32_t kept = 0;
        for (const PrefetchCandidate &c : prefetch_scratch_) {
            if (kept >= kPrefetchDegree)
                break;
            if (c.addr_raw == 0 || c.len == 0)
                continue;
            const RemotePtr p = RemotePtr::fromRaw(c.addr_raw);
            if (p.isNull() || p.backend != aw->addr.backend)
                continue;
            bool dup = false;
            for (const ReadAwaitable *d : f.posted)
                if (d->addr.raw() == c.addr_raw) {
                    dup = true;
                    break;
                }
            for (size_t j = 0; !dup && j < f.specs.size(); ++j)
                if (f.specs[j].addr_raw == c.addr_raw)
                    dup = true;
            const auto &overlay = vol_.view.overlay;
            if (dup || (!overlay.empty() && overlay.count(c.addr_raw) != 0))
                continue;
            if (cache_->contains(p, c.len))
                continue;
            f.specs.push_back({c.addr_raw, c.len, hint.ds});
            ++kept;
        }
    }

    // Snapshots BEFORE the gather: an invalidateDs or a window write
    // landing while the chain is on the wire outranks the fetched bytes
    // (landFlight installs none of them).
    f.issue_epoch = cache_->epochNow();
    f.launch_seq = vol_.pipe_write_seq;
    size_t nposted = 0;
    for (ReadAwaitable *aw : f.posted) {
        const Status pst = verbs_.postRead(aw->addr, aw->dst, aw->len);
        if (ok(pst))
            f.posted[nposted++] = aw;
        else
            aw->result = pst;
    }
    f.posted.resize(nposted);
    if (f.bufs.size() < f.specs.size())
        f.bufs.resize(f.specs.size());
    size_t nspec = 0;
    for (const GatherSpec &sp : f.specs) {
        f.bufs[nspec].resize(sp.len);
        if (ok(verbs_.postRead(RemotePtr::fromRaw(sp.addr_raw),
                               f.bufs[nspec].data(), sp.len)))
            f.specs[nspec++] = sp;
    }
    f.specs.resize(nspec);
    planRoom(f);
    verbs_.tagGatherOps(f.posted.size());
    Status st = verbs_.readGather(&f.done_at, posted);
    if (st == Status::InvalidArgument && !f.specs.empty()) {
        // A learned candidate fell outside the target (stale prediction
        // over reclaimed NVM): forget those predictions and re-run the
        // gather with the demanded reads alone.
        for (const GatherSpec &sp : f.specs)
            prefetch_.invalidateDs(sp.ds);
        f.specs.clear();
        for (ReadAwaitable *aw : f.posted)
            verbs_.postRead(aw->addr, aw->dst, aw->len);
        planRoom(f);
        verbs_.tagGatherOps(f.posted.size());
        st = verbs_.readGather(&f.done_at, posted);
    }
    if (!ok(st)) {
        // The all-or-nothing chain failed on the demanded set itself
        // (torn pointer out of bounds, back-end crash). With several
        // demanded reads on it, serve each alone so only the broken op
        // fails — exactly the status its serial traversal would see.
        clock_.advanceTo(f.done_at); // chains to other targets delivered
        const bool one_by_one = f.posted.size() > 1;
        for (ReadAwaitable *aw : f.posted)
            aw->result =
                one_by_one ? verbs_.read(aw->addr, aw->dst, aw->len) : st;
        f.specs.clear();
        f.room = 0;
        f.done_at = clock_.now();
        return;
    }
    // Room for the fills needs none of the fetched bytes, so the cache
    // makes it while the gather is on the wire; the fills then evict
    // nothing themselves.
    for (uint64_t bytes : f.room_steps)
        cache_->makeRoom(bytes);
    flight_room_ += f.room;
    for (ReadAwaitable *aw : f.posted)
        aw->result = Status::Ok;
}

void
FrontendSession::planRoom(Flight &f)
{
    f.room_steps.clear();
    uint64_t bytes = 0;
    const auto step = [&](uint32_t len) {
        if (len <= cache_->capacity()) // insert skips larger objects
            f.room_steps.push_back(flight_room_ + (bytes += len));
    };
    for (const ReadAwaitable *aw : f.posted)
        if (aw->cacheable && aw->admitted &&
            !cache_->contains(aw->addr, aw->len))
            step(aw->len);
    for (const GatherSpec &sp : f.specs)
        step(sp.len);
    f.room = bytes;
}

void
FrontendSession::landFlight(Flight &f)
{
    clock_.advanceTo(f.done_at);
    flight_room_ -= f.room;
    f.room = 0;
    // Fill guard: a window write stamped after the launch, or an
    // invalidation since, makes the fetched bytes stale; installed, they
    // would outlive the overlay that now hides them.
    const auto written = [&](uint64_t raw) {
        if (vol_.pipe_dirty.empty())
            return false;
        const auto it = vol_.pipe_dirty.find(raw);
        return it != vol_.pipe_dirty.end() && it->second > f.launch_seq;
    };
    if (!f.specs.empty()) {
        ++ctr_.prefetch.batches;
        ctr_.prefetch.issued += f.specs.size();
    }
    for (size_t i = 0; i < f.specs.size(); ++i) {
        const GatherSpec &sp = f.specs[i];
        if (written(sp.addr_raw))
            continue;
        const RemotePtr p = RemotePtr::fromRaw(sp.addr_raw);
        cache_->insertSpeculative(sp.ds, p, f.bufs[i].data(), sp.len,
                                  f.issue_epoch);
        // Speculative bytes are subject to the same seqlock-conflict
        // invalidation as the demanded reads.
        if (vol_.tracking)
            vol_.tracked_reads.push_back(p);
    }
    for (auto &[dup, prim] : f.copies) {
        dup->result = prim->result;
        if (ok(prim->result)) {
            std::memcpy(dup->dst, prim->dst, dup->len);
            clock_.advance(lat_.dram_access_ns);
        }
    }
    // Post-miss bookkeeping each op's serial path would have done
    // (admission window, cache fill, batch-local pin).
    for (ReadAwaitable *aw : f.reads)
        if (ok(aw->result))
            fillAfterMiss(*aw,
                          !written(aw->addr.raw()) &&
                              !cache_->invalidatedSince(aw->hint.ds,
                                                        f.issue_epoch));
}

// ---------------------------------------------------------------------
// Pipelined operations: coroutine reactor over the read-gather verbs
// ---------------------------------------------------------------------

bool
FrontendSession::ReadAwaitable::await_ready()
{
    if (s == nullptr)
        return true; // completed()
    if (!s->suspendable()) {
        // No reactor owns the session (depth 1, or an op run inline):
        // take the serial read path — same verbs, same clock charges,
        // same histograms, and the transparent-failover re-run.
        result = s->read(addr, dst, len, hint);
        served_seq = s->vol_.pipe_write_seq; // 0 outside a window
        return true;
    }
    const uint64_t t0 = s->clock_.now();
    if (s->readLocal(*this)) {
        s->ctr_.hist_read_local.record(s->clock_.now() - t0);
        return true;
    }
    return false; // remote miss: park with the reactor and suspend
}

void
FrontendSession::ReadAwaitable::await_suspend(std::coroutine_handle<>)
{
    // The awaitable lives in the coroutine frame, which stays alive
    // until the reactor resumes the op past this co_await — so parking
    // a raw pointer is safe.
    s->vol_.pending_reads.push_back(this);
}

bool
FrontendSession::pipelineRecheckLocal(ReadAwaitable &aw)
{
    const uint64_t t0 = clock_.now();
    if (!overlayOrPinHit(aw) && !cacheHit(aw))
        return false;
    ctr_.hist_read_local.record(clock_.now() - t0);
    return true;
}

void
FrontendSession::pipelineRefreshIfStale(ReadAwaitable &aw)
{
    if (!ok(aw.result))
        return;
    const auto it = vol_.pipe_dirty.find(aw.addr.raw());
    if (it == vol_.pipe_dirty.end() || it->second <= aw.served_seq)
        return;
    if (pipelineRecheckLocal(aw))
        aw.served_seq = vol_.pipe_write_seq;
}

void
FrontendSession::launchFlight(Flight &f, bool posted)
{
    f.local.clear();
    f.posted.clear();
    f.copies.clear();
    // A sibling op's window write may have landed at a parked read's
    // address after it suspended: such reads re-run the local tiers
    // (overlay now holds the fresh bytes — read-your-writes) instead of
    // fetching a stale remote image. Reads at clean addresses skip the
    // recheck entirely, so write-free (read-only) flights are untouched.
    size_t n = 0;
    for (ReadAwaitable *aw : f.reads) {
        aw->served_seq = vol_.pipe_write_seq; // service time is now
        if (vol_.pipe_dirty.count(aw->addr.raw()) != 0 &&
            pipelineRecheckLocal(*aw))
            f.local.push_back(aw);
        else
            f.reads[n++] = aw;
    }
    f.reads.resize(n);
    f.launched_at = clock_.now();
    f.done_at = f.launched_at;
    f.specs.clear();
    f.room = 0;
    if (f.reads.empty())
        return; // everything was served locally: nothing on the wire
    ++ctr_.pipeline.rounds;
    if (f.reads.size() <= 1)
        ++ctr_.pipeline.solo_rounds; // nothing to overlap with: a stall
    ctr_.pipeline.batched_reads += f.reads.size();

    // Dedupe demanded addresses across ops: the first op fetches, the
    // rest copy its bytes (two lookups of one hot node share the wire).
    for (ReadAwaitable *aw : f.reads) {
        ReadAwaitable *prim = nullptr;
        for (ReadAwaitable *p : f.posted) {
            if (p->addr.raw() == aw->addr.raw() && p->len == aw->len) {
                prim = p;
                break;
            }
        }
        if (prim != nullptr)
            f.copies.emplace_back(aw, prim);
        else
            f.posted.push_back(aw);
    }
    sendFlight(f, posted);
}

void
FrontendSession::executePipelined(std::span<OpTask> ops,
                                  std::span<Status> results)
{
    assert(results.size() >= ops.size());
    // Land @p f and account its reads' remote latency.
    const auto land = [this](Flight &f) {
        landFlight(f);
        const uint64_t lat = clock_.now() - f.launched_at;
        for (ReadAwaitable *aw : f.reads)
            if (ok(aw->result))
                ctr_.hist_read_remote.record(lat);
    };
    // Windows never nest: only the *Many entry points open one, and no
    // op calls them.
    assert(!pipeline_active_);
    const uint32_t depth = std::max<uint32_t>(1, cfg_.pipeline_depth);
    if (depth <= 1 || ops.size() <= 1) {
        // Serial baseline: with no reactor active, asyncRead never
        // suspends, so one resume() drives each op to completion through
        // the unchanged read/commit paths.
        for (size_t i = 0; i < ops.size(); ++i) {
            ops[i].resume();
            assert(ops[i].done());
            results[i] = ops[i].status();
        }
        return;
    }
    pipeline_active_ = true;
    ++ctr_.pipeline.runs;
    // Double buffering (DESIGN.md §11, "Flights"): parked reads launch
    // as one flight once half the window has parked or nothing else can
    // run, at most two flights are on the wire, and while one is, the
    // reactor resumes every op that is not waiting on it.
    std::array<Flight, 2> flights;
    std::array<bool, 2> busy{};
    std::deque<size_t> ready;    // ops to resume, in order
    std::vector<size_t> yielded; // ops waiting for a sibling's gate
    const size_t half = std::max<uint32_t>(1, depth / 2);
    size_t next = 0;
    size_t in_window = 0;
    const auto admit = [&] {
        for (; in_window < depth && next < ops.size(); ++in_window)
            ready.push_back(next++);
        ctr_.pipeline.max_in_flight =
            std::max<uint64_t>(ctr_.pipeline.max_in_flight, in_window);
    };
    const auto launch = [&] {
        const size_t k = busy[0] ? 1 : 0;
        Flight &f = flights[k];
        f.reads.assign(vol_.pending_reads.begin(), vol_.pending_reads.end());
        vol_.pending_reads.clear();
        // Posting CPU shows when anything runs under this flight's wait.
        launchFlight(f, !ready.empty() || busy[1 - k]);
        for (ReadAwaitable *aw : f.local)
            ready.push_back(aw->waiter);
        busy[k] = !f.reads.empty();
    };
    admit();
    for (;;) {
        while (!ready.empty()) {
            const size_t i = ready.front();
            ready.pop_front();
            const size_t parked = vol_.pending_reads.size();
            ops[i].resume();
            if (ops[i].done()) {
                results[i] = ops[i].status();
                ++ctr_.pipeline.ops;
                --in_window;
                // Its gates went with it: every yielded op re-polls.
                ready.insert(ready.end(), yielded.begin(), yielded.end());
                yielded.clear();
                admit();
            } else if (vol_.pending_reads.size() > parked) {
                vol_.pending_reads.back()->waiter = i;
                if (vol_.pending_reads.size() >= half &&
                    !(busy[0] && busy[1]))
                    launch();
            } else {
                yielded.push_back(i);
            }
        }
        // Nothing else can run: launch what has parked, else wait for
        // the flight that completes first.
        if (!vol_.pending_reads.empty() && !(busy[0] && busy[1])) {
            launch();
            continue;
        }
        if (busy[0] || busy[1]) {
            size_t k = busy[0] ? 0 : 1;
            if (busy[0] && busy[1] &&
                std::pair(flights[1].done_at, flights[1].launched_at) <
                    std::pair(flights[0].done_at, flights[0].launched_at))
                k = 1;
            land(flights[k]);
            busy[k] = false;
            for (ReadAwaitable *aw : flights[k].reads)
                ready.push_back(aw->waiter);
            continue;
        }
        // Nothing is yielded here: a yielded op waits on a gate held by
        // an unfinished sibling, a gate holder never yields (ops yield
        // only before taking their gate, or as readers holding none), so
        // the holder is ready, parked or in a flight — all handled above
        // — and its completion re-polls every yielded op.
        assert(yielded.empty());
        break;
    }
    assert(flight_room_ == 0);
    pipeline_active_ = false;
    // Window-scoped conflict state dies with the window: gates were
    // released at each op's co_return (these clears are insurance for
    // ops destroyed mid-flight), and the dirty map only orders reads
    // against writes *within* one window.
    vol_.pipe_gates.clear();
    vol_.pipe_dirty.clear();
    vol_.pipe_write_seq = 0;
    if (vol_.pipeline_commit_deferred) {
        // In-flight ops' batch boundaries were coalesced: one group
        // commit fences every posted op-log/memlog chain at window
        // drain (composing with — not fighting — doorbell batching).
        vol_.pipeline_commit_deferred = false;
        ++ctr_.pipeline.deferred_commits;
        (void)flushAll();
    }
}

// ---------------------------------------------------------------------
// Write-pipelining window primitives (gates, op-ref capture)
// ---------------------------------------------------------------------

Status
FrontendSession::runInline(OpTask op)
{
    ++inline_ops_;
    op.resume(); // nothing can suspend, so this runs to co_return
    --inline_ops_;
    assert(op.done());
    return op.status();
}

bool
FrontendSession::WindowGate::tryAcquire()
{
    if (ticket_ != 0)
        return true; // already holding the key
    if (!s_->suspendable())
        return true; // serial: no sibling ops can exist
    auto it = s_->vol_.pipe_gates.find(key_);
    if (it == s_->vol_.pipe_gates.end()) {
        ticket_ = ++s_->pipe_ticket_;
        s_->vol_.pipe_gates.emplace(key_, ticket_);
        return true;
    }
    if (!stalled_) {
        // One dependency stall per wait episode, however many service
        // rounds the waiter sleeps through.
        stalled_ = true;
        ++s_->ctr_.pipeline.dep_stalls;
    }
    return false;
}

void
FrontendSession::WindowGate::release()
{
    if (ticket_ == 0)
        return;
    auto it = s_->vol_.pipe_gates.find(key_);
    if (it != s_->vol_.pipe_gates.end() && it->second == ticket_)
        s_->vol_.pipe_gates.erase(it);
    ticket_ = 0;
    stalled_ = false;
}

FrontendSession::OpRef
FrontendSession::currentOpRef(NodeId backend) const
{
    const BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return OpRef{};
    return OpRef{c->last_oplog_pos, c->last_oplog_len};
}

void
FrontendSession::restoreOpRef(NodeId backend, const OpRef &ref)
{
    BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return;
    // Serially this is a no-op (nothing ran since opBegin); inside a
    // window it re-points op-ref encoding at THIS op's record after
    // sibling opBegins moved the shadows during the suspendable phase.
    c->last_oplog_pos = ref.pos;
    c->last_oplog_len = ref.len;
}

// ---------------------------------------------------------------------
// Write path (apply): op log -> memory logs -> group commit
// ---------------------------------------------------------------------

Status
FrontendSession::symmetricWrite(RemotePtr addr, const void *value,
                                uint32_t len)
{
    BackendCtx *c = ctx(addr.backend);
    if (c == nullptr)
        return Status::Unavailable;
    c->node->nvm().write(addr.offset, value, len);
    c->node->nvm().persist();
    // Local persistence is paid per cache line: every 64B of a node
    // must be written back (clwb) to the DIMM individually.
    clock_.advance(lat_.nvm_write_ns * ((len + 63) / 64));
    // Ship the log record for this write to the remote mirror through
    // the same posted-WQE chain the asymmetric commit uses: consecutive
    // ring positions merge into one wire write, and the doorbell (plus
    // remote persist fence) is paid at the shipping point — per op
    // without batching, per group with Symmetric-B (see opEnd/flushAll).
    const uint64_t pos = sym_log_head_ % kSymLogRingSize;
    const uint64_t room = kSymLogRingSize - pos;
    const RemotePtr dst(kSymReplicaId, len <= room ? pos : 0);
    verbs_.postWrite(dst, value, len);
    sym_log_head_ = (len <= room ? sym_log_head_ : sym_log_head_ + room) +
                    len;
    return Status::Ok;
}

Status
FrontendSession::logWrite(DsId ds, RemotePtr addr, const void *value,
                          uint32_t len)
{
    return logWriteInternal(ds, addr, value, len, /*op_ref=*/false, 0);
}

Status
FrontendSession::logWriteFromOp(DsId ds, RemotePtr addr,
                                const void *value, uint32_t len,
                                uint32_t val_off)
{
    BackendCtx *c = ctx(addr.backend);
    const bool can_ref = cfg_.use_opref && cfg_.use_oplog &&
                         cfg_.use_txlog && !cfg_.symmetric &&
                         c != nullptr &&
                         val_off + len <= c->last_oplog_len;
    return logWriteInternal(ds, addr, value, len, can_ref, val_off);
}

Status
FrontendSession::logWriteInternal(DsId ds, RemotePtr addr,
                                  const void *value, uint32_t len,
                                  bool op_ref, uint32_t val_off)
{
    if (pipeline_active_) {
        // Window write: stamp the address so sibling descents that read
        // it earlier fail read-set validation (and parked reads re-check
        // the local tiers instead of fetching a stale remote image).
        // Bookkeeping only — no clock charge, no wire traffic.
        vol_.pipe_dirty[addr.raw()] = ++vol_.pipe_write_seq;
    }
    if (cfg_.symmetric)
        return symmetricWrite(addr, value, len);
    if (!cfg_.use_txlog) {
        // Naive: a synchronous RDMA_Write per modification (idempotent
        // payload, so a healed back-end can transparently take a rerun).
        return guarded(addr.backend,
                       [&] { return verbs_.write(addr, value, len); });
    }
    BackendCtx *c = ctx(addr.backend);
    if (c == nullptr)
        return Status::Unavailable;

    overlayInsert(addr, value, len);
    if (cfg_.use_cache) {
        // Write-allocate: the first write to the object alloc() just
        // handed out consumes the record, and if it covers the whole
        // object the cache may install it. Any other write patches a
        // cached copy, if there is one.
        bool whole_fresh = false;
        if (addr.raw() == vol_.view.fresh.raw) {
            whole_fresh = len == vol_.view.fresh.size;
            vol_.view.fresh = {};
        }
        if (!whole_fresh || !cache_->insertFresh(ds, addr, value, len))
            cache_->update(addr, value, len);
    }
    clock_.advance(lat_.dram_access_ns); // build the log entry in DRAM

    auto &group = c->batch.groups[ds];
    const uint64_t raw = addr.raw();
    auto idx = cfg_.coalesce_memlogs ? group.index.find(raw)
                                     : group.index.end();
    if (idx != group.index.end() && group.logs[idx->second].len == len) {
        // Coalesce: a later write to the same address supersedes the
        // earlier memory log ("compacted to one NVM write", Section 8.3).
        // Same length, so the value overwrites its arena slot in place.
        BackendCtx::GroupEntry &e = group.logs[idx->second];
        const uint64_t old_cost = e.op_ref ? 16 : e.len;
        std::memcpy(group.arena.data() + e.arena_off, value, len);
        e.op_ref = op_ref;
        e.oplog_pos = c->last_oplog_pos;
        e.val_off = val_off;
        // Coalescing can flip the entry between op-ref (16 B on the wire)
        // and inline (len B); track it or the spill threshold drifts.
        group.bytes = group.bytes - old_cost + (op_ref ? 16 : len);
    } else {
        group.index[raw] = group.logs.size();
        BackendCtx::GroupEntry e;
        e.addr = addr;
        e.arena_off = static_cast<uint32_t>(group.arena.size());
        e.len = len;
        e.op_ref = op_ref;
        e.oplog_pos = c->last_oplog_pos;
        e.val_off = val_off;
        group.arena.insert(group.arena.end(),
                           static_cast<const uint8_t *>(value),
                           static_cast<const uint8_t *>(value) + len);
        group.logs.push_back(e);
        group.bytes += (op_ref ? 16 : len) + sizeof(MemLogEntryHeader);
    }
    if (group.bytes >= cfg_.memlog_buffer_cap) {
        // Buffer full: spill the memory logs (not a commit point).
        return flushGroup(*c, ds, false);
    }
    return Status::Ok;
}

Status
FrontendSession::opBegin(DsId ds, NodeId backend, OpType op, Key key,
                         const void *value, uint32_t val_len)
{
    ++ctr_.ops_started;
    vol_.in_op = false; // a previous op may have aborted without opEnd
    clock_.advance(lat_.cpu_op_overhead_ns);
    if (cfg_.symmetric || !cfg_.use_oplog) {
        vol_.in_op = true;
        return Status::Ok;
    }
    // Re-resolve the context on every attempt: a failover in between
    // refreshes the log-position shadows (and the OPN) from the
    // replacement's control block. A first attempt that died mid-write
    // left at most a torn record, which recovery's decode skips.
    const Status st = guarded(backend, [&]() -> Status {
        BackendCtx *c = ctx(backend);
        if (c == nullptr)
            return Status::Unavailable;
        const auto rec = encodeOpLog(op, ds, c->opn, key, value, val_len);
        // Per-op persistence (batch == 1) makes the op log the write's
        // durability point: one synchronous RDMA_Write (Section 4.3).
        // Inside a batch — or inside an active pipeline window, whose
        // drain flush is the fence — op logs are posted and ride the
        // doorbell chain.
        const bool sync = cfg_.batch_size <= 1 && !pipeline_active_;
        const Status ast = appendOpLogRecord(*c, rec, sync);
        if (!ok(ast))
            return ast;
        if (!sync && pipeline_active_) {
            vol_.pipeline_posted_ops = true;
            ++ctr_.pipeline.batched_appends; // rode the WQE chain, not a fence
        }
        ctr_.logfmt.op_records += 1;
        ctr_.logfmt.op_wire_bytes += rec.size();
        ctr_.logfmt.op_payload_bytes += val_len;
        c->last_oplog_len = val_len;
        c->opn += 1;
        return Status::Ok;
    });
    if (ok(st))
        vol_.in_op = true;
    return st;
}

Status
FrontendSession::appendOpLogRecord(BackendCtx &c,
                                   const std::vector<uint8_t> &rec,
                                   bool sync)
{
    const Layout &lay = c.node->layout();
    const uint64_t ring = lay.super.oplog_ring_size;
    const uint64_t base = lay.oplogRingOff(c.slot);
    const uint64_t pos = ringReserve(&c.oplog_head, ring, base,
                                     c.node->id(), rec.size(), sync);
    c.last_oplog_pos = pos;
    const RemotePtr dst(c.node->id(), base + pos % ring);
    // Batched appends join the doorbell chain, where consecutive ring
    // positions merge into one RDMA_Write; the group commit's synchronous
    // transaction write is the fence that launches and covers them.
    const Status st = sync ? verbs_.write(dst, rec.data(), rec.size())
                           : verbs_.postWrite(dst, rec.data(), rec.size());
    if (!ok(st))
        return st;
    return c.node->onOpLogAppended(c.slot, pos,
                                   static_cast<uint32_t>(rec.size()),
                                   clock_.now(), /*fenced=*/sync);
}

uint64_t
FrontendSession::ringReserve(uint64_t *head, uint64_t ring_size,
                             uint64_t ring_base, NodeId backend, size_t len,
                             bool sync)
{
    assert(len <= ring_size);
    const uint64_t off = *head % ring_size;
    if (off + len > ring_size) {
        // Pad the lap tail so recovery scans cannot misparse stale bytes:
        // a skip marker when one fits, zeroes for a sub-4-byte remainder.
        // The pad must reach NVM no later than the record written past it,
        // so it follows the caller's synchrony.
        const uint64_t tail = ring_size - off;
        const RemotePtr dst(backend, ring_base + off);
        if (tail >= sizeof(uint32_t)) {
            const uint32_t skip = kSkipMagic;
            if (sync)
                verbs_.write(dst, &skip, sizeof(skip));
            else
                verbs_.postWrite(dst, &skip, sizeof(skip));
        } else if (tail > 0) {
            const uint8_t zeros[4] = {0, 0, 0, 0};
            if (sync)
                verbs_.write(dst, zeros, tail);
            else
                verbs_.postWrite(dst, zeros, tail);
        }
        *head = (*head / ring_size + 1) * ring_size;
    }
    const uint64_t pos = *head;
    *head += len;
    return pos;
}

Status
FrontendSession::opEnd()
{
    vol_.in_op = false; // batch flush below happens at a safe boundary
    ++vol_.ops_in_batch;
    if (cfg_.symmetric) {
        if (cfg_.batch_size <= 1) {
            // Ship this op's logs now: launch the posted chain with one
            // doorbell and fence it at the replica (remote persist).
            const uint64_t t0 = clock_.now();
            verbs_.ringDoorbell();
            clock_.advance(lat_.persist_fence_ns);
            ctr_.hist_commit.record(clock_.now() - t0);
            endBatch();
            return Status::Ok;
        }
        if (vol_.ops_in_batch >= cfg_.batch_size)
            return flushAll();
        return Status::Ok;
    }
    if (vol_.ops_in_batch >= cfg_.batch_size) {
        if (pipeline_active_) {
            // Other in-flight ops are suspended mid-traversal: defer the
            // group commit to the window drain, where ONE flush fences
            // every pipelined op's posted chain together.
            vol_.pipeline_commit_deferred = true;
            ++ctr_.pipeline.coalesced_fences; // this op's fence moved to drain
            processLocalRetired();
            return Status::Ok;
        }
        return flushAll();
    }
    processLocalRetired();
    return Status::Ok;
}

void
FrontendSession::processLocalRetired()
{
    while (!vol_.local_retired.empty() &&
           vol_.local_retired.front().free_at_ns <= clock_.now()) {
        const auto item = vol_.local_retired.front();
        vol_.local_retired.pop_front();
        free(item.ptr, item.size);
    }
}

Status
FrontendSession::flushGroup(BackendCtx &c, DsId ds, bool sync_commit)
{
    auto git = c.batch.groups.find(ds);
    if (git == c.batch.groups.end() || git->second.logs.empty()) {
        c.batch.groups.erase(ds);
        return Status::Ok;
    }
    const uint64_t covered =
        git->second.covered_opn.value_or(c.opn);
    const uint64_t oplog_ring = c.node->layout().super.oplog_ring_size;
    TxBuilder builder;
    builder.reset(c.lpn, ds, covered);
    uint64_t payload_bytes = 0;
    for (const auto &e : git->second.logs) {
        payload_bytes += e.len;
        // An op-ref is only valid while the referenced record is still
        // in the ring (always true for sane batch/ring ratios).
        const bool ref_ok =
            e.op_ref && c.oplog_head - e.oplog_pos < oplog_ring;
        if (ref_ok) {
            builder.addOpRef(e.addr, e.oplog_pos, e.val_off, e.len);
        } else {
            builder.addInline(e.addr,
                              git->second.arena.data() + e.arena_off,
                              e.len);
        }
    }
    const auto tx = builder.finish();
    clock_.advance(lat_.cpu_op_overhead_ns); // serialize in DRAM

    const Layout &lay = c.node->layout();
    const uint64_t ring = lay.super.memlog_ring_size;
    const uint64_t base = lay.memlogRingOff(c.slot);
    const uint64_t pos = ringReserve(&c.memlog_head, ring, base,
                                     c.node->id(), tx.size(), sync_commit);
    const RemotePtr dst(c.node->id(), base + pos % ring);
    // Non-commit transaction writes ride the doorbell chain with the op
    // logs; the synchronous commit write drains the chain first (queue-
    // pair ordering), making it the whole batch's persistence point.
    const Status st =
        sync_commit ? verbs_.write(dst, tx.data(), tx.size())
                    : verbs_.postWrite(dst, tx.data(), tx.size());
    c.batch.groups.erase(git);
    if (!ok(st))
        return st;
    const Status bst = c.node->onTxAppended(
        c.slot, pos, static_cast<uint32_t>(tx.size()), clock_.now());
    if (!ok(bst))
        return bst;
    c.lpn += 1;
    ++ctr_.tx_flushes;
    ctr_.logfmt.tx_records += 1;
    ctr_.logfmt.tx_wire_bytes += tx.size();
    ctr_.logfmt.tx_payload_bytes += payload_bytes;
    return Status::Ok;
}

void
FrontendSession::setFlushHook(DsId ds, NodeId backend,
                              std::function<Status()> fn)
{
    vol_.flush_hooks[{backend, ds}] = std::move(fn);
}

void
FrontendSession::setPostFlushHook(DsId ds, NodeId backend,
                                  std::function<Status()> fn)
{
    vol_.post_flush_hooks[{backend, ds}] = std::move(fn);
}

void
FrontendSession::setGroupCoverage(DsId ds, NodeId backend,
                                  uint64_t covered_opn)
{
    BackendCtx *c = ctx(backend);
    if (c != nullptr)
        c->batch.groups[ds].covered_opn = covered_opn;
}

uint64_t
FrontendSession::currentOpn(NodeId backend) const
{
    const BackendCtx *c = ctx(backend);
    return c == nullptr ? 0 : c->opn;
}

Status
FrontendSession::flushAll()
{
    const Status st = flushAllInner();
    if (!needsFailover(st) || resolver_ == nullptr || in_failover_)
        return st;
    // The commit write died with the back-end. Heal — and that is all:
    // every op of the interrupted batch persisted (and replicated) its
    // operation log before being acked, so the replacement's recovery
    // re-executed and re-flushed the whole batch during failover.
    if (!ok(handleBackendFailure(last_failed_node_)))
        return st;
    return Status::Ok;
}

Status
FrontendSession::flushAllInner()
{
    if (in_flush_)
        return Status::Ok;
    in_flush_ = true;
    // Materialize deferred operations (stack/queue annulment survivors)
    // before serializing the batch's memory logs. A failed hook stops
    // the commit here: nothing is serialized, the batch stays buffered.
    for (auto &[key, fn] : vol_.flush_hooks) {
        const Status st = fn();
        if (!ok(st)) {
            in_flush_ = false;
            last_failed_node_ = key.first;
            return st;
        }
    }
    in_flush_ = false;
    if (cfg_.symmetric) {
        // Ship the accumulated log chain to the remote replica: one
        // doorbell launches every posted log write (Symmetric-B ships the
        // whole batch; per-op mode shipped at each opEnd) and one remote
        // persist fences it — the same wire mechanics as the asymmetric
        // group commit, so Table 3 compares like for like.
        const uint64_t t0 = clock_.now();
        verbs_.ringDoorbell();
        clock_.advance(lat_.persist_fence_ns);
        ctr_.hist_commit.record(clock_.now() - t0);
        endBatch();
        vol_.held_locks.clear();
        return Status::Ok;
    }
    const uint64_t commit_t0 = clock_.now();
    Status result = Status::Ok;
    // The final transaction write is the batch's commit point when op
    // logs were posted asynchronously inside the batch — including op
    // logs a pipelined window posted at nominal batch_size 1, whose
    // durability point moved here (the drain flush).
    const bool need_sync =
        cfg_.use_txlog && (cfg_.batch_size > 1 || !cfg_.use_oplog ||
                           vol_.pipeline_posted_ops);
    vol_.pipeline_posted_ops = false;
    // Collect the flush plan first so we know which write is last.
    // backends_ is an ordered map, so the plan is grouped by back-end.
    std::vector<std::pair<BackendCtx *, DsId>> plan;
    for (auto &[id, c] : backends_) {
        for (auto &[ds, group] : c.batch.groups) {
            if (!group.logs.empty())
                plan.emplace_back(&c, ds);
        }
    }
    size_t nbackends = 0;
    for (size_t i = 0; i < plan.size(); ++i) {
        if (i == 0 || plan[i].first != plan[i - 1].first)
            ++nbackends;
    }
    // A commit spanning several back-ends overlaps its round trips: every
    // group is posted (no per-back-end fence), all doorbells ring, and
    // ringDoorbellFanout awaits the slowest completion. The serial
    // baseline (parallel_fanout off) instead issues each back-end's
    // commit write synchronously — k fences back to back. A single-back-
    // end commit keeps the one-sync-write path untouched.
    const bool fanout =
        need_sync && nbackends > 1 && cfg_.parallel_fanout;
    for (size_t i = 0; i < plan.size(); ++i) {
        const bool last_of_backend =
            i + 1 == plan.size() || plan[i + 1].first != plan[i].first;
        bool sync;
        if (fanout)
            sync = false;
        else if (nbackends > 1)
            sync = need_sync && last_of_backend;
        else
            sync = need_sync && i + 1 == plan.size();
        const Status st = flushGroup(*plan[i].first, plan[i].second, sync);
        if (!ok(st)) {
            result = st;
            last_failed_node_ = plan[i].first->node->id();
        }
    }
    if (fanout && ok(result)) {
        const uint64_t t0 = clock_.now();
        verbs_.ringDoorbellFanout();
        ctr_.hist_fanout.record(clock_.now() - t0);
    }
    if (plan.empty() && need_sync && vol_.ops_in_batch > 0 && cfg_.use_oplog) {
        // Read-annulled batches (stack/queue) may commit with no memory
        // logs at all; the op logs still sit on the doorbell chain, so
        // launch it and fence it — overlapped across back-ends when the
        // chain spans more than one.
        if (cfg_.parallel_fanout && backends_.size() > 1) {
            verbs_.ringDoorbellFanout();
        } else {
            verbs_.ringDoorbell();
            clock_.advance(lat_.rdma_write_rtt_ns);
        }
    }

    // A failed commit must not publish roots, retire old versions, or
    // release locks: the batch is not durable, so recovery (not this
    // flush) decides its fate. Stale locks are released by the recovery
    // protocol's lock-ahead scan (Section 7).
    if (!ok(result)) {
        verbs_.dropPosted(); // the chain died with the back-end
        endBatch();
        return result;
    }

    // Publish multi-version roots now that the batch is durable. A
    // failed swap is reported, but the batch itself stands: retirements
    // still ship and the locks still release below.
    for (auto &[ds, fn] : vol_.post_flush_hooks) {
        const Status st = fn();
        if (ok(result))
            result = st;
    }

    // Ship deferred MV retirements and reclaim locally-due regions.
    for (auto &[id, c] : backends_) {
        auto &retired = c.batch.retired;
        if (!retired.empty()) {
            std::vector<uint8_t> payload(retired.size() * 16);
            for (size_t i = 0; i < retired.size(); ++i) {
                std::memcpy(payload.data() + i * 16, &retired[i].first, 8);
                std::memcpy(payload.data() + i * 16 + 8, &retired[i].second,
                            8);
            }
            uint64_t args[3] = {c.batch.retired_ds, retired.size(),
                                clock_.now()};
            rpcCall(c, RpcOp::Retire, args, payload, nullptr);
            // Hand the regions to the local delayed-free queue.
            for (const auto &[off, size] : retired)
                vol_.local_retired.push_back(
                    {RemotePtr(id, off), size,
                     clock_.now() + c.node->config().gc_delay_ns});
            retired.clear();
        }
    }
    processLocalRetired();
    endBatch();

    // Release writer locks only after the batch is durable. The three
    // release records are posted onto the doorbell chain *behind* the
    // commit write: the queue pair executes WQEs in order, so another
    // front-end can only observe the lock free after the batch's logs
    // are in NVM.
    auto locks = vol_.held_locks;
    vol_.held_locks.clear();
    for (const auto &[key, held] : locks) {
        if (!held)
            continue;
        const auto [backend, ds] = key;
        BackendCtx *c = ctx(backend);
        if (c == nullptr)
            continue;
        const uint64_t gen = ++vol_.writer_gen[key];
        verbs_.postWrite(namingField(ds, backend, naming_field::kAux0 +
                                                      3 * 8),
                         &gen, sizeof(gen));
        // Release the lock word BEFORE clearing the lock-ahead record: a
        // crash between the two leaves the lock-ahead set with the lock
        // already free, which recovery's releaseStaleLocks handles. The
        // reverse order would strand a held lock with no lock-ahead
        // record to find it by. Chain order preserves exactly this.
        const uint64_t zero = 0;
        verbs_.postWrite(namingField(ds, backend,
                                     naming_field::kWriterLock),
                         &zero, sizeof(zero));
        verbs_.postWrite(
            RemotePtr(backend, c->node->layout().logControlOff(c->slot) +
                                   offsetof(LogControl, lock_ahead)),
            &zero, sizeof(zero));
    }
    // One trailing doorbell launches whatever is still chained (lock
    // releases, posted transactions of non-final groups, aux updates).
    verbs_.ringDoorbell();
    if (!plan.empty())
        ctr_.hist_commit.record(clock_.now() - commit_t0);
    return result;
}

void
FrontendSession::endBatch()
{
    vol_.view.overlay.clear();
    vol_.view.pinned.clear();
    vol_.ops_in_batch = 0;
}

// ---------------------------------------------------------------------
// Allocation
// ---------------------------------------------------------------------

Status
FrontendSession::alloc(NodeId backend, uint64_t size, RemotePtr *out)
{
    BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return Status::Unavailable;
    clock_.advance(lat_.dram_access_ns); // free-list walk
    const Status st = c->alloc->alloc(size, out);
    if (ok(st))
        vol_.view.fresh = {out->raw(), size};
    return st;
}

Status
FrontendSession::free(RemotePtr p, uint64_t size)
{
    BackendCtx *c = ctx(p.backend);
    if (c == nullptr)
        return Status::Unavailable;
    if (pipeline_active_) {
        // A freed node's bytes may be reused within the window: poison
        // any sibling descent that read it before the free landed.
        vol_.pipe_dirty[p.raw()] = ++vol_.pipe_write_seq;
    }
    clock_.advance(lat_.dram_access_ns);
    if (p.raw() == vol_.view.fresh.raw)
        vol_.view.fresh = {};
    if (cfg_.use_cache)
        cache_->invalidate(p);
    return c->alloc->free(p, size);
}

void
FrontendSession::retire(DsId ds, RemotePtr p, uint64_t size)
{
    BackendCtx *c = ctx(p.backend);
    if (c == nullptr)
        return;
    c->batch.retired.emplace_back(p.offset, size);
    c->batch.retired_ds = ds;
}

// ---------------------------------------------------------------------
// Concurrency control
// ---------------------------------------------------------------------

RemotePtr
FrontendSession::namingField(DsId ds, NodeId backend, uint64_t field_off)
{
    BackendCtx *c = ctx(backend);
    assert(c != nullptr);
    return RemotePtr(backend, c->node->layout().namingEntryOff(ds) +
                                  field_off);
}

Status
FrontendSession::writerLock(DsId ds, NodeId backend, bool *moved)
{
    if (moved != nullptr)
        *moved = false;
    const auto key = std::make_pair(backend, ds);
    if (vol_.held_locks.count(key) != 0)
        return Status::Ok;
    BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return Status::Unavailable;
    if (cfg_.symmetric) {
        clock_.advance(lat_.dram_access_ns);
        vol_.held_locks[key] = true;
        return Status::Ok;
    }
    // Acquisition is re-runnable after a failover: the replacement's
    // recovery released any lock this session's previous target recorded
    // for it, so a fresh CAS starts over cleanly.
    return guarded(backend, [&]() -> Status {
        BackendCtx *gc = ctx(backend);
        if (gc == nullptr)
            return Status::Unavailable;
        const RemotePtr lock_ptr =
            namingField(ds, backend, naming_field::kWriterLock);
        const uint64_t self = static_cast<uint64_t>(gc->slot) + 1;
        while (true) {
            uint64_t old = 0;
            const Status st =
                verbs_.compareAndSwap(lock_ptr, 0, self, &old);
            if (!ok(st))
                return st;
            if (old == 0 || old == self)
                break;
            std::this_thread::yield(); // another writer holds the lock
        }
        // Lock-ahead record: lets recovery identify and release the lock
        // if we crash while holding it (Section 6.1). Posted before any
        // logs.
        const uint64_t ahead = static_cast<uint64_t>(ds) + 1;
        verbs_.writeAsync(
            RemotePtr(backend, gc->node->layout().logControlOff(gc->slot) +
                                   offsetof(LogControl, lock_ahead)),
            &ahead, sizeof(ahead));

        // Another writer may have modified the structure since we last
        // held the lock; a changed writer generation invalidates our
        // cache.
        uint64_t gen = 0;
        const Status gst = verbs_.read64(
            namingField(ds, backend, naming_field::kAux0 + 3 * 8), &gen);
        if (!ok(gst))
            return gst;
        auto git = vol_.writer_gen.find(key);
        if (git == vol_.writer_gen.end() || git->second != gen) {
            if (cfg_.use_cache)
                cache_->invalidateDs(ds);
            prefetch_.invalidateDs(ds); // learned runs may be stale too
            vol_.writer_gen[key] = gen;
            if (moved != nullptr)
                *moved = true;
        }
        vol_.held_locks[key] = true;
        return Status::Ok;
    });
}

Status
FrontendSession::writerUnlock(DsId ds, NodeId backend)
{
    const auto key = std::make_pair(backend, ds);
    if (vol_.held_locks.count(key) == 0)
        return Status::Ok;
    // The flush releases every held lock after the commit.
    return flushAll();
}

bool
FrontendSession::holdsWriterLock(DsId ds, NodeId backend) const
{
    return vol_.held_locks.count(std::make_pair(backend, ds)) != 0;
}

Status
FrontendSession::readerLock(DsId ds, NodeId backend, uint64_t *sn)
{
    const RemotePtr sn_ptr = namingField(ds, backend,
                                         naming_field::kSeqNum);
    if (cfg_.symmetric) {
        BackendCtx *c = ctx(backend);
        *sn = c->node->nvm().read64(sn_ptr.offset);
        clock_.advance(lat_.nvm_read_ns);
    } else {
        while (true) {
            const Status st = guarded(
                backend, [&] { return verbs_.read64(sn_ptr, sn); });
            if (!ok(st))
                return st;
            if ((*sn & 1) == 0)
                break;
            std::this_thread::yield(); // replay in progress
        }
    }
    // A moved SN means the structure changed since our last critical
    // section: every cached copy of it may be stale.
    const auto key = std::make_pair(backend, ds);
    auto it = vol_.sn_seen.find(key);
    if (it == vol_.sn_seen.end()) {
        // No baseline yet. A session that once held the writer lock
        // cached nodes under it, and a successor writer may have changed
        // them since the release, so an ex-writer starts cold.
        if (vol_.writer_gen.count(key) != 0) {
            if (cfg_.use_cache)
                cache_->invalidateDs(ds);
            prefetch_.invalidateDs(ds);
        }
        vol_.sn_seen[key] = *sn;
    } else if (it->second != *sn) {
        if (cfg_.use_cache)
            cache_->invalidateDs(ds);
        prefetch_.invalidateDs(ds);
        it->second = *sn;
    }
    vol_.tracking = true;
    vol_.tracked_reads.clear();
    return Status::Ok;
}

bool
FrontendSession::readerValidate(DsId ds, NodeId backend, uint64_t sn)
{
    vol_.tracking = false;
    uint64_t now_sn = 0;
    if (cfg_.symmetric) {
        BackendCtx *c = ctx(backend);
        now_sn = c->node->nvm().read64(
            namingField(ds, backend, naming_field::kSeqNum).offset);
        clock_.advance(lat_.nvm_read_ns);
    } else {
        const Status st = guarded(backend, [&] {
            return verbs_.read64(
                namingField(ds, backend, naming_field::kSeqNum), &now_sn);
        });
        if (!ok(st))
            return false;
    }
    if (now_sn == sn)
        return true;
    // Conflict: drop every cache entry this read touched so the retry
    // fetches fresh data instead of spinning on stale copies.
    if (cfg_.use_cache) {
        for (const RemotePtr &p : vol_.tracked_reads)
            cache_->invalidate(p);
    }
    vol_.tracked_reads.clear();
    return false;
}

// ---------------------------------------------------------------------
// Naming space
// ---------------------------------------------------------------------

Status
FrontendSession::createDs(NodeId backend, std::string_view name,
                          DsType type, DsId *id)
{
    BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return Status::Unavailable;
    uint64_t args[2] = {fnv1a64(name), static_cast<uint64_t>(type)};
    uint64_t rets[4] = {};
    const Status st = rpcCall(*c, RpcOp::CreateName, args, {}, rets);
    if (!ok(st))
        return st;
    *id = static_cast<DsId>(rets[0]);
    return Status::Ok;
}

Status
FrontendSession::openDs(NodeId backend, std::string_view name, DsId *id,
                        DsType *type)
{
    BackendCtx *c = ctx(backend);
    if (c == nullptr)
        return Status::Unavailable;
    uint64_t args[1] = {fnv1a64(name)};
    uint64_t rets[4] = {};
    const Status st = rpcCall(*c, RpcOp::LookupName, args, {}, rets);
    if (!ok(st))
        return st;
    *id = static_cast<DsId>(rets[0]);
    if (type != nullptr)
        *type = static_cast<DsType>(rets[1]);
    return Status::Ok;
}

Status
FrontendSession::readDsMeta(DsId ds, NodeId backend, DsMeta *out)
{
    const RemotePtr base = namingField(ds, backend, naming_field::kRoot);
    uint64_t buf[3];
    if (cfg_.symmetric) {
        BackendCtx *c = ctx(backend);
        c->node->nvm().read(base.offset, buf, sizeof(buf));
        clock_.advance(lat_.nvm_read_ns);
    } else {
        const Status st = guarded(
            backend, [&] { return verbs_.read(base, buf, sizeof(buf)); });
        if (!ok(st))
            return st;
    }
    out->root_raw = buf[0];
    out->version = buf[1];
    out->gc_epoch = buf[2];
    const auto gc_key = std::make_pair(backend, ds);
    auto it = vol_.gc_epoch_seen.find(gc_key);
    if (it == vol_.gc_epoch_seen.end()) {
        vol_.gc_epoch_seen[gc_key] = out->gc_epoch;
    } else if (it->second != out->gc_epoch) {
        // Retired versions were reclaimed; cached nodes may alias reused
        // NVM now (Section 6.2). Learned prefetch runs hold the same
        // stale addresses, so they go too.
        if (cfg_.use_cache)
            cache_->invalidateDs(ds);
        prefetch_.invalidateDs(ds);
        it->second = out->gc_epoch;
    }
    return Status::Ok;
}

Status
FrontendSession::casRoot(DsId ds, NodeId backend, uint64_t expected_raw,
                         uint64_t desired_raw, uint64_t *old_raw)
{
    const RemotePtr root = namingField(ds, backend, naming_field::kRoot);
    if (cfg_.symmetric) {
        BackendCtx *c = ctx(backend);
        *old_raw = c->node->nvm().compareAndSwap64(root.offset,
                                                   expected_raw,
                                                   desired_raw);
        clock_.advance(lat_.nvm_write_ns);
        return Status::Ok;
    }
    return guarded(backend, [&] {
        return verbs_.compareAndSwap(root, expected_raw, desired_raw,
                                     old_raw);
    });
}

Status
FrontendSession::readNamingWord(DsId ds, NodeId backend, uint64_t field_off,
                                uint64_t *v)
{
    const RemotePtr p = namingField(ds, backend, field_off);
    if (overlayLookup(p, v, sizeof(*v))) {
        clock_.advance(lat_.dram_access_ns);
        return Status::Ok;
    }
    if (cfg_.symmetric)
        return symmetricRead(p, v, sizeof(*v));
    return guarded(backend, [&] { return verbs_.read64(p, v); });
}

Status
FrontendSession::writeAux(DsId ds, NodeId backend, uint32_t idx, uint64_t v)
{
    const RemotePtr p = namingField(ds, backend,
                                    naming_field::kAux0 + idx * 8);
    return logWrite(ds, p, &v, sizeof(v));
}

Status
FrontendSession::writeAuxRange(DsId ds, NodeId backend, uint32_t first,
                               const uint64_t *vals, uint32_t count)
{
    const RemotePtr p = namingField(ds, backend,
                                    naming_field::kAux0 + first * 8);
    return logWrite(ds, p, vals, count * 8);
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

void
FrontendSession::setReplayer(DsId ds, NodeId backend, Replayer fn)
{
    vol_.replayers[{backend, ds}] = std::move(fn);
}

void
FrontendSession::setFailoverHook(DsId ds, NodeId backend,
                                 std::function<Status()> fn)
{
    vol_.failover_hooks[{backend, ds}] = std::move(fn);
}

void
FrontendSession::simulateCrash()
{
    vol_ = {};
    for (auto &[id, c] : backends_) {
        c.batch = {};
        c.alloc->loseVolatileState();
    }
    cache_->clear();
    prefetch_.clear();   // learned runs are volatile front-end state
    verbs_.dropPosted(); // pending WQE chains die with the process
}

Status
FrontendSession::recover()
{
    // Recovery replay is not on any client's critical path: its verbs
    // run Background so the NIC's QoS arbiter can keep it from crowding
    // live sessions (no-op under the legacy scalar model).
    Verbs::ClassScope bg(verbs_, VerbClass::Background);
    for (auto &[id, c] : backends_) {
        // Fetch the authoritative log positions.
        clock_.advance(lat_.rdma_read_rtt_ns +
                       lat_.wireBytes(sizeof(LogControl)));
        // Case 2.a/3.a: a fully persisted tail transaction rolls forward.
        c.node->recoverTailTx(c.slot);
        // Release any writer lock our previous incarnation held.
        c.node->releaseStaleLocks(c.slot);

        const LogControl ctl = c.node->readControl(c.slot);
        c.lpn = ctl.lpn;
        c.opn = ctl.opn;
        c.memlog_head = ctl.memlog_head;
        c.oplog_head = ctl.oplog_head;

        // Case 2.b/2.c: re-execute operations whose memory logs never
        // made it into a replayed transaction.
        const auto ops = c.node->uncoveredOps(c.slot);
        for (const ParsedOpLog &op : ops) {
            clock_.advance(lat_.rdma_read_rtt_ns +
                           lat_.wireBytes(op.wire_len));
            auto rit = vol_.replayers.find(
                std::make_pair(id, static_cast<DsId>(op.ds_id)));
            if (rit == vol_.replayers.end())
                continue; // structure not re-opened; skip
            const Status st = rit->second(op);
            if (!ok(st) && st != Status::Exists)
                return st;
        }
    }
    return flushAll();
}

Status
FrontendSession::failover(NodeId failed, BackendNode *replacement)
{
    auto it = backends_.find(failed);
    if (it == backends_.end())
        return Status::InvalidArgument;
    assert(replacement->id() == failed &&
           "a promoted back-end keeps the node id so RemotePtrs stay valid");
    BackendCtx &c = it->second;
    c.node = replacement;
    c.batch = {};
    verbs_.detach(failed);
    verbs_.attach(failed, replacement->rdmaTarget());
    c.rpc = std::make_unique<RfpRpc>(&verbs_, replacement, c.slot);
    c.alloc->loseVolatileState();
    cache_->clear(); // Section 4.3: aborts clear the cache
    prefetch_.clear(); // predictions refer to the failed node's layout
    vol_.view = {};

    uint32_t slot = 0;
    const Status st =
        replacement->registerFrontend(cfg_.session_id, &slot);
    if (!ok(st))
        return st;
    c.slot = slot;
    // Live data structure handles reset their volatile shadows to the
    // recovered NVM image before replay re-executes uncovered ops.
    for (auto &[key, hook] : vol_.failover_hooks) {
        if (key.first == failed) {
            const Status hst = hook();
            if (!ok(hst))
                return hst;
        }
    }
    return recover();
}

Status
FrontendSession::healStep(NodeId id, const ResolveOutcome &out,
                          HealEpisode *ep)
{
    // Writer locks held on the failed incarnation died with it: the
    // replacement releases them from the lock-ahead records during
    // recovery, and op-log replay re-executes the operations that held
    // them — so forget them here rather than re-releasing stale state.
    for (auto it = vol_.held_locks.begin(); it != vol_.held_locks.end();) {
        if (it->first.first == id)
            it = vol_.held_locks.erase(it);
        else
            ++it;
    }
    PromotionCounters &pc = ctr_.promo[id];
    if (out.stale_fenced && !ep->stale_counted) {
        ++pc.stale_epoch_fenced;
        ep->stale_counted = true;
    }
    if (out.lost_promotion && !ep->lost_counted) {
        ++pc.promotions_lost;
        ep->lost_counted = true;
    }
    if (out.won_promotion)
        ++pc.promotions_won;
    if (out.node == nullptr || out.node->failure().crashed())
        return Status::Unavailable;
    const Status st = failover(id, out.node);
    if (!ok(st))
        return st;
    if (BackendCtx *c = ctx(id); c != nullptr)
        c->epoch = out.epoch;
    ++ctr_.retry.failovers;
    return Status::Ok;
}

Status
FrontendSession::handleBackendFailure(NodeId id)
{
    if (resolver_ == nullptr)
        return Status::BackendCrashed;
    in_failover_ = true;
    Status result = Status::Unavailable;
    uint64_t observed = 0;
    if (const BackendCtx *c = ctx(id); c != nullptr)
        observed = c->epoch;
    // Race outcomes are per failover *episode*: a promotion lost (or a
    // stale-epoch fence) reported by several polls of the same episode
    // counts once.
    HealEpisode episode;
    for (uint32_t i = 0; i < fo_cfg_.max_attempts; ++i) {
        const ResolveOutcome out =
            resolver_(ResolveRequest{id, clock_.now(), cfg_.session_id,
                                     observed});
        observed = out.epoch; // adopt the slot's current epoch
        if (ok(healStep(id, out, &episode))) {
            result = Status::Ok;
            break;
        }
        // No serving replacement yet, or it died under recovery. The
        // cluster may still be waiting out the failed node's lease (the
        // mirror must not be promoted while the old incarnation might
        // still serve writes) — burn a quantum of virtual time.
        clock_.advance(fo_cfg_.wait_quantum_ns);
        ctr_.retry.failover_wait_ns += fo_cfg_.wait_quantum_ns;
    }
    in_failover_ = false;
    return result;
}

Status
FrontendSession::tryHeal(NodeId id)
{
    BackendCtx *c = ctx(id);
    if (c == nullptr)
        return Status::InvalidArgument;
    if (resolver_ == nullptr || in_failover_)
        return c->node->failure().crashed() ? Status::Unavailable
                                            : Status::Ok;
    const ResolveOutcome out = resolver_(
        ResolveRequest{id, clock_.now(), cfg_.session_id, c->epoch});
    if (out.node == c->node && out.epoch == c->epoch &&
        !c->node->failure().crashed()) {
        // Already attached to the serving incarnation. A healthy node at
        // the epoch we presented carries no race verdict to tally.
        return Status::Ok;
    }
    // One poll is one episode: every verdict it reports counts.
    HealEpisode episode;
    in_failover_ = true;
    const Status st = healStep(id, out, &episode);
    in_failover_ = false;
    return ok(st) ? Status::Ok : Status::Unavailable;
}

void
FrontendSession::noteBackendEpoch(NodeId id, uint64_t epoch)
{
    if (BackendCtx *c = ctx(id); c != nullptr)
        c->epoch = epoch;
}

uint64_t
FrontendSession::backendEpoch(NodeId id) const
{
    const BackendCtx *c = ctx(id);
    return c == nullptr ? 0 : c->epoch;
}

SessionStats
FrontendSession::stats() const
{
    // The session's own counters, then what other components own.
    SessionStats s = ctr_;
    s.verbs = verbs_.counters();
    s.retry = verbs_.retryStats();
    s.retry.merge(ctr_.retry); // failovers and their wait
    s.prefetch.hits = cache_->prefetchHits();
    s.prefetch.wasted = cache_->prefetchWasted();
    s.pipeline.depth = cfg_.pipeline_depth;
    for (const auto &[id, pc] : ctr_.promo) {
        s.retry.promotions_won += pc.promotions_won;
        s.retry.promotions_lost += pc.promotions_lost;
        s.retry.stale_epoch_fenced += pc.stale_epoch_fenced;
    }
    for (const auto &[id, c] : backends_) {
        if (c.rpc != nullptr) {
            s.retry.rpc_resends += c.rpc->resends();
            s.retry.rpc_dup_responses += c.rpc->dupResponsesDropped();
        }
    }
    return s;
}

void
FrontendSession::resetStats()
{
    ctr_ = {};
    verbs_.resetStats();
    cache_->resetStats();
}

} // namespace asymnvm
