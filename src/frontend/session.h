#ifndef ASYMNVM_FRONTEND_SESSION_H_
#define ASYMNVM_FRONTEND_SESSION_H_

/**
 * @file
 * The front-end session: AsymNVM's client-side runtime.
 *
 * A FrontendSession implements the underlying API of Table 1 on top of the
 * verbs layer — rnvm_read / rnvm_write, the transactional interface
 * (rnvm_mem_log / rnvm_op_log / rnvm_tx_write), the two-tier allocator
 * (rnvm_malloc / rnvm_free), and the concurrency primitives (writer lock,
 * write-preferred reader lock). Data structures (src/ds) are written
 * purely against this API, exactly as Figure 2's skiplist example uses it.
 *
 * The session also embodies the paper's three optimizations, selectable
 * through SessionConfig so that benchmarks can run the ablation rows of
 * Table 3:
 *
 *  - R  (log reproducing): a write returns once its *operation log* is
 *    persisted with a single RDMA_Write; memory logs are posted
 *    asynchronously and replayed by the back-end (Sections 4.2/4.3).
 *  - C  (caching): remote objects are cached in front-end DRAM with the
 *    hybrid LRU+RR policy and adaptive level admission (Section 4.4).
 *  - B  (batching): operations group-commit — op logs are buffered and
 *    the batch's memory logs coalesce into one rnvm_tx_write whose
 *    completion is the batch's persistence point (Section 4.3).
 *
 * The *symmetric* baseline of Section 9.2 is a session mode as well: the
 * data structure code is unchanged, but reads/writes are priced as local
 * NVM accesses and logs ship to a remote mirror asynchronously.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "backend/backend_node.h"
#include "backend/log_format.h"
#include "common/types.h"
#include "frontend/allocator.h"
#include "frontend/cache.h"
#include "frontend/pipeline.h"
#include "frontend/prefetch.h"
#include "rdma/rpc.h"
#include "rdma/verbs.h"
#include "sim/clock.h"
#include "sim/latency.h"

namespace asymnvm {

/** Per-session tunables; presets mirror the system rows of Table 3. */
struct SessionConfig
{
    /**
     * Identity for log-slot reattachment; also the session's queue-pair
     * id at the shared back-end NIC's per-QP contention model, so
     * distinct sessions land on distinct QPs.
     */
    uint64_t session_id = 1;
    bool use_oplog = true;      //!< decoupled op-log persistency (R)
    bool use_txlog = true;      //!< memory logs via transactions
    bool use_cache = true;      //!< front-end DRAM cache (C)
    uint32_t batch_size = 1024; //!< ops per group commit; 1 = per-op (B)
    /**
     * Replace memory-log values that duplicate the current operation
     * log's payload with a reference to it (Figure 3's one-byte Flag),
     * shrinking transactions on the wire; the back-end replayer fetches
     * the bytes from the op-log ring.
     */
    bool use_opref = true;
    /** Coalesce memory logs to the same address within a batch. */
    bool coalesce_memlogs = true;
    uint64_t cache_bytes = 4ull << 20;
    CachePolicy cache_policy = CachePolicy::Hybrid;
    uint32_t cache_sample_k = 32;
    uint64_t memlog_buffer_cap = 512ull << 10;
    /**
     * Symmetric-architecture baseline; with batch_size > 1 it is
     * Symmetric-B (batched log shipping), else every op ships its logs.
     */
    bool symmetric = false;
    /**
     * Multi-back-end group commits overlap their per-back-end round
     * trips: the flush driver posts every back-end's WQE chain, rings
     * all doorbells, and awaits the completions together (one fence at
     * the *maximum* completion time instead of the sum). Disable to get
     * the serial baseline the Figure 10 fan-out comparison runs against.
     */
    bool parallel_fanout = true;
    /**
     * Read-side doorbell batching: on a traversal miss, gather the
     * demanded node plus speculative neighbors (ReadHint::neighbors and
     * learned pointer-chain runs) in ONE doorbell-batched read chain and
     * park the extras in the cache as speculative entries. Disable for
     * the serial-read ablation baseline (every hop pays its own RTT).
     */
    bool read_prefetch = true;
    /**
     * Operations kept in flight by the pipelined executor
     * (executePipelined): while one coroutine op waits on its remote
     * read, up to depth-1 others issue theirs, and the reactor serves
     * parked reads as doorbell-batched gathers (flights). Depth 1
     * (default) runs every op serially through the unchanged read path —
     * bit-identical wire traffic to a non-pipelined session.
     */
    uint32_t pipeline_depth = 1;
    /**
     * Allocator reclaim hysteresis: FreeBlocks returns empty slabs to
     * the back-end only beyond the peak demand of the last this-many
     * alloc/free cycles (see FrontendAllocator::maybeReclaim). Raise it
     * when a workload's alloc/free oscillation period exceeds two cycles
     * and the FreeBlocks/AllocBlocks RPC ping-pong reappears.
     */
    uint32_t alloc_hysteresis_cycles = 2;
    uint64_t rng_seed = 99;

    /** AsymNVM-Naive: direct remote reads/writes, no logs/cache/batch. */
    static SessionConfig naive(uint64_t id);
    /** AsymNVM-R: + operation-log reproducing. */
    static SessionConfig r(uint64_t id);
    /** AsymNVM-RC: + front-end caching. */
    static SessionConfig rc(uint64_t id, uint64_t cache_bytes);
    /** AsymNVM-RCB: + batching. */
    static SessionConfig rcb(uint64_t id, uint64_t cache_bytes,
                             uint32_t batch);
    /** Symmetric upper bound (local NVM + async remote logs). */
    static SessionConfig symmetricBase(uint64_t id, bool batched);
};

/** Hints a data structure passes with each read (Section 8). */
struct ReadHint
{
    DsId ds = 0;
    bool cacheable = false;
    uint32_t level = 0;                 //!< tree level, root = 0
    LevelAdmission *admission = nullptr; //!< adaptive admission, optional
    bool pin = false; //!< batch-local pin (vector operations, Alg. 3)
    /**
     * Structural neighbors worth gathering with this read (sibling
     * B+-tree children around the taken route, lower skiplist tower
     * levels). The span must stay alive for the duration of the read
     * call. Empty when the structure has nothing to speculate on.
     */
    std::span<const PrefetchCandidate> neighbors;
    /**
     * Stable id of the pointer chain this read walks (hash bucket
     * address, scan anchor) for learned-run prefetch; 0 = not part of a
     * chain. Only read operations should label their traversals — write
     * paths leave it 0 so speculation never perturbs write-side costs.
     */
    uint64_t stream = 0;
};

/** Snapshot of the hot naming-entry fields read in one verb. */
struct DsMeta
{
    uint64_t root_raw;
    uint64_t version;
    uint64_t gc_epoch;
};

/**
 * Transparent-failover knobs. When a verb-level failure outlives the
 * retry policy (or the back-end fail-stops), the session polls its
 * resolver for a serving replacement every @p wait_quantum_ns of virtual
 * time — the cluster needs the failed node's lease to expire before it
 * promotes a mirror — up to @p max_attempts polls.
 */
struct FailoverConfig
{
    uint32_t max_attempts = 16;
    uint64_t wait_quantum_ns = 2000000; //!< ~ lease-expiry granularity
};

/**
 * One resolver poll (see FrontendSession::BackendResolver): the session
 * identifies itself and presents the failover epoch it last observed for
 * the slot, so the cluster can fence zombies and arbitrate the promotion
 * CAS between concurrent sessions.
 */
struct ResolveRequest
{
    NodeId node = 0;
    uint64_t now_ns = 0;
    uint64_t session_id = 0;
    uint64_t observed_epoch = 0; //!< 0 = never resolved (no fence check)
};

/**
 * Resolver verdict. @p node is the serving back-end (nullptr while the
 * slot cannot be healed yet — lease wait, promotion in flight — or at
 * all); @p epoch is the slot's current failover epoch, which the session
 * adopts. The flags report how this poll participated in a promotion
 * race: it completed a promotion it had claimed (won), it observed or
 * lost the CAS to a concurrent session (lost), or it presented a stale
 * epoch and was fenced (its verbs target a superseded incarnation and
 * the failover it is running IS the forced re-resolution).
 */
struct ResolveOutcome
{
    BackendNode *node = nullptr;
    uint64_t epoch = 0;
    bool won_promotion = false;
    bool lost_promotion = false;
    bool stale_fenced = false;
};

/** Per-backend promotion-race outcome counters kept by the session. */
struct PromotionCounters
{
    uint64_t promotions_won = 0;
    uint64_t promotions_lost = 0;
    uint64_t stale_epoch_fenced = 0;
};

/**
 * Log accounting: wire vs payload bytes the session persisted through
 * its transaction and op-log appends. wire − payload is the framing
 * overhead (headers, entry headers, footers and CRC words).
 */
struct LogFormatStats
{
    uint64_t tx_records = 0;
    uint64_t tx_wire_bytes = 0;
    uint64_t tx_payload_bytes = 0; //!< entry value bytes inside txs
    uint64_t op_records = 0;
    uint64_t op_wire_bytes = 0;
    uint64_t op_payload_bytes = 0; //!< op-log value bytes
};

/** Aggregated per-session observability snapshot. */
struct SessionStats
{
    uint64_t ops_started = 0;
    uint64_t tx_flushes = 0;
    VerbCounters verbs;    //!< traffic by verb type (reads/writes/atomics)
    RetryStats retry;      //!< transient-fault absorption + failover work
    PrefetchStats prefetch; //!< read-gather speculation outcome
    LogFormatStats logfmt;  //!< persisted log bytes by record class
    PipelineStats pipeline; //!< op-pipelining overlap/stall profile
};

/**
 * The client-side AsymNVM runtime for one front-end thread.
 *
 * Its state is sorted by lifetime (DESIGN.md §15, "State lifetimes"):
 * wiring and identity are never reset; vol_ is everything a front-end
 * crash loses (simulateCrash() assigns it {}, and a failover resets its
 * View); each back-end's buffered Batch goes on a crash and on that
 * back-end's failover; ctr_ is everything resetStats() zeroes. The cache,
 * the prefetch engine, the allocators and the verbs' posted chains are
 * owned components with resets of their own.
 */
class FrontendSession
{
  public:
    FrontendSession(const SessionConfig &cfg,
                    const LatencyModel &lat = LatencyModel::defaults());
    ~FrontendSession();

    FrontendSession(const FrontendSession &) = delete;
    FrontendSession &operator=(const FrontendSession &) = delete;

    /** Connect to a back-end: register a log slot and attach the NIC. */
    Status connect(BackendNode *backend);

    /** Clean disconnect (releases the log slot). */
    void disconnect(BackendNode *backend);

    SimClock &clock() { return clock_; }
    Verbs &verbs() { return verbs_; }
    const SessionConfig &config() const { return cfg_; }
    const LatencyModel &latency() const { return lat_; }
    PageCache &cache() { return *cache_; }

    // ------------------------------------------------------------------
    // Table 1: basic / transactional API
    // ------------------------------------------------------------------

    /**
     * rnvm_read: serve from the pending-write overlay, the batch-local
     * pin set, or the DRAM cache; otherwise read remote NVM (and admit
     * to the cache per the hint).
     */
    Status read(RemotePtr addr, void *dst, uint32_t len,
                const ReadHint &hint = {});

    // ------------------------------------------------------------------
    // Pipelined operations (coroutine reactor)
    // ------------------------------------------------------------------

    /**
     * Awaitable remote read for OpTask coroutine bodies. The local
     * phases (overlay, pins, symmetric, cache) complete inline; a remote
     * miss inside an active pipeline parks the read with the reactor and
     * suspends until the flight that serves it lands. Outside a
     * pipeline, at depth 1 and under runInline it takes the serial
     * read() — same verbs, same clock charges, same wire traffic.
     *
     * The hint's neighbors span must stay alive across the suspension;
     * coroutine-frame arrays satisfy this naturally.
     */
    struct ReadAwaitable
    {
        FrontendSession *s = nullptr;
        RemotePtr addr;
        void *dst = nullptr;
        uint32_t len = 0;
        ReadHint hint;
        Status result = Status::Ok;
        bool cacheable = false; //!< computed by the local phase
        bool admitted = false;  //!< admission decision, made pre-suspend
        /** Pipeline write sequence observed when this read was served
         *  (read-set validation: a later same-address window write makes
         *  the captured bytes stale). */
        uint64_t served_seq = 0;
        /** Reactor index of the op parked on this read. */
        size_t waiter = 0;

        /**
         * A read already complete, with no session: the caller filled
         * the destination from a word it holds. @p addr and @p seq keep
         * read-set validation on the address it stands for.
         */
        static ReadAwaitable completed(RemotePtr addr, uint64_t seq)
        {
            ReadAwaitable aw;
            aw.addr = addr;
            aw.served_seq = seq;
            return aw;
        }

        bool await_ready();
        void await_suspend(std::coroutine_handle<> h);
        /**
         * Read-your-writes at resume: a sibling write op may have landed
         * at this address while the read's flight was on the wire, after
         * its bytes were fetched — the refresh replays the local tiers
         * (the overlay now holds the fresh image) before the coroutine
         * consumes them. No-op outside a pipeline and for clean
         * addresses.
         */
        Status await_resume()
        {
            if (s != nullptr && s->suspendable())
                s->pipelineRefreshIfStale(*this);
            return result;
        }
    };

    ReadAwaitable asyncRead(RemotePtr addr, void *dst, uint32_t len,
                            const ReadHint &hint = {})
    {
        return ReadAwaitable{this, addr, dst, len, hint};
    }

    /**
     * Run @p ops with up to pipeline_depth of them in flight, overlapping
     * their remote-read round trips (parked reads launch together as one
     * doorbell-batched gather, a flight; up to two flights are on the
     * wire while the other ops run) and coalescing their commits into
     * one group-commit fence at window drain. Results land in @p results
     * (same indexing); completion order is data-dependent, results order
     * is not. At depth 1 every op runs to completion serially — the
     * ablation baseline.
     */
    void executePipelined(std::span<OpTask> ops,
                          std::span<Status> results);

    /**
     * Run @p op to completion on the calling thread without suspending:
     * the serial entry point of every data structure operation (insert()
     * is runInline(insertAsync(...))). Reads take the serial read() path,
     * gates acquire at once and yields complete inline — also when a
     * reactor owns the session, e.g. recovery replaying ops inside a
     * pipelined window — so an inline op costs exactly what a serial
     * implementation would.
     */
    Status runInline(OpTask op);

    /** True while the reactor owns this session's scheduling. */
    bool pipelineActive() const { return pipeline_active_; }

    /**
     * Cooperative yield for write coroutines blocked on a window
     * dependency (same-key sibling still in flight): completes inline
     * outside a pipeline, suspends back to the reactor inside one. The
     * reactor re-resumes every yielded op whenever a window op
     * completes (gates are released at co_return), so the waiter
     * re-polls its WindowGate after the owner's local effects land.
     */
    struct YieldAwaitable
    {
        FrontendSession *s = nullptr;
        bool await_ready() const { return !s->suspendable(); }
        void await_suspend(std::coroutine_handle<>) {}
        void await_resume() const {}
    };

    YieldAwaitable pipelineYield() { return YieldAwaitable{this}; }

    /**
     * True while a write coroutine in the current window holds the
     * (ds, key) gate. Read coroutines poll this at entry — `while
     * (held) co_await pipelineYield()` — so a read admitted after a
     * same-key write waits out that write's local effects
     * (read-your-writes) without acquiring anything itself: readers
     * never block readers, and outside a pipeline the check is
     * constant-false (no window, no siblings).
     */
    bool pipelineGateHeld(uint64_t ds, uint64_t key) const
    {
        return suspendable() &&
               vol_.pipe_gates.find({ds, key}) != vol_.pipe_gates.end();
    }

    /**
     * Same-key/same-structure dependency ordering inside a pipelined
     * window (write pipelining, DESIGN.md §14). A write coroutine
     * constructs a gate over its conflict key — (ds, key) for keyed
     * structures, (ds, 0) for whole-structure ordering (stack/queue,
     * MV writers) — and spins `while (!gate.tryAcquire())
     * co_await s->pipelineYield();` before its first side effect. Later
     * ops on the same key suspend until the earlier op's local effects
     * (overlay writes, shadow updates) land, which keeps every
     * same-key sequence in admission order — exactly the serial order —
     * while different-key ops interleave freely. Outside a pipeline (and
     * for ops run inline) the gate acquires immediately and holds nothing
     * (such ops never have siblings). Released on destruction (coroutine
     * locals are destroyed at co_return, before the op leaves the
     * window).
     */
    class WindowGate
    {
      public:
        WindowGate(FrontendSession *s, DsId ds, Key key)
            : s_(s), key_{ds, key}
        {
        }
        ~WindowGate() { release(); }
        WindowGate(const WindowGate &) = delete;
        WindowGate &operator=(const WindowGate &) = delete;

        /** True when this op owns the key (idempotent once acquired). */
        bool tryAcquire();
        void release();

      private:
        FrontendSession *s_;
        std::pair<uint64_t, uint64_t> key_;
        uint64_t ticket_ = 0; //!< 0 = not holding a pipeline slot
        bool stalled_ = false; //!< one dep_stall per wait episode
    };

    /**
     * Read-set validation for pipelined write descents: a stamp pairs a
     * remote address with the pipeline write sequence observed when the
     * bytes were read. The descent re-checks its stamps right before its
     * write phase; a sibling op's window write to any stamped address in
     * between makes the descent stale and it restarts (overlay/cache are
     * hot, so the re-descent is cheap and charge-free where it matters).
     */
    struct ReadStamp
    {
        uint64_t addr_raw = 0;
        uint64_t seq = 0;
    };

    /** Current pipeline write sequence (0 outside a window). */
    uint64_t pipelineWriteSeq() const { return vol_.pipe_write_seq; }

    /** True when no stamped address was overwritten after its stamp. */
    bool pipelineReadSetClean(std::span<const ReadStamp> stamps) const
    {
        if (vol_.pipe_dirty.empty())
            return true; // no window write yet (always, outside a window)
        for (const ReadStamp &rs : stamps) {
            auto it = vol_.pipe_dirty.find(rs.addr_raw);
            if (it != vol_.pipe_dirty.end() && it->second > rs.seq)
                return false;
        }
        return true;
    }

    /** Account a validation-forced descent restart (a dependency stall). */
    void notePipelineRestart() { ++ctr_.pipeline.dep_stalls; }

    /**
     * Snapshot of the current operation's op-log record position, taken
     * right after opBegin. A pipelined descent restores it immediately
     * before its memory-log writes so op-ref encoding (logWriteFromOp)
     * references THIS op's record even when sibling ops' opBegins
     * interleaved during the suspendable read phase.
     */
    struct OpRef
    {
        uint64_t pos = 0;
        uint32_t len = 0;
    };

    OpRef currentOpRef(NodeId backend) const;
    void restoreOpRef(NodeId backend, const OpRef &ref);

    /**
     * rnvm_mem_log/rnvm_write: record one {address, value} modification
     * of data structure @p ds. Naive mode issues a synchronous
     * RDMA_Write; transactional modes buffer a memory log (with
     * coalescing) and update overlay + cache.
     */
    Status logWrite(DsId ds, RemotePtr addr, const void *value,
                    uint32_t len);

    /**
     * Like logWrite, but the value equals a slice of the payload of
     * this operation's op log (offset @p val_off): when op-ref logging
     * is enabled the memory log carries a reference instead of bytes.
     */
    Status logWriteFromOp(DsId ds, RemotePtr addr, const void *value,
                          uint32_t len, uint32_t val_off = 0);

    /**
     * rnvm_op_log + operation bracketing: call at the start of every
     * data structure write operation. Persists the operation log (the
     * write's durability point in R mode) and assigns its OPN.
     */
    Status opBegin(DsId ds, NodeId backend, OpType op, Key key,
                   const void *value, uint32_t val_len);

    /**
     * End of a data structure write operation: advances the batch
     * counter and group-commits at the batch boundary.
     */
    Status opEnd();

    /** rnvm_tx_write on every buffered group: the persistence fence. */
    Status flushAll();

    /**
     * Persistent fence (Section 4.1): after it returns, every preceding
     * write is durable in back-end NVM, and reads return persisted data.
     */
    Status persistentFence() { return flushAll(); }

    /** Ops currently buffered (not yet group-committed). */
    uint32_t opsInBatch() const { return vol_.ops_in_batch; }

    /**
     * Pre-flush hook: runs at the start of every group commit, before
     * memory logs serialize. Stack/queue use this to materialize their
     * surviving (un-annulled) pending operations (Section 8.1). The
     * first hook failure (e.g. an allocation that ran out of NVM,
     * OutOfMemory) stops the commit before any memory log is
     * serialized, and flushAll returns it; the batch stays buffered.
     */
    void setFlushHook(DsId ds, NodeId backend, std::function<Status()> fn);

    /**
     * Post-flush hook: runs after the batch is durable and replayed,
     * before locks release. Multi-version structures publish their new
     * root here with an atomic root swap (Section 6.2). flushAll returns
     * the first hook failure (e.g. a root swap that lost to another
     * writer, Conflict); the remaining hooks and the lock release still
     * run.
     */
    void setPostFlushHook(DsId ds, NodeId backend,
                          std::function<Status()> fn);

    /**
     * Override the covered-OPN recorded in @p ds's next transaction.
     * Multi-version structures keep coverage at the OPN of their last
     * *published* (root-swapped) batch, so a crash between the flush and
     * the root swap still re-executes the unpublished operations.
     */
    void setGroupCoverage(DsId ds, NodeId backend, uint64_t covered_opn);

    /** Current OPN shadow for @p backend (next op log number). */
    uint64_t currentOpn(NodeId backend) const;

    // ------------------------------------------------------------------
    // Table 1: management API (two-tier allocator)
    // ------------------------------------------------------------------

    /** rnvm_malloc. */
    Status alloc(NodeId backend, uint64_t size, RemotePtr *out);

    /** rnvm_free. */
    Status free(RemotePtr p, uint64_t size);

    /** Defer reclamation of a multi-version node (lazy GC, Section 6.2). */
    void retire(DsId ds, RemotePtr p, uint64_t size);

    // ------------------------------------------------------------------
    // Table 1: concurrency API
    // ------------------------------------------------------------------

    /**
     * writer_lock (Algorithm 1): RDMA_CAS spin plus the lock-ahead
     * record. When batching, the lock is held until the group commit
     * releases it. Re-acquiring a lock already held is a no-op.
     *
     * On acquisition the writer-generation word is compared with the
     * one this session saw when it last released the lock; when it
     * moved (or this session never held the lock) another writer may
     * have changed the structure, so the cache entries of @p ds are
     * dropped and @p *moved is set: the caller's handle must reload its
     * volatile shadows (DsBase::lockForWrite).
     */
    Status writerLock(DsId ds, NodeId backend, bool *moved = nullptr);

    /** writer_unlock: flushes this structure's logs first. */
    Status writerUnlock(DsId ds, NodeId backend);

    bool holdsWriterLock(DsId ds, NodeId backend) const;

    /**
     * reader_lock (Algorithm 2): spin until the SN is even; returns it.
     * Begins tracking read addresses for cache invalidation on conflict.
     */
    Status readerLock(DsId ds, NodeId backend, uint64_t *sn);

    /**
     * reader_unlock: true when the SN is unchanged (reads consistent).
     * On failure the tracked cache entries are invalidated so the retry
     * refetches fresh data.
     */
    bool readerValidate(DsId ds, NodeId backend, uint64_t sn);

    // ------------------------------------------------------------------
    // Naming space
    // ------------------------------------------------------------------

    Status createDs(NodeId backend, std::string_view name, DsType type,
                    DsId *id);
    Status openDs(NodeId backend, std::string_view name, DsId *id,
                  DsType *type);

    /** One-verb read of {root, version, gc_epoch}; invalidates the DS's
     *  cache entries when the GC epoch advanced (reused NVM). */
    Status readDsMeta(DsId ds, NodeId backend, DsMeta *out);

    /** Atomic root swap (multi-version commit). */
    Status casRoot(DsId ds, NodeId backend, uint64_t expected_raw,
                   uint64_t desired_raw, uint64_t *old_raw);

    /**
     * Read one 8-byte naming-entry word at @p field_off: this session's
     * unflushed write of it when the overlay holds one, else one verb.
     */
    Status readNamingWord(DsId ds, NodeId backend, uint64_t field_off,
                          uint64_t *v);

    /** Read/write naming-entry auxiliary words (through the log path). */
    Status readAux(DsId ds, NodeId backend, uint32_t idx, uint64_t *v)
    {
        return readNamingWord(ds, backend, naming_field::kAux0 + idx * 8,
                              v);
    }
    Status writeAux(DsId ds, NodeId backend, uint32_t idx, uint64_t v);

    /**
     * Write @p count consecutive auxiliary words as ONE memory log /
     * RDMA write (stack/queue update head+tail+count together). A
     * structure must not mix range and single-word writes to the same
     * aux words within a batch (overlay granularity is per write).
     */
    Status writeAuxRange(DsId ds, NodeId backend, uint32_t first,
                         const uint64_t *vals, uint32_t count);

    /** Absolute NVM address of a naming-entry field. */
    RemotePtr namingField(DsId ds, NodeId backend, uint64_t field_off);

    // ------------------------------------------------------------------
    // Recovery (Section 7.2)
    // ------------------------------------------------------------------

    /** Re-execution callback a data structure registers for its ops. */
    using Replayer = std::function<Status(const ParsedOpLog &)>;
    void setReplayer(DsId ds, NodeId backend, Replayer fn);

    /**
     * Drop all volatile state, as a front-end crash would (Cases 1/2).
     * The session stays connected (the back-end keeps its slot).
     */
    void simulateCrash();

    /**
     * Recover after simulateCrash() or a back-end restart: re-fetch log
     * positions, have the back-end validate the last transaction,
     * re-execute uncovered operation logs through the registered
     * replayers, and release stale writer locks.
     */
    Status recover();

    /** Back-end failover: clear caches and retarget to @p replacement. */
    Status failover(NodeId failed, BackendNode *replacement);

    /**
     * Hook a structure registers to survive *transparent* failover with a
     * live handle: runs after the session retargets to the replacement
     * back-end, before op-log replay. The structure must reset its
     * volatile shadows to the recovered NVM image (reload aux words, drop
     * pending annulment queues) — exactly what re-open()ing does in the
     * manual recovery flow — or replay would double-apply into shadows
     * that already reflect the uncovered operations.
     */
    void setFailoverHook(DsId ds, NodeId backend,
                         std::function<Status()> fn);

    // ------------------------------------------------------------------
    // Transparent failover (Section 7.2, Cases 3/4, without app help)
    // ------------------------------------------------------------------

    /**
     * Resolves a node id to its current serving BackendNode — the
     * restarted node, or the mirror promoted under the same id — or a
     * null outcome while the cluster still waits out the failed node's
     * lease or another session's promotion. The request carries this
     * session's identity and last-observed failover epoch (promotion CAS
     * + zombie fencing); the outcome carries the slot's current epoch and
     * the race verdict. Clusters install this via Cluster::makeSession
     * when ClusterConfig::transparent_failover is set.
     */
    using BackendResolver =
        std::function<ResolveOutcome(const ResolveRequest &)>;

    /**
     * Arm transparent failover: when a back-end fail-stops under a verb
     * (or a transient storm outlives the verb retry policy), the session
     * heals itself — waits out the promotion, retargets to the resolved
     * replacement, replays its shadow state (recover()) — and, when the
     * failure hit at an operation boundary, transparently re-issues the
     * failed primitive. A failure in the middle of a write operation
     * still heals but surfaces the error: the interrupted operation is
     * already covered by op-log replay, so the caller retries it whole.
     */
    void setBackendResolver(BackendResolver fn)
    {
        resolver_ = std::move(fn);
    }

    void setFailoverConfig(const FailoverConfig &c) { fo_cfg_ = c; }
    const FailoverConfig &failoverConfig() const { return fo_cfg_; }

    /**
     * One non-blocking resolver poll for @p id: heal the back-end if a
     * serving replacement is available *right now*, otherwise return
     * Unavailable without burning wait quanta. Partitioned<DS> uses this
     * to probe degraded shards — each probe advances a pending promotion
     * by one poll (claim, then complete) without stalling the k-1 healthy
     * shards behind the full failover wait loop. Returns Ok when the
     * backend is healthy (healed or already serving).
     */
    Status tryHeal(NodeId id);

    /**
     * Adopt @p epoch as the last-observed failover epoch for @p id
     * (presented in future ResolveRequests). Cluster::makeSession seeds
     * this at connect time; failover updates it from resolver outcomes.
     */
    void noteBackendEpoch(NodeId id, uint64_t epoch);

    /** Last-observed failover epoch for @p id (0 = never resolved). */
    uint64_t backendEpoch(NodeId id) const;

    /** Per-backend promotion-race outcomes (won / lost / fenced). */
    const std::map<NodeId, PromotionCounters> &promotionCounters() const
    {
        return ctr_.promo;
    }

    // ------------------------------------------------------------------
    // Statistics
    // ------------------------------------------------------------------

    uint64_t txFlushes() const { return ctr_.tx_flushes; }
    uint64_t failoversCompleted() const { return ctr_.retry.failovers; }

    /** Virtual-time latency of each group commit (flushAll / opEnd). */
    const Histogram &commitHistogram() const { return ctr_.hist_commit; }

    /** Latency of each multi-back-end fan-out flush (k > 1 targets). */
    const Histogram &fanoutHistogram() const { return ctr_.hist_fanout; }

    /** Latency of reads that issued remote verbs (cache/overlay misses). */
    const Histogram &readRemoteHistogram() const
    {
        return ctr_.hist_read_remote;
    }

    /** Latency of reads served locally (overlay, pins, DRAM cache). */
    const Histogram &readLocalHistogram() const
    {
        return ctr_.hist_read_local;
    }

    /** Merged observability: verbs traffic, retries, RPC dedup, failover. */
    SessionStats stats() const;

    /**
     * Number of (backend, ds) pairs with a remembered seqlock SN. Volatile
     * state: must drop to zero across simulateCrash(), or a recovered
     * front-end would trust pre-crash SN observations and skip cache
     * invalidation in readerLock.
     */
    size_t seqlockObservations() const { return vol_.sn_seen.size(); }
    uint64_t busyNs() const { return clock_.now(); }
    void resetStats();

  private:
    struct BackendCtx
    {
        // Wiring and identity: never reset.
        BackendNode *node = nullptr;
        uint32_t slot = 0;
        uint64_t epoch = 0; //!< last-observed failover epoch of the slot
        std::unique_ptr<RfpRpc> rpc;
        std::unique_ptr<FrontendAllocator> alloc;
        // Local shadows of the log positions (persisted in LogControl):
        // never reset, recover() reloads them.
        uint64_t lpn = 0;
        uint64_t opn = 0;
        uint64_t memlog_head = 0;
        uint64_t oplog_head = 0;
        uint64_t last_oplog_pos = 0; //!< position of this op's log record
        uint32_t last_oplog_len = 0; //!< its payload length
        // Buffered memory logs per data structure (group-commit unit).
        // Entry values live in the group's bump arena so the logWrite hot
        // path never heap-allocates per modification.
        struct GroupEntry
        {
            RemotePtr addr;
            uint32_t arena_off = 0; //!< value bytes: group arena offset
            uint32_t len = 0;       //!< value length
            bool op_ref = false;    //!< value lives in the op-log ring
            uint64_t oplog_pos = 0; //!< monotonic ring position
            uint32_t val_off = 0;   //!< offset within the op's payload
        };
        struct Group
        {
            std::vector<GroupEntry> logs;
            std::vector<uint8_t> arena; //!< entry value bytes, appended
            std::unordered_map<uint64_t, size_t> index; //!< addr -> slot
            uint64_t bytes = 0;
            /** Coverage override (multi-version structures). */
            std::optional<uint64_t> covered_opn;
        };
        /** The batch buffered for this back-end: lost on a front-end
         *  crash and on this back-end's failover. */
        struct Batch
        {
            std::map<DsId, Group> groups;
            /** Deferred MV retirements, shipped with the next commit. */
            std::vector<std::pair<uint64_t, uint64_t>> retired;
            DsId retired_ds = 0;
        } batch;
    };

    BackendCtx *ctx(NodeId id);
    const BackendCtx *ctx(NodeId id) const;
    Status rpcCall(BackendCtx &c, RpcOp op, std::span<const uint64_t> args,
                   std::span<const uint8_t> payload, uint64_t rets[4]);
    Status flushGroup(BackendCtx &c, DsId ds, bool sync_commit);

    /** Failure classes the session heals by failover (everything the
     *  verbs layer could not absorb with retries). */
    static bool needsFailover(Status st)
    {
        return st == Status::BackendCrashed || isTransient(st);
    }

    /**
     * Heal a failed back-end: poll the resolver (waiting out the lease /
     * promotion in virtual time), retarget to the replacement, and run
     * the recovery protocol against it. Held writer locks on the failed
     * node are forgotten first — the replacement releases them from the
     * lock-ahead records, and op-log replay re-executes their owners.
     */
    Status handleBackendFailure(NodeId id);

    /** Promotion-race verdicts already counted in one failover episode. */
    struct HealEpisode
    {
        bool stale_counted = false;
        bool lost_counted = false;
    };

    /**
     * The heal step handleBackendFailure and tryHeal share, for one
     * resolver outcome @p out on @p id: forget the writer locks held on
     * the failed incarnation, tally the outcome's race verdicts (a stale
     * fence or a lost promotion counts once per episode @p ep), and when
     * it names a serving replacement, fail over onto it, adopt its epoch
     * and count the failover. Unavailable while nothing serves yet;
     * failover's error when the replacement died under recovery.
     */
    Status healStep(NodeId id, const ResolveOutcome &out, HealEpisode *ep);

    /**
     * Run @p fn, and on an unhealed back-end failure heal and — at an
     * operation boundary, where the primitive is idempotent — re-issue
     * it. Inside a write operation the original error is surfaced after
     * healing (replay already covers the interrupted operation).
     */
    template <typename Fn>
    Status guarded(NodeId id, Fn &&fn)
    {
        Status st = fn();
        if (resolver_ == nullptr || in_failover_)
            return st;
        // Capture the op-boundary flag *before* healing: recovery replays
        // whole operations, which toggle in_op themselves and leave it
        // clear — the retry decision belongs to the failed call site.
        const bool was_in_op = vol_.in_op;
        for (uint32_t round = 0; round < 4 && needsFailover(st); ++round) {
            if (!ok(handleBackendFailure(id)))
                return st;
            if (was_in_op)
                return st; // healed; caller must restart the operation
            st = fn();
        }
        return st;
    }

    Status flushAllInner();

    /**
     * End the buffered batch (a commit, or a failed one): the overlay and
     * pins go, cleared in place so they keep their capacity, and the op
     * count restarts.
     */
    void endBatch();

    Status readInner(RemotePtr addr, void *dst, uint32_t len,
                     const ReadHint &hint);

    /** One speculative neighbor read kept for a flight. */
    struct GatherSpec
    {
        uint64_t addr_raw;
        uint32_t len;
        DsId ds;
    };

    /**
     * One launched read gather (DESIGN.md §11, "Flights"): the demanded
     * reads it serves, the speculative neighbors it fetches with them,
     * their landing buffers, and when it completes. A serial miss is a
     * flight of one read that lands at once; the reactor keeps up to two
     * in flight and runs other ops under their waits.
     */
    struct Flight
    {
        std::vector<ReadAwaitable *> reads;   //!< parked reads it serves
        std::vector<ReadAwaitable *> local;   //!< served at launch instead
        std::vector<ReadAwaitable *> posted;  //!< distinct, on the wire
        /** Duplicate demanded reads and the posted read they copy. */
        std::vector<std::pair<ReadAwaitable *, ReadAwaitable *>> copies;
        std::vector<GatherSpec> specs;              //!< kept candidates
        std::vector<std::vector<uint8_t>> bufs;     //!< their landing
        std::vector<uint64_t> room_steps; //!< cumulative fill bytes
        uint64_t room = 0;        //!< fill bytes reserved while in flight
        uint64_t issue_epoch = 0; //!< PageCache::epochNow() at launch
        uint64_t launch_seq = 0;  //!< pipeline write sequence at launch
        uint64_t launched_at = 0; //!< clock before the launch
        uint64_t done_at = 0;     //!< completion time
    };

    /** Max speculative neighbor reads gathered per demanded miss. */
    static constexpr uint32_t kPrefetchDegree = 4;

    /**
     * Reactor launch of the parked reads in @p f.reads: stamp them
     * served now, move reads at window-dirtied addresses that the local
     * tiers now serve into f.local, dedupe the rest (the first read of
     * an address fetches, later ones copy it at landing), count the
     * flight, and sendFlight() the distinct ones. @p posted as in
     * Verbs::readGather: other work will run under this flight's wait.
     */
    void launchFlight(Flight &f, bool posted);

    /**
     * Launch @p f.posted — the distinct demanded misses — plus up to
     * kPrefetchDegree filtered speculative neighbors per miss as ONE
     * doorbell-batched gather, and make cache room for its fills while
     * it is on the wire, on top of the room other flights in flight
     * hold (flight_room_). Misses whose structure fails
     * PageCache::admitSpeculation carry no neighbors. An out-of-bounds
     * learned candidate re-runs the gather without speculation; a
     * failed chain of several demanded reads is re-served one read at a
     * time, waiting; a failed flight installs no speculative entry.
     */
    void sendFlight(Flight &f, bool posted);

    /**
     * Wait for @p f's completion, then install its speculative entries,
     * copy its bytes to duplicate reads and make the post-miss cache/pin
     * fills each read's serial path would make — except at an address
     * a window write stamped after the launch, or of a structure whose
     * cache entries were invalidated since: those bytes are stale, and
     * the op's await_resume re-reads the local tiers.
     */
    void landFlight(Flight &f);

    /**
     * Fill @p f.room_steps with the cumulative bytes of the cache fills
     * the posted gather feeds — the cacheable, admitted, non-resident
     * demanded misses, then the kept speculative candidates — on top of
     * flight_room_. PageCache::makeRoom runs once per step under the
     * round trip, so a serial miss with one fill draws exactly the
     * sample its insert would.
     */
    void planRoom(Flight &f);

    /** True when a ReadAwaitable/YieldAwaitable may suspend: a reactor
     *  owns the session and no op is being run inline. */
    bool suspendable() const
    {
        return pipeline_active_ && inline_ops_ == 0;
    }

    /**
     * Local phase of every read, serial or pipelined: seqlock tracking,
     * then the local tiers in order — overlay, batch pins, symmetric NVM,
     * DRAM cache — with prefetch training and the admission decision
     * taken just before the cache probe. Returns true when @p rd was
     * served locally (status in rd.result); false means a remote miss,
     * with rd.cacheable / rd.admitted set for fillAfterMiss.
     */
    bool readLocal(ReadAwaitable &rd);

    /** Overlay then batch pins; true (and charged) on a hit. */
    bool overlayOrPinHit(ReadAwaitable &rd);

    /** DRAM cache probe under the decision readLocal made. */
    bool cacheHit(ReadAwaitable &rd);

    /**
     * Post-miss bookkeeping: admission window, then — with @p install —
     * the cache fill and the batch pin.
     */
    void fillAfterMiss(ReadAwaitable &rd, bool install);

    /**
     * Re-run the local tiers for a read parked *before* a sibling op's
     * window write landed at its address: the overlay/cache now hold the
     * fresh bytes, so serving remotely would return a stale (or even
     * torn) image. Tracking, prefetch training and admission are not
     * repeated — the serial path consults them once per read. Returns
     * true when the read was satisfied locally.
     */
    bool pipelineRecheckLocal(ReadAwaitable &aw);

    /**
     * Read-your-writes backstop called from ReadAwaitable::await_resume:
     * when a sibling window write dirtied the awaitable's address AFTER
     * its bytes were served (a write while the read's flight was on the
     * wire — a write before the launch is caught by launchFlight's
     * recheck), replay the local tiers and advance served_seq so write
     * coroutines' read-set validation does not restart over bytes that
     * are in fact fresh. A recheck miss (e.g. the address was freed mid-window)
     * leaves the served bytes alone — the consumer's own torn-view
     * handling applies, exactly as it would serially.
     */
    void pipelineRefreshIfStale(ReadAwaitable &aw);
    Status logWriteInternal(DsId ds, RemotePtr addr, const void *value,
                            uint32_t len, bool op_ref, uint32_t val_off);
    Status appendOpLogRecord(BackendCtx &c,
                             const std::vector<uint8_t> &rec,
                             bool sync);
    uint64_t ringReserve(uint64_t *head, uint64_t ring_size,
                         uint64_t ring_base, NodeId backend, size_t len,
                         bool sync);
    void overlayInsert(RemotePtr addr, const void *value, uint32_t len);
    bool overlayLookup(RemotePtr addr, void *dst, uint32_t len) const;
    Status symmetricRead(RemotePtr addr, void *dst, uint32_t len);
    Status symmetricWrite(RemotePtr addr, const void *value, uint32_t len);
    void processLocalRetired();

    // ------------------------------------------------------------------
    // State, sorted by lifetime (DESIGN.md §15, "State lifetimes").
    // ------------------------------------------------------------------

    // Wiring and identity: never reset. The cache and the prefetch
    // engine are owned components with resets of their own.
    SessionConfig cfg_;
    LatencyModel lat_;
    SimClock clock_;
    Verbs verbs_;
    std::unique_ptr<PageCache> cache_;
    PrefetchEngine prefetch_;
    std::map<NodeId, BackendCtx> backends_;
    BackendResolver resolver_;
    FailoverConfig fo_cfg_;
    uint64_t pipe_ticket_ = 0; //!< gate ticket source (never reused)

    /**
     * The object alloc() handed out last, until the first write to it:
     * a whole-object write there is a write-allocate candidate.
     */
    struct FreshAlloc
    {
        uint64_t raw = 0;
        uint64_t size = 0;
    };

    /** Locally deferred frees of retired multi-version regions. */
    struct RetiredRegion
    {
        RemotePtr ptr;
        uint64_t size;
        uint64_t free_at_ns;
    };

    /** Local copies of remote bytes: reset by a crash and a failover. */
    struct View
    {
        /** Read-your-writes overlay of buffered (unflushed) memory logs. */
        std::unordered_map<uint64_t, std::vector<uint8_t>> overlay;
        /** Batch-local pinned reads (vector operations). */
        std::unordered_map<uint64_t, std::vector<uint8_t>> pinned;
        FreshAlloc fresh;
    };

    /** Everything a front-end crash loses; simulateCrash() assigns {}. */
    struct Volatile
    {
        View view;
        /** Writer locks currently held: (backend, ds) pairs. */
        std::map<std::pair<NodeId, DsId>, bool> held_locks;
        /** Last observed writer generation per (backend, ds). */
        std::map<std::pair<NodeId, DsId>, uint64_t> writer_gen;
        /** Last observed gc_epoch per (backend, ds) (MV invalidation). */
        std::map<std::pair<NodeId, DsId>, uint64_t> gc_epoch_seen;
        /** Last observed seqlock SN per (backend, ds) (stale-cache guard). */
        std::map<std::pair<NodeId, DsId>, uint64_t> sn_seen;
        /** Tracked read addresses for seqlock conflict invalidation. */
        std::vector<RemotePtr> tracked_reads;
        bool tracking = false;
        // Callbacks registered by live data structure handles.
        std::map<std::pair<NodeId, DsId>, Replayer> replayers;
        std::map<std::pair<NodeId, DsId>, std::function<Status()>>
            failover_hooks;
        std::map<std::pair<NodeId, DsId>, std::function<Status()>>
            flush_hooks;
        std::map<std::pair<NodeId, DsId>, std::function<Status()>>
            post_flush_hooks;
        std::deque<RetiredRegion> local_retired;
        uint32_t ops_in_batch = 0;
        bool in_op = false; //!< between opBegin and opEnd
        /** Reads parked by suspended ops; the awaitables live in their
         *  coroutine frames, which stay alive until resumed past
         *  co_await. */
        std::vector<ReadAwaitable *> pending_reads;
        /** Set when a pipelined opBegin posted its op log asynchronously:
         *  the drain flush must fence even at batch_size 1. */
        bool pipeline_posted_ops = false;
        /** Set when a pipelined opEnd hit its batch boundary: the commit
         *  is coalesced into one flushAll at window drain. */
        bool pipeline_commit_deferred = false;
        // Write-pipelining window state (also cleared at every drain).
        /** Monotone sequence bumped by every window write (logWrite/free). */
        uint64_t pipe_write_seq = 0;
        /** addr -> seq of the latest window write there (read-set checks). */
        std::unordered_map<uint64_t, uint64_t> pipe_dirty;
        /** (ds, conflict key) -> gate ticket of the owning in-flight op. */
        std::map<std::pair<uint64_t, uint64_t>, uint64_t> pipe_gates;
    } vol_;

    /**
     * Everything resetStats() zeroes: the session's own SessionStats
     * fields (stats() adds what the verbs, the cache and the RPC channels
     * own), the promotion-race outcomes and the latency histograms.
     */
    struct Counters : SessionStats
    {
        std::map<NodeId, PromotionCounters> promo; //!< race outcomes
        Histogram hist_commit; //!< group-commit (opEnd / flushAll) latency
        Histogram hist_fanout; //!< multi-back-end fan-out flush latency
        Histogram hist_read_remote; //!< reads that issued remote verbs
        Histogram hist_read_local;  //!< reads served from overlay/pin/cache
    } ctr_;

    // Call-scoped flags: set and cleared (or overwritten) by the call
    // that owns them, so no reset touches them.
    bool in_flush_ = false;
    bool in_failover_ = false; //!< guards re-entry from recovery's flush
    NodeId last_failed_node_ = 0; //!< set when a flush fails
    bool last_read_remote_ = false; //!< set by readInner for read()
    bool pipeline_active_ = false; //!< reactor owns scheduling
    uint32_t inline_ops_ = 0;      //!< runInline nesting depth

    /** Fill bytes reserved by the flights in flight (call-scoped: every
     *  flight gives its share back when it lands). */
    uint64_t flight_room_ = 0;
    /** The serial miss's flight, reused so a serial miss never
     *  allocates; reactor flights live in executePipelined's frame. */
    Flight serial_flight_;
    std::vector<PrefetchCandidate> prefetch_scratch_; //!< collect() reuse

    /**
     * Symmetric baseline's replication target: the remote mirror the
     * local-NVM "primary" ships its logs to (Section 9.2). Modeled as a
     * log-ring device behind the session's own verbs endpoint under a
     * reserved node id, so shipped log bytes ride the same postWrite
     * chain + doorbell path as the asymmetric group commit — keeping the
     * Table 3 comparison apples-to-apples.
     */
    static constexpr NodeId kSymReplicaId = 0xFFFD;
    static constexpr uint64_t kSymLogRingSize = 1ull << 20;
    std::unique_ptr<NvmDevice> sym_replica_;
    std::unique_ptr<NicModel> sym_nic_;
    uint64_t sym_log_head_ = 0; //!< monotonic ship position in the ring
};

} // namespace asymnvm

#endif // ASYMNVM_FRONTEND_SESSION_H_
