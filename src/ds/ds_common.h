#ifndef ASYMNVM_DS_DS_COMMON_H_
#define ASYMNVM_DS_DS_COMMON_H_

/**
 * @file
 * Shared base for the persistent data structures of Section 8.
 *
 * Every structure is written purely against the FrontendSession API
 * (Table 1): reads through rnvm_read with caching hints, writes through
 * the op-log + memory-log pipeline, allocation through the two-tier
 * allocator, and (when shared) the writer lock / seqlock protocols.
 *
 * A structure instance is a *handle* bound to one session. The SWMR model
 * means at most one writer session operates on a structure at a time
 * (enforced by the writer lock when `shared` is set); any number of
 * sessions may hold read-only handles concurrently.
 */

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <memory_resource>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "backend/layout.h"
#include "common/stats.h"
#include "common/types.h"
#include "frontend/session.h"

namespace asymnvm {

/** Per-instance options for a data structure handle. */
struct DsOptions
{
    /**
     * True when multiple sessions access the structure concurrently:
     * write operations take the exclusive writer lock (Section 6.1) and
     * reads run under the retry-based reader lock (Section 6.3). The
     * paper's one-to-one benchmarks run unshared, where SWMR holds
     * trivially and the protocols are skipped.
     */
    bool shared = false;

    /** Retries of an optimistic read before giving up with Conflict. */
    uint32_t max_read_retries = 64;

    /**
     * Virtual-time backoff charged to the session clock after a failed
     * seqlock validation, doubling per retry up to the cap. Models the
     * cost of waiting out the writer's critical section instead of
     * leaking host scheduling (yield) into simulated latency.
     */
    uint64_t retry_backoff_ns = 500;
    uint64_t retry_backoff_cap_ns = 8000;
};

/**
 * A vector whose first @p N elements live inside the object — declared
 * in a coroutine body, inside the (pooled) coroutine frame — and which
 * spills to the heap only past that. Write descents keep their node
 * path in one, so the serial op, which runs the same coroutine, pays no
 * per-call heap allocation for it. Neither copyable nor movable.
 */
template <typename T, std::size_t N>
class FrameVec
{
  public:
    FrameVec() { v.reserve(N); }
    FrameVec(const FrameVec &) = delete;
    FrameVec &operator=(const FrameVec &) = delete;

  private:
    alignas(T) std::byte buf_[N * sizeof(T)];
    std::pmr::monotonic_buffer_resource mr_{buf_, sizeof(buf_)};

  public:
    std::pmr::vector<T> v{&mr_};
};

/** Base class wiring a structure handle to its session and naming entry. */
class DsBase
{
  public:
    DsId id() const { return id_; }
    NodeId backend() const { return backend_; }
    const std::string &name() const { return name_; }
    FrontendSession &session() { return *s_; }

  protected:
    /**
     * Unbound handle; factories assign a bound one over it. NOTE: once a
     * structure installs its session hooks (create/open), the handle must
     * stay at a fixed address, and alive while its session may still fail
     * over or recover — the hooks capture `this`.
     */
    DsBase() = default;

    DsBase(FrontendSession &s, NodeId backend, std::string name, DsId id,
           const DsOptions &opt)
        : s_(&s), backend_(backend), name_(std::move(name)), id_(id),
          opt_(opt)
    {}

    /*
     * The handle lifecycle, one path for every structure. A structure
     * `Ds` befriends DsBase and supplies:
     *  - `static constexpr DsType kType`, its naming-entry type;
     *  - the bound constructor `Ds(session, backend, name, id, options)`;
     *  - `Status reload()`, which resets every volatile shadow (aux-word
     *    copies, the held root word root_, pending buffers) to the NVM
     *    image.
     *    open() runs it once; transparent failover runs it again on the
     *    live handle, after the session retargets to the recovered
     *    back-end and before op-log replay (Section 7.2, Cases 3/4);
     *    and lockForWrite runs it when another writer held the lock
     *    since this session last did;
     *  - optionally `Status replay(const ParsedOpLog &)`, when its ops
     *    are not the keyed Insert/Update/Erase that replayKeyed handles;
     *  - optionally `void installHooks()`, its flush-time session hooks.
     */

    /**
     * Create @p name as a fresh `Ds` and bind @p out to it: construct,
     * run the structure's own @p init step on the bound handle (bucket
     * array, sentinel, ...), then install the hooks.
     */
    template <typename Ds, typename Init>
    static Status createHandle(FrontendSession &s, NodeId backend,
                               std::string_view name, Ds *out,
                               const DsOptions &opt, Init &&init)
    {
        DsId id = 0;
        Status st = s.createDs(backend, name, Ds::kType, &id);
        if (!ok(st))
            return st;
        *out = Ds(s, backend, std::string(name), id, opt);
        st = init(*out);
        if (!ok(st))
            return st;
        install(out);
        return Status::Ok;
    }

    template <typename Ds>
    static Status createHandle(FrontendSession &s, NodeId backend,
                               std::string_view name, Ds *out,
                               const DsOptions &opt)
    {
        return createHandle(s, backend, name, out, opt,
                            [](Ds &) { return Status::Ok; });
    }

    /**
     * Bind @p out to the existing structure @p name: InvalidArgument
     * when it was created as another type; otherwise construct,
     * reload() the shadows, and install the hooks.
     */
    template <typename Ds>
    static Status openHandle(FrontendSession &s, NodeId backend,
                             std::string_view name, Ds *out,
                             const DsOptions &opt)
    {
        DsId id = 0;
        DsType type = DsType::None;
        Status st = s.openDs(backend, name, &id, &type);
        if (!ok(st))
            return st;
        if (type != Ds::kType)
            return Status::InvalidArgument;
        *out = Ds(s, backend, std::string(name), id, opt);
        st = out->reload();
        if (!ok(st))
            return st;
        install(out);
        return Status::Ok;
    }

    /** No flush-time hooks; structures that need some hide this. */
    void installHooks() {}

    /** The value an op log carries, zero-padded to a full Value. */
    static Value loggedValue(const ParsedOpLog &op)
    {
        Value v;
        if (!op.value.empty())
            std::memcpy(v.bytes.data(), op.value.data(),
                        std::min(op.value.size(), Value::kSize));
        return v;
    }

    /**
     * Typed node read through the gather path. Read-only operations may
     * pass @p neighbors (structural candidates to gather with this read
     * in one doorbell) and/or a @p stream id labeling the pointer chain
     * being walked (learned-run prefetch); write paths leave both empty
     * so speculation never perturbs write-side verb budgets.
     */
    template <typename Node>
    Status readNode(RemotePtr p, Node *out, uint32_t level,
                    bool use_admission = true, bool pin = false,
                    std::span<const PrefetchCandidate> neighbors = {},
                    uint64_t stream = 0)
    {
        return s_->read(p, out, sizeof(Node),
                        nodeHint(level, use_admission, pin, neighbors,
                                 stream));
    }

    /**
     * Async twin of readNode for coroutine traversals: returns the
     * session read awaitable instead of completing the read. Under an
     * active pipeline the co_await suspends on a cache miss and the
     * session reactor gathers the miss with other in-flight ops' reads;
     * outside a pipeline (or at depth 1) the awaitable falls through to
     * the synchronous path, bit-identical to readNode. @p neighbors must
     * outlive the suspension — keep the candidate array in the coroutine
     * frame, never in a helper's stack frame.
     */
    template <typename Node>
    FrontendSession::ReadAwaitable
    readNodeAsync(RemotePtr p, Node *out, uint32_t level,
                  bool use_admission = true, bool pin = false,
                  std::span<const PrefetchCandidate> neighbors = {},
                  uint64_t stream = 0)
    {
        return s_->asyncRead(p, out, sizeof(Node),
                             nodeHint(level, use_admission, pin, neighbors,
                                      stream));
    }

    /** The cacheable ReadHint readNode and readNodeAsync issue. */
    ReadHint nodeHint(uint32_t level, bool use_admission, bool pin,
                      std::span<const PrefetchCandidate> neighbors,
                      uint64_t stream)
    {
        ReadHint hint;
        hint.ds = id_;
        hint.cacheable = true;
        hint.level = level;
        hint.admission = use_admission ? &admission_ : nullptr;
        hint.pin = pin;
        hint.neighbors = neighbors;
        hint.stream = stream;
        return hint;
    }

    /**
     * The one ownership predicate: true when no other session can move
     * this structure's naming entry under the handle — it is unshared
     * (SWMR holds trivially), or shared and its session holds the writer
     * lock (Section 6). Such a handle owns its anchor words: the root
     * word it holds (readRoot, MvBase::readerRoot) is the structure's,
     * and its reads need no seqlock protocol.
     */
    bool ownsRoot()
    {
        return !opt_.shared || s_->holdsWriterLock(id_, backend_);
    }

    /**
     * True when this handle's reads may run as pipelined coroutines.
     * Shared handles under the seqlock protocol must not: readerLock /
     * readerValidate use session-global read-tracking state that
     * interleaved coroutines would trample, so multi-key entry points
     * fall back to serial protected reads (the lock-holding writer is
     * exempt — its reads are already unprotected).
     */
    bool pipelineEligible() { return ownsRoot(); }

    /**
     * Run @p n operations as one executePipelined window, building op
     * i's coroutine with @p async_op(i). Per-op statuses land in
     * @p results; the call returns Ok.
     */
    template <typename AsyncOp>
    Status runWindow(size_t n, Status *results, AsyncOp &&async_op)
    {
        std::vector<OpTask> ops;
        ops.reserve(n);
        for (size_t i = 0; i < n; ++i)
            ops.push_back(async_op(i));
        s_->executePipelined(ops, std::span<Status>(results, n));
        return Status::Ok;
    }

    /**
     * The body of every keyed multi-op entry point (insertMany,
     * findMany, eraseMany, ...): runWindow when the handle is
     * @p eligible, else one op at a time through @p serial_op(i).
     */
    template <typename SerialOp, typename AsyncOp>
    Status runMany(size_t n, Status *results, bool eligible,
                   SerialOp &&serial_op, AsyncOp &&async_op)
    {
        if (eligible)
            return runWindow(n, results, async_op);
        for (size_t i = 0; i < n; ++i)
            results[i] = serial_op(i);
        return Status::Ok;
    }

    /**
     * The naming entry's root field of an in-place structure (BpTree,
     * Bst). A handle that ownsRoot() takes the word it holds: no cache
     * probe, no virtual time. A shared reader without the writer lock
     * reads the field, cacheable at level 0 (under its seqlock); @p pin
     * keeps that read in the batch-local pin set (vector insertion).
     */
    Status readRoot(uint64_t *root_raw, bool pin = false)
    {
        if (ownsRoot()) {
            *root_raw = root_;
            return Status::Ok;
        }
        return s_->read(rootField(), root_raw, 8, rootHint(pin));
    }

    /**
     * Async twin of readRoot; the awaitable's addr is the field. The
     * held word comes back as an awaitable completed at construction,
     * served at the current pipeline write sequence, so a write
     * descent's stamp on the field still fails validation once a
     * sibling's writeRoot grows the root.
     */
    FrontendSession::ReadAwaitable readRootAsync(uint64_t *root_raw,
                                                 bool pin = false)
    {
        if (!ownsRoot())
            return s_->asyncRead(rootField(), root_raw, 8, rootHint(pin));
        *root_raw = root_;
        return FrontendSession::ReadAwaitable::completed(
            rootField(), s_->pipelineWriteSeq());
    }

    /**
     * Point the root field at @p root_raw through the log pipeline, and
     * hold the new word.
     */
    Status writeRoot(uint64_t root_raw)
    {
        const Status st = s_->logWrite(id_, rootField(), &root_raw, 8);
        if (ok(st))
            root_ = root_raw;
        return st;
    }

    /** reload()'s step for the held root word: the field's current value
     *  as this session sees it (its own unflushed write, else NVM). */
    Status loadRoot()
    {
        return s_->readNamingWord(id_, backend_, naming_field::kRoot,
                                  &root_);
    }

    /**
     * The body of every insertBatch, vector insertion (Algorithm 3):
     * take the writer lock once, sort the batch so consecutive inserts
     * share path prefixes, and run @p insert_pinned(key, value) — an
     * insert whose path reads stay in the batch-local pin set — on each
     * pair in key order. Stops at the first failure.
     */
    template <typename InsertPinned>
    Status vectorInsert(std::span<const std::pair<Key, Value>> kvs,
                        InsertPinned &&insert_pinned)
    {
        Status st = lockForWrite();
        if (!ok(st))
            return st;
        std::vector<std::pair<Key, Value>> sorted(kvs.begin(), kvs.end());
        std::sort(sorted.begin(), sorted.end(),
                  [](const auto &a, const auto &b) {
                      return a.first < b.first;
                  });
        for (const auto &[key, value] : sorted) {
            st = insert_pinned(key, value);
            if (!ok(st))
                return st;
        }
        return Status::Ok;
    }

    /** Typed whole-node write through the log pipeline. */
    template <typename Node>
    Status writeNode(RemotePtr p, const Node &node)
    {
        return s_->logWrite(id_, p, &node, sizeof(Node));
    }

    /** Allocate + write a fresh node; returns its address. */
    template <typename Node>
    Status allocNode(const Node &node, RemotePtr *p)
    {
        const Status st = s_->alloc(backend_, sizeof(Node), p);
        if (!ok(st))
            return st;
        return writeNode(*p, node);
    }

    /**
     * Acquire the writer lock when the structure is shared: the one
     * place a writer takes the lock and refreshes its state. When the
     * writer generation shows that another writer may have held the
     * lock since this session last did (FrontendSession::writerLock),
     * every shadow this handle keeps (aux-word copies, MV roots) may be
     * stale, so the handle runs its own reload() — the step open() and
     * failover run — before it writes anything.
     */
    Status lockForWrite()
    {
        if (!opt_.shared)
            return Status::Ok;
        bool moved = false;
        const Status st = s_->writerLock(id_, backend_, &moved);
        if (!ok(st) || !moved)
            return st;
        return reload_(*this);
    }

    /**
     * The prologue every keyed write coroutine opens with, in this
     * order: lockForWrite, the WindowGate over the op's conflict key
     * (the key itself, or 0 to order all writes to the structure), and
     * once the gate is held, opBegin plus the OpRef snapshot phase B
     * restores. Declared in the coroutine frame:
     *
     *     WriteOp w(this, gate_key);
     *     while (!w.admitted())
     *         co_await s_->pipelineYield();
     *     Status st = w.begin(OpType::Insert, key, bytes, len);
     *     if (!ok(st))
     *         co_return st;
     *     ...phase A: suspendable reads...
     *     w.writeOut();
     *     ...phase B: inline writes...
     */
    class WriteOp
    {
      public:
        WriteOp(DsBase *ds, Key gate_key)
            : ds_(ds), gate_(ds->s_, ds->id_, gate_key),
              st_(ds->lockForWrite())
        {}

        /** True once begin() may run: the gate is held, or the lock
         *  failed (begin() then returns why). */
        bool admitted() { return !ok(st_) || gate_.tryAcquire(); }

        /** opBegin, remembering this op's op-log record. */
        Status begin(OpType op, Key key, const void *value, uint32_t len)
        {
            if (!ok(st_))
                return st_;
            FrontendSession &s = *ds_->s_;
            const Status st =
                s.opBegin(ds_->id_, ds_->backend_, op, key, value, len);
            if (ok(st))
                opref_ = s.currentOpRef(ds_->backend_);
            return st;
        }

        /**
         * Enter phase B: sibling ops may have opBegun while this one was
         * suspended, so point op-ref encoding back at this op's record.
         */
        void writeOut() { ds_->s_->restoreOpRef(ds_->backend_, opref_); }

      private:
        DsBase *ds_;
        FrontendSession::WindowGate gate_;
        Status st_;
        FrontendSession::OpRef opref_;
    };

    /**
     * Run @p body under the optimistic reader protocol: retried until
     * the sequence number validates, up to the configured retry limit.
     * Unshared handles (or the lock-holding writer itself) run the body
     * once without the protocol.
     */
    template <typename Fn>
    Status optimisticRead(Fn &&body)
    {
        if (ownsRoot())
            return body();
        uint64_t backoff = opt_.retry_backoff_ns;
        for (uint32_t attempt = 0; attempt < opt_.max_read_retries;
             ++attempt) {
            uint64_t sn = 0;
            Status st = s_->readerLock(id_, backend_, &sn);
            if (!ok(st))
                return st;
            st = body();
            if (st == Status::BackendCrashed || st == Status::Unavailable)
                return st;
            const bool consistent = s_->readerValidate(id_, backend_, sn);
            ++read_stats_.attempts;
            if (consistent)
                return st;
            ++read_stats_.retries; // Section 6.3: inconsistent, refetch
            // Back off in *virtual* time before refetching: the conflict
            // means a writer's critical section overlapped this read, and
            // waiting it out is part of the modeled read latency (the
            // first attempt stays uncharged, so uncontended reads cost
            // exactly what they did without the protocol).
            s_->clock().advance(backoff);
            backoff = std::min(backoff * 2, opt_.retry_backoff_cap_ns);
        }
        return Status::Conflict;
    }

    FrontendSession *s_ = nullptr;
    NodeId backend_ = kInvalidNode;
    std::string name_;
    DsId id_ = 0;
    DsOptions opt_;
    LevelAdmission admission_;
    OptimisticReadStats read_stats_;
    /**
     * The held root word, valid while ownsRoot(): an in-place tree's
     * root field (loadRoot, writeRoot), a multi-version tree's working
     * version (MvBase). reload() sets it.
     */
    uint64_t root_ = 0;

  private:
    RemotePtr rootField()
    {
        return s_->namingField(id_, backend_, naming_field::kRoot);
    }

    ReadHint rootHint(bool pin)
    {
        ReadHint hint;
        hint.ds = id_;
        hint.cacheable = true;
        hint.level = 0;
        hint.pin = pin;
        return hint;
    }

    /** The structure's own reload(), bound by install(). */
    Status (*reload_)(DsBase &) = nullptr;

    /**
     * Re-execute one uncovered keyed op log (Section 7.2): Insert and
     * Update upsert the logged value (HashTable's upsert is put(), the
     * ordered structures' insert()); Erase erases, and an already-absent
     * key is no error.
     */
    template <typename Ds>
    static Status replayKeyed(Ds &ds, const ParsedOpLog &op)
    {
        switch (op.op) {
          case OpType::Insert:
          case OpType::Update: {
            const Value v = loggedValue(op);
            if constexpr (requires { ds.put(op.key, v); })
                return ds.put(op.key, v);
            else
                return ds.insert(op.key, v);
          }
          case OpType::Erase: {
            const Status st = ds.erase(op.key);
            return st == Status::NotFound ? Status::Ok : st;
          }
          default:
            return Status::InvalidArgument;
        }
    }

    /**
     * Bind @p self's reload() and register its session hooks. The
     * failover hook and lockForWrite's writer refresh are the same
     * reload() that open() ran, so a live handle resyncs to the
     * recovered or successor writer's image exactly as a fresh open
     * would.
     */
    template <typename Ds>
    static void install(Ds *self)
    {
        FrontendSession &s = *self->s_;
        self->reload_ = [](DsBase &ds) {
            return static_cast<Ds &>(ds).reload();
        };
        s.setFailoverHook(self->id_, self->backend_,
                          [self] { return self->reload(); });
        self->installHooks();
        s.setReplayer(self->id_, self->backend_,
                      [self](const ParsedOpLog &op) {
                          if constexpr (requires { self->replay(op); })
                              return self->replay(op);
                          else
                              return replayKeyed(*self, op);
                      });
    }

  public:
    /** Observed optimistic-read statistics (failed-read ratio, §6.3). */
    const OptimisticReadStats &readStats() const { return read_stats_; }
    uint64_t readAttempts() const { return read_stats_.attempts; }
    uint64_t readRetries() const { return read_stats_.retries; }
    double readFailRatio() const { return read_stats_.failRatio(); }
    const LevelAdmission &admission() const { return admission_; }
};

} // namespace asymnvm

#endif // ASYMNVM_DS_DS_COMMON_H_
