#ifndef ASYMNVM_FRONTEND_PIPELINE_H_
#define ASYMNVM_FRONTEND_PIPELINE_H_

/**
 * @file
 * Coroutine-pipelined session operations.
 *
 * A depth-d remote traversal pays d dependent round trips even with the
 * read-gather prefetch: the next hop's address is only known after the
 * current node arrives. One *operation* therefore cannot go faster than
 * its pointer-chase depth — but one *session* can, by keeping several
 * independent operations in flight and overlapping their round trips.
 *
 * The data structure read AND write paths (bptree, mv_bptree, skiplist,
 * hash_table, stack, queue) are resumable C++20 coroutines returning
 * OpTask — the one implementation of each operation: the serial entry
 * points (insert, find, put, pop, ...) drive the same coroutine inline
 * through FrontendSession::runInline, where it never suspends. Each
 * remote fetch becomes a suspension point (`co_await
 * session->asyncRead`): when the requested bytes are local (overlay /
 * pin / cache) the awaitable completes inline and the coroutine keeps
 * running; on a remote miss it parks a PendingRead with the session's
 * reactor and suspends. The reactor
 * (FrontendSession::executePipelined) keeps a window of
 * `SessionConfig::pipeline_depth` operations admitted and launches the
 * suspended ops' demanded reads as doorbell-batched read chains
 * (Verbs::readGather — one doorbell, one NIC arrival, one RTT plus
 * combined wire bytes), up to two on the wire at once; while one is,
 * it resumes every op that is not waiting on it. N in-flight depth-d
 * lookups thus cost ~d round trips instead of N*d.
 *
 * Write ops pipeline in two phases. Phase A — the traversal reads the
 * op performs before its first write — suspends like a lookup and joins
 * a shared read gather; every read is stamped with the session-local
 * write sequence it observed. Phase B — the write-out — runs inline and
 * unsuspended once the read set validates, so it is atomic with respect
 * to sibling window ops. A same-key/same-structure conflict is prevented
 * up front by a WindowGate (later ops park until the earlier one
 * retires), and a stale read set (a sibling wrote under a suspended
 * descent) triggers a re-descent against the now-local tiers rather than
 * a wire retry. The ops' op-log/memory-log appends ride one
 * doorbell-batched WQE chain per read gather, and their commit fences
 * coalesce into a single flush at window drain
 * (PipelineStats::{batched_appends, coalesced_fences}).
 *
 * Depth 1 (the default) and inline ops never suspend: asyncRead falls
 * through to FrontendSession::read and opBegin/opEnd keep their per-op
 * fence behavior, so a depth-1 window costs exactly what the same ops
 * called one by one cost — the ablation baseline.
 *
 * No OS threads are involved: coroutine frames are resumed from the
 * reactor loop on the session thread, in virtual time.
 */

#include <coroutine>
#include <cstddef>
#include <cstdint>
#include <utility>

#include "common/types.h"

namespace asymnvm {

/**
 * Coroutine-frame storage for OpTask: a small per-thread cache of freed
 * frames, so a serial loop (one frame per operation) stops paying a
 * malloc/free pair per call. Sessions are single-threaded, so per-thread
 * is per-session in practice.
 */
void *frameAlloc(std::size_t n);
void frameFree(void *p, std::size_t n);

/**
 * A resumable session operation. The coroutine body is a data structure
 * read/write path; `co_return Status` delivers the operation's result.
 *
 * Lazily started (initial_suspend = always): creating an OpTask runs no
 * user code until the reactor admits it with resume(), so a caller can
 * build a batch of tasks and hand them to executePipelined together.
 */
class OpTask
{
  public:
    struct promise_type
    {
        Status result = Status::Ok;

        static void *operator new(std::size_t n) { return frameAlloc(n); }
        static void operator delete(void *p, std::size_t n)
        {
            frameFree(p, n);
        }

        OpTask get_return_object() noexcept
        {
            return OpTask(Handle::from_promise(*this));
        }
        std::suspend_always initial_suspend() noexcept { return {}; }
        std::suspend_always final_suspend() noexcept { return {}; }
        void return_value(Status st) noexcept { result = st; }
        void unhandled_exception() noexcept { result = Status::Corruption; }
    };

    using Handle = std::coroutine_handle<promise_type>;

    OpTask() = default;
    explicit OpTask(Handle h) : h_(h) {}
    OpTask(OpTask &&o) noexcept : h_(std::exchange(o.h_, nullptr)) {}
    OpTask &operator=(OpTask &&o) noexcept
    {
        if (this != &o) {
            destroy();
            h_ = std::exchange(o.h_, nullptr);
        }
        return *this;
    }
    OpTask(const OpTask &) = delete;
    OpTask &operator=(const OpTask &) = delete;
    ~OpTask() { destroy(); }

    /** Run until the next suspension point (or completion). */
    void resume()
    {
        if (h_ && !h_.done())
            h_.resume();
    }

    /** True once the coroutine ran to its co_return. */
    bool done() const { return !h_ || h_.done(); }

    /** The operation's result; valid once done(). */
    Status status() const
    {
        return h_ ? h_.promise().result : Status::InvalidArgument;
    }

    bool valid() const { return static_cast<bool>(h_); }

  private:
    void destroy()
    {
        if (h_) {
            h_.destroy();
            h_ = nullptr;
        }
    }

    Handle h_;
};

} // namespace asymnvm

#endif // ASYMNVM_FRONTEND_PIPELINE_H_
