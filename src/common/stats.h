#ifndef ASYMNVM_COMMON_STATS_H_
#define ASYMNVM_COMMON_STATS_H_

/**
 * @file
 * Lightweight statistics helpers used by benchmarks and by the node
 * busy-time accounting behind Figure 11 (CPU utilization).
 */

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace asymnvm {

/** A monotonically increasing, thread-safe event counter. */
class Counter
{
  public:
    void add(uint64_t n = 1) { v_.fetch_add(n, std::memory_order_relaxed); }
    uint64_t get() const { return v_.load(std::memory_order_relaxed); }
    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> v_{0};
};

/**
 * Fixed-bucket log-scale latency histogram (nanoseconds). Not thread-safe;
 * each benchmark thread keeps its own and merges at the end.
 */
class Histogram
{
  public:
    Histogram() : buckets_(64, 0) {}

    /** Record one sample. */
    void record(uint64_t ns)
    {
        int b = ns == 0 ? 0 : 64 - __builtin_clzll(ns);
        if (b >= 64)
            b = 63;
        ++buckets_[b];
        sum_ += ns;
        ++count_;
        max_ = std::max(max_, ns);
    }

    /** Merge another histogram into this one. */
    void merge(const Histogram &other);

    uint64_t count() const { return count_; }
    uint64_t max() const { return max_; }
    double mean() const
    {
        return count_ ? static_cast<double>(sum_) / count_ : 0;
    }

    /** Approximate percentile (0..100) from the log-scale buckets. */
    uint64_t percentile(double p) const;

    /**
     * Percentile with rank interpolation inside the containing log
     * bucket — resolves tails (p99.9) a power-of-two bucket bound
     * cannot. percentile() is kept as-is (its values appear in the
     * established benchmark tables); sweeps that report p999 use this.
     */
    uint64_t percentileInterp(double p) const;

    /** Render a short human-readable summary line. */
    std::string summary() const;

  private:
    std::vector<uint64_t> buckets_;
    uint64_t sum_ = 0;
    uint64_t count_ = 0;
    uint64_t max_ = 0;
};

/**
 * Per-queue-pair burst/WQE accounting snapshot from the back-end NIC's
 * per-QP contention model (src/sim/nic.h). One entry per QP that rang a
 * doorbell since the last reset; benchmarks print these to show how the
 * arrival stream divides across sessions and background shippers.
 */
struct NicQpCounters
{
    uint64_t bursts = 0; //!< doorbell arrivals accounted to this QP
    uint64_t wqes = 0;   //!< WQEs those arrivals carried
};

/**
 * Per-verb-type traffic counters kept by an RDMA endpoint (src/rdma).
 *
 * Benchmarks print these next to throughput so a verb-count regression on
 * the critical path (the quantity the paper's optimizations attack) is
 * visible even when virtual-time KOPS still looks plausible. `wqes` counts
 * work-queue entries after scatter-gather merging, so `posted - wqes` is
 * the number of writes coalesced away, and `doorbells` counts NIC kicks
 * (every synchronous verb rings its own; a flushed post-list chain rings
 * one per target).
 */
struct VerbCounters
{
    uint64_t reads = 0;        //!< synchronous RDMA_Read round trips
    uint64_t read_bytes = 0;
    uint64_t writes = 0;       //!< synchronous RDMA_Write round trips
    uint64_t write_bytes = 0;
    uint64_t posted = 0;       //!< posted (asynchronous) writes
    uint64_t posted_bytes = 0;
    uint64_t atomics = 0;      //!< CAS / fetch-add / atomic 8-byte r/w
    uint64_t atomic_bytes = 0;
    uint64_t doorbells = 0;    //!< NIC doorbell (MMIO) rings
    uint64_t wqes = 0;         //!< posted WQEs after sge coalescing
    uint64_t read_gathers = 0; //!< doorbell-batched read chains launched

    uint64_t totalVerbs() const { return reads + writes + posted + atomics; }
    uint64_t totalBytes() const
    {
        return read_bytes + write_bytes + posted_bytes + atomic_bytes;
    }
};

/**
 * Retry / failover observability kept alongside VerbCounters.
 *
 * The verbs layer counts every transient-fault event it absorbed (lost
 * completions, injected delays, QP error transitions) and the work it
 * spent recovering (re-issued verbs by type, accumulated backoff time,
 * QP resets); the RPC and session layers add duplicate-response drops,
 * idempotent resends, and completed back-end failovers. Benchmarks print
 * these next to the verb counters so a fault-rate knob's cost — and a
 * silent retry storm — is visible in virtual-time profiles.
 */
struct RetryStats
{
    uint64_t retries_read = 0;    //!< re-issued synchronous reads
    uint64_t retries_write = 0;   //!< re-issued synchronous writes
    uint64_t retries_posted = 0;  //!< re-issued posted writes
    uint64_t retries_atomic = 0;  //!< re-issued atomics
    uint64_t timeouts = 0;        //!< completions lost (verb timeout paid)
    uint64_t delayed = 0;         //!< completions delayed by a fault
    uint64_t qp_errors = 0;       //!< QP error-state transitions observed
    uint64_t qp_resets = 0;       //!< QP reset/reconnect cycles performed
    uint64_t backoff_ns = 0;      //!< virtual time spent backing off
    uint64_t rpc_resends = 0;     //!< RPC requests re-written (same seq)
    uint64_t rpc_dup_responses = 0; //!< stale/duplicate responses dropped
    uint64_t failovers = 0;         //!< back-end failovers completed
    uint64_t failover_wait_ns = 0;  //!< virtual time waiting on promotion
    uint64_t promotions_won = 0;    //!< mirror promotions this session won
    uint64_t promotions_lost = 0;   //!< promotion races lost to a peer
    uint64_t stale_epoch_fenced = 0; //!< re-resolves forced by epoch fence

    uint64_t totalRetries() const
    {
        return retries_read + retries_write + retries_posted +
               retries_atomic;
    }

    /** Merge another layer's counters into this snapshot. */
    void merge(const RetryStats &o)
    {
        retries_read += o.retries_read;
        retries_write += o.retries_write;
        retries_posted += o.retries_posted;
        retries_atomic += o.retries_atomic;
        timeouts += o.timeouts;
        delayed += o.delayed;
        qp_errors += o.qp_errors;
        qp_resets += o.qp_resets;
        backoff_ns += o.backoff_ns;
        rpc_resends += o.rpc_resends;
        rpc_dup_responses += o.rpc_dup_responses;
        failovers += o.failovers;
        failover_wait_ns += o.failover_wait_ns;
        promotions_won += o.promotions_won;
        promotions_lost += o.promotions_lost;
        stale_epoch_fenced += o.stale_epoch_fenced;
    }
};

/**
 * Mirror-replication batching observability (Section 7.1).
 *
 * Replication ships one coalesced batch of byte ranges per committed
 * transaction (or group-commit batch) and issues one mirror persist per
 * batch — `persists / batches` therefore equals the mirror count, and
 * `raw_writes / ranges` is the coalescing factor. A retry is one
 * transient-faulted transfer re-shipped; a dropped mirror is one that
 * outlived the whole retry budget and was detached (Case 5) so the
 * commit could proceed.
 */
struct ReplicationStats
{
    uint64_t batches = 0;        //!< replication batches shipped
    uint64_t persists = 0;       //!< mirror persist fences issued
    uint64_t raw_writes = 0;     //!< mutation records before coalescing
    uint64_t ranges = 0;         //!< coalesced byte ranges shipped
    uint64_t bytes = 0;          //!< payload bytes per-mirror-shipped
    uint64_t retries = 0;        //!< transfers re-shipped after a fault
    uint64_t backoff_ns = 0;     //!< back-end time spent backing off
    uint64_t mirrors_dropped = 0; //!< mirrors detached (retry storm)
};

/**
 * Traversal-prefetch observability (read-side doorbell batching).
 *
 * `batches` counts readGather launches that carried speculation and
 * `issued` the speculative WQEs they added; the cache reports how many of
 * those speculative entries were later `hits` (promoted by a real lookup)
 * versus `wasted` (evicted or invalidated while still speculative, or
 * dropped in flight by a gc_epoch bump). A hit ratio near zero means the
 * prefetch policy fetches the wrong neighbors and only burns wire bytes;
 * the per-structure gate then closes and counts the misses it kept
 * demand-only as `gated`.
 */
struct PrefetchStats
{
    uint64_t batches = 0; //!< gather batches carrying speculative WQEs
    uint64_t issued = 0;  //!< speculative read WQEs issued
    uint64_t hits = 0;    //!< speculative entries promoted by a real hit
    uint64_t wasted = 0;  //!< dropped/evicted before any hit
    /** Misses whose candidates the per-structure speculation gate
     *  dropped (DESIGN.md §9); probes through a closed gate count as
     *  issued, not here. */
    uint64_t gated = 0;
};

/**
 * Operation-pipelining observability (coroutine-overlapped round trips).
 *
 * The reactor behind FrontendSession::executePipelined admits up to
 * `pipeline_depth` operations and launches their parked reads as
 * *flights*: doorbell-batched gathers, up to two on the wire at once
 * (DESIGN.md §11). `rounds`, `solo_rounds` and `batched_reads` count
 * flights: `rounds` is flights launched with at least one read on the
 * wire, `batched_reads / rounds` the demanded reads per flight (the
 * overlap factor), and `solo_rounds` the flights that carried a single
 * demanded read. perfbench's `frontend.pipeline_overlap` and
 * `frontend.pipeline_solo_round_frac` read these fields. `ops` counts
 * operations completed through the pipelined executor (depth > 1 only;
 * depth 1 runs the serial path and leaves all of this zero).
 */
struct PipelineStats
{
    uint64_t depth = 0;         //!< configured pipeline_depth
    uint64_t ops = 0;           //!< ops completed via the pipelined path
    uint64_t runs = 0;          //!< executePipelined invocations (depth>1)
    uint64_t rounds = 0;        //!< flights launched (read gathers)
    uint64_t batched_reads = 0; //!< demanded reads the flights served
    uint64_t solo_rounds = 0;   //!< flights of a single demanded read
    uint64_t max_in_flight = 0; //!< peak ops admitted concurrently
    uint64_t deferred_commits = 0; //!< commit fences coalesced to drain
    uint64_t batched_appends = 0;  //!< op-log appends posted onto a WQE
                                   //!< chain instead of fenced solo
    uint64_t coalesced_fences = 0; //!< per-op commit fences absorbed into
                                   //!< the single drain flushAll
    uint64_t dep_stalls = 0;       //!< same-key dependency waits + read-set
                                   //!< validation restarts inside windows

    double overlap() const
    {
        return rounds == 0
                   ? 0.0
                   : static_cast<double>(batched_reads) / rounds;
    }
};

/**
 * Optimistic-read protocol outcome (Section 6.3): attempts through the
 * retry-based reader lock and how many of them failed seqlock validation
 * (the paper's "failed read ratio"). Kept per data structure handle and
 * printed next to the verb retry counters so reader/writer contention is
 * visible in the same traffic profile as transient-fault retries.
 */
struct OptimisticReadStats
{
    uint64_t attempts = 0; //!< validated optimistic read attempts
    uint64_t retries = 0;  //!< attempts that failed validation

    double failRatio() const
    {
        return attempts == 0
                   ? 0.0
                   : static_cast<double>(retries) / attempts;
    }

    void merge(const OptimisticReadStats &o)
    {
        attempts += o.attempts;
        retries += o.retries;
    }
};

/**
 * Throughput computed against *virtual* time: the simulator measures
 * operations against the per-session SimClock rather than wall time, so
 * results reproduce the paper's shape deterministically.
 */
struct Throughput
{
    uint64_t ops = 0;
    uint64_t virtual_ns = 0;

    /** Thousand operations per second of virtual time. */
    double kops() const
    {
        return virtual_ns == 0 ? 0
                               : static_cast<double>(ops) * 1e6 / virtual_ns;
    }

    /** Million operations per second of virtual time. */
    double mops() const { return kops() / 1000.0; }
};

} // namespace asymnvm

#endif // ASYMNVM_COMMON_STATS_H_
