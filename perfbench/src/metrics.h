#ifndef PERFBENCH_METRICS_H_
#define PERFBENCH_METRICS_H_

/**
 * @file
 * Measurement plumbing shared by the four workloads: per-call virtual
 * latency samples, counter tallies read from the library's public stats
 * getters, and the code that turns them into named metrics.
 *
 * Two metric maps come out of every run. `virt` holds everything derived
 * from virtual clocks and counters; it is a pure function of the seed and
 * the code, so two runs (traced or not) must agree on it byte for byte.
 * `host` holds host wall time and memory, which carry machine noise.
 */

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "backend/backend_node.h"
#include "frontend/session.h"
#include "trace.h"

namespace perfbench {

using Metrics = std::map<std::string, double>;

/** Options every workload receives from the command line. */
struct RunConfig
{
    uint64_t seed = 1;
    bool tiny = false;              //!< self-test sizes
    uint64_t process_start_ns = 0;  //!< host clock at main() entry
};

/** What a workload hands back to main. */
struct Result
{
    uint64_t attempted = 0; //!< measured operations issued
    uint64_t failed = 0;    //!< unexpected status or output mismatch
    std::vector<std::string> errors; //!< first few failures, for stderr
    Metrics virt;
    Metrics host;
    /** Host ns per op of each chunk of the measured phase (see CallLog);
     *  run.py turns the chunks of all rounds into host_ns_per_op. */
    std::vector<double> host_chunks;

    /** Count one failed operation and keep its description. */
    void fail(const std::string &why);
};

/**
 * Virtual latency of every measured public call (one op, one pipelined
 * window, or one transaction), the share of it spent in calls that
 * group-committed, and the host time the calls took, kept per chunk of
 * @p chunk_calls consecutive calls so that a burst of interference from
 * other tenants of the machine spoils a chunk rather than the figure.
 */
class CallLog
{
  public:
    explicit CallLog(uint64_t chunk_calls) : chunk_calls_(chunk_calls) {}

    /**
     * Run @p fn as one measured call on session @p s: record the session
     * clock delta around it, whether txFlushes() advanced during it, and
     * the host time it took, inside an "op" span on @p track.
     */
    template <typename Fn>
    auto
    measure(asymnvm::FrontendSession &s, Tracer &tr, uint32_t track,
            const char *name, Fn &&fn)
    {
        const uint64_t v0 = s.clock().now();
        const uint64_t flushes = s.txFlushes();
        const uint32_t id = tr.begin(name, "op", track, v0);
        const uint64_t h0 = hostNowNs();
        auto r = fn();
        chunk_host_ns_ += hostNowNs() - h0;
        const uint64_t v1 = s.clock().now();
        tr.end(id, v1);
        record(v1 - v0, s.txFlushes() != flushes);
        return r;
    }

    /**
     * Run @p fn as an unsampled call of the measured phase (an explicit
     * flushAll, a scheduled crash): its host time counts toward the
     * current chunk, its virtual time only through the session clocks.
     */
    template <typename Fn>
    auto
    hostTimed(Fn &&fn)
    {
        const uint64_t h0 = hostNowNs();
        auto r = fn();
        chunk_host_ns_ += hostNowNs() - h0;
        return r;
    }

    void record(uint64_t vns, bool committed);

    const std::vector<uint64_t> &samples() const { return lat_; }
    const std::vector<uint64_t> &commitSamples() const
    {
        return commit_lat_;
    }
    uint64_t totalNs() const { return total_ns_; }
    uint64_t commitNs() const { return commit_ns_; }

    /**
     * Host ns per call of each full chunk; host time left after the last
     * full chunk (the final flushAll) joins that chunk.
     */
    std::vector<double> hostNsPerCall() const;

  private:
    uint64_t chunk_calls_;
    std::vector<uint64_t> lat_;
    std::vector<uint64_t> commit_lat_;
    uint64_t total_ns_ = 0;
    uint64_t commit_ns_ = 0;
    std::vector<uint64_t> chunk_host_; //!< host ns of each full chunk
    uint64_t chunk_host_ns_ = 0;       //!< host ns of the open chunk
};

/** Front-end counters summed over sessions (each since its resetStats). */
struct SessionTally
{
    asymnvm::VerbCounters verbs;
    asymnvm::RetryStats retry;
    asymnvm::PrefetchStats prefetch;
    asymnvm::LogFormatStats logfmt;
    asymnvm::PipelineStats pipe;
    uint64_t ops_started = 0;
    uint64_t tx_flushes = 0;
    uint64_t cache_hits = 0;
    uint64_t cache_misses = 0;
    uint64_t cache_evictions = 0;
    uint64_t reads_local = 0;
    uint64_t reads_remote = 0;

    void add(asymnvm::FrontendSession &s);
};

/** Back-end counters of one node incarnation; differences give deltas. */
struct BackendTally
{
    uint64_t busy_ns = 0;
    uint64_t replayed_entries = 0;
    uint64_t rpc_calls = 0;
    uint64_t nic_busy_ns = 0;
    uint64_t gather_batches = 0;
    uint64_t gather_wqes = 0;
    uint64_t nvm_bytes = 0; //!< device bytesWritten
    uint64_t repl_batches = 0;
    uint64_t repl_persists = 0;
    uint64_t repl_ranges = 0;
    uint64_t repl_bytes = 0;

    static BackendTally of(asymnvm::BackendNode &be);
    BackendTally operator-(const BackendTally &o) const;
    BackendTally &operator+=(const BackendTally &o);
};

/** Everything one workload measured in its timed phase. */
struct Measured
{
    /** @p chunk_calls: calls per host-time chunk (see CallLog). */
    explicit Measured(uint64_t chunk_calls) : calls(chunk_calls) {}

    uint64_t ops = 0;      //!< operations (TATP: transactions)
    uint64_t vns = 0;      //!< virtual time of the slowest session
    uint64_t user_bytes_written = 0; //!< acknowledged writes x 72 B
    uint64_t nvm_alloc_bytes = 0;    //!< back-end blocks in use x size
    uint64_t live_user_bytes = 0;    //!< live keys x 72 B
    uint64_t mirror_bytes = 0;       //!< bytes replicated to mirrors
    CallLog calls;
    SessionTally sess;
    BackendTally be;
};

/** Host seconds of the setup steps, and when the first op was issued. */
struct SetupTimes
{
    double format_s = 0;
    double mirror_attach_s = 0;
    double preload_s = 0;
    uint64_t first_op_host_ns = 0;
};

/** User bytes of one key/value pair: an 8-B key plus a 64-B value. */
constexpr uint64_t kPairBytes = 8 + 64;

/** Bytes a back-end allocator has handed out (blocks in use x size). */
uint64_t allocatedBytes(asymnvm::BackendNode &be);

/**
 * Percentile (0 < p <= 100) of sorted samples as the mid-distribution
 * quantile: the function F(x) - P(X = x) / 2, linearly interpolated
 * between distinct sample values, inverted at p. Computed exactly from
 * the raw samples. Virtual latencies are discrete (every call down one
 * code path costs the same nanoseconds), and a nearest-rank percentile
 * would sit on one such value until the path mix crossed it; this one
 * stays monotone in p and moves with the share of calls each value holds.
 */
double percentile(const std::vector<uint64_t> &sorted, double p);

/**
 * Fill every end-to-end metric and every per-layer metric shared by the
 * workloads; workload-specific metrics (cluster.*, apps.*, failover
 * stall) are set to 0 here and overwritten by the workloads that have
 * them.
 */
void report(const Measured &m, const SetupTimes &setup,
            const RunConfig &rc, Result *out);

} // namespace perfbench

#endif // PERFBENCH_METRICS_H_
