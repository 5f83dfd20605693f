#ifndef ASYMNVM_BENCH_BENCH_COMMON_H_
#define ASYMNVM_BENCH_BENCH_COMMON_H_

/**
 * @file
 * Shared scaffolding for the table/figure reproduction benchmarks.
 *
 * Throughput is measured against *virtual time* (see DESIGN.md §2): the
 * per-session SimClock accumulates the modeled cost of every NVM access,
 * RDMA verb and CPU step, so `ops / virtual seconds` reproduces the
 * paper's performance shape deterministically, with no wall-clock
 * benchmarking library. Each binary is a self-contained harness that
 * prints the same rows/series the paper's table or figure reports and
 * writes its cells through the one report writer (report.h).
 */

#include <cinttypes>
#include <cstdlib>
#include <thread>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "backend/backend_node.h"
#include "common/stats.h"
#include "ds/bptree.h"
#include "ds/bst.h"
#include "ds/hash_table.h"
#include "ds/mv_bptree.h"
#include "ds/mv_bst.h"
#include "ds/queue.h"
#include "ds/skiplist.h"
#include "ds/stack.h"
#include "frontend/session.h"
#include "workload/workload.h"

#include "report.h"

namespace asymnvm::bench {

/** The system variants of Table 3. */
enum class Mode
{
    Symmetric,
    SymmetricB,
    Naive,
    R,
    RC,
    RCB,
};

inline const char *
modeName(Mode m)
{
    switch (m) {
      case Mode::Symmetric: return "Symmetric";
      case Mode::SymmetricB: return "Symmetric-B";
      case Mode::Naive: return "AsymNVM-Naive";
      case Mode::R: return "AsymNVM-R";
      case Mode::RC: return "AsymNVM-RC";
      case Mode::RCB: return "AsymNVM-RCB";
    }
    return "?";
}

/** Default back-end sizing used by the benchmarks. */
inline BackendConfig
benchBackendConfig(uint64_t nvm_mb = 128, uint32_t max_frontends = 8)
{
    BackendConfig cfg;
    cfg.nvm_size = nvm_mb << 20;
    cfg.max_frontends = max_frontends;
    cfg.max_names = 64;
    cfg.memlog_ring_size = 4ull << 20;
    cfg.oplog_ring_size = 2ull << 20;
    return cfg;
}

/**
 * Session configuration for a mode. @p cache_bytes applies to the C/B
 * variants (Table 3 runs with 10% of the NVM size); @p batch to B.
 */
inline SessionConfig
sessionFor(Mode mode, uint64_t id, uint64_t cache_bytes = 12ull << 20,
           uint32_t batch = 1024)
{
    switch (mode) {
      case Mode::Symmetric:
        return SessionConfig::symmetricBase(id, false);
      case Mode::SymmetricB:
        return SessionConfig::symmetricBase(id, true);
      case Mode::Naive:
        return SessionConfig::naive(id);
      case Mode::R:
        return SessionConfig::r(id);
      case Mode::RC:
        return SessionConfig::rc(id, cache_bytes);
      case Mode::RCB:
        return SessionConfig::rcb(id, cache_bytes, batch);
    }
    return SessionConfig::naive(id);
}

/** A structure's column name in the paper's tables. */
template <typename DS>
constexpr const char *
dsName()
{
    if constexpr (std::is_same_v<DS, BpTree>)
        return "BPT";
    else if constexpr (std::is_same_v<DS, Bst>)
        return "BST";
    else if constexpr (std::is_same_v<DS, SkipList>)
        return "SkipList";
    else if constexpr (std::is_same_v<DS, MvBpTree>)
        return "MV-BPT";
    else if constexpr (std::is_same_v<DS, MvBst>)
        return "MV-BST";
    else if constexpr (std::is_same_v<DS, HashTable>)
        return "HashTbl";
    else if constexpr (std::is_same_v<DS, Queue>)
        return "Queue";
    else
        return "Stack";
}

/**
 * Approximate NVM footprint per key of each structure, used to size the
 * front-end cache at a *fraction of the data set* (the paper's "caching
 * 10% NVM size" with terabyte-class data; at simulation scale the cache
 * must scale with the structure or it would trivially hold everything).
 */
template <typename DS>
constexpr uint64_t
bytesPerKey()
{
    if constexpr (std::is_same_v<DS, SkipList>)
        return 208;
    else if constexpr (std::is_same_v<DS, BpTree> ||
                       std::is_same_v<DS, MvBpTree>)
        return 100; // ~528B node / 16 keys + 64B value cell + slack
    else
        return 88; // BST/MV-BST nodes, hash-table chain nodes
}

/** Cache capacity for @p pct (0..1) of an @p nkeys data set. */
template <typename DS>
uint64_t
cacheBytesFor(double pct, uint64_t nkeys)
{
    const double bytes = pct * static_cast<double>(nkeys) *
                         static_cast<double>(bytesPerKey<DS>());
    return std::max<uint64_t>(static_cast<uint64_t>(bytes), 16 << 10);
}

/** Keyed-structure driver: put/get via whichever interface the DS has. */
template <typename DS>
Status
dsPut(DS &ds, Key key, const Value &v)
{
    if constexpr (requires { ds.put(key, v); })
        return ds.put(key, v);
    else
        return ds.insert(key, v);
}

template <typename DS>
Status
dsGet(DS &ds, Key key, Value *out)
{
    if constexpr (requires { ds.get(key, out); })
        return ds.get(key, out);
    else
        return ds.find(key, out);
}

/** List-structure driver: push/pop at whichever end the DS has. */
template <typename DS>
Status
dsPush(DS &ds, const Value &v)
{
    if constexpr (std::is_same_v<DS, Queue>)
        return ds.enqueue(v);
    else
        return ds.push(v);
}

template <typename DS>
Status
dsPop(DS &ds, Value *out)
{
    if constexpr (std::is_same_v<DS, Queue>)
        return ds.dequeue(out);
    else
        return ds.pop(out);
}

/**
 * Run a pre-generated workload against a keyed structure on session
 * @p s, one measured call per operation on @p m.
 *
 * @p interleave yields the host thread after every operation so that
 * concurrent sessions interleave at operation granularity — on a host
 * with few cores, timeslice-granularity scheduling would otherwise let
 * each session run alone and hide the shared-NIC contention the
 * multi-front-end figures measure.
 */
template <typename DS>
Throughput
runKvWorkload(Meter &m, FrontendSession &s, DS &ds,
              const std::vector<WorkItem> &ops, bool interleave = false)
{
    const uint64_t t0 = s.clock().now();
    uint64_t puts = 0;
    for (const WorkItem &item : ops) {
        m.call(s, [&] {
            if (item.op == WorkOp::Put) {
                (void)dsPut(ds, item.key, item.value);
                ++puts;
            } else {
                Value v;
                (void)dsGet(ds, item.key, &v);
            }
        });
        if (interleave)
            std::this_thread::yield();
    }
    (void)s.flushAll();
    m.wrotePairs(puts);
    return Throughput{ops.size(), s.clock().now() - t0};
}

/** Preload a keyed structure with the workload's key space. */
template <typename DS>
void
preloadKeys(FrontendSession &s, DS &ds, const WorkloadConfig &wcfg,
            uint64_t n)
{
    WorkloadConfig load_cfg = wcfg;
    load_cfg.put_ratio = 1.0;
    load_cfg.dist = KeyDist::Uniform; // cover the space evenly
    Workload loader(load_cfg);
    for (uint64_t i = 0; i < n; ++i) {
        const WorkItem item = loader.next();
        (void)dsPut(ds, item.key, item.value);
    }
    (void)s.flushAll();
}

/** Print a table header. */
inline void
printHeader(const std::string &title, const std::string &columns)
{
    std::printf("\n=== %s ===\n%s\n", title.c_str(), columns.c_str());
}

/**
 * One line of the per-verb traffic profile (reads/writes/posted/atomics
 * with byte volumes, plus WQE and doorbell counts). The doorbell column
 * is the one the coalescing work optimizes: batched modes should show
 * doorbells far below the posted-verb count.
 */
inline void
printVerbCounters(const char *label, const VerbCounters &c)
{
    std::printf("%-14s reads %8" PRIu64 " (%6.1f KB)  writes %8" PRIu64
                " (%6.1f KB)  posted %8" PRIu64 " (%6.1f KB)  atomics %6" PRIu64
                "  wqes %8" PRIu64 "  doorbells %8" PRIu64 "\n",
                label, c.reads, c.read_bytes / 1024.0, c.writes,
                c.write_bytes / 1024.0, c.posted, c.posted_bytes / 1024.0,
                c.atomics, c.wqes, c.doorbells);
}

/**
 * One line of the retry/failover profile that accompanies the verb
 * counters: how much transient-fault absorption (re-issued verbs,
 * timeouts, QP resets, backoff time) and failover work a run performed.
 * A fault-free run prints all zeros — any other value on a clean
 * configuration is a silent retry storm worth investigating.
 */
inline void
printRetryCounters(const char *label, const RetryStats &r,
                   const OptimisticReadStats *reads = nullptr)
{
    std::printf("%-14s retries %6" PRIu64 " (r %4" PRIu64 " w %4" PRIu64
                " p %4" PRIu64 " a %4" PRIu64 ")  timeouts %5" PRIu64
                "  qp-resets %3" PRIu64 "  backoff %7.1f us  resends %4"
                PRIu64 "  failovers %2" PRIu64,
                label, r.totalRetries(), r.retries_read, r.retries_write,
                r.retries_posted, r.retries_atomic, r.timeouts,
                r.qp_resets, r.backoff_ns / 1000.0, r.rpc_resends,
                r.failovers);
    if (r.promotions_won + r.promotions_lost + r.stale_epoch_fenced > 0)
        // Multi-session failover only: how this session fared in the
        // promotion races (epoch-claim CAS) and how often the epoch
        // fence forced it to re-resolve a condemned back-end.
        std::printf("  promo-won %2" PRIu64 "  promo-lost %3" PRIu64
                    "  stale-fenced %3" PRIu64,
                    r.promotions_won, r.promotions_lost,
                    r.stale_epoch_fenced);
    if (reads != nullptr)
        // §6.3 failed-read ratio: optimistic-read attempts invalidated by
        // a concurrent writer and re-run. 0/0 on unshared runs.
        std::printf("  failed-reads %" PRIu64 "/%" PRIu64 " (%.2f%%)",
                    reads->retries, reads->attempts,
                    100.0 * reads->failRatio());
    std::printf("\n");
}

/**
 * One line of the pipelined-execution profile: configured depth, ops run
 * through the reactor, flights (its read gathers, printed as rounds)
 * and the demanded reads they served (overlap = reads per flight — the
 * RTT amortization factor), solo flights (one demanded read), peak
 * in-flight ops, and commit fences
 * coalesced to window drains. Write-pipelining adds op-log appends that
 * rode a batched WQE chain instead of a solo fenced write, per-op
 * commit fences absorbed into the drain flushAll, and dependency
 * stalls (same-key ordering waits + read-set validation restarts).
 * All zeros on a non-pipelined run.
 */
inline void
printPipelineCounters(const char *label, const PipelineStats &p)
{
    std::printf("%-14s depth %2" PRIu64 "  ops %8" PRIu64 "  rounds %7"
                PRIu64 "  batched-reads %8" PRIu64 " (overlap %.2f)"
                "  stalls %6" PRIu64 "  max-in-flight %2" PRIu64
                "  coalesced-commits %5" PRIu64 "\n",
                label, p.depth, p.ops, p.rounds, p.batched_reads,
                p.overlap(), p.solo_rounds, p.max_in_flight,
                p.deferred_commits);
    if (p.batched_appends + p.coalesced_fences + p.dep_stalls > 0)
        // Write-side profile: only printed when write ops actually ran
        // through a pipelined window.
        std::printf("%-14s   batched-appends %6" PRIu64
                    "  coalesced-fences %6" PRIu64
                    "  dep-stalls %6" PRIu64 "\n",
                    "", p.batched_appends, p.coalesced_fences,
                    p.dep_stalls);
}

/** True when ASYMNVM_BENCH_TINY requests smoke-test parameters. */
inline bool
benchTiny()
{
    const char *v = std::getenv("ASYMNVM_BENCH_TINY");
    return v != nullptr && v[0] != '\0' && v[0] != '0';
}

} // namespace asymnvm::bench

#endif // ASYMNVM_BENCH_BENCH_COMMON_H_
