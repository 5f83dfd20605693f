/**
 * @file
 * Many-session scale-out at the shared back-end NIC.
 *
 * Section 3.2 pins the scaling bottleneck for fine-grained remote data
 * structure access on the RNIC's IOPS ceiling, not bandwidth; every
 * batching optimization so far coalesces ONE session's verb stream.
 * This bench measures what happens when 1→256 sessions share one
 * back-end, under three NIC models:
 *
 *   legacy   — the cumulative-utilization scalar (nic_cross_session_merge
 *              off): every pre-existing result reproduces bit-identically
 *              under it, but a session's wait ignores who else is live.
 *   noagg    — the per-QP contention model with cross-session doorbell
 *              aggregation disabled (merge_window_ns = 0): every doorbell
 *              pays its own NIC arrival processing and queues behind the
 *              other QPs' round-robin drain.
 *   merge    — the same model with aggregation on: doorbells landing
 *              within the merge window (or while same-class backlog
 *              drains) coalesce into one NIC arrival burst and skip the
 *              per-doorbell overhead.
 *
 * Reported per point: aggregate KOPS (total ops over the slowest
 * session's elapsed virtual time), per-session-latency p50/p99/p999
 * (per-session histograms merged; interpolated percentiles), the worst
 * single session's p99, and the share of doorbells that merged. The
 * merge column should pull ahead of noagg as the session count grows —
 * that delta is the cross-session aggregation win.
 *
 * The second table is the foreground-latency-vs-background-bandwidth
 * frontier: one foreground session runs while a background shipper QP
 * (replication/recovery-replay class) injects bursts at increasing
 * rates, with the QoS arbiter uncapped (bg share 100%) versus capped
 * (25%). Uncapped, foreground p99 collapses once the storm saturates
 * the NIC; capped, the arbiter bounds how much background backlog may
 * drain ahead of each foreground burst and paces the shipper, so
 * foreground p99 holds near its idle-background value while background
 * still moves at the configured share.
 */

#include <algorithm>
#include <memory>

#include "bench_common.h"
#include "ds/hash_table.h"

namespace asymnvm::bench {
namespace {

uint64_t kPreloadPerSession = 200;
uint64_t kOpsPerSession = 400;
uint64_t kFrontierOps = 4000;

Report report("multisession");

/** NIC-model variants of the session sweep. */
enum class NicMode
{
    Legacy,
    NoAgg,
    Merge,
};

const char *
nicModeName(NicMode m)
{
    switch (m) {
      case NicMode::Legacy: return "legacy";
      case NicMode::NoAgg: return "noagg";
      case NicMode::Merge: return "merge";
    }
    return "?";
}

NicQosConfig
nicQosFor(NicMode m)
{
    NicQosConfig q; // defaults: legacy scalar model
    switch (m) {
      case NicMode::Legacy:
        break;
      case NicMode::NoAgg:
        q.cross_session_merge = true;
        q.merge_window_ns = 0;
        break;
      case NicMode::Merge:
        q.cross_session_merge = true;
        break;
    }
    return q;
}

BackendConfig
multiSessionBackend(uint32_t nsessions)
{
    BackendConfig cfg;
    cfg.nvm_size = (48ull << 20) + nsessions * (1ull << 20);
    cfg.max_frontends = std::max(8u, nsessions);
    cfg.max_names = std::max<uint32_t>(64, nsessions + 8);
    cfg.memlog_ring_size = 128ull << 10;
    cfg.oplog_ring_size = 128ull << 10;
    return cfg;
}

/**
 * k sessions, each with a private hash table on one shared back-end,
 * interleaved at operation granularity (round-robin) so their virtual
 * clocks stay in rough lockstep — the regime in which cross-session
 * timestamps at the NIC are comparable. Per-op latency is the issuing
 * session's clock delta, recorded into a per-session histogram.
 * Prints the sweep row: aggregate KOPS (total ops over the slowest
 * session's virtual time), merged per-session latency percentiles, the
 * worst session's p99 and the share of doorbells that coalesced.
 */
void
runSweepPoint(NicMode mode, uint32_t nsessions)
{
    BackendConfig bcfg = multiSessionBackend(nsessions);
    bcfg.nic_qos = nicQosFor(mode);
    BackendNode be(1, bcfg);

    struct Lane
    {
        std::unique_ptr<FrontendSession> s;
        HashTable ht;
        Workload w{WorkloadConfig{}};
        Histogram lat;
        uint64_t t0 = 0;
    };
    std::vector<Lane> lanes(nsessions);
    for (uint32_t j = 0; j < nsessions; ++j) {
        Lane &ln = lanes[j];
        ln.s = std::make_unique<FrontendSession>(
            SessionConfig::rcb(j + 1, 256ull << 10, 64));
        if (!ok(ln.s->connect(&be)))
            return;
        if (!ok(HashTable::create(*ln.s, 1, "ms_" + std::to_string(j), 64,
                                  &ln.ht)))
            return;
        WorkloadConfig wcfg;
        wcfg.key_space = kPreloadPerSession;
        wcfg.seed = 42 + j;
        preloadKeys(*ln.s, ln.ht, wcfg, kPreloadPerSession);
        WorkloadConfig mcfg = wcfg;
        mcfg.put_ratio = 0.5;
        mcfg.seed = 99 + j;
        ln.w = Workload(mcfg);
        ln.s->resetStats();
        ln.t0 = ln.s->clock().now();
    }
    be.nic().resetStats();
    Meter m;
    m.watch(be);
    for (Lane &ln : lanes)
        m.watch(*ln.s);

    const uint64_t total_ops = kOpsPerSession * nsessions;
    for (uint64_t i = 0; i < total_ops; ++i) {
        Lane &ln = lanes[i % nsessions];
        const uint64_t op_t0 = ln.s->clock().now();
        m.call(*ln.s, [&] {
            const WorkItem item = ln.w.next();
            if (item.op == WorkOp::Put)
                (void)ln.ht.put(item.key, item.value);
            else {
                Value v;
                (void)ln.ht.get(item.key, &v);
            }
        });
        ln.lat.record(ln.s->clock().now() - op_t0);
    }
    for (Lane &ln : lanes)
        (void)ln.s->flushAll();
    Cell cell = m.finish(total_ops);

    uint64_t max_dt = 0, worst_p99 = 0;
    Histogram all;
    for (Lane &ln : lanes) {
        max_dt = std::max(max_dt, ln.s->clock().now() - ln.t0);
        worst_p99 = std::max(worst_p99, ln.lat.percentileInterp(99));
        all.merge(ln.lat);
    }
    const uint64_t bursts = be.nic().classBursts(VerbClass::Foreground);
    const double merged_pct =
        bursts == 0 ? 0
                    : 100.0 * be.nic().classMerged(VerbClass::Foreground) /
                          bursts;
    std::printf("%-8s %8u %10.1f %8" PRIu64 " %8" PRIu64 " %8" PRIu64
                " %13" PRIu64 " %8.1f\n",
                nicModeName(mode), nsessions,
                Throughput{total_ops, max_dt}.kops(),
                all.percentileInterp(50), all.percentileInterp(99),
                all.percentileInterp(99.9), worst_p99, merged_pct);
    cell.virt["worst_session_p99_ns"] = static_cast<double>(worst_p99);
    cell.virt["merged_pct"] = merged_pct;
    report.add({{"table", "sweep"},
                {"nic", nicModeName(mode)},
                {"sessions", std::to_string(nsessions)}},
               std::move(cell));
}

/**
 * One foreground RCB session against a storm on a background shipper
 * QP. Every 4 foreground ops the shipper rings one burst of
 * @p bg_wqes_per_round WQEs at the back-end NIC (Background class) —
 * the arrival pattern of mirror-replication shipping under load; the
 * burst's own queueing wait is the shipper's problem and is charged to
 * nobody here, but its backlog is what foreground verbs now contend
 * with. 64B per background WQE approximates coalesced log ranges.
 * Prints the frontier row.
 */
void
runFrontierPoint(uint32_t bg_share_pct, uint64_t bg_wqes_per_round)
{
    BackendConfig bcfg = multiSessionBackend(1);
    bcfg.nic_qos.cross_session_merge = true;
    bcfg.nic_qos.bg_share_pct = bg_share_pct;
    BackendNode be(1, bcfg);

    FrontendSession s(SessionConfig::rcb(1, 256ull << 10, 64));
    if (!ok(s.connect(&be)))
        return;
    HashTable ht;
    if (!ok(HashTable::create(s, 1, "frontier", 64, &ht)))
        return;
    WorkloadConfig wcfg;
    wcfg.key_space = kPreloadPerSession * 4;
    wcfg.seed = 42;
    preloadKeys(s, ht, wcfg, kPreloadPerSession * 4);
    s.resetStats();
    be.nic().resetStats();

    WorkloadConfig mcfg = wcfg;
    mcfg.put_ratio = 0.5;
    mcfg.seed = 7;
    Workload w(mcfg);
    Histogram lat;
    Meter m(s, be);
    const uint64_t t0 = s.clock().now();
    for (uint64_t i = 0; i < kFrontierOps; ++i) {
        if (bg_wqes_per_round != 0 && i % 4 == 0) {
            // The shipper's clock rides the foreground session's (the
            // back-end batches on commit boundaries of live traffic).
            (void)be.nic().reserveBatch(bg_wqes_per_round,
                                        s.clock().now(),
                                        kShipperQpBase + 1,
                                        VerbClass::Background);
        }
        const uint64_t op_t0 = s.clock().now();
        m.call(s, [&] {
            const WorkItem item = w.next();
            if (item.op == WorkOp::Put)
                (void)ht.put(item.key, item.value);
            else {
                Value v;
                (void)ht.get(item.key, &v);
            }
        });
        lat.record(s.clock().now() - op_t0);
    }
    (void)s.flushAll();
    Cell cell = m.finish(kFrontierOps);

    const uint64_t dt = s.clock().now() - t0;
    // Background goodput: 64B per WQE over the background stream's own
    // completion horizon — the run's span plus the pacing stall the
    // arbiter charged the shipper. A capped shipper delivers the same
    // bytes later; dividing by the foreground span alone would make the
    // cap look like a bandwidth win instead of the trade it is.
    const uint64_t bg_wqes = be.nic().classWqes(VerbClass::Background);
    const uint64_t bg_span = dt + be.nic().bgThrottleNs();
    const double bg_mbps =
        bg_span == 0 ? 0 : 64.0 * bg_wqes * 1e9 / (1u << 20) / bg_span;
    const double bg_throttle_us = be.nic().bgThrottleNs() / 1000.0;
    std::printf("%8u %15" PRIu64 " %9.1f %12" PRIu64 " %12" PRIu64
                " %9.2f %17.1f\n",
                bg_share_pct, bg_wqes_per_round,
                Throughput{kFrontierOps, dt}.kops(),
                lat.percentileInterp(50), lat.percentileInterp(99), bg_mbps,
                bg_throttle_us);
    cell.virt["bg_mbps"] = bg_mbps;
    cell.virt["bg_throttle_us"] = bg_throttle_us;
    report.add({{"table", "frontier"},
                {"bg_share_pct", std::to_string(bg_share_pct)},
                {"bg_wqes_per_round", std::to_string(bg_wqes_per_round)}},
               std::move(cell));
}

void
run()
{
    if (benchTiny()) {
        kPreloadPerSession = 60;
        kOpsPerSession = 120;
        kFrontierOps = 600;
    }
    std::vector<uint32_t> fleet = {1, 2, 4, 8, 16, 32, 64, 128, 256};
    if (benchTiny())
        fleet = {1, 2, 4, 8};

    printHeader("Session-count sweep at the shared back-end NIC "
                "(HT, 50% put, RCB; per-op latency in ns)",
                "mode     sessions   agg KOPS      p50      p99     p999"
                "   worst-s-p99   merged%");
    for (const NicMode mode :
         {NicMode::Legacy, NicMode::NoAgg, NicMode::Merge}) {
        for (const uint32_t k : fleet)
            runSweepPoint(mode, k);
    }

    printHeader("Foreground latency vs background bandwidth frontier "
                "(1 fg RCB session vs replication-storm QP)",
                "bg-share   bg-wqes/round   fg KOPS   fg-p50(ns)   "
                "fg-p99(ns)   bg MB/s   bg-throttle(us)");
    const uint64_t storms[] = {0, 16, 64, 256};
    for (const uint32_t share : {100u, 25u}) {
        for (const uint64_t storm : storms)
            runFrontierPoint(share, storm);
    }

    std::printf(
        "\nReference shape: legacy and noagg agree at 1 session; as the"
        "\nfleet grows, noagg pays one NIC arrival processing per"
        "\ndoorbell while merge coalesces most of them (merged%% high at"
        "\nlarge k), so merge's aggregate KOPS pulls ahead. On the"
        "\nfrontier, bg-share 100 lets the storm's backlog drain ahead"
        "\nof foreground verbs (fg p99 collapses as the storm grows);"
        "\nbg-share 25 bounds that backlog per foreground burst and"
        "\npaces the shipper, holding fg p99 within 2x its idle value.\n");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
