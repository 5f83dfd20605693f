/**
 * @file
 * Extension benchmark: throughput cost of transient-fault absorption.
 *
 * The paper evaluates on a healthy fabric; this extension asks what the
 * retry/backoff machinery (DESIGN.md §7) costs when the fabric is not.
 * It sweeps the per-verb completion-loss probability from 0 to 1% (RoCE
 * deployments observe loss well below 1e-3; 1e-2 is a pathological
 * fabric) and reports the virtual-time KOPS plus the retry counters for
 * each point, for both a drop storm alone and drops combined with QP
 * errors. The expected shape: throughput degrades smoothly with the
 * injected rate — the jittered-backoff retries absorb every fault
 * without an availability cliff — and the retry profile accounts for
 * exactly where the lost time went.
 */

#include <algorithm>

#include "bench_common.h"
#include "cluster/cluster.h"
#include "ds/hash_table.h"

namespace asymnvm::bench {
namespace {

uint64_t kPreload = 20000;
uint64_t kOps = 8000;

// Multi-session sweep sizing (per session, so the aggregate work grows
// with the fleet but each session's structure stays small).
uint64_t kMsPreload = 400;
uint64_t kMsOpsPerSession = 1200;

uint64_t session_counter = 21000;

Report report("ext_faults");

struct FaultPoint
{
    double kops = -1;
    RetryStats retry;
};

/** @p sweep names the fault mix the cell belongs to. */
FaultPoint
runBpt(Mode mode, const char *sweep, const FaultConfig &fc)
{
    BackendNode be(1, benchBackendConfig());
    FrontendSession s(sessionFor(mode, ++session_counter,
                                 cacheBytesFor<BpTree>(0.10, kPreload),
                                 1024));
    FaultPoint out;
    if (!ok(s.connect(&be)))
        return out;
    BpTree tree;
    if (!ok(BpTree::create(s, 1, "faults", &tree)))
        return out;
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.seed = 42;
    preloadKeys(s, tree, wcfg, kPreload);
    s.resetStats();
    // Faults start with the measurement phase: the preload runs clean so
    // every point degrades the same committed working set.
    be.faults().configure(fc, /*seed=*/1337);
    WorkloadConfig mcfg = wcfg;
    mcfg.put_ratio = 0.5;
    mcfg.seed = 99;
    Workload w(mcfg);
    Meter m(s, be);
    out.kops = runKvWorkload(m, s, tree, w.generate(kOps)).kops();
    report.add({{"sweep", sweep},
                {"drop_rate", num(fc.drop_rate)},
                {"system", modeName(mode)}},
               m.finish(kOps));
    out.retry = s.stats().retry;
    return out;
}

/**
 * k sessions hammer one back-end; halfway through, the back-end is
 * condemned (permanent failure, Section 7.2 Case 4) and every session
 * rides through the epoch-fenced mirror promotion transparently —
 * exactly one of them wins the claim. Virtual time runs per session, so
 * the aggregate rate divides total ops by the *slowest* session's
 * elapsed virtual time (the fleet is done when its laggard is).
 * Prints the sweep row; returns the sessions' summed retry profile.
 */
RetryStats
runMultiSession(uint32_t nsessions)
{
    RetryStats retry;

    ClusterConfig ccfg;
    ccfg.num_backends = 1;
    ccfg.mirrors_per_backend = 2;
    ccfg.backend.nvm_size = (32ull << 20) + nsessions * (2ull << 20);
    ccfg.backend.max_frontends = std::max(8u, nsessions);
    ccfg.backend.max_names = std::max(16u, nsessions + 8);
    ccfg.backend.memlog_ring_size = 256ull << 10;
    ccfg.backend.oplog_ring_size = 256ull << 10;
    ccfg.transparent_failover = true;
    Cluster cluster(ccfg);

    struct Lane
    {
        std::unique_ptr<FrontendSession> s;
        HashTable ht;
        Workload w{WorkloadConfig{}};
        uint64_t t0 = 0;
    };
    std::vector<Lane> lanes(nsessions);
    for (uint32_t j = 0; j < nsessions; ++j) {
        Lane &ln = lanes[j];
        ln.s = cluster.makeSession(
            SessionConfig::rcb(1, 256ull << 10, 64));
        if (ln.s == nullptr)
            return retry;
        if (!ok(HashTable::create(*ln.s, 1,
                                  "ms_" + std::to_string(j), 64,
                                  &ln.ht)))
            return retry;
        WorkloadConfig wcfg;
        wcfg.key_space = kMsPreload;
        wcfg.seed = 42 + j;
        preloadKeys(*ln.s, ln.ht, wcfg, kMsPreload);
        WorkloadConfig mcfg = wcfg;
        mcfg.put_ratio = 0.5;
        mcfg.seed = 99 + j;
        ln.w = Workload(mcfg);
        ln.s->resetStats();
        ln.t0 = ln.s->clock().now();
    }
    Meter m;
    for (Lane &ln : lanes)
        m.watch(*ln.s);

    auto renewAll = [&](bool primary) {
        uint64_t mx = 0;
        for (Lane &ln : lanes)
            mx = std::max(mx, ln.s->clock().now());
        if (primary)
            cluster.keepAlive().renew(1, mx);
        for (MirrorNode *m : cluster.mirrorsOf(1))
            cluster.keepAlive().renew(m->id(), mx);
        return mx;
    };

    const uint64_t total_ops = kMsOpsPerSession * nsessions;
    const uint64_t fail_at = total_ops / 2;
    bool condemned = false;
    for (uint64_t i = 0; i < total_ops; ++i) {
        renewAll(/*primary=*/!condemned);
        if (i == fail_at) {
            cluster.condemnBackend(1);
            condemned = true;
            // Detection delay: jump every clock past the lease so the
            // next op of each session finds the group's verdict in,
            // keeping the surviving mirrors renewed along the way.
            const uint64_t lease = cluster.keepAlive().leaseNs();
            for (int step = 0; step < 3; ++step) {
                for (uint32_t j = 0; j < nsessions; ++j)
                    lanes[j].s->clock().advance(lease / 2 + j * 1000);
                renewAll(false);
            }
        }
        Lane &ln = lanes[i % nsessions];
        const WorkItem item = ln.w.next();
        m.call(*ln.s, [&] {
            if (item.op == WorkOp::Put)
                (void)ln.ht.put(item.key, item.value);
            else {
                Value v;
                (void)ln.ht.get(item.key, &v);
            }
        });
    }
    for (Lane &ln : lanes)
        (void)ln.s->flushAll();
    Cell cell = m.finish(total_ops);

    uint64_t max_dt = 0;
    double stall_sum = 0, max_stall_us = 0;
    for (Lane &ln : lanes) {
        max_dt = std::max(max_dt, ln.s->clock().now() - ln.t0);
        const SessionStats st = ln.s->stats();
        retry.merge(st.retry);
        const double stall_us = st.retry.failover_wait_ns / 1000.0;
        stall_sum += stall_us;
        max_stall_us = std::max(max_stall_us, stall_us);
    }
    const double mean_stall_us = stall_sum / nsessions;
    const uint64_t promotions = cluster.failoverEpochs().history().size();
    std::printf("%8u %10.1f %16.1f %15.1f %12" PRIu64 " %6" PRIu64
                "/%" PRIu64 "/%" PRIu64 "\n",
                nsessions, Throughput{total_ops, max_dt}.kops(),
                mean_stall_us, max_stall_us, promotions,
                retry.promotions_won, retry.promotions_lost,
                retry.stale_epoch_fenced);
    const double per_promotion = promotions == 0 ? 0 : 1.0 / promotions;
    cell.virt["cluster.promotions"] = static_cast<double>(promotions);
    cell.virt["cluster.promo_lost_per_promotion"] =
        retry.promotions_lost * per_promotion;
    cell.virt["cluster.stale_fenced_per_promotion"] =
        retry.stale_epoch_fenced * per_promotion;
    cell.virt["failover_stall_mean_us"] = mean_stall_us;
    cell.virt["failover_stall_max_us"] = max_stall_us;
    report.add({{"sweep", "promotion"},
                {"sessions", std::to_string(nsessions)}},
               std::move(cell));
    return retry;
}

void
runMultiSessionSweep()
{
    std::vector<uint32_t> fleet = {1, 2, 4, 8, 16, 32, 64};
    if (benchTiny())
        fleet = {1, 2, 4, 8};
    printHeader("Extension: session-count sweep across one mid-run "
                "promotion (HT, 50% put, RCB)",
                "sessions   agg KOPS   mean-stall(us)   max-stall(us)"
                "   promotions   won/lost/fenced");
    std::vector<RetryStats> retries;
    for (const uint32_t k : fleet)
        retries.push_back(runMultiSession(k));
    std::printf("\nRetry profile of the sweep rows:\n");
    for (size_t i = 0; i < fleet.size(); ++i) {
        char label[32];
        std::snprintf(label, sizeof(label), "k=%u", fleet[i]);
        printRetryCounters(label, retries[i]);
    }
    std::printf("\nReference shape: exactly one promotion per point, one"
                "\nwinner; losers and late sessions re-resolve via the"
                "\nepoch fence. The failover stall is one lease wait and"
                "\ndoes not grow with the session count; aggregate KOPS"
                "\nis flat-ish (virtual clocks advance per session).\n");
}

void
run()
{
    if (benchTiny()) {
        kPreload = 2000;
        kOps = 600;
        kMsPreload = 120;
        kMsOpsPerSession = 300;
    }
    const double rates[] = {0.0, 1e-4, 1e-3, 1e-2};
    for (const bool with_qp : {false, true}) {
        printHeader(with_qp
                        ? "Extension: drop-rate sweep + QP errors at "
                          "drop/10 (BPT, 50% put, RCB vs Naive)"
                        : "Extension: completion drop-rate sweep "
                          "(BPT, 50% put, RCB vs Naive)",
                    "drop_rate   AsymNVM-RCB   AsymNVM-Naive   "
                    "RCB/clean");
        double clean_rcb = -1;
        std::vector<std::pair<double, FaultPoint>> profile_rows;
        for (double rate : rates) {
            FaultConfig fc;
            fc.drop_rate = rate;
            if (with_qp)
                fc.qp_error_rate = rate / 10.0;
            const char *sweep = with_qp ? "drops+qp" : "drops";
            const FaultPoint rcb = runBpt(Mode::RCB, sweep, fc);
            const FaultPoint naive = runBpt(Mode::Naive, sweep, fc);
            if (rate == 0.0)
                clean_rcb = rcb.kops;
            std::printf("%9.0e %13.1f %15.1f %11.2f\n", rate, rcb.kops,
                        naive.kops,
                        clean_rcb > 0 ? rcb.kops / clean_rcb : 1.0);
            profile_rows.emplace_back(rate, rcb);
        }
        std::printf("\nRetry profile of the RCB rows:\n");
        for (const auto &[rate, p] : profile_rows) {
            char label[32];
            std::snprintf(label, sizeof(label), "drop %g", rate);
            printRetryCounters(label, p.retry);
        }
    }
    std::printf("\nReference shape: no availability cliff — every point"
                "\ncompletes all operations; KOPS falls roughly with the"
                "\ninjected timeout+backoff time, and the retry counters"
                "\naccount for the difference.\n");

    runMultiSessionSweep();
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
