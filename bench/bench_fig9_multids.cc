/**
 * @file
 * Figure 9 reproduction: multiple front-ends sharing one back-end, each
 * operating its own data structure instance. The paper reports almost
 * linear scaling with 7-19% per-client degradation at 7 front-ends —
 * the shared cost is the back-end NIC's verb-service capacity.
 */

#include <atomic>
#include <thread>

#include "bench_common.h"

namespace asymnvm::bench {
namespace {

// Full-size parameters reproduce the paper's shape; ASYMNVM_BENCH_TINY
// shrinks them so the bench's gate runs every cell in about a second.
uint64_t kPreload = 10000;
uint64_t kOps = 6000;

uint64_t session_counter = 6000;

Report report("fig9_multids");

template <typename DS>
double
totalKops(uint32_t nclients)
{
    BackendNode be(1, benchBackendConfig());
    std::vector<std::unique_ptr<FrontendSession>> sessions;
    std::vector<std::unique_ptr<DS>> dss;
    for (uint32_t c = 0; c < nclients; ++c) {
        sessions.push_back(std::make_unique<FrontendSession>(
            sessionFor(Mode::RCB, ++session_counter,
                       cacheBytesFor<DS>(0.10, kPreload), 64)));
        if (!ok(sessions.back()->connect(&be)))
            return -1;
        dss.push_back(std::make_unique<DS>());
        const std::string name = "inst" + std::to_string(c);
        if (!ok(DS::create(*sessions.back(), 1, name, dss.back().get())))
            return -1;
        WorkloadConfig wcfg;
        wcfg.key_space = kPreload;
        wcfg.seed = 42 + c;
        preloadKeys(*sessions.back(), *dss.back(), wcfg, kPreload);
    }
    be.nic().resetStats();

    Meter m;
    m.watch(be);
    for (auto &s : sessions)
        m.watch(*s);
    std::atomic<bool> go{false};
    std::vector<double> kops(nclients, 0);
    std::vector<std::thread> threads;
    for (uint32_t c = 0; c < nclients; ++c) {
        threads.emplace_back([&, c] {
            while (!go.load())
                std::this_thread::yield();
            FrontendSession &s = *sessions[c];
            WorkloadConfig wcfg;
            wcfg.key_space = kPreload;
            wcfg.seed = 1000 + c;
            Workload w(wcfg);
            const auto ops = w.generate(kOps);
            kops[c] = runKvWorkload(m, s, *dss[c], ops,
                                    /*interleave=*/true).kops();
        });
    }
    go.store(true);
    for (auto &t : threads)
        t.join();
    double total = 0;
    for (double k : kops)
        total += k;
    Cell cell = m.finish(kOps * nclients);
    cell.virt["sum_client_kops"] = total;
    report.add({{"structure", dsName<DS>()},
                {"clients", std::to_string(nclients)}},
               std::move(cell));
    return total;
}

void
run()
{
    if (benchTiny()) {
        kPreload = 400;
        kOps = 150;
    }
    printHeader("Figure 9: multiple front-ends, one back-end, one DS "
                "instance per front-end (total KOPS)",
                "Clients   SkipList        BST        BPT     MV-BST"
                "     MV-BPT");
    double base[5] = {0, 0, 0, 0, 0};
    for (uint32_t n = 1; n <= 7; ++n) {
        const double v[5] = {totalKops<SkipList>(n), totalKops<Bst>(n),
                             totalKops<BpTree>(n), totalKops<MvBst>(n),
                             totalKops<MvBpTree>(n)};
        if (n == 1)
            for (int i = 0; i < 5; ++i)
                base[i] = v[i];
        std::printf("%7u  %9.1f  %9.1f  %9.1f  %9.1f  %9.1f\n", n, v[0],
                    v[1], v[2], v[3], v[4]);
        if (n == 7) {
            std::printf("per-client vs 1-client:");
            for (int i = 0; i < 5; ++i)
                std::printf("  %4.0f%%", 100.0 * (v[i] / 7.0) / base[i]);
            std::printf("\n");
        }
    }
    std::printf("\nPaper (Fig. 9) reference shape: near-linear scaling; "
                "7-19%% per-client degradation at 7 front-ends.\n");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
