/**
 * @file
 * Figure 6 reproduction: throughput as a function of the batch size
 * (1..4096), for the lock-free structures (MV-BST, MV-BPT, SkipList —
 * Fig. 6a) and the lock-based ones (BST, BPT, TATP — Fig. 6b).
 *
 * The paper reports MV-BST improving 2.76x and MV-BPT 3.91x from batch 1
 * to 4096, with BST/BPT/SkipList gaining 131%/102%/88%: multi-version
 * path copying benefits most because coalescing compacts the repeated
 * root-path copies into single NVM writes.
 */

#include "bench_common.h"

#include "apps/tatp.h"

namespace asymnvm::bench {
namespace {

// Full-size parameters reproduce the paper's shape; ASYMNVM_BENCH_TINY
// shrinks them so the bench's gate runs every cell in about a second.
uint64_t kPreload = 30000;
uint64_t kOps = 8000;
uint64_t kTatpSubscribers = 10000;

uint64_t session_counter = 3000;

Report report("fig6_batch");

template <typename DS>
double
runAtBatch(uint32_t batch)
{
    BackendNode be(1, benchBackendConfig());
    FrontendSession s(sessionFor(Mode::RCB, ++session_counter,
                                 cacheBytesFor<DS>(0.10, kPreload + kOps),
                                 batch));
    if (!ok(s.connect(&be)))
        return -1;
    DS ds;
    if (!ok(DS::create(s, 1, "b", &ds)))
        return -1;
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.seed = 42;
    preloadKeys(s, ds, wcfg, kPreload);
    s.resetStats();
    WorkloadConfig mcfg = wcfg;
    mcfg.seed = 99;
    Workload w(mcfg);
    const auto ops = w.generate(kOps);
    // Vector operations (Algorithm 3): the measured batch goes through
    // insertBatch, which sorts the keys and pins shared path reads.
    Meter m(s, be);
    const uint64_t t0 = s.clock().now();
    std::vector<std::pair<Key, Value>> chunk;
    chunk.reserve(batch);
    for (const WorkItem &item : ops) {
        chunk.emplace_back(item.key, item.value);
        if (chunk.size() >= batch) {
            m.call(s, [&] { (void)ds.insertBatch(chunk); });
            chunk.clear();
        }
    }
    if (!chunk.empty())
        m.call(s, [&] { (void)ds.insertBatch(chunk); });
    (void)s.flushAll();
    m.wrotePairs(ops.size());
    report.add({{"structure", dsName<DS>()},
                {"batch", std::to_string(batch)}},
               m.finish(ops.size()));
    return Throughput{ops.size(), s.clock().now() - t0}.kops();
}

double
runTatpAtBatch(uint32_t batch)
{
    BackendNode be(1, benchBackendConfig());
    FrontendSession s(sessionFor(Mode::RCB, ++session_counter,
                                 600ull << 10, batch));
    if (!ok(s.connect(&be)))
        return -1;
    Tatp tatp;
    if (!ok(Tatp::create(s, 1, kTatpSubscribers, &tatp)))
        return -1;
    s.resetStats();
    Rng rng(6);
    Meter m(s, be);
    const uint64_t t0 = s.clock().now();
    const uint64_t n = kOps / 2;
    for (uint64_t i = 0; i < n; ++i)
        m.call(s, [&] { (void)tatp.runOne(rng); });
    (void)s.flushAll();
    report.add({{"structure", "TATP"}, {"batch", std::to_string(batch)}},
               m.finish(n));
    return Throughput{n, s.clock().now() - t0}.kops();
}

void
run()
{
    if (benchTiny()) {
        kPreload = 1500;
        kOps = 400;
        kTatpSubscribers = 1000;
    }
    const uint32_t batches[] = {1, 4, 16, 64, 256, 1024, 4096};
    printHeader("Figure 6a: lock-free structures, throughput (KOPS) vs "
                "batch size",
                "Batch       MV-BST    MV-BPT  SkipList");
    for (uint32_t b : batches) {
        std::printf("%5u    %9.1f %9.1f %9.1f\n", b, runAtBatch<MvBst>(b),
                    runAtBatch<MvBpTree>(b), runAtBatch<SkipList>(b));
    }
    printHeader("Figure 6b: lock-based structures, throughput (KOPS) vs "
                "batch size",
                "Batch          BST       BPT      TATP");
    for (uint32_t b : batches) {
        std::printf("%5u    %9.1f %9.1f %9.1f\n", b, runAtBatch<Bst>(b),
                    runAtBatch<BpTree>(b), runTatpAtBatch(b));
    }
    std::printf("\nPaper (Fig. 6) reference shape: monotonic growth with "
                "batch size;\nMV-BST ~2.8x and MV-BPT ~3.9x from 1 to "
                "4096; BST +131%%, BPT +102%%, SkipList +88%%.\n");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
