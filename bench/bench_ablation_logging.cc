/**
 * @file
 * Ablation of the logging-pipeline design choices DESIGN.md §5 calls
 * out, beyond the Naive/R/RC/RCB ladder of Table 3:
 *
 *  - op-ref memory logs (Figure 3's Flag byte) vs inline values:
 *    transaction wire bytes and throughput;
 *  - memory-log coalescing within a batch vs none: replayed entries and
 *    throughput (the "compacted to one NVM write" claim of Section 8.3);
 *  - posted (asynchronous) memory-log writes vs a synchronous
 *    rnvm_tx_write per operation: the decoupled-persistency claim of
 *    Section 4.2;
 *  - group commit vs a per-op commit point, where the Figure-3 framing
 *    overhead is paid once per operation. LogB/op is the persisted log
 *    bytes (tx + op records) per completed operation.
 *
 * ASYMNVM_BENCH_TINY=1 switches to gate sizes.
 */

#include "bench_common.h"

namespace asymnvm::bench {
namespace {

uint64_t kPreload = 20000;
uint64_t kOps = 8000;

uint64_t session_counter = 13000;

Report report("ablation_logging");

struct AblationRow
{
    const char *label;
    bool opref;
    bool coalesce;
    uint32_t batch;
};

struct AblationResult
{
    double kops;
    double wire_mb;
    double log_bytes_per_op;
    uint64_t replayed;
};

AblationResult
runBpt(const AblationRow &row)
{
    BackendNode be(1, benchBackendConfig());
    SessionConfig cfg =
        sessionFor(Mode::RCB, ++session_counter,
                   cacheBytesFor<BpTree>(0.10, kPreload + kOps),
                   row.batch);
    cfg.use_opref = row.opref;
    cfg.coalesce_memlogs = row.coalesce;
    FrontendSession s(cfg);
    if (!ok(s.connect(&be)))
        return {-1, 0, 0, 0};
    BpTree tree;
    if (!ok(BpTree::create(s, 1, "a", &tree)))
        return {-1, 0, 0, 0};
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.seed = 42;
    preloadKeys(s, tree, wcfg, kPreload);
    s.resetStats();
    be.resetStats();

    WorkloadConfig mcfg = wcfg;
    mcfg.seed = 99;
    Workload w(mcfg);
    const auto ops = w.generate(kOps);
    const uint64_t bytes0 = s.verbs().counters().totalBytes();
    Meter m(s, be);
    const Throughput t = runKvWorkload(m, s, tree, ops);
    report.add({{"config", row.label}}, m.finish(ops.size()));
    const LogFormatStats lf = s.stats().logfmt;
    return {t.kops(),
            static_cast<double>(s.verbs().counters().totalBytes() -
                                bytes0) / 1e6,
            static_cast<double>(lf.tx_wire_bytes + lf.op_wire_bytes) /
                static_cast<double>(kOps),
            be.replayedEntries()};
}

void
run()
{
    if (benchTiny()) {
        kPreload = 2000;
        kOps = 800;
    }
    printHeader("Ablation: logging pipeline design choices "
                "(BPT, 100% write)",
                "Configuration                           KOPS   WireMB"
                "   LogB/op   ReplayedLogs");
    const AblationRow rows[] = {
        {"RCB (op-ref + coalescing)", true, true, 1024},
        {"RCB, inline values (no op-ref)", false, true, 1024},
        {"RCB, no coalescing", true, false, 1024},
        {"RCB, inline + no coalescing", false, false, 1024},
        {"per-op commit (batch 1)", true, true, 1},
    };
    for (const AblationRow &row : rows) {
        const AblationResult r = runBpt(row);
        std::printf("%-38s %7.1f  %7.2f  %8.1f  %13" PRIu64 "\n",
                    row.label, r.kops, r.wire_mb, r.log_bytes_per_op,
                    r.replayed);
    }
    std::printf(
        "\nExpected shape: op-refs shrink wire bytes at equal"
        "\nthroughput; coalescing cuts replayed log count; the per-op"
        "\ncommit row shows what group commit buys (Section 4.2/4.3).\n");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
