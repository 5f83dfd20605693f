/**
 * @file
 * Table 3 reproduction: overall throughput (KOPS) of the eight data
 * structures and the two transaction applications under every system
 * variant — Symmetric, Symmetric-B, AsymNVM-Naive, -R, -RC, -RCB.
 *
 * Setup mirrors the paper: one front-end to one back-end, 100% write
 * workload, 8-byte keys / 64-byte values, cache 10% of NVM size, batch
 * size 1024. Blank cells of the paper (hash-table/SmallBank batching,
 * queue/stack cache-only) are skipped the same way.
 */

#include "bench_common.h"

#include "apps/smallbank.h"
#include "apps/tatp.h"
#include "cluster/mirror.h"

namespace asymnvm::bench {
namespace {

// Full-size parameters reproduce the paper's shape; ASYMNVM_BENCH_TINY
// shrinks them so the bench's gate exercises every cell in seconds (the
// numbers are then meaningless, only the plumbing counts).
uint64_t kPreload = 50000;
uint64_t kOps = 12000;
uint64_t kTxOps = 4000;

uint64_t session_counter = 1000;

/** Back-end RPCs of the last kvCell's measured phase. The MV cells move
 *  with the delayed-free RPC storm (ROADMAP item 9), not the cache. */
uint64_t last_cell_rpcs = 0;

Report report("table3_overall");

Labels
cellLabels(Mode mode, const char *column)
{
    return {{"system", modeName(mode)}, {"structure", column}};
}

/** Per-path latency + replication profile captured from one cell. */
struct PathProfile
{
    Histogram commit;
    Histogram replication;
    ReplicationStats repl;
};

template <typename DS>
double
kvCell(Mode mode, const char *name, VerbCounters *out = nullptr,
       RetryStats *retry_out = nullptr, PathProfile *paths = nullptr,
       OptimisticReadStats *reads_out = nullptr,
       PipelineStats *pipe_out = nullptr)
{
    BackendNode be(1, benchBackendConfig());
    // A mirror replica rides along when the cell is profiled: mirror
    // replication batches on back-end busy time only (never the session
    // clock), so the KOPS cell is unchanged while the replication
    // batch/persist counters become observable.
    std::unique_ptr<MirrorNode> mirror;
    if (paths != nullptr) {
        mirror = std::make_unique<MirrorNode>(
            200, benchBackendConfig().nvm_size);
        be.addMirror(mirror.get());
    }
    auto s = std::make_unique<FrontendSession>(sessionFor(
        mode, ++session_counter,
        cacheBytesFor<DS>(0.10, kPreload + kOps)));
    if (!ok(s->connect(&be)))
        return -1;
    DS ds;
    Status st;
    if constexpr (std::is_same_v<DS, HashTable>)
        st = HashTable::create(*s, 1, name, kPreload * 2, &ds);
    else
        st = DS::create(*s, 1, name, &ds);
    if (!ok(st))
        return -1;
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.put_ratio = 1.0;
    wcfg.seed = 42;
    preloadKeys(*s, ds, wcfg, kPreload);
    s->resetStats();
    // 100% write: fresh uniform keys over a wider space.
    WorkloadConfig mcfg = wcfg;
    mcfg.seed = 77;
    Workload w(mcfg);
    const auto ops = w.generate(kOps);
    const uint64_t rpcs0 = be.rpcCalls();
    Meter m(*s, be);
    const Throughput t = runKvWorkload(m, *s, ds, ops);
    last_cell_rpcs = be.rpcCalls() - rpcs0;
    report.add(cellLabels(mode, dsName<DS>()), m.finish(ops.size()));
    if (out != nullptr)
        *out = s->verbs().counters();
    if (retry_out != nullptr)
        *retry_out = s->stats().retry;
    if (paths != nullptr) {
        paths->commit = s->commitHistogram();
        paths->replication = be.replicationHistogram();
        paths->repl = be.replicationStats();
    }
    if (reads_out != nullptr)
        *reads_out = ds.readStats();
    if (pipe_out != nullptr)
        *pipe_out = s->stats().pipeline;
    return t.kops();
}

/** Queue/Stack column: kOps pushes of workload values. */
template <typename DS>
double
listCell(Mode mode, const char *name)
{
    BackendNode be(1, benchBackendConfig());
    auto s = std::make_unique<FrontendSession>(
        sessionFor(mode, ++session_counter));
    if (!ok(s->connect(&be)))
        return -1;
    DS ds;
    if (!ok(DS::create(*s, 1, name, &ds)))
        return -1;
    Workload w(WorkloadConfig{});
    Meter m(*s, be);
    const uint64_t t0 = s->clock().now();
    for (uint64_t i = 0; i < kOps; ++i)
        m.call(*s, [&] { (void)dsPush(ds, w.next().value); });
    (void)s->flushAll();
    report.add(cellLabels(mode, dsName<DS>()), m.finish(kOps));
    return Throughput{kOps, s->clock().now() - t0}.kops();
}

/** SmallBank/TATP column: kTxOps transactions over 10000 accounts. */
template <typename App>
double
txCell(Mode mode, const char *column, uint64_t cache_bytes,
       uint64_t rng_seed)
{
    BackendNode be(1, benchBackendConfig());
    auto s = std::make_unique<FrontendSession>(
        sessionFor(mode, ++session_counter, cache_bytes));
    if (!ok(s->connect(&be)))
        return -1;
    App app;
    if (!ok(App::create(*s, 1, 10000, &app)))
        return -1;
    s->resetStats();
    Rng rng(rng_seed);
    Meter m(*s, be);
    const uint64_t t0 = s->clock().now();
    for (uint64_t i = 0; i < kTxOps; ++i)
        m.call(*s, [&] { (void)app.runOne(rng); });
    (void)s->flushAll();
    report.add(cellLabels(mode, column), m.finish(kTxOps));
    return Throughput{kTxOps, s->clock().now() - t0}.kops();
}

void
printCell(double kops)
{
    if (kops < 0)
        std::printf("%9s", "-");
    else
        std::printf("%9.1f", kops);
}

void
run()
{
    const Mode modes[] = {Mode::Symmetric, Mode::SymmetricB, Mode::Naive,
                          Mode::R,         Mode::RC,         Mode::RCB};
    if (benchTiny()) {
        kPreload = 2000;
        kOps = 600;
        kTxOps = 200;
    }
    std::vector<VerbCounters> profiles;
    std::vector<RetryStats> retry_profiles;
    std::vector<PathProfile> path_profiles;
    std::vector<OptimisticReadStats> read_profiles;
    std::vector<PipelineStats> pipe_profiles;
    std::vector<std::pair<uint64_t, uint64_t>> mv_rpcs; //!< MV-BST, MV-BPT
    printHeader("Table 3: overall performance comparison (KOPS, 100% "
                "write, 1 front-end : 1 back-end)",
                "System         SmallBank      TATP     Queue     Stack"
                "  HashTbl  SkipList       BST       BPT    MV-BST"
                "    MV-BPT");
    for (Mode mode : modes) {
        // Empty cells follow the paper's footnote: O(1) structures
        // (hash table, SmallBank) cannot apply batching, and the
        // queue/stack implementation combines batching with caching
        // (no cache-only cell).
        const bool batch_row =
            mode == Mode::RCB || mode == Mode::SymmetricB;
        VerbCounters profile;
        RetryStats retry_profile;
        PathProfile path_profile;
        OptimisticReadStats read_profile;
        PipelineStats pipe_profile;
        std::vector<double> cells;
        cells.push_back(batch_row ? -1
                                  : txCell<SmallBank>(mode, "SmallBank",
                                                      88ull << 10, 5));
        cells.push_back(txCell<Tatp>(mode, "TATP", 600ull << 10, 6));
        cells.push_back(mode == Mode::RC ? -1 : listCell<Queue>(mode, "q"));
        cells.push_back(mode == Mode::RC ? -1 : listCell<Stack>(mode, "s"));
        cells.push_back(batch_row ? -1 : kvCell<HashTable>(mode, "h"));
        cells.push_back(kvCell<SkipList>(mode, "sl"));
        cells.push_back(kvCell<Bst>(mode, "bst"));
        cells.push_back(kvCell<BpTree>(mode, "bpt", &profile,
                                       &retry_profile, &path_profile,
                                       &read_profile, &pipe_profile));
        cells.push_back(kvCell<MvBst>(mode, "mvbst"));
        const uint64_t mvbst_rpcs = last_cell_rpcs;
        cells.push_back(kvCell<MvBpTree>(mode, "mvbpt"));
        mv_rpcs.emplace_back(mvbst_rpcs, last_cell_rpcs);
        std::printf("%-14s", modeName(mode));
        for (double c : cells)
            printCell(c);
        std::printf("\n");
        profiles.push_back(profile);
        retry_profiles.push_back(retry_profile);
        path_profiles.push_back(std::move(path_profile));
        read_profiles.push_back(read_profile);
        pipe_profiles.push_back(pipe_profile);
    }
    std::printf(
        "\nPaper (Table 3) reference shape: RCB improves Naive by 5-12x;"
        "\nRCB is comparable to Symmetric overall and beats it on"
        "\nQueue/Stack/BST/MV-BST/MV-BPT; MV variants trail their"
        "\nlock-based counterparts under 100%% write.\n");

    std::printf("\nBack-end RPCs of the MV cells' measured phase (the "
                "delayed frees of\nretired nodes, ROADMAP item 9):\n");
    for (size_t m = 0; m < std::size(modes); ++m)
        std::printf("%-14s MV-BST %7" PRIu64 "  MV-BPT %7" PRIu64 "\n",
                    modeName(modes[m]), mv_rpcs[m].first,
                    mv_rpcs[m].second);

    std::printf("\nPer-verb traffic of the BPT column (%" PRIu64
                " ops, measurement phase only):\n",
                kOps);
    for (size_t m = 0; m < std::size(modes); ++m)
        printVerbCounters(modeName(modes[m]), profiles[m]);

    std::printf("\nRetry/failover profile of the same runs (all-zero on "
                "a fault-free configuration; failed-reads is the §6.3 "
                "optimistic-read invalidation ratio — 0/0 here because "
                "the workload is 100%% write and unshared):\n");
    for (size_t m = 0; m < std::size(modes); ++m)
        printRetryCounters(modeName(modes[m]), retry_profiles[m],
                           &read_profiles[m]);

    std::printf("\nPipelined-execution profile of the same runs "
                "(all-zero at the default pipeline_depth = 1, which "
                "keeps every cell above bit-identical to a non-"
                "pipelined session; bench_ablation_pipeline sweeps the "
                "depth):\n");
    for (size_t m = 0; m < std::size(modes); ++m)
        printPipelineCounters(modeName(modes[m]), pipe_profiles[m]);

    std::printf("\nPer-path latency of the same runs (ns; commit = group"
                "-commit flush on the session clock, replication = "
                "modeled mirror batch ship+persist):\n");
    for (size_t m = 0; m < std::size(modes); ++m) {
        const PathProfile &p = path_profiles[m];
        std::printf("%-14s commit p50 %8" PRIu64 "  p99 %8" PRIu64
                    " (n=%" PRIu64 ")   repl p50 %8" PRIu64 "  p99 %8"
                    PRIu64 " (n=%" PRIu64 ")\n",
                    modeName(modes[m]), p.commit.percentile(50),
                    p.commit.percentile(99), p.commit.count(),
                    p.replication.percentile(50),
                    p.replication.percentile(99), p.replication.count());
    }

    std::printf("\nMirror replication batching of the same runs (one "
                "persist per commit boundary instead of per mutation):\n");
    for (size_t m = 0; m < std::size(modes); ++m) {
        const ReplicationStats &r = path_profiles[m].repl;
        std::printf("%-14s batches %7" PRIu64 "  persists %7" PRIu64
                    "  raw-writes %8" PRIu64 "  ranges %7" PRIu64
                    " (%.1fx coalesced)  bytes %8.1f KB  retries %4"
                    PRIu64 "\n",
                    modeName(modes[m]), r.batches, r.persists,
                    r.raw_writes, r.ranges,
                    r.ranges ? static_cast<double>(r.raw_writes) /
                                   static_cast<double>(r.ranges)
                             : 0.0,
                    r.bytes / 1024.0, r.retries);
    }
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
