/**
 * @file
 * Figure 7 reproduction: throughput as a function of the front-end cache
 * size (1%, 5%, 10%, 20% of the data set) for BPT, BST, SkipList, TATP,
 * MV-BPT, MV-BST, HashTable and SmallBank, plus the tree-aware caching
 * ablation (adaptive level admission vs native LRU) the figure's text
 * discusses (native LRU is ~38% below AsymNVM's policy on BPT).
 *
 * Workload: 50% put / 50% get so that the cache serves real read traffic.
 *
 * A second ablation isolates the read-gather prefetch (DESIGN.md §9) on
 * the cold-cache point-lookup path: same B+tree, cache dropped after the
 * preload, 100% gets, with `read_prefetch` on vs off. It runs range-local
 * lookups, where speculation pays, and scattered ones, where the
 * per-structure speculation gate closes.
 */

#include "bench_common.h"

#include "apps/smallbank.h"
#include "apps/tatp.h"

namespace asymnvm::bench {
namespace {

// Full-size parameters reproduce the paper's shape; ASYMNVM_BENCH_TINY
// shrinks them so the bench_smoke_fig7 ctest target exercises the cache
// and prefetch plumbing in seconds.
uint64_t kPreload = 30000;
uint64_t kOps = 8000;

uint64_t session_counter = 4000;

/** One Figure 7 cell: KOPS plus the measured phase's write-allocations,
 *  cache miss ratio and back-end RPCs. */
struct Cell
{
    double kops = -1;
    uint64_t write_allocs = 0;
    double miss_ratio = 0;
    uint64_t rpcs = 0;
};

Cell
cellOf(FrontendSession &s, Throughput t, uint64_t rpcs = 0)
{
    return {t.kops(), s.cache().writeAllocs(), s.cache().missRatio(), rpcs};
}

template <typename DS>
Cell
runAtCache(double pct)
{
    BackendNode be(1, benchBackendConfig());
    FrontendSession s(sessionFor(Mode::RCB, ++session_counter,
                                 cacheBytesFor<DS>(pct, kPreload), 64));
    if (!ok(s.connect(&be)))
        return {};
    DS ds;
    Status st;
    if constexpr (std::is_same_v<DS, HashTable>)
        st = HashTable::create(s, 1, "c", kPreload * 2, &ds);
    else
        st = DS::create(s, 1, "c", &ds);
    if (!ok(st))
        return {};
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.seed = 42;
    preloadKeys(s, ds, wcfg, kPreload);
    s.resetStats();
    WorkloadConfig mcfg = wcfg;
    mcfg.put_ratio = 0.5;
    mcfg.dist = KeyDist::Zipf; // skew gives the cache hot data to keep
    mcfg.zipf_theta = 0.9;
    mcfg.seed = 99;
    Workload w(mcfg);
    const auto ops = w.generate(kOps);
    const uint64_t rpcs0 = be.rpcCalls();
    const Throughput t = runKvWorkload(s, ds, ops);
    return cellOf(s, t, be.rpcCalls() - rpcs0);
}

Cell
runTatpAtCache(double pct)
{
    BackendNode be(1, benchBackendConfig());
    const uint64_t bytes = static_cast<uint64_t>(pct * 6.0 * 1024 * 1024);
    FrontendSession s(sessionFor(Mode::RCB, ++session_counter,
                                 std::max<uint64_t>(bytes, 16 << 10), 64));
    if (!ok(s.connect(&be)))
        return {};
    Tatp tatp;
    if (!ok(Tatp::create(s, 1, 10000, &tatp)))
        return {};
    s.resetStats();
    Rng rng(6);
    const uint64_t t0 = s.clock().now();
    const uint64_t n = kOps / 2;
    for (uint64_t i = 0; i < n; ++i)
        (void)tatp.runOne(rng);
    (void)s.flushAll();
    return cellOf(s, Throughput{n, s.clock().now() - t0});
}

Cell
runSmallBankAtCache(double pct)
{
    BackendNode be(1, benchBackendConfig());
    const uint64_t bytes =
        static_cast<uint64_t>(pct * 10000 * 88);
    FrontendSession s(sessionFor(Mode::RC, ++session_counter,
                                 std::max<uint64_t>(bytes, 16 << 10)));
    if (!ok(s.connect(&be)))
        return {};
    SmallBank bank;
    if (!ok(SmallBank::create(s, 1, 10000, &bank)))
        return {};
    s.resetStats();
    Rng rng(5);
    const uint64_t t0 = s.clock().now();
    const uint64_t n = kOps / 2;
    for (uint64_t i = 0; i < n; ++i)
        (void)bank.runOne(rng);
    (void)s.flushAll();
    return cellOf(s, Throughput{n, s.clock().now() - t0});
}

/** Tree-aware adaptive admission vs admitting everything (native LRU). */
double
runBptNativeLru(double pct)
{
    BackendNode be(1, benchBackendConfig());
    SessionConfig cfg = sessionFor(Mode::RCB, ++session_counter,
                                   cacheBytesFor<BpTree>(pct, kPreload),
                                   64);
    cfg.cache_policy = CachePolicy::Lru;
    FrontendSession s(cfg);
    if (!ok(s.connect(&be)))
        return -1;
    BpTree ds;
    if (!ok(BpTree::create(s, 1, "c", &ds)))
        return -1;
    // Disable the level threshold: every node goes through the cache,
    // the "native LRU strategy" of the figure's discussion.
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.seed = 42;
    preloadKeys(s, ds, wcfg, kPreload);
    s.resetStats();
    WorkloadConfig mcfg = wcfg;
    mcfg.put_ratio = 0.5;
    mcfg.dist = KeyDist::Zipf;
    mcfg.zipf_theta = 0.9;
    mcfg.seed = 99;
    Workload w(mcfg);
    const uint64_t t0 = s.clock().now();
    for (const WorkItem &item : w.generate(kOps)) {
        if (item.op == WorkOp::Put) {
            (void)ds.insert(item.key, item.value);
        } else {
            Value v;
            (void)ds.find(item.key, &v);
        }
    }
    (void)s.flushAll();
    return Throughput{kOps, s.clock().now() - t0}.kops();
}

/** Outcome of one cold-cache lookup run of the prefetch ablation. */
struct PrefetchAblation
{
    double ns_per_op = -1;
    uint64_t doorbells = 0;
    uint64_t issued = 0;
    uint64_t hits = 0;
    uint64_t wasted = 0;
    uint64_t gated = 0;
};

/** One key order and cache size of the prefetch ablation, on and off. */
struct AblationShape
{
    bool scattered;
    double cache_pct;
    PrefetchAblation on;
    PrefetchAblation off;

    const char *keys() const
    {
        return scattered ? "scattered" : "range-local";
    }
};

/**
 * Read-gather prefetch ablation: cold-cache B+tree point lookups with the
 * traversal prefetch on vs off. The cache is dropped after the preload so
 * every descent starts remote — the case the gather verb accelerates.
 *
 * Range-local keys stay unhashed: a Zipf point-lookup stream over
 * adjacent keys is the access pattern the sibling gather targets, and the
 * cache gets 25% of the data so warm-up speed — not capacity churn — is
 * what the two runs compare. @p scattered hashes the keys instead and
 * reads them in findMany batches of 32 at pipeline depth 8, the shape
 * of perfbench's read_pipelined: a miss's siblings are keys nobody asks
 * for soon. At read_pipelined's 10% cache the speculation gate closes;
 * at 25% enough siblings are hot that it stays open (EXPERIMENTS.md).
 */
PrefetchAblation
runBptColdLookup(bool prefetch_on, bool scattered, double cache_pct)
{
    PrefetchAblation out;
    BackendNode be(1, benchBackendConfig());
    SessionConfig cfg = sessionFor(Mode::RC, ++session_counter,
                                   cacheBytesFor<BpTree>(cache_pct, kPreload));
    cfg.read_prefetch = prefetch_on;
    if (scattered)
        cfg.pipeline_depth = 8;
    FrontendSession s(cfg);
    if (!ok(s.connect(&be)))
        return out;
    BpTree ds;
    if (!ok(BpTree::create(s, 1, "c", &ds)))
        return out;
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.seed = 42;
    wcfg.hashed_keys = scattered;
    preloadKeys(s, ds, wcfg, kPreload);
    s.cache().clear(); // start cold: every lookup descends remote
    s.resetStats();
    WorkloadConfig mcfg = wcfg;
    mcfg.put_ratio = 0.0;
    mcfg.dist = KeyDist::Zipf; // locality gives the prefetch hits to earn
    mcfg.zipf_theta = 0.9;
    mcfg.seed = 99;
    Workload w(mcfg);
    const uint64_t nops = kOps / 2;
    const uint64_t t0 = s.clock().now();
    if (!scattered) {
        for (uint64_t i = 0; i < nops; ++i) {
            Value v;
            (void)ds.find(w.next().key, &v);
        }
    } else {
        constexpr size_t kBatch = 32;
        std::vector<Key> keys(kBatch);
        std::vector<Value> vals(kBatch);
        std::vector<Status> results(kBatch);
        for (uint64_t base = 0; base < nops; base += kBatch) {
            const size_t n =
                static_cast<size_t>(std::min<uint64_t>(kBatch, nops - base));
            for (size_t i = 0; i < n; ++i)
                keys[i] = w.next().key;
            (void)ds.findMany({keys.data(), n}, vals.data(),
                              results.data());
        }
    }
    const uint64_t dt = s.clock().now() - t0;
    const SessionStats st = s.stats();
    out.ns_per_op = static_cast<double>(dt) / static_cast<double>(nops);
    out.doorbells = st.verbs.doorbells;
    out.issued = st.prefetch.issued;
    out.hits = st.prefetch.hits;
    out.wasted = st.prefetch.wasted;
    out.gated = st.prefetch.gated;
    return out;
}

/**
 * Machine-readable companion of the printed tables: per-structure KOPS
 * and write-allocations per cache fraction, the native-LRU ablation, and
 * the cold-cache prefetch ablation. Format documented in EXPERIMENTS.md.
 */
void
writeJson(const std::vector<std::vector<Cell>> &main_rows,
          const double *pcts, size_t npcts, double lru_adaptive,
          double lru_native, const std::vector<AblationShape> &ablation,
          const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig7_cache\",\n"
                    "  \"unit\": \"kops\",\n"
                    "  \"params\": {\"preload\": %" PRIu64
                    ", \"ops\": %" PRIu64 ", \"tiny\": %s},\n",
                 kPreload, kOps, benchTiny() ? "true" : "false");
    static constexpr const char *kCols[] = {
        "BPT", "BST", "SkipList", "TATP",
        "MV-BPT", "MV-BST", "HashTable", "SmallBank"};
    std::fprintf(f, "  \"columns\": [");
    for (size_t i = 0; i < std::size(kCols); ++i)
        std::fprintf(f, "%s\"%s\"", i == 0 ? "" : ", ", kCols[i]);
    std::fprintf(f, "],\n  \"rows\": [\n");
    for (size_t n = 0; n < main_rows.size(); ++n) {
        std::fprintf(f, "    {\"cache_pct\": %.0f, \"cells\": [",
                     pcts[n] * 100);
        for (size_t i = 0; i < main_rows[n].size(); ++i)
            std::fprintf(f, "%s%.1f", i == 0 ? "" : ", ",
                         main_rows[n][i].kops);
        std::fprintf(f, "], \"write_allocs\": [");
        for (size_t i = 0; i < main_rows[n].size(); ++i)
            std::fprintf(f, "%s%" PRIu64, i == 0 ? "" : ", ",
                         main_rows[n][i].write_allocs);
        std::fprintf(f, "]}%s\n",
                     n + 1 == main_rows.size() ? "" : ",");
    }
    (void)npcts;
    std::fprintf(f, "  ],\n  \"lru_ablation\": {\"structure\": \"BPT\", "
                    "\"adaptive\": %.1f, \"native_lru\": %.1f},\n",
                 lru_adaptive, lru_native);
    // The range-local shape keeps its original top-level fields; the
    // scattered shapes follow in an array.
    const auto fields = [f](const AblationShape &a) {
        std::fprintf(f, "\"prefetch_on\": %.1f, \"prefetch_off\": %.1f, "
                        "\"doorbells_on\": %" PRIu64
                        ", \"doorbells_off\": %" PRIu64 ", \"issued\": %" PRIu64
                        ", \"hits\": %" PRIu64 ", \"wasted\": %" PRIu64
                        ", \"gated\": %" PRIu64,
                     a.on.ns_per_op, a.off.ns_per_op, a.on.doorbells,
                     a.off.doorbells, a.on.issued, a.on.hits, a.on.wasted,
                     a.on.gated);
    };
    std::fprintf(f, "  \"prefetch_ablation\": {\"structure\": \"BPT\", "
                    "\"unit\": \"ns/op\", ");
    fields(ablation.front());
    std::fprintf(f, ",\n    \"scattered\": [");
    for (size_t i = 1; i < ablation.size(); ++i) {
        std::fprintf(f, "%s\n      {\"cache_pct\": %.0f, ",
                     i == 1 ? "" : ",", ablation[i].cache_pct * 100);
        fields(ablation[i]);
        std::fprintf(f, "}");
    }
    std::fprintf(f, "]}\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
}

void
run()
{
    if (benchTiny()) {
        kPreload = 1500;
        kOps = 400;
    }
    const double pcts[] = {0.01, 0.05, 0.10, 0.20};
    printHeader("Figure 7: throughput (KOPS) vs cache size (% of data)",
                "Cache%        BPT       BST  SkipList      TATP"
                "    MV-BPT    MV-BST   HashTbl SmallBank");
    std::vector<std::vector<Cell>> main_rows;
    for (double pct : pcts) {
        std::vector<Cell> row = {
            runAtCache<BpTree>(pct),     runAtCache<Bst>(pct),
            runAtCache<SkipList>(pct),   runTatpAtCache(pct),
            runAtCache<MvBpTree>(pct),   runAtCache<MvBst>(pct),
            runAtCache<HashTable>(pct),  runSmallBankAtCache(pct)};
        std::printf("%5.0f%%  %9.1f %9.1f %9.1f %9.1f %9.1f %9.1f"
                    " %9.1f %9.1f\n",
                    pct * 100, row[0].kops, row[1].kops, row[2].kops,
                    row[3].kops, row[4].kops, row[5].kops, row[6].kops,
                    row[7].kops);
        main_rows.push_back(std::move(row));
    }
    // Fresh objects the cache installed on write during the measured
    // phase: nonzero only where the cache had never evicted (DESIGN §9).
    printHeader("Write-allocated objects per cell (measured phase)",
                "Cache%        BPT       BST  SkipList      TATP"
                "    MV-BPT    MV-BST   HashTbl SmallBank");
    for (size_t n = 0; n < main_rows.size(); ++n) {
        std::printf("%5.0f%% ", pcts[n] * 100);
        for (const Cell &c : main_rows[n])
            std::printf(" %9" PRIu64, c.write_allocs);
        std::printf("\n");
    }
    // The MV cells move with the delayed-free RPC storm (ROADMAP item 9),
    // not with the cache: print the RPCs next to the miss ratio.
    printHeader("MV cells: cache miss ratio and back-end RPCs (measured "
                "phase)",
                "Cache%  MV-BPT miss      RPCs  MV-BST miss      RPCs");
    for (size_t n = 0; n < main_rows.size(); ++n) {
        const Cell &bpt = main_rows[n][4];
        const Cell &bst = main_rows[n][5];
        std::printf("%5.0f%%  %10.1f%% %9" PRIu64 "  %10.1f%% %9" PRIu64
                    "\n",
                    pcts[n] * 100, bpt.miss_ratio * 100, bpt.rpcs,
                    bst.miss_ratio * 100, bst.rpcs);
    }
    const double lru_adaptive = runAtCache<BpTree>(0.10).kops;
    const double lru_native = runBptNativeLru(0.10);
    std::printf("\nTree-aware caching ablation (BPT, 10%% cache): "
                "adaptive level admission %.1f KOPS vs native LRU "
                "%.1f KOPS\n",
                lru_adaptive, lru_native);

    printHeader("Read-gather prefetch ablation (BPT, cold cache, "
                "100% point lookups)",
                "Keys         Cache  Prefetch      ns/op  doorbells"
                "     issued       hits     wasted      gated");
    std::vector<AblationShape> ablation = {
        {false, 0.25, {}, {}}, {true, 0.25, {}, {}}, {true, 0.10, {}, {}}};
    for (AblationShape &a : ablation) {
        a.on = runBptColdLookup(true, a.scattered, a.cache_pct);
        a.off = runBptColdLookup(false, a.scattered, a.cache_pct);
        for (const PrefetchAblation *r : {&a.on, &a.off})
            std::printf("%-11s  %4.0f%%  %-8s  %9.1f  %9" PRIu64
                        "  %9" PRIu64 "  %9" PRIu64 "  %9" PRIu64
                        "  %9" PRIu64 "\n",
                        a.keys(), a.cache_pct * 100,
                        r == &a.on ? "on" : "off", r->ns_per_op,
                        r->doorbells, r->issued, r->hits, r->wasted,
                        r->gated);
    }
    std::printf("\nExpected shape: on range-local keys prefetch-on "
                "finishes the same lookups in fewer\nvirtual ns/op and "
                "fewer doorbells — sibling gathers turn the next lookup's "
                "descent\ninto cache hits. On scattered keys most siblings "
                "go unread; at a 10%% cache the\nspeculation gate closes "
                "(gated > 0) and bounds what prefetch-on loses.\n");

    std::printf("\nPaper (Fig. 7) reference shape: throughput grows with "
                "cache size;\nMV variants barely improve (their modified "
                "data stays in front-end memory);\nnative LRU trails the "
                "level-aware policy by ~38%% on BPT.\n");

    writeJson(main_rows, pcts, std::size(pcts), lru_adaptive, lru_native,
              ablation, "BENCH_fig7_cache.json");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return 0;
}
