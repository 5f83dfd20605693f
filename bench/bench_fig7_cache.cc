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
// shrinks them so the bench's gate exercises the cache and prefetch
// plumbing in seconds.
uint64_t kPreload = 30000;
uint64_t kOps = 8000;

uint64_t session_counter = 4000;

Report report("fig7_cache");

/** One printed Figure 7 cell: KOPS plus the measured phase's
 *  write-allocations, cache miss ratio and back-end RPCs. */
struct Point
{
    double kops = -1;
    uint64_t write_allocs = 0;
    double miss_ratio = 0;
    uint64_t rpcs = 0;
};

/** Close @p m's cell in @p table and the matching printed point. */
Point
pointOf(Meter &m, FrontendSession &s, const char *table,
        const char *structure, double pct, Throughput t, uint64_t rpcs = 0)
{
    Cell cell = m.finish(t.ops);
    cell.virt["write_allocs"] = static_cast<double>(s.cache().writeAllocs());
    report.add({{"table", table},
                {"structure", structure},
                {"cache_pct", num(pct * 100)}},
               std::move(cell));
    return {t.kops(), s.cache().writeAllocs(), s.cache().missRatio(), rpcs};
}

template <typename DS>
Point
runAtCache(double pct, const char *table = "cache_sweep")
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
    Meter m(s, be);
    const Throughput t = runKvWorkload(m, s, ds, ops);
    return pointOf(m, s, table, dsName<DS>(), pct, t,
                   be.rpcCalls() - rpcs0);
}

/** TATP/SmallBank column at @p pct: kOps/2 transactions over 10000
 *  accounts with a @p cache_bytes (at least 16 KiB) cache. */
template <typename App>
Point
runTxAtCache(double pct, Mode mode, uint64_t cache_bytes,
             const char *column, uint64_t rng_seed)
{
    BackendNode be(1, benchBackendConfig());
    FrontendSession s(sessionFor(mode, ++session_counter,
                                 std::max<uint64_t>(cache_bytes, 16 << 10),
                                 64));
    if (!ok(s.connect(&be)))
        return {};
    App app;
    if (!ok(App::create(s, 1, 10000, &app)))
        return {};
    s.resetStats();
    Rng rng(rng_seed);
    Meter m(s, be);
    const uint64_t t0 = s.clock().now();
    const uint64_t n = kOps / 2;
    for (uint64_t i = 0; i < n; ++i)
        m.call(s, [&] { (void)app.runOne(rng); });
    (void)s.flushAll();
    return pointOf(m, s, "cache_sweep", column, pct,
                   Throughput{n, s.clock().now() - t0});
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
    Meter m(s, be);
    const Throughput t = runKvWorkload(m, s, ds, w.generate(kOps));
    return pointOf(m, s, "lru_ablation", "BPT (native LRU)", pct, t).kops;
}

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
 * Prints the run's row.
 */
void
runBptColdLookup(bool prefetch_on, bool scattered, double cache_pct)
{
    BackendNode be(1, benchBackendConfig());
    SessionConfig cfg = sessionFor(Mode::RC, ++session_counter,
                                   cacheBytesFor<BpTree>(cache_pct, kPreload));
    cfg.read_prefetch = prefetch_on;
    if (scattered)
        cfg.pipeline_depth = 8;
    FrontendSession s(cfg);
    if (!ok(s.connect(&be)))
        return;
    BpTree ds;
    if (!ok(BpTree::create(s, 1, "c", &ds)))
        return;
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
    Meter m(s, be);
    const uint64_t t0 = s.clock().now();
    if (!scattered) {
        for (uint64_t i = 0; i < nops; ++i) {
            m.call(s, [&] {
                Value v;
                (void)ds.find(w.next().key, &v);
            });
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
            m.call(s, [&] {
                (void)ds.findMany({keys.data(), n}, vals.data(),
                                  results.data());
            });
        }
    }
    const uint64_t dt = s.clock().now() - t0;
    const SessionStats st = s.stats();
    const char *keys = scattered ? "scattered" : "range-local";
    std::printf("%-11s  %4.0f%%  %-8s  %9.1f  %9" PRIu64 "  %9" PRIu64
                "  %9" PRIu64 "  %9" PRIu64 "  %9" PRIu64 "\n",
                keys, cache_pct * 100, prefetch_on ? "on" : "off",
                static_cast<double>(dt) / static_cast<double>(nops),
                st.verbs.doorbells, st.prefetch.issued, st.prefetch.hits,
                st.prefetch.wasted, st.prefetch.gated);
    Cell cell = m.finish(nops);
    cell.virt["prefetch_gated"] = static_cast<double>(st.prefetch.gated);
    report.add({{"table", "prefetch_ablation"},
                {"keys", keys},
                {"cache_pct", num(cache_pct * 100)},
                {"prefetch", prefetch_on ? "on" : "off"}},
               std::move(cell));
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
    std::vector<std::vector<Point>> main_rows;
    for (double pct : pcts) {
        std::vector<Point> row = {
            runAtCache<BpTree>(pct),     runAtCache<Bst>(pct),
            runAtCache<SkipList>(pct),
            runTxAtCache<Tatp>(pct, Mode::RCB,
                               static_cast<uint64_t>(pct * 6.0 * 1024 * 1024),
                               "TATP", 6),
            runAtCache<MvBpTree>(pct),   runAtCache<MvBst>(pct),
            runAtCache<HashTable>(pct),
            runTxAtCache<SmallBank>(pct, Mode::RC,
                                    static_cast<uint64_t>(pct * 10000 * 88),
                                    "SmallBank", 5)};
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
        for (const Point &c : main_rows[n])
            std::printf(" %9" PRIu64, c.write_allocs);
        std::printf("\n");
    }
    // The MV cells move with the delayed-free RPC storm (ROADMAP item 9),
    // not with the cache: print the RPCs next to the miss ratio.
    printHeader("MV cells: cache miss ratio and back-end RPCs (measured "
                "phase)",
                "Cache%  MV-BPT miss      RPCs  MV-BST miss      RPCs");
    for (size_t n = 0; n < main_rows.size(); ++n) {
        const Point &bpt = main_rows[n][4];
        const Point &bst = main_rows[n][5];
        std::printf("%5.0f%%  %10.1f%% %9" PRIu64 "  %10.1f%% %9" PRIu64
                    "\n",
                    pcts[n] * 100, bpt.miss_ratio * 100, bpt.rpcs,
                    bst.miss_ratio * 100, bst.rpcs);
    }
    const double lru_adaptive =
        runAtCache<BpTree>(0.10, "lru_ablation").kops;
    const double lru_native = runBptNativeLru(0.10);
    std::printf("\nTree-aware caching ablation (BPT, 10%% cache): "
                "adaptive level admission %.1f KOPS vs native LRU "
                "%.1f KOPS\n",
                lru_adaptive, lru_native);

    printHeader("Read-gather prefetch ablation (BPT, cold cache, "
                "100% point lookups)",
                "Keys         Cache  Prefetch      ns/op  doorbells"
                "     issued       hits     wasted      gated");
    for (const auto &[scattered, pct] :
         {std::pair{false, 0.25}, {true, 0.25}, {true, 0.10}}) {
        runBptColdLookup(true, scattered, pct);
        runBptColdLookup(false, scattered, pct);
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
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
