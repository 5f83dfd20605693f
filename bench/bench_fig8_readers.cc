/**
 * @file
 * Figure 8 reproduction: scalability with multiple reader front-ends.
 *
 * One writer session runs 100% inserts while 1..6 reader sessions run
 * 100% finds against the same structure, each on its own thread with its
 * own virtual clock, all sharing the back-end NIC. Figure 8a covers the
 * lock-free (multi-version) trees, Figure 8b the lock-based ones where
 * readers use the retry-based reader lock of Section 6.3; the paper
 * reports lock-free readers 2.0-2.8x faster, lock-based writer dropping
 * ~39% at 6 readers vs ~10% for MV, and 8-21% read retries.
 */

#include <atomic>
#include <thread>

#include "bench_common.h"

namespace asymnvm::bench {
namespace {

// Full-size parameters reproduce the paper's shape; ASYMNVM_BENCH_TINY
// shrinks them so the bench_smoke_fig8 ctest target exercises the shared
// reader/writer plumbing in seconds.
uint64_t kPreload = 20000;
uint64_t kWriterOps = 6000;
uint64_t kReaderOps = 6000;
constexpr uint32_t kMaxReaders = 6;

uint64_t session_counter = 5000;

struct RunResult
{
    double writer_kops;
    double reader_total_kops;
    double retry_ratio;
};

template <typename DS>
RunResult
runWithReaders(uint32_t nreaders, bool reader_prefetch = true)
{
    BackendNode be(1, benchBackendConfig());
    DsOptions shared;
    shared.shared = true;
    shared.max_read_retries = 256;

    // Writer populates first.
    FrontendSession writer(sessionFor(Mode::RCB, ++session_counter,
                                      cacheBytesFor<DS>(0.10, kPreload),
                                      64));
    if (!ok(writer.connect(&be)))
        return {-1, -1, 0};
    DS wds;
    if (!ok(DS::create(writer, 1, "shared", &wds, shared)))
        return {-1, -1, 0};
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.seed = 42;
    preloadKeys(writer, wds, wcfg, kPreload);
    be.nic().resetStats();

    std::vector<std::unique_ptr<FrontendSession>> rsessions;
    std::vector<std::unique_ptr<DS>> rds;
    for (uint32_t r = 0; r < nreaders; ++r) {
        SessionConfig rconf =
            sessionFor(Mode::RC, ++session_counter,
                       cacheBytesFor<DS>(0.10, kPreload));
        rconf.read_prefetch = reader_prefetch;
        rsessions.push_back(std::make_unique<FrontendSession>(rconf));
        if (!ok(rsessions.back()->connect(&be)))
            return {-1, -1, 0};
        rds.push_back(std::make_unique<DS>());
        if (!ok(DS::open(*rsessions.back(), 1, "shared", rds.back().get(),
                         shared)))
            return {-1, -1, 0};
    }

    std::atomic<bool> go{false};
    std::vector<double> reader_kops(nreaders, 0);
    std::vector<double> retry_ratios(nreaders, 0);
    std::vector<std::thread> threads;
    for (uint32_t r = 0; r < nreaders; ++r) {
        threads.emplace_back([&, r] {
            while (!go.load())
                std::this_thread::yield();
            FrontendSession &s = *rsessions[r];
            DS &ds = *rds[r];
            WorkloadConfig rcfg;
            rcfg.key_space = kPreload;
            rcfg.seed = 100 + r;
            Workload w(rcfg);
            const uint64_t t0 = s.clock().now();
            for (uint64_t i = 0; i < kReaderOps; ++i) {
                Value v;
                (void)dsGet(ds, w.next().key, &v);
                std::this_thread::yield(); // op-granular interleaving
            }
            reader_kops[r] =
                Throughput{kReaderOps, s.clock().now() - t0}.kops();
            retry_ratios[r] = ds.readFailRatio();
        });
    }

    double writer_kops = 0;
    std::thread writer_thread([&] {
        while (!go.load())
            std::this_thread::yield();
        WorkloadConfig icfg;
        icfg.key_space = kPreload;
        icfg.seed = 7;
        Workload w(icfg);
        const uint64_t t0 = writer.clock().now();
        for (uint64_t i = 0; i < kWriterOps; ++i) {
            const WorkItem item = w.next();
            (void)dsPut(wds, item.key, item.value);
            std::this_thread::yield(); // op-granular interleaving
        }
        (void)writer.flushAll();
        writer_kops =
            Throughput{kWriterOps, writer.clock().now() - t0}.kops();
    });

    go.store(true);
    writer_thread.join();
    for (auto &t : threads)
        t.join();

    double total = 0, retries = 0;
    for (uint32_t r = 0; r < nreaders; ++r) {
        total += reader_kops[r];
        retries += retry_ratios[r];
    }
    return {writer_kops, total,
            nreaders == 0 ? 0 : retries / nreaders};
}

template <typename DS>
std::vector<RunResult>
series(const char *label)
{
    std::printf("%s\n", label);
    std::printf("Readers   Writer-KOPS  Readers-KOPS(total)  RetryRatio\n");
    std::vector<RunResult> rows;
    for (uint32_t n = 1; n <= kMaxReaders; ++n) {
        const RunResult r = runWithReaders<DS>(n);
        std::printf("%7u   %11.1f  %19.1f  %9.1f%%\n", n, r.writer_kops,
                    r.reader_total_kops, r.retry_ratio * 100);
        rows.push_back(r);
    }
    return rows;
}

/**
 * Machine-readable companion of the printed tables: one series per
 * structure plus the reader-prefetch ablation. Format documented in
 * EXPERIMENTS.md.
 */
void
writeJson(const std::vector<const char *> &names,
          const std::vector<std::vector<RunResult>> &series_rows,
          const std::vector<RunResult> &pf_on,
          const std::vector<RunResult> &pf_off, const char *path)
{
    std::FILE *f = std::fopen(path, "w");
    if (f == nullptr) {
        std::fprintf(stderr, "cannot write %s\n", path);
        return;
    }
    std::fprintf(f, "{\n  \"bench\": \"fig8_readers\",\n"
                    "  \"unit\": \"kops\",\n"
                    "  \"params\": {\"preload\": %" PRIu64
                    ", \"writer_ops\": %" PRIu64 ", \"reader_ops\": %" PRIu64
                    ", \"tiny\": %s},\n",
                 kPreload, kWriterOps, kReaderOps,
                 benchTiny() ? "true" : "false");
    std::fprintf(f, "  \"series\": [\n");
    for (size_t s = 0; s < names.size(); ++s) {
        std::fprintf(f, "    {\"structure\": \"%s\", \"rows\": [\n",
                     names[s]);
        for (size_t n = 0; n < series_rows[s].size(); ++n) {
            const RunResult &r = series_rows[s][n];
            std::fprintf(f,
                         "      {\"readers\": %zu, \"writer\": %.1f, "
                         "\"readers_total\": %.1f, \"retry_ratio\": "
                         "%.4f}%s\n",
                         n + 1, r.writer_kops, r.reader_total_kops,
                         r.retry_ratio,
                         n + 1 == series_rows[s].size() ? "" : ",");
        }
        std::fprintf(f, "    ]}%s\n",
                     s + 1 == names.size() ? "" : ",");
    }
    std::fprintf(f, "  ],\n  \"prefetch_ablation\": {\"structure\": "
                    "\"BPT\", \"rows\": [\n");
    for (size_t n = 0; n < pf_on.size(); ++n) {
        std::fprintf(f,
                     "    {\"readers\": %zu, \"readers_total_on\": %.1f, "
                     "\"readers_total_off\": %.1f}%s\n",
                     n + 1, pf_on[n].reader_total_kops,
                     pf_off[n].reader_total_kops,
                     n + 1 == pf_on.size() ? "" : ",");
    }
    std::fprintf(f, "  ]}\n}\n");
    std::fclose(f);
    std::printf("\nwrote %s\n", path);
}

void
run()
{
    if (benchTiny()) {
        kPreload = 1200;
        kWriterOps = 300;
        kReaderOps = 300;
    }
    std::vector<const char *> names;
    std::vector<std::vector<RunResult>> series_rows;
    printHeader("Figure 8a: lock-free (multi-version) structures, "
                "1 writer + N readers",
                "");
    names.push_back("MV-BPT");
    series_rows.push_back(series<MvBpTree>("MV-BPT:"));
    names.push_back("MV-BST");
    series_rows.push_back(series<MvBst>("MV-BST:"));
    printHeader("Figure 8b: lock-based structures, 1 writer + N readers",
                "");
    names.push_back("BPT");
    series_rows.push_back(series<BpTree>("BPT:"));
    names.push_back("BST");
    series_rows.push_back(series<Bst>("BST:"));
    names.push_back("SkipList");
    series_rows.push_back(series<SkipList>("SkipList:"));
    std::printf(
        "\nPaper (Fig. 8) reference shape: reader throughput scales with"
        "\nreader count; lock-free readers outpace lock-based ~2.0-2.8x;"
        "\nlock-based writer degrades more with readers (-39%% at 6) than"
        "\nmulti-version (-10%%); lock-based retry ratio 8-21%%.\n");

    printHeader("Reader-prefetch ablation (BPT, 1 writer + N readers)",
                "Readers   Readers-KOPS(on)  Readers-KOPS(off)");
    std::vector<RunResult> pf_on, pf_off;
    for (uint32_t n = 1; n <= kMaxReaders; ++n) {
        pf_on.push_back(runWithReaders<BpTree>(n, true));
        pf_off.push_back(runWithReaders<BpTree>(n, false));
        std::printf("%7u   %16.1f  %17.1f\n", n,
                    pf_on.back().reader_total_kops,
                    pf_off.back().reader_total_kops);
    }
    std::printf("\nExpected shape: no fixed order. Readers draw uniform "
                "hashed keys, whose siblings\nthey seldom read next, so "
                "the speculation gate closes on each reader session;\n"
                "the threads interleave differently every run, and single "
                "cells move by up to 2x.\nCompare on and off over several "
                "runs, not one.\n");

    writeJson(names, series_rows, pf_on, pf_off,
              "BENCH_fig8_readers.json");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return 0;
}
