/**
 * @file
 * Section 6.3 reproduction: the "ping-point" lock benchmark (after
 * Frangipani). Six reader front-ends and one writer hammer the same
 * record under the write-preferred reader lock. The paper reports, at
 * 10% write: ~260 KOPS per reader (1.56 MOPS total), 539 KOPS writer,
 * 3% failed reads; at 50% write: 165 KOPS per reader, 26% fail ratio,
 * writer ~510 KOPS — the write-preferred design keeps writer throughput
 * stable while reader retries absorb the conflicts.
 */

#include <atomic>
#include <thread>

#include "bench_common.h"

namespace asymnvm::bench {
namespace {

constexpr uint64_t kReaderOps = 20000;
constexpr uint64_t kWriterOps = 20000;
constexpr uint32_t kReaders = 6;

uint64_t session_counter = 12000;

Report report("sec63_lock");

struct PingResult
{
    double reader_each_kops;
    double reader_total_kops;
    double writer_kops;
    double fail_ratio;
};

PingResult
runPingPoint(double write_share)
{
    BackendNode be(1, benchBackendConfig());
    DsOptions shared;
    shared.shared = true;
    shared.max_read_retries = 1024;

    FrontendSession writer(sessionFor(Mode::R, ++session_counter));
    if (!ok(writer.connect(&be)))
        return {};
    HashTable wht;
    if (!ok(HashTable::create(writer, 1, "ping", 16, &wht, shared)))
        return {};
    (void)wht.put(1, Value::ofU64(0));
    (void)writer.flushAll();

    std::vector<std::unique_ptr<FrontendSession>> rsessions;
    std::vector<std::unique_ptr<HashTable>> rhts;
    for (uint32_t r = 0; r < kReaders; ++r) {
        // No cache: every read really touches the shared record.
        rsessions.push_back(std::make_unique<FrontendSession>(
            sessionFor(Mode::R, ++session_counter)));
        if (!ok(rsessions.back()->connect(&be)))
            return {};
        rhts.push_back(std::make_unique<HashTable>());
        if (!ok(HashTable::open(*rsessions.back(), 1, "ping",
                                rhts.back().get(), shared)))
            return {};
    }

    Meter m;
    m.watch(be);
    m.watch(writer);
    for (auto &s : rsessions)
        m.watch(*s);
    std::atomic<bool> go{false};
    std::atomic<bool> writer_done{false};
    std::vector<double> reader_kops(kReaders, 0);
    std::vector<double> fail_ratios(kReaders, 0);
    std::vector<std::thread> threads;
    for (uint32_t r = 0; r < kReaders; ++r) {
        threads.emplace_back([&, r] {
            while (!go.load())
                std::this_thread::yield();
            FrontendSession &s = *rsessions[r];
            HashTable &ht = *rhts[r];
            const uint64_t t0 = s.clock().now();
            for (uint64_t i = 0; i < kReaderOps; ++i) {
                m.call(s, [&] {
                    Value v;
                    (void)ht.get(1, &v);
                });
            }
            reader_kops[r] =
                Throughput{kReaderOps, s.clock().now() - t0}.kops();
            fail_ratios[r] = ht.readFailRatio();
        });
    }
    double writer_kops = 0;
    std::thread wt([&] {
        while (!go.load())
            std::this_thread::yield();
        Rng rng(3);
        const uint64_t t0 = writer.clock().now();
        uint64_t done = 0;
        for (uint64_t i = 0; done < kWriterOps; ++i) {
            // The writer's share of ops are writes; the rest are reads
            // (the workload's 10%/50% write mix from the writer's side).
            m.call(writer, [&] {
                if (rng.nextDouble() < write_share) {
                    (void)wht.put(1, Value::ofU64(i));
                } else {
                    Value v;
                    (void)wht.get(1, &v);
                }
            });
            ++done;
        }
        (void)writer.flushAll();
        writer_kops =
            Throughput{kWriterOps, writer.clock().now() - t0}.kops();
        writer_done.store(true);
    });
    go.store(true);
    wt.join();
    for (auto &t : threads)
        t.join();

    PingResult res{};
    for (uint32_t r = 0; r < kReaders; ++r) {
        res.reader_total_kops += reader_kops[r];
        res.fail_ratio += fail_ratios[r];
    }
    res.reader_each_kops = res.reader_total_kops / kReaders;
    res.fail_ratio /= kReaders;
    res.writer_kops = writer_kops;
    Cell cell = m.finish(kWriterOps + kReaders * kReaderOps);
    cell.virt["reader_each_kops"] = res.reader_each_kops;
    cell.virt["writer_kops"] = res.writer_kops;
    cell.virt["read_fail_ratio"] = res.fail_ratio;
    report.add({{"write_share_pct", num(write_share * 100)}},
               std::move(cell));
    return res;
}

void
run()
{
    printHeader("Section 6.3: ping-point lock benchmark, 6 readers + 1 "
                "writer on one record",
                "WriteShare  Reader-each  Reader-total     Writer"
                "   FailRatio");
    for (double share : {0.10, 0.50}) {
        const PingResult r = runPingPoint(share);
        std::printf("%9.0f%%  %11.1f  %12.1f  %9.1f  %9.1f%%\n",
                    share * 100, r.reader_each_kops, r.reader_total_kops,
                    r.writer_kops, r.fail_ratio * 100);
    }
    std::printf(
        "\nPaper (Sec. 6.3) reference: 10%% write -> reader 260 KOPS "
        "each (1.56 MOPS total),\nwriter 539 KOPS, 3%% fail; 50%% write "
        "-> reader 165 KOPS, 26%% fail, writer ~510 KOPS.\nShape: "
        "write-preferred lock keeps the writer fast; reader retries "
        "grow with write share.\n");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
