/**
 * @file
 * Extension benchmark: variable-size values.
 *
 * Section 9.6 describes the industry traces as carrying values from
 * 64 bytes to 8 KB; the paper's own figures use the fixed 64-byte value.
 * This extension sweeps the value size on BlobStore (hash-table index +
 * out-of-line payloads) and reports throughput, effective bandwidth,
 * and per-operation latency percentiles — the RTT-dominated small-value
 * regime crossing over into the bandwidth-dominated large-value regime.
 */

#include "bench_common.h"

#include "ds/blob_store.h"

namespace asymnvm::bench {
namespace {

constexpr uint64_t kKeys = 2000;
constexpr uint64_t kOps = 4000;

uint64_t session_counter = 14000;

Report report("ext_blobs");

struct BlobResult
{
    double kops;
    double mb_per_s;
    uint64_t p50_us;
    uint64_t p99_us;
};

BlobResult
runBlobSize(uint32_t value_size, double put_ratio)
{
    BackendNode be(1, benchBackendConfig());
    FrontendSession s(sessionFor(Mode::RCB, ++session_counter,
                                 /*cache=*/kKeys * value_size / 10, 64));
    if (!ok(s.connect(&be)))
        return {-1, 0, 0, 0};
    BlobStore store;
    if (!ok(BlobStore::create(s, 1, "bl", kKeys * 2, &store)))
        return {-1, 0, 0, 0};

    std::vector<uint8_t> payload(value_size);
    Rng rng(7);
    for (auto &b : payload)
        b = static_cast<uint8_t>(rng.next());
    for (uint64_t k = 1; k <= kKeys; ++k) {
        if (!ok(store.put(k, payload.data(), value_size)))
            return {-1, 0, 0, 0};
    }
    (void)s.flushAll();
    s.resetStats();

    Histogram lat;
    Meter m(s, be);
    const uint64_t t0 = s.clock().now();
    for (uint64_t i = 0; i < kOps; ++i) {
        const uint64_t op_t0 = s.clock().now();
        m.call(s, [&] {
            const Key k = 1 + rng.nextBounded(kKeys);
            if (rng.nextDouble() < put_ratio) {
                payload[0] = static_cast<uint8_t>(i);
                (void)store.put(k, payload.data(), value_size);
            } else {
                std::vector<uint8_t> out;
                (void)store.get(k, &out);
            }
        });
        lat.record(s.clock().now() - op_t0);
    }
    (void)s.flushAll();
    const uint64_t elapsed = s.clock().now() - t0;
    const double kops = Throughput{kOps, elapsed}.kops();
    Cell cell = m.finish(kOps);
    cell.virt["mb_per_s"] = kops * 1000 * value_size / 1e6;
    report.add({{"value_bytes", std::to_string(value_size)}},
               std::move(cell));
    return {kops, kops * 1000 * value_size / 1e6,
            lat.percentile(50) / 1000, lat.percentile(99) / 1000};
}

void
run()
{
    printHeader("Extension: variable-size values on BlobStore "
                "(50% put / 50% get, the Section 9.6 trace sizes)",
                "ValueSize      KOPS      MB/s   p50(us)   p99(us)");
    for (uint32_t size : {64u, 256u, 1024u, 4096u, 8192u}) {
        const BlobResult r = runBlobSize(size, 0.5);
        std::printf("%6u B  %8.1f  %8.1f  %8" PRIu64 "  %8" PRIu64 "\n",
                    size, r.kops, r.mb_per_s, r.p50_us, r.p99_us);
    }
    std::printf(
        "\nExpected shape: small values are RTT/IOPS-bound (KOPS flat,"
        "\nbandwidth grows with size); large values shift toward the"
        "\n40 Gb/s wire bandwidth while per-op latency grows.\n");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
