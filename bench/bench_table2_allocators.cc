/**
 * @file
 * Table 2 reproduction: allocator throughput comparison (MOPS).
 *
 *   Glibc                     — volatile malloc/free (no persistence)
 *   Pmem                      — single-node persistent allocator (the
 *                               back-end slab allocator accessed locally
 *                               at NVM cost, standing in for NVML/pmem)
 *   RPC allocator             — every allocation crosses the network
 *   Two-tier (slab 128 B)     — paper's design, small slabs
 *   Two-tier (slab 1024 B)    — paper's design, default slabs
 *
 * Allocation sizes vary 32..128 bytes as in Section 5.2. Throughput is
 * ops per virtual second.
 */

#include <cstdlib>

#include "bench_common.h"

#include "frontend/allocator.h"
#include "rdma/rpc.h"

namespace asymnvm::bench {
namespace {

constexpr uint64_t kOps = 20000;

Report report("table2_allocators");

struct Result
{
    double alloc_mops;
    double free_mops;
};

/** Host malloc as the Glibc row; measured against virtual DRAM cost. */
Result
glibcRow()
{
    // Model: an allocation is a handful of DRAM accesses (~50 ns).
    SimClock clock;
    LatencyModel lat;
    std::vector<void *> ptrs(kOps);
    Rng rng(1);
    uint64_t t0 = clock.now();
    for (uint64_t i = 0; i < kOps; ++i) {
        ptrs[i] = std::malloc(32 + rng.nextBounded(97));
        clock.advance(lat.dram_access_ns);
    }
    const uint64_t alloc_ns = clock.now() - t0;
    t0 = clock.now();
    for (uint64_t i = 0; i < kOps; ++i) {
        std::free(ptrs[i]);
        clock.advance(lat.dram_access_ns / 2);
    }
    const uint64_t free_ns = clock.now() - t0;
    return {Throughput{kOps, alloc_ns}.mops(),
            Throughput{kOps, free_ns}.mops()};
}

/** Back-end slab allocator at local NVM cost: the "Pmem" row. */
Result
pmemRow()
{
    BackendConfig cfg = benchBackendConfig();
    cfg.block_size = 128; // fine-grained local persistent allocator
    BackendNode be(1, cfg);
    SimClock clock;
    LatencyModel lat;
    std::vector<uint64_t> offs(kOps);
    uint64_t t0 = clock.now();
    for (uint64_t i = 0; i < kOps; ++i) {
        be.rpcAllocBlocks(1, &offs[i]);
        // Local persistent allocation: bitmap write + persist fence.
        clock.advance(lat.nvm_write_ns + lat.persist_fence_ns +
                      lat.cpu_op_overhead_ns * 2);
    }
    const uint64_t alloc_ns = clock.now() - t0;
    t0 = clock.now();
    for (uint64_t i = 0; i < kOps; ++i) {
        be.rpcFreeBlocks(offs[i], 1);
        clock.advance(lat.nvm_write_ns + lat.persist_fence_ns +
                      lat.cpu_op_overhead_ns);
    }
    const uint64_t free_ns = clock.now() - t0;
    return {Throughput{kOps, alloc_ns}.mops(),
            Throughput{kOps, free_ns}.mops()};
}

/** Every allocation is one RPC round trip: the strawman row. */
Result
rpcRow()
{
    BackendConfig cfg = benchBackendConfig();
    cfg.block_size = 128;
    BackendNode be(1, cfg);
    FrontendSession s(SessionConfig::r(71));
    if (!ok(s.connect(&be)))
        return {-1, -1};
    // Direct RfpRpc usage, no front-end tier.
    RfpRpc rpc(&s.verbs(), &be, 0);
    std::vector<uint64_t> offs(kOps);
    uint64_t t0 = s.clock().now();
    for (uint64_t i = 0; i < kOps; ++i) {
        uint64_t args[1] = {1};
        uint64_t rets[4] = {};
        rpc.call(RpcOp::AllocBlocks, args, {}, rets);
        offs[i] = rets[0];
    }
    const uint64_t alloc_ns = s.clock().now() - t0;
    t0 = s.clock().now();
    for (uint64_t i = 0; i < kOps; ++i) {
        uint64_t args[2] = {offs[i], 1};
        rpc.call(RpcOp::FreeBlocks, args, {}, nullptr);
    }
    const uint64_t free_ns = s.clock().now() - t0;
    return {Throughput{kOps, alloc_ns}.mops(),
            Throughput{kOps, free_ns}.mops()};
}

/** The paper's two-tier allocator with the given slab size. */
Result
twoTierRow(uint64_t slab_size)
{
    BackendConfig cfg = benchBackendConfig();
    cfg.block_size = slab_size;
    BackendNode be(1, cfg);
    FrontendSession s(SessionConfig::r(72 + slab_size));
    if (!ok(s.connect(&be)))
        return {-1, -1};
    Rng rng(3);
    std::vector<std::pair<RemotePtr, uint64_t>> ptrs(kOps);
    uint64_t t0 = s.clock().now();
    for (uint64_t i = 0; i < kOps; ++i) {
        const uint64_t size = 32 + rng.nextBounded(97);
        RemotePtr p;
        s.alloc(1, size, &p);
        ptrs[i] = {p, size};
    }
    const uint64_t alloc_ns = s.clock().now() - t0;
    t0 = s.clock().now();
    for (uint64_t i = 0; i < kOps; ++i)
        s.free(ptrs[i].first, ptrs[i].second);
    const uint64_t free_ns = s.clock().now() - t0;
    return {Throughput{kOps, alloc_ns}.mops(),
            Throughput{kOps, free_ns}.mops()};
}

void
printRow(const char *name, const Result &r)
{
    std::printf("%-36s %8.2f %8.2f\n", name, r.alloc_mops, r.free_mops);
    report.add({{"allocator", name}},
               {{{"alloc_mops", r.alloc_mops}, {"free_mops", r.free_mops}},
                {}});
}

void
run()
{
    printHeader("Table 2: comparison of different allocators "
                "(MOPS, alloc sizes 32-128 B)",
                "Allocator                               Alloc     Free");
    printRow("Glibc", glibcRow());
    printRow("Pmem (local persistent)", pmemRow());
    printRow("RPC allocator", rpcRow());
    printRow("Two-tier allocator (slab 128 B)", twoTierRow(128));
    printRow("Two-tier allocator (slab 1024 B)", twoTierRow(1024));
    std::printf("\nPaper (Table 2) reference: Glibc 21.0/57.0, Pmem "
                "1.42/1.38, RPC 0.33/0.88,\ntwo-tier(128B) 1.33/2.41, "
                "two-tier(1024B) 6.42/13.90 — the shape to match:\n"
                "Glibc >> two-tier(1KB) > Pmem ~ two-tier(128B) >> RPC.\n");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
