/**
 * @file
 * Unit tests for front-end components: the page cache (all three
 * replacement policies, write-through updates, DS-scoped invalidation),
 * adaptive level admission, and the two-tier allocator's front tier.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>
#include <unordered_map>
#include <vector>

#include "backend/backend_node.h"
#include "common/rand.h"
#include "common/zipf.h"
#include "ds/hash_table.h"
#include "frontend/allocator.h"
#include "frontend/cache.h"
#include "frontend/session.h"
#include "rdma/rpc.h"
#include "sim/clock.h"
#include "sim/latency.h"

namespace asymnvm {
namespace {

class CacheTest : public ::testing::Test
{
  protected:
    SimClock clock;
    LatencyModel lat;

    PageCache makeCache(CachePolicy policy, uint64_t capacity)
    {
        return PageCache(policy, capacity, &clock, &lat);
    }

    static std::vector<uint8_t> blob(uint8_t fill, size_t n = 64)
    {
        return std::vector<uint8_t>(n, fill);
    }
};

TEST_F(CacheTest, HitAfterInsert)
{
    auto cache = makeCache(CachePolicy::Hybrid, 4096);
    const auto data = blob(0x42);
    cache.insert(0, RemotePtr(1, 100), data.data(), 64);
    uint8_t out[64] = {};
    EXPECT_TRUE(cache.lookup(RemotePtr(1, 100), out, 64));
    EXPECT_EQ(out[0], 0x42);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST_F(CacheTest, MissOnAbsentAndWrongLength)
{
    auto cache = makeCache(CachePolicy::Hybrid, 4096);
    uint8_t out[64];
    EXPECT_FALSE(cache.lookup(RemotePtr(1, 100), out, 64));
    const auto data = blob(1);
    cache.insert(0, RemotePtr(1, 100), data.data(), 64);
    EXPECT_FALSE(cache.lookup(RemotePtr(1, 100), out, 32))
        << "length mismatch must miss (object-granularity cache)";
}

TEST_F(CacheTest, CapacityEnforcedByEviction)
{
    auto cache = makeCache(CachePolicy::Hybrid, 64 * 10);
    for (uint64_t i = 0; i < 20; ++i) {
        const auto data = blob(static_cast<uint8_t>(i));
        cache.insert(0, RemotePtr(1, 1000 + i * 64), data.data(), 64);
    }
    EXPECT_LE(cache.sizeBytes(), 64u * 10);
    EXPECT_EQ(cache.entryCount(), 10u);
    EXPECT_GT(cache.evictions(), 0u);
}

TEST_F(CacheTest, UpdatePatchesCachedBytes)
{
    auto cache = makeCache(CachePolicy::Lru, 4096);
    const auto v1 = blob(0x01);
    cache.insert(0, RemotePtr(1, 64), v1.data(), 64);
    const auto v2 = blob(0x02);
    cache.update(RemotePtr(1, 64), v2.data(), 64);
    uint8_t out[64];
    ASSERT_TRUE(cache.lookup(RemotePtr(1, 64), out, 64));
    EXPECT_EQ(out[0], 0x02);
}

TEST_F(CacheTest, UpdateWithDifferentLengthInvalidates)
{
    auto cache = makeCache(CachePolicy::Lru, 4096);
    const auto v1 = blob(0x01);
    cache.insert(0, RemotePtr(1, 64), v1.data(), 64);
    const auto v2 = blob(0x02, 32);
    cache.update(RemotePtr(1, 64), v2.data(), 32);
    uint8_t out[64];
    EXPECT_FALSE(cache.lookup(RemotePtr(1, 64), out, 64));
}

TEST_F(CacheTest, OverwriteWithNewLengthRespectsCapacity)
{
    const uint64_t capacity = 64 * 10;
    auto cache = makeCache(CachePolicy::Lru, capacity);
    for (uint64_t i = 0; i < 10; ++i) {
        const auto data = blob(static_cast<uint8_t>(i));
        cache.insert(0, RemotePtr(1, 1000 + i * 64), data.data(), 64);
    }
    ASSERT_EQ(cache.sizeBytes(), capacity);
    // Re-inserting the same key with a larger object must evict to make
    // room, not silently grow the footprint past the configured budget.
    for (uint64_t rep = 0; rep < 8; ++rep) {
        const auto grown = blob(static_cast<uint8_t>(0xE0 + rep), 128);
        cache.insert(0, RemotePtr(1, 1000), grown.data(), 128);
        EXPECT_LE(cache.sizeBytes(), capacity)
            << "overwrite " << rep << " blew the capacity";
    }
    uint8_t out[128];
    EXPECT_TRUE(cache.lookup(RemotePtr(1, 1000), out, 128));
}

TEST_F(CacheTest, SameLengthOverwriteIsStable)
{
    auto cache = makeCache(CachePolicy::Lru, 4096);
    for (uint64_t rep = 0; rep < 50; ++rep) {
        const auto data = blob(static_cast<uint8_t>(rep));
        cache.insert(0, RemotePtr(1, 64), data.data(), 64);
        EXPECT_EQ(cache.entryCount(), 1u);
        EXPECT_EQ(cache.sizeBytes(), 64u);
    }
    uint8_t out[64];
    ASSERT_TRUE(cache.lookup(RemotePtr(1, 64), out, 64));
    EXPECT_EQ(out[0], 49);
}

TEST_F(CacheTest, InvalidateDsDropsOnlyThatStructure)
{
    auto cache = makeCache(CachePolicy::Hybrid, 1 << 20);
    const auto data = blob(9);
    cache.insert(/*ds=*/1, RemotePtr(1, 64), data.data(), 64);
    cache.insert(/*ds=*/2, RemotePtr(1, 128), data.data(), 64);
    cache.invalidateDs(1);
    uint8_t out[64];
    EXPECT_FALSE(cache.lookup(RemotePtr(1, 64), out, 64));
    EXPECT_TRUE(cache.lookup(RemotePtr(1, 128), out, 64));
}

TEST_F(CacheTest, LruKeepsRecentlyUsedUnderEviction)
{
    auto cache = makeCache(CachePolicy::Lru, 64 * 4);
    const auto data = blob(1);
    for (uint64_t i = 0; i < 4; ++i)
        cache.insert(0, RemotePtr(1, i * 64), data.data(), 64);
    uint8_t out[64];
    // Touch entry 0 so it is MRU, then overflow by one.
    ASSERT_TRUE(cache.lookup(RemotePtr(1, 0), out, 64));
    cache.insert(0, RemotePtr(1, 4 * 64), data.data(), 64);
    EXPECT_TRUE(cache.lookup(RemotePtr(1, 0), out, 64))
        << "MRU entry must survive";
    EXPECT_FALSE(cache.lookup(RemotePtr(1, 64), out, 64))
        << "LRU entry must be the victim";
}

/**
 * The Section 4.4 experiment in miniature: under a Zipf workload the
 * hybrid policy's miss ratio should be far below random replacement and
 * close to exact LRU.
 */
TEST_F(CacheTest, HybridPolicyApproachesLruMissRatio)
{
    const uint64_t items = 4000;
    const uint64_t capacity = 64 * 400; // 10% of the working set
    auto run = [&](CachePolicy policy) {
        auto cache = makeCache(policy, capacity);
        ZipfGenerator zipf(items, 0.9, 77);
        const auto data = blob(5);
        uint8_t out[64];
        for (int i = 0; i < 60000; ++i) {
            const RemotePtr p(1, 4096 + zipf.next() * 64);
            if (!cache.lookup(p, out, 64))
                cache.insert(0, p, data.data(), 64);
        }
        return cache.missRatio();
    };
    const double lru = run(CachePolicy::Lru);
    const double rr = run(CachePolicy::Random);
    const double hybrid = run(CachePolicy::Hybrid);
    EXPECT_LT(lru, rr);
    EXPECT_LT(hybrid, rr - 0.03) << "hybrid must beat random clearly";
    EXPECT_LT(hybrid - lru, 0.08) << "hybrid must be close to LRU";
}

TEST_F(CacheTest, LruChargesMorePerHitThanHybrid)
{
    auto lru = makeCache(CachePolicy::Lru, 1 << 20);
    auto hybrid = makeCache(CachePolicy::Hybrid, 1 << 20);
    const auto data = blob(1);
    lru.insert(0, RemotePtr(1, 0), data.data(), 64);
    hybrid.insert(0, RemotePtr(1, 0), data.data(), 64);
    uint8_t out[64];

    SimClock before = clock;
    (void)before;
    const uint64_t t0 = clock.now();
    lru.lookup(RemotePtr(1, 0), out, 64);
    const uint64_t lru_cost = clock.now() - t0;
    const uint64_t t1 = clock.now();
    hybrid.lookup(RemotePtr(1, 0), out, 64);
    const uint64_t hybrid_cost = clock.now() - t1;
    EXPECT_GT(lru_cost, hybrid_cost);
}

/**
 * Reference Hybrid/Random cache for one object size, written the way the
 * cache evicted before one sample served a whole insert: every victim
 * draws and pays for its own sample. Same dense key/tick vectors, same
 * swap-pop, same PRNG, so the victims and the clock must match.
 */
struct PerVictimRef
{
    CachePolicy policy;
    uint64_t slots;
    uint32_t k;
    const LatencyModel &lat;
    Rng rng{1234}; // PageCache's default seed
    std::vector<uint64_t> keys, ticks;
    std::unordered_map<uint64_t, size_t> idx;
    uint64_t tick = 0;
    uint64_t ns = 0;

    bool lookup(uint64_t key)
    {
        ns += lat.cache_probe_ns;
        auto it = idx.find(key);
        if (it == idx.end())
            return false;
        ticks[it->second] = ++tick;
        ns += lat.dram_access_ns;
        return true;
    }

    /** Returns the victim, or 0 when the insert evicted nothing. */
    uint64_t insert(uint64_t key)
    {
        uint64_t victim = 0;
        if (keys.size() == slots) {
            if (policy == CachePolicy::Random) {
                victim = keys[rng.nextBounded(keys.size())];
                ns += lat.dram_access_ns;
            } else {
                const size_t n = std::min<size_t>(k, keys.size());
                uint64_t best = UINT64_MAX;
                for (size_t i = 0; i < n; ++i) {
                    const size_t j = rng.nextBounded(keys.size());
                    if (ticks[j] < best) {
                        best = ticks[j];
                        victim = keys[j];
                    }
                }
                ns += n * lat.dram_access_ns / 8;
            }
            const size_t j = idx[victim];
            keys[j] = keys.back();
            ticks[j] = ticks.back();
            idx[keys[j]] = j;
            keys.pop_back();
            ticks.pop_back();
            idx.erase(victim);
        }
        idx[key] = keys.size();
        keys.push_back(key);
        ticks.push_back(++tick);
        ns += lat.dram_access_ns;
        return victim;
    }
};

TEST_F(CacheTest, OneSizeTraceEvictsLikeAPerVictimSampler)
{
    const uint64_t slots = 64;
    for (CachePolicy policy : {CachePolicy::Hybrid, CachePolicy::Random}) {
        for (uint32_t k : {4u, 32u}) {
            PageCache cache(policy, slots * 64, &clock, &lat, k);
            PerVictimRef ref{policy, slots, k, lat};
            ZipfGenerator zipf(400, 0.9, 5);
            const auto data = blob(3);
            uint8_t out[64];
            const uint64_t t0 = clock.now();
            for (int i = 0; i < 20000; ++i) {
                const RemotePtr p(1, 4096 + zipf.next() * 64);
                const bool hit = cache.lookup(p, out, 64);
                ASSERT_EQ(hit, ref.lookup(p.raw())) << "op " << i;
                if (hit)
                    continue;
                cache.insert(0, p, data.data(), 64);
                const uint64_t victim = ref.insert(p.raw());
                if (victim != 0)
                    ASSERT_FALSE(cache.contains(RemotePtr::fromRaw(victim),
                                                64))
                        << "op " << i;
                ASSERT_EQ(cache.entryCount(), ref.keys.size());
                ASSERT_EQ(clock.now() - t0, ref.ns) << "op " << i;
            }
            EXPECT_GT(cache.evictions(), 5000u);
            EXPECT_EQ(cache.evictionSamples(),
                      policy == CachePolicy::Hybrid ? cache.evictions()
                                                    : 0u)
                << "one victim per sample at one size";
        }
    }
}

/** Fills a 64-slot cache with 64 B entries, oldest first: keys_[i] is
 *  the i-th insert and has tick i + 1. */
class HybridSampleTest : public CacheTest
{
  protected:
    static RemotePtr slot(uint64_t i) { return RemotePtr(1, 4096 + i * 64); }

    PageCache fill(uint64_t slots, uint32_t k)
    {
        PageCache cache(CachePolicy::Hybrid, slots * 64, &clock, &lat, k);
        const auto data = blob(1);
        for (uint64_t i = 0; i < slots; ++i)
            cache.insert(0, slot(i), data.data(), 64);
        return cache;
    }

    /** The distinct slots the cache's first sample draws, oldest first. */
    static std::set<uint64_t> firstSample(uint64_t slots, uint32_t k)
    {
        Rng rng(1234);
        std::set<uint64_t> drawn;
        for (uint32_t i = 0; i < std::min<uint64_t>(k, slots); ++i)
            drawn.insert(rng.nextBounded(slots));
        return drawn;
    }
};

TEST_F(HybridSampleTest, LargeInsertChargesOneSampleAndEvictsItsOldest)
{
    auto cache = fill(64, 32);
    const std::set<uint64_t> drawn = firstSample(64, 32);
    ASSERT_GE(drawn.size(), 9u);
    const auto node = blob(7, 528);
    const uint64_t t0 = clock.now();
    cache.insert(0, RemotePtr(1, 1 << 20), node.data(), 528);
    EXPECT_EQ(clock.now() - t0, 32 * lat.dram_access_ns / 8 +
                                    lat.dram_access_ns)
        << "one sample, then the install";
    EXPECT_EQ(cache.evictionSamples(), 1u);
    EXPECT_EQ(cache.evictions(), 9u) << "9 × 64 B is the least >= 528 B";
    // Ticks follow insertion order, so the sample's nine lowest slots go.
    std::set<uint64_t> victims(drawn.begin(), std::next(drawn.begin(), 9));
    for (uint64_t i = 0; i < 64; ++i)
        EXPECT_EQ(cache.contains(slot(i), 64), victims.count(i) == 0)
            << "slot " << i;
    EXPECT_LE(cache.sizeBytes(), 64u * 64);
}

TEST_F(HybridSampleTest, SampleTooSmallToFreeTheBytesDrawsAnother)
{
    auto cache = fill(8, 2);
    const auto big = blob(7, 256);
    const uint64_t t0 = clock.now();
    cache.insert(0, RemotePtr(1, 1 << 20), big.data(), 256);
    // A 2-entry sample frees at most 128 B of the 256 B needed.
    EXPECT_GE(cache.evictionSamples(), 2u);
    EXPECT_EQ(cache.evictions(), 4u);
    EXPECT_EQ(clock.now() - t0,
              cache.evictionSamples() * (2 * lat.dram_access_ns / 8) +
                  lat.dram_access_ns);
    EXPECT_EQ(cache.sizeBytes(), 8u * 64);
}

TEST_F(HybridSampleTest, DuplicateDrawsAreEvictedOnce)
{
    auto cache = fill(4, 32);
    ASSERT_LT(firstSample(4, 32).size(), 4u)
        << "the first 4-draw sample must repeat a slot";
    const auto big = blob(7, 256);
    cache.insert(0, RemotePtr(1, 1 << 20), big.data(), 256);
    EXPECT_EQ(cache.evictions(), 4u) << "each entry counted once";
    EXPECT_GE(cache.evictionSamples(), 2u)
        << "the repeats left too few bytes: a second sample";
    EXPECT_EQ(cache.entryCount(), 1u);
    EXPECT_EQ(cache.sizeBytes(), 256u);
}

TEST_F(HybridSampleTest, SpeculativeEntriesGoFirstAndCountAsWasted)
{
    PageCache cache(CachePolicy::Hybrid, 16 * 64, &clock, &lat);
    const auto data = blob(1);
    for (uint64_t i = 0; i < 16; ++i) {
        if (i % 4 == 0)
            cache.insert(0, slot(i), data.data(), 64);
        else
            cache.insertSpeculative(0, slot(i), data.data(), 64,
                                    cache.epochNow());
    }
    // All speculative entries tie at tick 0: the first two drawn go.
    Rng rng(1234);
    std::vector<uint64_t> victims;
    for (int i = 0; i < 16; ++i) {
        const uint64_t j = rng.nextBounded(16);
        if (j % 4 != 0 && victims.size() < 2 &&
            std::find(victims.begin(), victims.end(), j) == victims.end())
            victims.push_back(j);
    }
    ASSERT_EQ(victims.size(), 2u);
    const auto two = blob(7, 128);
    cache.insert(0, RemotePtr(1, 1 << 20), two.data(), 128);
    EXPECT_EQ(cache.evictionSamples(), 1u);
    EXPECT_EQ(cache.evictions(), 2u);
    EXPECT_EQ(cache.prefetchWasted(), 2u) << "both victims were unread";
    for (uint64_t i = 0; i < 16; ++i) {
        const bool victim = i == victims[0] || i == victims[1];
        EXPECT_EQ(cache.contains(slot(i), 64), !victim) << "slot " << i;
    }
}

TEST_F(HybridSampleTest, FirstEvictionClosesWriteAllocate)
{
    auto cache = fill(4, 32);
    cache.invalidate(slot(0));
    const auto data = blob(2);
    EXPECT_TRUE(cache.insertFresh(0, slot(100), data.data(), 64))
        << "free space, never evicted";
    cache.insert(0, slot(101), data.data(), 64); // evicts
    ASSERT_EQ(cache.evictions(), 1u);
    cache.invalidate(slot(1));
    cache.invalidate(slot(2));
    EXPECT_FALSE(cache.insertFresh(0, slot(102), data.data(), 64))
        << "sticky after the first eviction, despite free space";
    cache.clear();
    EXPECT_TRUE(cache.insertFresh(0, slot(102), data.data(), 64));
}

TEST(LevelAdmissionTest, StartsPermissiveAndTightensOnMisses)
{
    LevelAdmission adm(/*initial_n=*/4, /*window=*/16);
    EXPECT_TRUE(adm.admit(4));
    EXPECT_FALSE(adm.admit(5));
    for (int i = 0; i < 16; ++i)
        adm.record(false); // all misses
    EXPECT_EQ(adm.level(), 3u) << "miss ratio > 50% lowers N";
}

TEST(LevelAdmissionTest, LoosensWhenHitsDominate)
{
    LevelAdmission adm(4, 16);
    for (int i = 0; i < 16; ++i)
        adm.record(true);
    EXPECT_EQ(adm.level(), 5u) << "miss ratio < 25% raises N";
}

TEST(LevelAdmissionTest, StableInTheMiddleBand)
{
    LevelAdmission adm(4, 10);
    for (int i = 0; i < 10; ++i)
        adm.record(i < 6); // 40% misses
    EXPECT_EQ(adm.level(), 4u);
}

// ---------------------------------------------------------------------
// Front-end allocator tier
// ---------------------------------------------------------------------

class FrontAllocTest : public ::testing::Test
{
  protected:
    FrontAllocTest() : be(1, makeConfig())
    {
        alloc = std::make_unique<FrontendAllocator>(
            1, be.config().block_size,
            [this](RpcOp op, std::span<const uint64_t> args,
                   std::span<const uint8_t>, uint64_t rets[4]) {
                ++rpc_calls;
                switch (op) {
                  case RpcOp::AllocBlocks:
                    return be.rpcAllocBlocks(args[0], &rets[0]);
                  case RpcOp::FreeBlocks:
                    return be.rpcFreeBlocks(args[0], args[1]);
                  default:
                    return Status::InvalidArgument;
                }
            },
            /*reclaim_threshold=*/2);
    }

    static BackendConfig makeConfig()
    {
        BackendConfig cfg;
        cfg.nvm_size = 8ull << 20;
        cfg.memlog_ring_size = 64ull << 10;
        cfg.oplog_ring_size = 32ull << 10;
        cfg.block_size = 1024;
        return cfg;
    }

    BackendNode be;
    std::unique_ptr<FrontendAllocator> alloc;
    uint64_t rpc_calls = 0;
};

TEST_F(FrontAllocTest, SmallAllocationsShareOneSlab)
{
    RemotePtr a, b;
    ASSERT_EQ(alloc->alloc(100, &a), Status::Ok);
    ASSERT_EQ(alloc->alloc(100, &b), Status::Ok);
    EXPECT_EQ(rpc_calls, 1u) << "second allocation must be slab-local";
    EXPECT_NE(a, b);
    EXPECT_LT(b.offset - a.offset, 1024u) << "same slab expected";
}

TEST_F(FrontAllocTest, AllocationsDoNotOverlap)
{
    std::vector<std::pair<uint64_t, uint64_t>> spans;
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        const uint64_t size = 16 + rng.nextBounded(200);
        RemotePtr p;
        ASSERT_EQ(alloc->alloc(size, &p), Status::Ok);
        for (const auto &[off, len] : spans) {
            EXPECT_TRUE(p.offset + size <= off || off + len <= p.offset)
                << "overlap at " << p.offset;
        }
        spans.emplace_back(p.offset, size);
    }
}

TEST_F(FrontAllocTest, LargeAllocationGoesStraightToBackend)
{
    RemotePtr p;
    ASSERT_EQ(alloc->alloc(5000, &p), Status::Ok);
    EXPECT_TRUE(be.allocator().isAllocated(p.offset));
    EXPECT_TRUE(be.allocator().isAllocated(p.offset + 4096));
    ASSERT_EQ(alloc->free(p, 5000), Status::Ok);
    EXPECT_FALSE(be.allocator().isAllocated(p.offset));
}

TEST_F(FrontAllocTest, FreeCoalescesAndAllowsReuse)
{
    RemotePtr a, b, c;
    ASSERT_EQ(alloc->alloc(256, &a), Status::Ok);
    ASSERT_EQ(alloc->alloc(256, &b), Status::Ok);
    ASSERT_EQ(alloc->alloc(256, &c), Status::Ok);
    ASSERT_EQ(alloc->free(a, 256), Status::Ok);
    ASSERT_EQ(alloc->free(b, 256), Status::Ok);
    // a+b coalesced into 512 contiguous bytes; a 512B alloc must fit
    // without a new slab.
    const uint64_t rpcs_before = rpc_calls;
    RemotePtr d;
    ASSERT_EQ(alloc->alloc(512, &d), Status::Ok);
    EXPECT_EQ(rpc_calls, rpcs_before);
    EXPECT_EQ(d.offset, a.offset);
}

TEST_F(FrontAllocTest, SteadyAllocFreeCycleStaysRpcFree)
{
    // Burst-alloc / burst-free (the shape group-commit retirement
    // produces): after warm-up, the adaptive hysteresis must hold the
    // empty slabs locally instead of ping-ponging them through
    // FreeBlocks/AllocBlocks round trips every cycle.
    auto cycle = [&](int n) {
        std::vector<RemotePtr> ptrs;
        for (int i = 0; i < n; ++i) {
            RemotePtr p;
            ASSERT_EQ(alloc->alloc(512, &p), Status::Ok);
            ptrs.push_back(p);
        }
        for (const RemotePtr &p : ptrs)
            ASSERT_EQ(alloc->free(p, 512), Status::Ok);
    };
    cycle(40);
    cycle(40);
    const uint64_t rpcs_before = rpc_calls;
    cycle(40);
    cycle(40);
    EXPECT_EQ(rpc_calls, rpcs_before)
        << "steady-state cycles must be slab-local";
    EXPECT_GE(alloc->emptySlabsHeld(), 20u);
}

TEST_F(FrontAllocTest, SurplusDrainsWhenDemandCollapses)
{
    // Big cycles establish a high keep level; once demand shrinks, the
    // measured-demand hysteresis follows it down and the surplus slabs
    // return to the back-end within a couple of cycles.
    auto cycle = [&](int n) {
        std::vector<RemotePtr> ptrs;
        for (int i = 0; i < n; ++i) {
            RemotePtr p;
            ASSERT_EQ(alloc->alloc(512, &p), Status::Ok);
            ptrs.push_back(p);
        }
        for (const RemotePtr &p : ptrs)
            ASSERT_EQ(alloc->free(p, 512), Status::Ok);
    };
    cycle(40);
    cycle(40);
    EXPECT_GE(alloc->slabsHeld(), 20u);
    cycle(2);
    cycle(2);
    cycle(2);
    EXPECT_LE(alloc->slabsHeld(), 4u)
        << "keep level must track collapsed demand";
}

TEST_F(FrontAllocTest, ZeroSizeRejected)
{
    RemotePtr p;
    EXPECT_EQ(alloc->alloc(0, &p), Status::InvalidArgument);
}

TEST_F(FrontAllocTest, VolatileStateLossKeepsBackendBlocksAllocated)
{
    RemotePtr p;
    ASSERT_EQ(alloc->alloc(100, &p), Status::Ok);
    alloc->loseVolatileState();
    // Section 5.2: recovery is slab-granularity only; the slab stays
    // allocated at the back-end (no use-after-free of live data).
    EXPECT_TRUE(be.allocator().isAllocated(p.offset));
}

/**
 * Coalescing can flip a buffered memory log from an op-ref (16 B on
 * the wire) to an inline entry (len B). The spill accounting must see
 * the flip: a batch of flipped entries whose true wire size crosses
 * memlog_buffer_cap has to spill (visible as a tx flush) even though
 * the op-ref sizes alone would fit.
 */
TEST(SpillThresholdTest, OpRefToInlineCoalesceCountsTowardSpill)
{
    BackendConfig bc;
    bc.nvm_size = 8ull << 20;
    bc.max_frontends = 2;
    bc.max_names = 8;
    bc.memlog_ring_size = 64ull << 10;
    bc.oplog_ring_size = 32ull << 10;
    BackendNode be(1, bc);

    SessionConfig sc = SessionConfig::rcb(1, 256ull << 10, 1000);
    // Four flipped entries at 16 (header) + 64 (inline) = 80 B cross
    // the cap; their op-ref encodings (4 x 32 B) would not.
    sc.memlog_buffer_cap = 300;
    FrontendSession s(sc);
    ASSERT_EQ(s.connect(&be), Status::Ok);

    HashTable ht;
    ASSERT_EQ(HashTable::create(s, 1, "spill", 16, &ht), Status::Ok);
    ASSERT_EQ(s.persistentFence(), Status::Ok);
    const uint64_t base_flushes = s.txFlushes();

    uint8_t val[64];
    std::memset(val, 0x5a, sizeof(val));
    for (uint64_t i = 0; i < 4; ++i) {
        RemotePtr buf;
        ASSERT_EQ(s.alloc(1, sizeof(val), &buf), Status::Ok);
        ASSERT_EQ(s.opBegin(ht.id(), 1, OpType::Update, i, val,
                            sizeof(val)),
                  Status::Ok);
        ASSERT_EQ(s.logWriteFromOp(ht.id(), buf, val, sizeof(val)),
                  Status::Ok);
        // A second write to the same address coalesces and flips the
        // entry to inline (the value no longer matches the op log).
        ASSERT_EQ(s.logWrite(ht.id(), buf, val, sizeof(val)), Status::Ok);
        ASSERT_EQ(s.opEnd(), Status::Ok);
    }
    EXPECT_GT(s.txFlushes(), base_flushes)
        << "coalesced op-ref->inline flips never crossed the spill "
           "threshold";
}

} // namespace
} // namespace asymnvm
