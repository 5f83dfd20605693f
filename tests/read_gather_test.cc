/**
 * @file
 * Read-side doorbell batching and traversal prefetch (DESIGN.md §9):
 * gather-verb cost shape at the verbs layer, speculative-entry semantics
 * in the page cache, the session-level doorbell budget of a B+tree
 * traversal with and without prefetch, and the virtual-time backoff of
 * the optimistic reader retry loop.
 */

#include <gtest/gtest.h>

#include "backend/backend_node.h"
#include "ds/bptree.h"
#include "ds/ds_common.h"
#include "frontend/cache.h"
#include "frontend/session.h"
#include "nvm/nvm_device.h"
#include "rdma/verbs.h"
#include "sim/clock.h"
#include "workload/workload.h"

namespace asymnvm {
namespace {

BackendConfig
testConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 32ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 8;
    cfg.memlog_ring_size = 1ull << 20;
    cfg.oplog_ring_size = 512ull << 10;
    return cfg;
}

// ---------------------------------------------------------------------
// Verbs layer: N reads, one doorbell, one NIC arrival, one round trip.
// ---------------------------------------------------------------------

class ReadGatherVerbsTest : public ::testing::Test
{
  protected:
    ReadGatherVerbsTest() : dev(1 << 20), nic(120), verbs(&clock, &lat)
    {
        verbs.attach(1, RdmaTarget{&dev, &nic, &fail});
    }

    NvmDevice dev;
    NicModel nic;
    FailureInjector fail;
    SimClock clock;
    LatencyModel lat;
    Verbs verbs;
};

TEST_F(ReadGatherVerbsTest, GatherIsOneDoorbellOneArrival)
{
    constexpr uint64_t kN = 6;
    for (uint64_t i = 0; i < kN; ++i) {
        const uint64_t v = 0xa0 + i;
        ASSERT_EQ(verbs.write(RemotePtr(1, 128 + 64 * i), &v, 8),
                  Status::Ok);
    }
    const VerbCounters before = verbs.counters();
    uint64_t out[kN] = {};
    for (uint64_t i = 0; i < kN; ++i)
        ASSERT_EQ(verbs.postRead(RemotePtr(1, 128 + 64 * i), &out[i], 8),
                  Status::Ok);
    EXPECT_EQ(verbs.pendingReadWqes(), kN);
    ASSERT_EQ(verbs.readGather(), Status::Ok);
    EXPECT_EQ(verbs.pendingReadWqes(), 0u);
    for (uint64_t i = 0; i < kN; ++i)
        EXPECT_EQ(out[i], 0xa0 + i);
    const VerbCounters after = verbs.counters();
    EXPECT_EQ(after.doorbells - before.doorbells, 1u);
    EXPECT_EQ(after.read_gathers - before.read_gathers, 1u);
    EXPECT_EQ(after.reads - before.reads, kN);
    EXPECT_EQ(nic.gatherBatches(), 1u);
    EXPECT_EQ(nic.gatherWqes(), kN);
}

TEST_F(ReadGatherVerbsTest, GatherCostsOneRoundTripNotN)
{
    constexpr uint64_t kN = 8;
    for (uint64_t i = 0; i < kN; ++i) {
        const uint64_t v = i;
        ASSERT_EQ(verbs.write(RemotePtr(1, 4096 + 64 * i), &v, 8),
                  Status::Ok);
    }
    // Serial baseline: its own endpoint so NIC queueing states match.
    uint64_t serial_ns = 0;
    {
        NicModel snic(120);
        SimClock sclock;
        Verbs sv(&sclock, &lat);
        sv.attach(1, RdmaTarget{&dev, &snic, &fail});
        uint64_t out;
        const uint64_t t0 = sclock.now();
        for (uint64_t i = 0; i < kN; ++i)
            ASSERT_EQ(sv.read(RemotePtr(1, 4096 + 64 * i), &out, 8),
                      Status::Ok);
        serial_ns = sclock.now() - t0;
    }
    uint64_t gather_ns = 0;
    {
        NicModel gnic(120);
        SimClock gclock;
        Verbs gv(&gclock, &lat);
        gv.attach(1, RdmaTarget{&dev, &gnic, &fail});
        uint64_t out[kN];
        const uint64_t t0 = gclock.now();
        for (uint64_t i = 0; i < kN; ++i)
            ASSERT_EQ(gv.postRead(RemotePtr(1, 4096 + 64 * i), &out[i], 8),
                      Status::Ok);
        ASSERT_EQ(gv.readGather(), Status::Ok);
        gather_ns = gclock.now() - t0;
    }
    // One RTT + one posting overhead instead of N of each: the gather
    // must be well under half the serial cost at kN = 8.
    EXPECT_LT(gather_ns * 2, serial_ns);
}

TEST_F(ReadGatherVerbsTest, OneWqeGatherIsAPlainRead)
{
    const uint64_t v = 0xfeed;
    ASSERT_EQ(verbs.write(RemotePtr(1, 8192), &v, 8), Status::Ok);
    // Each side on its own endpoint and NIC, with one posted write
    // pending so the queue-pair drain rides the read in both cases.
    struct Side
    {
        NicModel nic{120};
        SimClock clock;
        uint64_t ns = 0;
        uint64_t out = 0;
    } rd, ga;
    Verbs rv(&rd.clock, &lat);
    Verbs gv(&ga.clock, &lat);
    rv.attach(1, RdmaTarget{&dev, &rd.nic, &fail});
    gv.attach(1, RdmaTarget{&dev, &ga.nic, &fail});
    const uint64_t pad = 7;
    ASSERT_EQ(rv.postWrite(RemotePtr(1, 16384), &pad, 8), Status::Ok);
    ASSERT_EQ(gv.postWrite(RemotePtr(1, 16384), &pad, 8), Status::Ok);

    uint64_t t0 = rd.clock.now();
    ASSERT_EQ(rv.read(RemotePtr(1, 8192), &rd.out, 8), Status::Ok);
    rd.ns = rd.clock.now() - t0;
    t0 = ga.clock.now();
    ASSERT_EQ(gv.postRead(RemotePtr(1, 8192), &ga.out, 8), Status::Ok);
    ASSERT_EQ(gv.readGather(), Status::Ok);
    ga.ns = ga.clock.now() - t0;

    EXPECT_EQ(ga.out, v);
    EXPECT_EQ(rd.out, v);
    EXPECT_EQ(ga.ns, rd.ns);
    const VerbCounters &a = gv.counters();
    const VerbCounters &b = rv.counters();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.read_bytes, b.read_bytes);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.write_bytes, b.write_bytes);
    EXPECT_EQ(a.posted, b.posted);
    EXPECT_EQ(a.posted_bytes, b.posted_bytes);
    EXPECT_EQ(a.atomics, b.atomics);
    EXPECT_EQ(a.atomic_bytes, b.atomic_bytes);
    EXPECT_EQ(a.doorbells, b.doorbells);
    EXPECT_EQ(a.wqes, b.wqes);
    EXPECT_EQ(a.read_gathers, 0u); // no chain was launched
    EXPECT_EQ(a.read_gathers, b.read_gathers);
    EXPECT_EQ(gv.verbsIssued(), rv.verbsIssued());
    EXPECT_EQ(gv.counters().totalBytes(), rv.counters().totalBytes());
    EXPECT_EQ(ga.nic.gatherBatches(), 0u);
    EXPECT_EQ(gv.pendingReadWqes(), 0u);
}

// ---------------------------------------------------------------------
// Page cache: speculative-entry semantics.
// ---------------------------------------------------------------------

class SpecCacheTest : public ::testing::Test
{
  protected:
    SpecCacheTest() : cache(CachePolicy::Hybrid, 64 << 10, &clock, &lat)
    {}

    SimClock clock;
    LatencyModel lat;
    PageCache cache;
    uint8_t buf[64] = {};
};

TEST_F(SpecCacheTest, UpdateLengthMismatchInvalidates)
{
    const RemotePtr p(1, 256);
    for (uint32_t i = 0; i < 64; ++i)
        buf[i] = static_cast<uint8_t>(i);
    cache.insert(7, p, buf, 64);
    ASSERT_TRUE(cache.contains(p, 64));
    // A shorter write-through cannot patch a 64-byte entry: the entry
    // must drop rather than serve a half-patched object.
    cache.update(p, buf, 32);
    EXPECT_FALSE(cache.contains(p, 64));
    uint8_t out[64];
    EXPECT_FALSE(cache.lookup(p, out, 64));
}

TEST_F(SpecCacheTest, SpeculativePromotesOnFirstHit)
{
    const RemotePtr p(1, 512);
    cache.insertSpeculative(3, p, buf, 64, cache.epochNow());
    ASSERT_TRUE(cache.contains(p, 64));
    EXPECT_EQ(cache.prefetchHits(), 0u);
    uint8_t out[64];
    EXPECT_TRUE(cache.lookup(p, out, 64));
    EXPECT_EQ(cache.prefetchHits(), 1u);
    // Promoted: dropping it later is a normal eviction, not waste.
    cache.invalidate(p);
    EXPECT_EQ(cache.prefetchWasted(), 0u);
}

TEST_F(SpecCacheTest, SpeculativeDropCountsWasted)
{
    const RemotePtr p(1, 1024);
    cache.insertSpeculative(3, p, buf, 64, cache.epochNow());
    cache.invalidate(p); // never hit
    EXPECT_EQ(cache.prefetchWasted(), 1u);
    EXPECT_EQ(cache.prefetchHits(), 0u);
}

TEST_F(SpecCacheTest, InvalidateDsOutranksInFlightPrefetch)
{
    const RemotePtr p(1, 2048);
    // Epoch snapshot at gather ISSUE time; the gc-epoch bump lands while
    // the chain is in flight.
    const uint64_t issue_epoch = cache.epochNow();
    cache.invalidateDs(3);
    cache.insertSpeculative(3, p, buf, 64, issue_epoch);
    EXPECT_FALSE(cache.contains(p, 64));
    EXPECT_EQ(cache.prefetchWasted(), 1u);
    // A gather issued AFTER the bump inserts normally.
    cache.insertSpeculative(3, p, buf, 64, cache.epochNow());
    EXPECT_TRUE(cache.contains(p, 64));
}

TEST_F(SpecCacheTest, SpeculativeNeverDowngradesLiveEntry)
{
    const RemotePtr p(1, 4096);
    for (uint32_t i = 0; i < 64; ++i)
        buf[i] = 0x5a;
    cache.insert(3, p, buf, 64);
    uint8_t stale[64] = {};
    cache.insertSpeculative(3, p, stale, 64, cache.epochNow());
    uint8_t out[64] = {};
    ASSERT_TRUE(cache.lookup(p, out, 64));
    EXPECT_EQ(out[0], 0x5a); // demanded bytes survived
    EXPECT_EQ(cache.prefetchHits(), 0u);
}

// ---------------------------------------------------------------------
// Page cache: the per-structure speculation gate (DESIGN.md §9).
// ---------------------------------------------------------------------

/** Park one speculative entry for @p ds and drop it unhit. */
void
wasteOne(PageCache &cache, DsId ds, uint64_t off, uint8_t *buf)
{
    const RemotePtr p(1, off);
    cache.insertSpeculative(ds, p, buf, 64, cache.epochNow());
    cache.invalidate(p);
}

TEST_F(SpecCacheTest, GateClosesOnWastePerStructure)
{
    // Open while wasted < 64 + 8 x hits: 63 unhit drops leave it open,
    // the 64th closes it, and only for the structure that wasted them.
    for (uint64_t i = 0; i < 63; ++i)
        wasteOne(cache, 3, 8192 + 64 * i, buf);
    EXPECT_TRUE(cache.speculationPays(3));
    wasteOne(cache, 3, 8192, buf);
    EXPECT_FALSE(cache.speculationPays(3));
    EXPECT_TRUE(cache.speculationPays(4));

    // One hit buys eight more wasted entries.
    const RemotePtr hit(1, 4096);
    cache.insertSpeculative(3, hit, buf, 64, cache.epochNow());
    uint8_t out[64];
    ASSERT_TRUE(cache.lookup(hit, out, 64));
    EXPECT_TRUE(cache.speculationPays(3));
    for (uint64_t i = 0; i < 7; ++i)
        wasteOne(cache, 3, 8192, buf);
    EXPECT_TRUE(cache.speculationPays(3));
    wasteOne(cache, 3, 8192, buf);
    EXPECT_FALSE(cache.speculationPays(3));
}

TEST_F(SpecCacheTest, ClosedGateProbesEverySixtyFourthMiss)
{
    for (uint64_t i = 0; i < 64; ++i)
        wasteOne(cache, 3, 8192, buf);
    ASSERT_FALSE(cache.speculationPays(3));
    for (int round = 0; round < 2; ++round) {
        for (int i = 0; i < 63; ++i)
            EXPECT_FALSE(cache.admitSpeculation(3));
        EXPECT_TRUE(cache.admitSpeculation(3)) << "probe " << round;
    }
    EXPECT_TRUE(cache.admitSpeculation(4)); // open gate: every miss
}

TEST_F(SpecCacheTest, OnlyClearForgetsTheLedger)
{
    for (uint64_t i = 0; i < 64; ++i)
        wasteOne(cache, 3, 8192, buf);
    ASSERT_FALSE(cache.speculationPays(3));
    // Stats resets and structure invalidation keep the evidence: they
    // must not change which reads a session issues.
    cache.resetStats();
    EXPECT_EQ(cache.prefetchWasted(), 0u);
    EXPECT_FALSE(cache.speculationPays(3));
    cache.invalidateDs(3);
    EXPECT_FALSE(cache.speculationPays(3));
    cache.clear();
    EXPECT_TRUE(cache.speculationPays(3));
}

TEST_F(SpecCacheTest, LedgerWindowLetsAClosedGateReopen)
{
    // 1000 wasted, then hits: the window halves both counts at 1024
    // outcomes, so old waste fades and the gate reopens after 67 hits,
    // not the 118 a lifetime ledger would need.
    for (uint64_t i = 0; i < 1000; ++i)
        wasteOne(cache, 3, 8192, buf);
    ASSERT_FALSE(cache.speculationPays(3));
    uint8_t out[64];
    uint64_t hits = 0;
    while (!cache.speculationPays(3) && hits < 200) {
        const RemotePtr p(1, 4096);
        cache.insertSpeculative(3, p, buf, 64, cache.epochNow());
        ASSERT_TRUE(cache.lookup(p, out, 64));
        cache.invalidate(p);
        ++hits;
    }
    EXPECT_TRUE(cache.speculationPays(3));
    EXPECT_EQ(hits, 67u);
}

// ---------------------------------------------------------------------
// Session + B+tree: traversal doorbell budget with and without prefetch.
// ---------------------------------------------------------------------

struct TraversalProbe
{
    std::unique_ptr<BackendNode> be;
    std::unique_ptr<FrontendSession> s;
    BpTree ds;

    explicit TraversalProbe(bool prefetch, uint64_t id, uint64_t nkeys)
    {
        be = std::make_unique<BackendNode>(1, testConfig());
        SessionConfig cfg = SessionConfig::rc(id, 256 << 10);
        cfg.read_prefetch = prefetch;
        s = std::make_unique<FrontendSession>(cfg);
        EXPECT_EQ(s->connect(be.get()), Status::Ok);
        EXPECT_EQ(BpTree::create(*s, 1, "t", &ds), Status::Ok);
        Value v{};
        for (uint64_t k = 0; k < nkeys; ++k) {
            v.bytes[0] = static_cast<uint8_t>(k);
            EXPECT_EQ(ds.insert(k, v), Status::Ok);
        }
        EXPECT_EQ(s->flushAll(), Status::Ok);
        s->cache().clear();
        s->resetStats();
    }

    uint64_t doorbells() const { return s->verbs().counters().doorbells; }
};

TEST(ReadGatherSessionTest, TraversalDoorbellBudget)
{
    constexpr uint64_t kKeys = 2000;
    TraversalProbe with(true, 81, kKeys);
    TraversalProbe without(false, 82, kKeys);

    // Cold first lookup: with the gather verb, prefetch candidates ride
    // the demanded read's doorbell, so a depth-d traversal stays within
    // the serial path's doorbell count (one per dependent level).
    Value v{};
    const uint64_t key = kKeys / 2;
    ASSERT_EQ(without.ds.find(key, &v), Status::Ok);
    const uint64_t serial_cold = without.doorbells();
    ASSERT_EQ(with.ds.find(key, &v), Status::Ok);
    const uint64_t gather_cold = with.doorbells();
    EXPECT_GE(serial_cold, 1u);
    EXPECT_LE(gather_cold, serial_cold);

    // Nearby lookups: the gathered siblings and value cells are cache
    // hits now — strictly fewer doorbells than the serial baseline.
    for (uint64_t k = key + 1; k <= key + 4; ++k) {
        ASSERT_EQ(without.ds.find(k, &v), Status::Ok);
        ASSERT_EQ(with.ds.find(k, &v), Status::Ok);
    }
    const uint64_t serial_warm = without.doorbells() - serial_cold;
    const uint64_t gather_warm = with.doorbells() - gather_cold;
    EXPECT_LT(gather_warm, serial_warm);
    EXPECT_GT(with.s->stats().prefetch.hits, 0u);
    EXPECT_EQ(without.s->stats().prefetch.issued, 0u);
}

TEST(ReadGatherSessionTest, ColdLookupLatencyImprovesWithPrefetch)
{
    constexpr uint64_t kKeys = 2000;
    constexpr uint64_t kLookups = 120;
    TraversalProbe with(true, 83, kKeys);
    TraversalProbe without(false, 84, kKeys);
    Value v{};
    // Range-local lookup stream over the cold tree: the access pattern
    // the sibling gather targets.
    uint64_t t0 = with.s->clock().now();
    for (uint64_t i = 0; i < kLookups; ++i)
        ASSERT_EQ(with.ds.find(400 + i, &v), Status::Ok);
    const uint64_t with_ns = with.s->clock().now() - t0;
    t0 = without.s->clock().now();
    for (uint64_t i = 0; i < kLookups; ++i)
        ASSERT_EQ(without.ds.find(400 + i, &v), Status::Ok);
    const uint64_t without_ns = without.s->clock().now() - t0;
    EXPECT_LT(with_ns, without_ns);
}

TEST(ReadGatherSessionTest, AblationFlagDisablesAllSpeculation)
{
    TraversalProbe off(false, 85, 500);
    Value v{};
    for (uint64_t k = 0; k < 50; ++k)
        ASSERT_EQ(off.ds.find(k, &v), Status::Ok);
    const SessionStats st = off.s->stats();
    EXPECT_EQ(st.prefetch.batches, 0u);
    EXPECT_EQ(st.prefetch.issued, 0u);
    EXPECT_EQ(st.verbs.read_gathers, 0u);
}

// ---------------------------------------------------------------------
// Session + B+tree: the speculation gate on the miss path.
// ---------------------------------------------------------------------

/**
 * A cold B+tree behind a cache an eighth of its size, read in depth-8
 * windows: scattered lookups leave the gathered sibling value cells
 * unread, range-local ones read them next.
 */
struct GateProbe
{
    static constexpr uint64_t kKeys = 4000;

    std::unique_ptr<BackendNode> be;
    std::unique_ptr<FrontendSession> s;
    BpTree ds;

    explicit GateProbe(uint64_t id)
    {
        be = std::make_unique<BackendNode>(1, testConfig());
        SessionConfig cfg = SessionConfig::rc(id, 48 << 10);
        cfg.pipeline_depth = 8;
        s = std::make_unique<FrontendSession>(cfg);
        EXPECT_EQ(s->connect(be.get()), Status::Ok);
        EXPECT_EQ(BpTree::create(*s, 1, "g", &ds), Status::Ok);
        Value v{};
        for (uint64_t k = 0; k < kKeys; ++k)
            EXPECT_EQ(ds.insert(k, v), Status::Ok);
        EXPECT_EQ(s->flushAll(), Status::Ok);
        s->cache().clear();
        s->resetStats();
    }

    /** Look up keys first .. first+n-1 of a scattered (multiplicative
     *  hash) or a range-local (consecutive) order. */
    void lookups(uint64_t first, uint64_t n, bool scattered)
    {
        std::vector<Key> keys(n);
        for (uint64_t i = 0; i < n; ++i)
            keys[i] = scattered ? (first + i) * 2654435761ull % kKeys
                                : (first + i) % kKeys;
        std::vector<Value> vals(n);
        std::vector<Status> res(n);
        ASSERT_EQ(ds.findMany(keys, vals.data(), res.data()), Status::Ok);
        for (Status st : res)
            ASSERT_EQ(st, Status::Ok);
    }

    bool gateOpen() const { return s->cache().speculationPays(ds.id()); }
};

TEST(SpeculationGateTest, ScatteredDepthEightLookupsCloseTheGate)
{
    GateProbe g(111);
    g.lookups(0, 2000, true); // warm-up: the cache fills with unread guesses
    ASSERT_FALSE(g.gateOpen());
    const SessionStats a = g.s->stats();
    const uint64_t misses = g.s->cache().misses();
    g.lookups(2000, 2000, true);
    const SessionStats b = g.s->stats();
    const uint64_t gated = b.prefetch.gated - a.prefetch.gated;
    EXPECT_GT(g.s->cache().misses() - misses, 1000u)
        << "misses keep coming";
    EXPECT_GT(gated, 1000u);
    // Only probes speculate: one closed-gate miss in 64, each with at
    // most kPrefetchDegree (4) reads.
    EXPECT_LE(b.prefetch.issued - a.prefetch.issued, 4 * (gated / 63 + 1));
    EXPECT_FALSE(g.gateOpen());
}

TEST(SpeculationGateTest, RangeLocalColdLookupsIssueWhatUngatedCodeIssues)
{
    // bench_fig7_cache's prefetch ablation at tiny size: 1500 uniform
    // preloaded keys, a cold cache a quarter of the tree, 200 Zipf(0.9)
    // lookups over adjacent keys. The siblings pay and the gate never
    // closes (gated == 0), so the run is the one ungated code measures:
    // 256 issued, 52 hits, 62 wasted, 72 doorbells, 1328.6 ns/op. A miss
    // makes room for all its fills while its gather is in flight, so the
    // Hybrid samples cost nothing; and because that room is made against
    // the old contents, one gather's fresh speculative entries no longer
    // sample (and evict) each other, so other victims fall. When each
    // fill made its own room after the completion it was 257, 53, 47, 71
    // and 1374.5. Before the tree held its root word in the handle (each
    // lookup probed the cache for it) it was 255, 53, 38, 72 and 1471.3.
    // (A fresh sample per victim gave 259, 52, 57, 73 and 1509.8: fewer
    // samples, fewer RNG draws, so other victims.)
    BackendConfig bcfg = testConfig();
    bcfg.nvm_size = 128ull << 20;
    bcfg.max_frontends = 8;
    bcfg.max_names = 64;
    bcfg.memlog_ring_size = 4ull << 20;
    bcfg.oplog_ring_size = 2ull << 20;
    BackendNode be(1, bcfg);
    FrontendSession s(SessionConfig::rc(112, 37500));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    BpTree ds;
    ASSERT_EQ(BpTree::create(s, 1, "c", &ds), Status::Ok);
    WorkloadConfig wcfg;
    wcfg.key_space = 1500;
    wcfg.seed = 42;
    wcfg.hashed_keys = false;
    WorkloadConfig lcfg = wcfg;
    lcfg.put_ratio = 1.0;
    lcfg.dist = KeyDist::Uniform;
    Workload loader(lcfg);
    for (int i = 0; i < 1500; ++i) {
        const WorkItem it = loader.next();
        ASSERT_EQ(ds.insert(it.key, it.value), Status::Ok);
    }
    ASSERT_EQ(s.flushAll(), Status::Ok);
    s.cache().clear();
    s.resetStats();
    WorkloadConfig mcfg = wcfg;
    mcfg.put_ratio = 0.0;
    mcfg.dist = KeyDist::Zipf;
    mcfg.zipf_theta = 0.9;
    mcfg.seed = 99;
    Workload w(mcfg);
    const uint64_t t0 = s.clock().now();
    for (int i = 0; i < 200; ++i) {
        Value v;
        (void)ds.find(w.next().key, &v); // uniform preload leaves gaps
    }
    const SessionStats st = s.stats();
    EXPECT_TRUE(s.cache().speculationPays(ds.id()));
    EXPECT_EQ(st.prefetch.gated, 0u);
    EXPECT_EQ(st.prefetch.issued, 256u);
    EXPECT_EQ(st.prefetch.hits, 52u);
    EXPECT_EQ(st.prefetch.wasted, 62u);
    EXPECT_EQ(st.verbs.doorbells, 72u);
    EXPECT_EQ(s.clock().now() - t0, 265710u);
}

TEST(SpeculationGateTest, ClosedGateReopensWhenLookupsTurnRangeLocal)
{
    GateProbe g(113);
    g.lookups(0, 2000, true);
    ASSERT_FALSE(g.gateOpen());
    // Range-local now: a probe's siblings are the next lookups, so the
    // probes earn hits, the windowed ledger lets old waste fade, and the
    // gate reopens.
    Value v{};
    uint64_t k = 0;
    for (; k < GateProbe::kKeys && !g.gateOpen(); ++k)
        ASSERT_EQ(g.ds.find(k, &v), Status::Ok);
    EXPECT_TRUE(g.gateOpen()) << "still closed after " << k << " lookups";
    const uint64_t issued = g.s->stats().prefetch.issued;
    for (uint64_t i = 0; i < 64; ++i, ++k)
        ASSERT_EQ(g.ds.find(k % GateProbe::kKeys, &v), Status::Ok);
    EXPECT_GT(g.s->stats().prefetch.issued, issued + 4)
        << "an open gate speculates on every miss, not only probes";
}

TEST(SpeculationGateTest, ClearReopensTheGate)
{
    GateProbe g(114);
    g.lookups(0, 2000, true);
    ASSERT_FALSE(g.gateOpen());
    const uint64_t issued = g.s->stats().prefetch.issued;
    g.s->cache().clear(); // failover, crash or an explicit clear
    EXPECT_TRUE(g.gateOpen());
    g.lookups(2000, 16, true);
    EXPECT_GE(g.s->stats().prefetch.issued, issued + 16)
        << "a cleared cache speculates again";
}

TEST(SpeculationGateTest, ResetStatsBetweenPhasesMovesNoVirtualTime)
{
    // Two identical sessions; only one resets its stats between a phase
    // that closes the gate and a phase that probes it.
    GateProbe reset(115), kept(115);
    reset.lookups(0, 2000, true);
    kept.lookups(0, 2000, true);
    ASSERT_FALSE(reset.gateOpen());
    const VerbCounters before = kept.s->verbs().counters();
    reset.s->resetStats();
    reset.lookups(2000, 1000, true);
    kept.lookups(2000, 1000, true);
    reset.lookups(0, 1000, false);
    kept.lookups(0, 1000, false);

    EXPECT_EQ(reset.s->clock().now(), kept.s->clock().now());
    const VerbCounters &a = reset.s->verbs().counters();
    const VerbCounters &b = kept.s->verbs().counters();
    EXPECT_EQ(a.reads, b.reads - before.reads);
    EXPECT_EQ(a.read_bytes, b.read_bytes - before.read_bytes);
    EXPECT_EQ(a.writes, b.writes - before.writes);
    EXPECT_EQ(a.write_bytes, b.write_bytes - before.write_bytes);
    EXPECT_EQ(a.posted, b.posted - before.posted);
    EXPECT_EQ(a.posted_bytes, b.posted_bytes - before.posted_bytes);
    EXPECT_EQ(a.atomics, b.atomics - before.atomics);
    EXPECT_EQ(a.atomic_bytes, b.atomic_bytes - before.atomic_bytes);
    EXPECT_EQ(a.doorbells, b.doorbells - before.doorbells);
    EXPECT_EQ(a.wqes, b.wqes - before.wqes);
    EXPECT_EQ(a.read_gathers, b.read_gathers - before.read_gathers);
}

// ---------------------------------------------------------------------
// Optimistic reader retry: virtual-time backoff (no host yield).
// ---------------------------------------------------------------------

/** Minimal DsBase subclass exposing the optimistic-read protocol. */
class ProbeDs : public DsBase
{
  public:
    ProbeDs(FrontendSession &s, NodeId backend, DsId id,
            const DsOptions &opt)
        : DsBase(s, backend, "probe", id, opt)
    {}

    template <typename Fn>
    Status run(Fn &&body)
    {
        return optimisticRead(std::forward<Fn>(body));
    }
};

TEST(OptimisticReadBackoffTest, ConflictChargesVirtualTimeBackoff)
{
    BackendNode be(1, testConfig());
    FrontendSession writer(SessionConfig::r(91));
    FrontendSession reader(SessionConfig::r(92));
    ASSERT_EQ(writer.connect(&be), Status::Ok);
    ASSERT_EQ(reader.connect(&be), Status::Ok);
    DsId id = 0;
    ASSERT_EQ(writer.createDs(1, "probe", DsType::Bst, &id), Status::Ok);
    DsOptions opt;
    opt.shared = true;
    ProbeDs probe(reader, 1, id, opt);
    RemotePtr cell;
    ASSERT_EQ(writer.alloc(1, 64, &cell), Status::Ok);
    // One committed write in the writer's critical section: the replay
    // is what bumps the seqlock SN (Write_Begin/Write_End), so a bare
    // lock/unlock with nothing logged would not conflict readers.
    const auto writer_cs = [&] {
        const uint64_t v = 0xbeef;
        EXPECT_EQ(writer.writerLock(id, 1), Status::Ok);
        EXPECT_EQ(writer.logWrite(id, cell, &v, 8), Status::Ok);
        EXPECT_EQ(writer.writerUnlock(id, 1), Status::Ok);
    };

    // Warm-up, then a clean read: one attempt, no retry, no backoff.
    ASSERT_EQ(probe.run([] { return Status::Ok; }), Status::Ok);
    const uint64_t clean_t0 = reader.clock().now();
    ASSERT_EQ(probe.run([] { return Status::Ok; }), Status::Ok);
    const uint64_t clean_ns = reader.clock().now() - clean_t0;
    EXPECT_EQ(probe.readAttempts(), 2u);
    EXPECT_EQ(probe.readRetries(), 0u);

    // Conflicted read: a writer critical section overlaps the first
    // attempt, so validation fails once and the retry must charge the
    // configured virtual-time backoff (not a host yield).
    bool conflicted = false;
    const uint64_t t0 = reader.clock().now();
    ASSERT_EQ(probe.run([&]() -> Status {
        if (!conflicted) {
            conflicted = true;
            writer_cs();
        }
        return Status::Ok;
    }),
              Status::Ok);
    const uint64_t conflict_ns = reader.clock().now() - t0;
    EXPECT_EQ(probe.readAttempts(), 4u);
    EXPECT_EQ(probe.readRetries(), 1u);
    EXPECT_GT(probe.readFailRatio(), 0.0);
    EXPECT_GE(conflict_ns, clean_ns + opt.retry_backoff_ns);
}

TEST(OptimisticReadBackoffTest, BackoffDoublesToCap)
{
    BackendNode be(1, testConfig());
    FrontendSession writer(SessionConfig::r(93));
    FrontendSession reader(SessionConfig::r(94));
    ASSERT_EQ(writer.connect(&be), Status::Ok);
    ASSERT_EQ(reader.connect(&be), Status::Ok);
    DsId id = 0;
    ASSERT_EQ(writer.createDs(1, "probe2", DsType::Bst, &id), Status::Ok);
    DsOptions opt;
    opt.shared = true;
    opt.retry_backoff_ns = 100;
    opt.retry_backoff_cap_ns = 400;
    opt.max_read_retries = 8;
    ProbeDs probe(reader, 1, id, opt);
    RemotePtr cell;
    ASSERT_EQ(writer.alloc(1, 64, &cell), Status::Ok);

    // Conflict on every attempt (a committed logWrite bumps the SN)
    // until the retry budget is spent.
    const uint64_t t0 = reader.clock().now();
    uint64_t body_runs = 0;
    EXPECT_EQ(probe.run([&]() -> Status {
        ++body_runs;
        const uint64_t v = body_runs;
        EXPECT_EQ(writer.writerLock(id, 1), Status::Ok);
        EXPECT_EQ(writer.logWrite(id, cell, &v, 8), Status::Ok);
        EXPECT_EQ(writer.writerUnlock(id, 1), Status::Ok);
        return Status::Ok;
    }),
              Status::Conflict);
    EXPECT_EQ(body_runs, 8u);
    EXPECT_EQ(probe.readRetries(), 8u);
    // Charged backoff: 100 + 200 + 400 + 400 + ... (doubling to the cap)
    // = 100 + 200 + 6 * 400 = 2700 ns at minimum.
    EXPECT_GE(reader.clock().now() - t0, 2700u);
}

} // namespace
} // namespace asymnvm
