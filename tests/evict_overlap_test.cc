/**
 * @file
 * Cache room made under the read round trip (DESIGN.md §6): a remote
 * miss makes room for its fills between the post and the completion
 * wait, so the eviction work costs only what exceeds the wait, draws the
 * samples the fill's own insert would draw, and never leaves the cache
 * over capacity or holding an entry for a read that failed.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "backend/backend_node.h"
#include "frontend/cache.h"
#include "frontend/pipeline.h"
#include "frontend/session.h"
#include "nvm/nvm_device.h"
#include "rdma/verbs.h"
#include "sim/clock.h"

namespace asymnvm {
namespace {

constexpr uint32_t kObj = 64;
constexpr uint64_t kNvmSize = 8ull << 20;

BackendConfig
backendConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = kNvmSize;
    cfg.max_frontends = 2;
    cfg.max_names = 8;
    cfg.memlog_ring_size = 256ull << 10;
    cfg.oplog_ring_size = 128ull << 10;
    return cfg;
}

ReadHint
cacheableHint()
{
    ReadHint h;
    h.ds = 1;
    h.cacheable = true;
    return h;
}

void
expectSameCounters(const VerbCounters &a, const VerbCounters &b)
{
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
    EXPECT_EQ(a.read_gathers, b.read_gathers);
}

/** One back-end, one RC session, and @p nobjs allocated 64-B objects. */
struct Rig
{
    std::unique_ptr<BackendNode> be;
    std::unique_ptr<FrontendSession> s;
    std::vector<RemotePtr> objs;

    Rig(uint64_t cache_bytes, size_t nobjs, uint32_t depth = 1,
        const LatencyModel &lat = LatencyModel::defaults())
    {
        be = std::make_unique<BackendNode>(1, backendConfig(), lat);
        SessionConfig cfg = SessionConfig::rc(1, cache_bytes);
        cfg.pipeline_depth = depth;
        s = std::make_unique<FrontendSession>(cfg, lat);
        EXPECT_EQ(s->connect(be.get()), Status::Ok);
        objs.resize(nobjs);
        for (RemotePtr &p : objs)
            EXPECT_EQ(s->alloc(1, kObj, &p), Status::Ok);
        s->resetStats();
    }

    PageCache &cache() { return s->cache(); }
    uint64_t now() const { return s->clock().now(); }

    Status read(size_t i, const ReadHint &hint = cacheableHint())
    {
        uint8_t buf[kObj];
        return s->read(objs[i], buf, kObj, hint);
    }
};

// ---------------------------------------------------------------------
// Verbs layer: the in-flight work runs once and only its excess shows.
// ---------------------------------------------------------------------

class InFlightWorkTest : public ::testing::Test
{
  protected:
    /** Clock delta of one read (or a gather of @p n reads) on a fresh
     *  endpoint whose in-flight work costs @p work_ns. */
    uint64_t measure(uint64_t n, uint64_t work_ns, int *runs)
    {
        SimClock clock;
        NicModel nic(120);
        Verbs v(&clock, &lat);
        v.attach(1, RdmaTarget{&dev, &nic, &fail, nullptr, {}});
        const Verbs::InFlightWork work = [&] {
            ++*runs;
            clock.advance(work_ns);
        };
        uint64_t out[8] = {};
        if (n == 1) {
            EXPECT_EQ(v.read(RemotePtr(1, 4096), out, 8, work), Status::Ok);
        } else {
            for (uint64_t i = 0; i < n; ++i)
                EXPECT_EQ(v.postRead(RemotePtr(1, 4096 + 64 * i), &out[i], 8),
                          Status::Ok);
            EXPECT_EQ(v.readGather(work), Status::Ok);
        }
        return clock.now();
    }

    NvmDevice dev{1 << 20};
    FailureInjector fail;
    LatencyModel lat;
};

TEST_F(InFlightWorkTest, WorkShorterThanTheWaitIsFree)
{
    for (const uint64_t n : {1u, 4u}) {
        const uint64_t wait = lat.rdma_read_rtt_ns + lat.wireBytes(8 * n);
        int runs = 0;
        const uint64_t base = measure(n, 0, &runs);
        for (const uint64_t work :
             {uint64_t{1}, wait / 2, wait, wait + 700}) {
            runs = 0;
            EXPECT_EQ(measure(n, work, &runs),
                      base + (work > wait ? work - wait : 0))
                << n << " WQEs, " << work << " ns of work";
            EXPECT_EQ(runs, 1);
        }
    }
}

TEST_F(InFlightWorkTest, FailedReadRunsNoWorkAndRetriedReadRunsItOnce)
{
    SimClock clock;
    NicModel nic(120);
    FaultModel faults;
    Verbs v(&clock, &lat);
    v.attach(1, RdmaTarget{&dev, &nic, &fail, &faults, {}});
    int runs = 0;
    const Verbs::InFlightWork work = [&] { ++runs; };
    uint64_t out = 0;

    // An access violation delivers nothing: no room is made for it.
    EXPECT_EQ(v.read(RemotePtr(1, dev.size()), &out, 8, work),
              Status::InvalidArgument);
    EXPECT_EQ(runs, 0);

    // Dropped completions: the work runs once, on the delivering try.
    FaultConfig fc;
    fc.drop_rate = 0.5;
    faults.configure(fc, 17);
    for (int i = 0; i < 40; ++i) {
        runs = 0;
        const Status st = v.read(RemotePtr(1, 4096), &out, 8, work);
        EXPECT_EQ(runs, ok(st) ? 1 : 0) << "read " << i;
    }
    EXPECT_GT(v.retryStats().retries_read, 0u);
}

// ---------------------------------------------------------------------
// (a) A serial miss into a full cache costs what a miss with room costs.
// ---------------------------------------------------------------------

TEST(EvictOverlapTest, SerialMissIntoAFullCacheCostsWhatAMissWithRoomCosts)
{
    constexpr size_t kWarm = 64;
    Rig full(kWarm * kObj, kWarm + 1);
    Rig roomy(1 << 20, kWarm + 1);
    // The reference evicts at insert time, after the bytes landed: the
    // victims a full cache must still pick.
    SimClock ref_clock;
    const LatencyModel lat;
    PageCache ref(CachePolicy::Hybrid, kWarm * kObj, &ref_clock, &lat, 32,
                  SessionConfig{}.rng_seed);
    uint8_t buf[kObj] = {};
    const auto refRead = [&](size_t i) {
        if (!ref.lookup(full.objs[i], buf, kObj))
            ref.insert(1, full.objs[i], buf, kObj);
    };
    for (size_t i = 0; i < kWarm; ++i) {
        ASSERT_EQ(full.read(i), Status::Ok);
        ASSERT_EQ(roomy.read(i), Status::Ok);
        refRead(i);
    }
    // Hits on every third object age the others.
    for (size_t i = 0; i < kWarm; i += 3) {
        ASSERT_EQ(full.read(i), Status::Ok);
        ASSERT_EQ(roomy.read(i), Status::Ok);
        refRead(i);
    }
    ASSERT_EQ(full.cache().sizeBytes(), full.cache().capacity());
    ASSERT_EQ(full.cache().evictions(), 0u);

    const uint64_t f0 = full.now();
    const uint64_t r0 = roomy.now();
    expectSameCounters(full.s->verbs().counters(),
                       roomy.s->verbs().counters());
    ASSERT_EQ(full.read(kWarm), Status::Ok);
    ASSERT_EQ(roomy.read(kWarm), Status::Ok);
    refRead(kWarm);

    EXPECT_EQ(full.now() - f0, roomy.now() - r0);
    expectSameCounters(full.s->verbs().counters(),
                       roomy.s->verbs().counters());

    // Room was made (one sample), and for exactly the reference's victims.
    EXPECT_EQ(full.cache().evictionSamples(), 1u);
    EXPECT_GT(full.cache().evictions(), 0u);
    EXPECT_EQ(roomy.cache().evictions(), 0u);
    EXPECT_EQ(full.cache().hits(), ref.hits());
    EXPECT_EQ(full.cache().misses(), ref.misses());
    EXPECT_EQ(full.cache().evictions(), ref.evictions());
    EXPECT_EQ(full.cache().evictionSamples(), ref.evictionSamples());
    EXPECT_EQ(full.cache().sizeBytes(), ref.sizeBytes());
    for (size_t i = 0; i <= kWarm; ++i)
        EXPECT_EQ(full.cache().contains(full.objs[i], kObj),
                  ref.contains(full.objs[i], kObj))
            << "object " << i;
}

// ---------------------------------------------------------------------
// (b) Room-making longer than the round trip shows only its excess.
// ---------------------------------------------------------------------

TEST(EvictOverlapTest, OnlyTheExcessOverAShortRoundTripShows)
{
    LatencyModel lat;
    lat.rdma_read_rtt_ns = 100;
    const uint64_t sample_ns = 32 * lat.dram_access_ns / 8;
    const uint64_t wait_ns = lat.rdma_read_rtt_ns + lat.wireBytes(kObj);
    ASSERT_GT(sample_ns, wait_ns);

    constexpr size_t kWarm = 32;
    Rig full(kWarm * kObj, kWarm + 1, 1, lat);
    Rig roomy(1 << 20, kWarm + 1, 1, lat);
    for (size_t i = 0; i < kWarm; ++i) {
        ASSERT_EQ(full.read(i), Status::Ok);
        ASSERT_EQ(roomy.read(i), Status::Ok);
    }
    const uint64_t f0 = full.now();
    const uint64_t r0 = roomy.now();
    ASSERT_EQ(full.read(kWarm), Status::Ok);
    ASSERT_EQ(roomy.read(kWarm), Status::Ok);
    EXPECT_EQ(full.cache().evictionSamples(), 1u);
    EXPECT_EQ((full.now() - f0) - (roomy.now() - r0), sample_ns - wait_ns);
}

// ---------------------------------------------------------------------
// (c) Depth-8 windows under faults: within capacity after every round,
//     and no entry for a read whose gather failed.
// ---------------------------------------------------------------------

struct WindowTally
{
    uint64_t resumed = 0;
    uint64_t failed = 0;
    uint64_t over_capacity = 0;
    uint64_t failed_but_cached = 0;
};

OpTask
checkedRead(FrontendSession *s, RemotePtr p, const PrefetchCandidate *nb,
            WindowTally *t)
{
    uint8_t buf[kObj];
    ReadHint h = cacheableHint();
    h.neighbors = {nb, 1};
    const Status st = co_await s->asyncRead(p, buf, kObj, h);
    // Resumed right after its round's gather and fills.
    ++t->resumed;
    if (s->cache().sizeBytes() > s->cache().capacity())
        ++t->over_capacity;
    if (!ok(st)) {
        ++t->failed;
        if (s->cache().contains(p, kObj))
            ++t->failed_but_cached;
    }
    co_return st;
}

enum class WindowFault
{
    RetriedTimeout,
    QpError,
    BackendCrashed,
};

class EvictOverlapWindowTest : public ::testing::TestWithParam<WindowFault>
{};

TEST_P(EvictOverlapWindowTest, RoundsStayWithinCapacityAndDropFailedReads)
{
    constexpr size_t kWarm = 24;
    constexpr size_t kOps = 96;
    Rig rig(kWarm * kObj, kWarm + 2 * kOps + 1, 8);
    for (size_t i = 0; i < kWarm; ++i)
        ASSERT_EQ(rig.read(i), Status::Ok);
    ASSERT_EQ(rig.cache().sizeBytes(), rig.cache().capacity());

    FaultConfig fc;
    switch (GetParam()) {
      case WindowFault::RetriedTimeout:
        fc.drop_rate = 0.04;
        rig.be->faults().configure(fc, 5);
        break;
      case WindowFault::QpError:
        fc.qp_error_rate = 0.15;
        rig.be->faults().configure(fc, 6);
        break;
      case WindowFault::BackendCrashed:
        rig.be->failure().armCrashAfterVerbs(20);
        break;
    }

    // Each op demands one cold object and speculates on its neighbor.
    std::vector<PrefetchCandidate> nbs(kOps);
    std::vector<OpTask> ops;
    WindowTally t;
    for (size_t i = 0; i < kOps; ++i) {
        const RemotePtr next = rig.objs[kWarm + 2 * i + 1];
        nbs[i] = PrefetchCandidate{next.raw(), kObj};
        ops.push_back(
            checkedRead(rig.s.get(), rig.objs[kWarm + 2 * i], &nbs[i], &t));
    }
    std::vector<Status> sts(ops.size());
    rig.s->executePipelined(ops, sts);

    EXPECT_EQ(t.resumed, kOps);
    EXPECT_EQ(t.over_capacity, 0u);
    EXPECT_EQ(t.failed_but_cached, 0u);
    EXPECT_LE(rig.cache().sizeBytes(), rig.cache().capacity());
    const SessionStats st = rig.s->stats();
    EXPECT_GT(st.pipeline.rounds, 0u);
    switch (GetParam()) {
      case WindowFault::RetriedTimeout:
        EXPECT_GT(rig.s->verbs().retryStats().timeouts, 0u);
        EXPECT_GT(rig.s->verbs().retryStats().retries_read, 0u);
        EXPECT_LT(t.failed, kOps);
        EXPECT_GT(rig.cache().evictions(), 0u);
        break;
      case WindowFault::QpError:
        EXPECT_GT(rig.s->verbs().retryStats().qp_errors, 0u);
        EXPECT_LT(t.failed, kOps);
        EXPECT_GT(rig.cache().evictions(), 0u);
        break;
      case WindowFault::BackendCrashed:
        EXPECT_GT(t.failed, 0u);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(Faults, EvictOverlapWindowTest,
                         ::testing::Values(WindowFault::RetriedTimeout,
                                           WindowFault::QpError,
                                           WindowFault::BackendCrashed));

// ---------------------------------------------------------------------
// (d) The stale-prediction re-run makes room for what it fills.
// ---------------------------------------------------------------------

TEST(EvictOverlapTest, StalePredictionRerunStaysWithinCapacity)
{
    constexpr size_t kWarm = 16;
    Rig full(kWarm * kObj, kWarm + 1);
    Rig roomy(1 << 20, kWarm + 1);
    for (size_t i = 0; i < kWarm; ++i) {
        ASSERT_EQ(full.read(i), Status::Ok);
        ASSERT_EQ(roomy.read(i), Status::Ok);
    }
    // A learned candidate past the end of the target's NVM fails the
    // whole gather; the demanded read re-runs alone.
    const PrefetchCandidate stale{RemotePtr(1, kNvmSize - 8).raw(), kObj};
    ReadHint h = cacheableHint();
    h.neighbors = {&stale, 1};
    const uint64_t f0 = full.now();
    const uint64_t r0 = roomy.now();
    ASSERT_EQ(full.read(kWarm, h), Status::Ok);
    ASSERT_EQ(roomy.read(kWarm, h), Status::Ok);

    EXPECT_LE(full.cache().sizeBytes(), full.cache().capacity());
    EXPECT_TRUE(full.cache().contains(full.objs[kWarm], kObj));
    EXPECT_FALSE(full.cache().contains(RemotePtr::fromRaw(stale.addr_raw),
                                       kObj));
    EXPECT_EQ(full.s->stats().prefetch.issued, 0u);
    // Room for the demanded fill alone, made under the re-run's wait.
    EXPECT_EQ(full.cache().evictionSamples(), 1u);
    EXPECT_EQ(full.now() - f0, roomy.now() - r0);
}

} // namespace
} // namespace asymnvm
