/**
 * @file
 * Work under the read round trip (DESIGN.md §6): a read launches, then
 * waits, and CPU work in between costs only what exceeds the wait. A
 * remote miss makes cache room for its fills there, drawing the samples
 * the fill's own insert would draw; the reactor's flights (§11) make
 * room on top of each other's, pay their posting when other work runs
 * under them, and never leave the cache over capacity or holding an
 * entry for a read that failed.
 */

#include <gtest/gtest.h>

#include <functional>
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
// Verbs layer: a read launches, then waits; CPU work in between is free
// up to the completion and only its excess shows.
// ---------------------------------------------------------------------

class LaunchWaitTest : public ::testing::Test
{
  protected:
    /** Clock delta of one read (or a gather of @p n reads) on a fresh
     *  endpoint that runs @p work_ns of CPU work between launch and
     *  wait; with @p inline_wait the verb waits itself and no work runs. */
    uint64_t measure(uint64_t n, uint64_t work_ns, bool inline_wait = false)
    {
        SimClock clock;
        NicModel nic(120);
        Verbs v(&clock, &lat);
        v.attach(1, RdmaTarget{&dev, &nic, &fail, nullptr, {}});
        uint64_t out[8] = {};
        uint64_t done = 0;
        uint64_t *const at = inline_wait ? nullptr : &done;
        if (n == 1) {
            EXPECT_EQ(v.read(RemotePtr(1, 4096), out, 8, at), Status::Ok);
        } else {
            for (uint64_t i = 0; i < n; ++i)
                EXPECT_EQ(v.postRead(RemotePtr(1, 4096 + 64 * i), &out[i], 8),
                          Status::Ok);
            EXPECT_EQ(v.readGather(at), Status::Ok);
        }
        if (!inline_wait) {
            // The completion is still ahead: launch does not wait.
            EXPECT_GT(done, clock.now());
            clock.advance(work_ns);
            clock.advanceTo(done);
        }
        return clock.now();
    }

    NvmDevice dev{1 << 20};
    FailureInjector fail;
    LatencyModel lat;
};

TEST_F(LaunchWaitTest, WorkShorterThanTheWaitIsFree)
{
    for (const uint64_t n : {1u, 4u}) {
        const uint64_t wait = lat.rdma_read_rtt_ns + lat.wireBytes(8 * n);
        const uint64_t base = measure(n, 0);
        // Launch then wait costs exactly what a verb that waits costs.
        EXPECT_EQ(measure(n, 0, /*inline_wait=*/true), base) << n;
        for (const uint64_t work :
             {uint64_t{1}, wait / 2, wait, wait + 700}) {
            EXPECT_EQ(measure(n, work),
                      base + (work > wait ? work - wait : 0))
                << n << " WQEs, " << work << " ns of work";
        }
    }
}

TEST_F(LaunchWaitTest, FailedReadDeliversNothingAndRetriedReadDeliversOnce)
{
    SimClock clock;
    NicModel nic(120);
    FaultModel faults;
    Verbs v(&clock, &lat);
    v.attach(1, RdmaTarget{&dev, &nic, &fail, &faults, {}});
    constexpr uint64_t kUntouched = 0xdeadbeefull;
    uint64_t out = kUntouched;
    uint64_t done = 0;

    // An access violation delivers nothing, and leaves nothing to wait
    // for: its error completion was waited out before it returned.
    EXPECT_EQ(v.read(RemotePtr(1, dev.size()), &out, 8, &done),
              Status::InvalidArgument);
    EXPECT_EQ(out, kUntouched);
    EXPECT_EQ(done, clock.now());
    // So does an all-or-nothing gather with one bad WQE.
    uint64_t good = kUntouched;
    ASSERT_EQ(v.postRead(RemotePtr(1, 4096), &good, 8), Status::Ok);
    ASSERT_EQ(v.postRead(RemotePtr(1, dev.size()), &out, 8), Status::Ok);
    EXPECT_EQ(v.readGather(&done), Status::InvalidArgument);
    EXPECT_EQ(good, kUntouched);
    EXPECT_EQ(done, clock.now());

    // Dropped completions: the failed tries wait out their own timeouts
    // and backoff, and the delivering try leaves exactly one round trip
    // to wait for.
    FaultConfig fc;
    fc.drop_rate = 0.5;
    faults.configure(fc, 17);
    const uint64_t one_wait = lat.rdma_read_rtt_ns + lat.wireBytes(8);
    for (uint64_t i = 0; i < 40; ++i) {
        const uint64_t value = 1000 + i;
        dev.write(4096, &value, sizeof(value));
        out = kUntouched;
        const Status st = v.read(RemotePtr(1, 4096), &out, 8, &done);
        if (ok(st)) {
            EXPECT_EQ(out, value) << "read " << i;
            EXPECT_EQ(done - clock.now(), one_wait) << "read " << i;
            clock.advanceTo(done);
        } else {
            EXPECT_EQ(out, kUntouched) << "read " << i;
            EXPECT_EQ(done, clock.now()) << "read " << i;
        }
    }
    EXPECT_GT(v.retryStats().retries_read, 0u);
}

TEST_F(LaunchWaitTest, GatherOverSeveralTargetsCompletesWithItsLastChain)
{
    SimClock clock;
    NicModel nic1(120), nic2(120);
    NvmDevice dev2{1 << 20};
    Verbs v(&clock, &lat);
    v.attach(1, RdmaTarget{&dev, &nic1, &fail, nullptr, {}});
    v.attach(2, RdmaTarget{&dev2, &nic2, &fail, nullptr, {}});
    uint64_t out[4] = {};
    for (uint64_t i = 0; i < 4; ++i)
        ASSERT_EQ(v.postRead(RemotePtr(1 + i % 2, 4096 + 64 * i), &out[i], 8),
                  Status::Ok);
    uint64_t done = 0;
    ASSERT_EQ(v.readGather(&done), Status::Ok);
    // Both chains are on the wire together: the last one posted
    // completes last, one round trip after its post, not two.
    EXPECT_EQ(done - clock.now(), lat.rdma_read_rtt_ns + lat.wireBytes(16));
    EXPECT_EQ(v.counters().doorbells, 2u);
    EXPECT_EQ(v.counters().read_gathers, 2u);
}

TEST_F(LaunchWaitTest, PostedSingleReadPaysItsPosting)
{
    const auto one = [&](bool posted, VerbCounters *c) {
        SimClock clock;
        NicModel nic(120);
        Verbs v(&clock, &lat);
        v.attach(1, RdmaTarget{&dev, &nic, &fail, nullptr, {}});
        uint64_t out = 0;
        EXPECT_EQ(v.postRead(RemotePtr(1, 4096), &out, 8), Status::Ok);
        uint64_t done = 0;
        EXPECT_EQ(v.readGather(&done, posted), Status::Ok);
        clock.advanceTo(done);
        *c = v.counters();
        return clock.now();
    };
    VerbCounters plain, posted;
    const uint64_t t_plain = one(false, &plain);
    const uint64_t t_posted = one(true, &posted);
    EXPECT_EQ(t_posted - t_plain,
              lat.post_overhead_ns + lat.doorbell_batch_wqe_ns);
    EXPECT_EQ(plain.read_gathers, 0u);
    EXPECT_EQ(posted.read_gathers, 1u);
    EXPECT_EQ(plain.doorbells, posted.doorbells);
    EXPECT_EQ(plain.reads, posted.reads);
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

/** Tally one read's outcome, right after its flight landed. */
void
tally(FrontendSession *s, RemotePtr p, Status st, WindowTally *t)
{
    ++t->resumed;
    if (s->cache().sizeBytes() > s->cache().capacity())
        ++t->over_capacity;
    if (!ok(st)) {
        ++t->failed;
        if (s->cache().contains(p, kObj))
            ++t->failed_but_cached;
    }
}

OpTask
checkedRead(FrontendSession *s, RemotePtr p, const PrefetchCandidate *nb,
            WindowTally *t)
{
    uint8_t buf[kObj];
    ReadHint h = cacheableHint();
    h.neighbors = {nb, 1};
    const Status st = co_await s->asyncRead(p, buf, kObj, h);
    tally(s, p, st, t);
    co_return st;
}

/** Runs @p arm when first resumed, then reads @p p as checkedRead. */
OpTask
armThenRead(FrontendSession *s, RemotePtr p, std::function<void()> arm,
            WindowTally *t)
{
    arm();
    uint8_t buf[kObj];
    const Status st = co_await s->asyncRead(p, buf, kObj, cacheableHint());
    tally(s, p, st, t);
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
// (c') Two flights: the second fails while the first is on the wire.
//      Depth 4 launches a flight per two parked reads. Ops 0 and 1 park
//      and launch flight 1; op 2 then arms the fault and parks, op 3
//      parks, and flight 2 launches under the fault and fails outright
//      (every retry faults too). Flight 1 was posted before the fault.
// ---------------------------------------------------------------------

class TwoFlightFaultTest : public ::testing::TestWithParam<WindowFault>
{};

TEST_P(TwoFlightFaultTest, FailedFlightLeavesTheOtherWhole)
{
    constexpr size_t kWarm = 16;
    Rig rig(kWarm * kObj, kWarm + 8, 4);
    for (size_t i = 0; i < kWarm; ++i)
        ASSERT_EQ(rig.read(i), Status::Ok);
    ASSERT_EQ(rig.cache().sizeBytes(), rig.cache().capacity());

    const auto arm = [&] {
        FaultConfig fc;
        switch (GetParam()) {
          case WindowFault::RetriedTimeout:
            fc.drop_rate = 1.0;
            rig.be->faults().configure(fc, 5);
            break;
          case WindowFault::QpError:
            fc.qp_error_rate = 1.0;
            rig.be->faults().configure(fc, 6);
            break;
          case WindowFault::BackendCrashed:
            rig.be->failure().armCrashAfterVerbs(0);
            break;
        }
    };
    // Ops 0 and 1 speculate on a neighbor each, so flight 1 also
    // installs speculative entries after flight 2 failed.
    const RemotePtr cold[4] = {rig.objs[kWarm], rig.objs[kWarm + 2],
                               rig.objs[kWarm + 4], rig.objs[kWarm + 5]};
    const PrefetchCandidate nbs[2] = {{rig.objs[kWarm + 1].raw(), kObj},
                                      {rig.objs[kWarm + 3].raw(), kObj}};
    WindowTally t;
    std::vector<OpTask> ops;
    ops.push_back(checkedRead(rig.s.get(), cold[0], &nbs[0], &t));
    ops.push_back(checkedRead(rig.s.get(), cold[1], &nbs[1], &t));
    ops.push_back(armThenRead(rig.s.get(), cold[2], arm, &t));
    ops.push_back(armThenRead(rig.s.get(), cold[3], [] {}, &t));
    std::vector<Status> sts(ops.size());
    rig.s->executePipelined(ops, sts);

    EXPECT_EQ(rig.s->stats().pipeline.rounds, 2u);
    EXPECT_EQ(t.resumed, ops.size());
    EXPECT_EQ(t.over_capacity, 0u);
    EXPECT_EQ(t.failed_but_cached, 0u);
    EXPECT_LE(rig.cache().sizeBytes(), rig.cache().capacity());
    // Flight 1 delivered, and its demanded and speculative fills landed.
    EXPECT_EQ(sts[0], Status::Ok);
    EXPECT_EQ(sts[1], Status::Ok);
    EXPECT_TRUE(rig.cache().contains(cold[0], kObj));
    EXPECT_TRUE(rig.cache().contains(cold[1], kObj));
    EXPECT_EQ(rig.s->stats().prefetch.issued, 2u);
    // Flight 2's ops fail as their serial reads do under the same fault.
    EXPECT_EQ(t.failed, 2u);
    for (size_t i = 2; i < 4; ++i) {
        EXPECT_FALSE(ok(sts[i])) << "op " << i;
        EXPECT_EQ(rig.read(kWarm + (i == 2 ? 4 : 5)), sts[i]) << "op " << i;
        EXPECT_FALSE(rig.cache().contains(cold[i], kObj)) << "op " << i;
    }
    switch (GetParam()) {
      case WindowFault::RetriedTimeout:
        EXPECT_EQ(sts[2], Status::Timeout);
        EXPECT_GT(rig.s->verbs().retryStats().retries_read, 0u);
        break;
      case WindowFault::QpError:
        EXPECT_EQ(sts[2], Status::QpError);
        EXPECT_GT(rig.s->verbs().retryStats().qp_resets, 0u);
        break;
      case WindowFault::BackendCrashed:
        EXPECT_EQ(sts[2], Status::BackendCrashed);
        break;
    }
}

INSTANTIATE_TEST_SUITE_P(Faults, TwoFlightFaultTest,
                         ::testing::Values(WindowFault::RetriedTimeout,
                                           WindowFault::QpError,
                                           WindowFault::BackendCrashed));

// ---------------------------------------------------------------------
// (c'') A flight makes room on top of the room the flight before it
//       still holds: when the first lands, the second's room is there.
// ---------------------------------------------------------------------

/** Reads @p p, then records the cache's free bytes once it resumes. */
OpTask
roomProbe(FrontendSession *s, RemotePtr p, uint64_t *free_after)
{
    uint8_t buf[kObj];
    const Status st = co_await s->asyncRead(p, buf, kObj, cacheableHint());
    *free_after = s->cache().capacity() - s->cache().sizeBytes();
    co_return st;
}

TEST(EvictOverlapTest, SecondFlightMakesRoomOnTopOfTheFirst)
{
    constexpr size_t kWarm = 16;
    Rig rig(kWarm * kObj, kWarm + 4, 4);
    for (size_t i = 0; i < kWarm; ++i)
        ASSERT_EQ(rig.read(i), Status::Ok);
    ASSERT_EQ(rig.cache().sizeBytes(), rig.cache().capacity());

    // Depth 4: ops 0 and 1 launch flight 1, ops 2 and 3 flight 2.
    uint64_t free_after[4] = {};
    std::vector<OpTask> ops;
    for (size_t i = 0; i < 4; ++i)
        ops.push_back(roomProbe(rig.s.get(), rig.objs[kWarm + i],
                                &free_after[i]));
    std::vector<Status> sts(ops.size());
    rig.s->executePipelined(ops, sts);
    for (const Status st : sts)
        ASSERT_EQ(st, Status::Ok);
    ASSERT_EQ(rig.s->stats().pipeline.rounds, 2u);
    // Flight 1 landed first; flight 2 still holds room for its 2 fills.
    EXPECT_GE(free_after[0], 2 * kObj);
    EXPECT_GE(free_after[1], 2 * kObj);
    EXPECT_EQ(rig.cache().sizeBytes(), rig.cache().capacity());
    for (size_t i = 0; i < 4; ++i)
        EXPECT_TRUE(rig.cache().contains(rig.objs[kWarm + i], kObj));
}

TEST(EvictOverlapTest, SingleReadFlightPaysPostingOnlyWhenOverlapped)
{
    // Depth 2 launches a flight per parked read. Flight 1 launches with
    // op 1 still to run, flight 2 with flight 1 on the wire: both carry
    // other work under their waits, so both pay the posting CPU.
    Rig rig(1 << 20, 3, 2);
    std::vector<OpTask> ops;
    uint64_t free_after[2] = {};
    for (size_t i = 0; i < 2; ++i)
        ops.push_back(roomProbe(rig.s.get(), rig.objs[i], &free_after[i]));
    std::vector<Status> sts(ops.size());
    rig.s->executePipelined(ops, sts);
    ASSERT_EQ(rig.s->stats().pipeline.rounds, 2u);
    EXPECT_EQ(rig.s->verbs().counters().read_gathers, 2u);
    // A serial miss waits alone: a plain read.
    ASSERT_EQ(rig.read(2), Status::Ok);
    EXPECT_EQ(rig.s->verbs().counters().read_gathers, 2u);
    EXPECT_EQ(rig.s->verbs().counters().reads, 3u);
}

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
