/**
 * @file
 * Ordering and crash semantics of the posted-write chain.
 *
 * The durability contract of doorbell batching is queue-pair ordering: a
 * posted write is guaranteed durable no later than the completion of the
 * next synchronous verb on the same queue pair (DESIGN.md §2). These
 * tests pin that contract — the chain drains before any later sync verb
 * returns, payloads survive a power crash once posted, and a back-end
 * crash mid-chain tears the chain at the failing WQE with everything
 * before it durable and everything after it refused.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "check/crash_explorer.h"
#include "nvm/nvm_device.h"
#include "rdma/verbs.h"
#include "sim/clock.h"
#include "sim/failure.h"
#include "sim/latency.h"
#include "sim/nic.h"

namespace asymnvm {
namespace {

class DoorbellOrderTest : public ::testing::Test
{
  protected:
    DoorbellOrderTest() : dev(1 << 20), nic(120), verbs(&clock, &lat)
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

TEST_F(DoorbellOrderTest, PostedChainDurableBeforeNextSyncVerbReturns)
{
    // Scattered destinations: three posts, three WQEs on the chain.
    const uint64_t a = 0x11, b = 0x22, c = 0x33;
    ASSERT_EQ(verbs.postWrite(RemotePtr(1, 0), &a, 8), Status::Ok);
    ASSERT_EQ(verbs.postWrite(RemotePtr(1, 4096), &b, 8), Status::Ok);
    ASSERT_EQ(verbs.postWrite(RemotePtr(1, 8192), &c, 8), Status::Ok);
    ASSERT_EQ(verbs.pendingWqes(), 3u);

    // A later synchronous verb on the same queue pair executes in order
    // behind the chain, so its completion implies the chain completed.
    uint64_t got = 0;
    ASSERT_EQ(verbs.read64(RemotePtr(1, 0), &got), Status::Ok);
    EXPECT_EQ(got, a);
    EXPECT_EQ(verbs.pendingWqes(), 0u)
        << "sync completion must drain the pending chain";
    EXPECT_EQ(verbs.counters().doorbells, 1u)
        << "the chain rides the sync verb's doorbell, not its own";

    // Power loss now: everything the chain carried must already be in
    // the persistence domain (DMA into the NVM DIMM).
    dev.crash();
    EXPECT_EQ(dev.read64(0), a);
    EXPECT_EQ(dev.read64(4096), b);
    EXPECT_EQ(dev.read64(8192), c);
}

TEST_F(DoorbellOrderTest, CrashMidChainTearsTailOnly)
{
    // Back-end dies on the third posted verb. Queue-pair ordering makes
    // the first two WQEs durable; the failing one keeps 0 bytes and the
    // queue pair is dead afterwards.
    fail.armCrashAtVerb(2, /*keep_bytes=*/0);

    const uint64_t a = 0xAA, b = 0xBB, c = 0xCC;
    ASSERT_EQ(verbs.postWrite(RemotePtr(1, 0), &a, 8), Status::Ok);
    ASSERT_EQ(verbs.postWrite(RemotePtr(1, 256), &b, 8), Status::Ok);
    ASSERT_EQ(verbs.postWrite(RemotePtr(1, 512), &c, 8),
              Status::BackendCrashed);
    EXPECT_TRUE(fail.crashed());

    EXPECT_EQ(dev.read64(0), a);
    EXPECT_EQ(dev.read64(256), b);
    EXPECT_EQ(dev.read64(512), 0u) << "torn WQE kept 0 bytes";

    // Every later verb on the dead queue pair reports the crash.
    uint64_t got = 0;
    EXPECT_EQ(verbs.read64(RemotePtr(1, 0), &got), Status::BackendCrashed);
    EXPECT_EQ(verbs.postWrite(RemotePtr(1, 768), &c, 8),
              Status::BackendCrashed);

    // The recovery path discards un-rung work; nothing may linger.
    verbs.dropPosted();
    EXPECT_EQ(verbs.pendingWqes(), 0u);
}

TEST_F(DoorbellOrderTest, TornWqeKeepsAlignedPrefix)
{
    // A multi-line posted payload tears at a 64-byte boundary, exactly
    // like a synchronous RDMA write (Section 4.2's torn-log scenario).
    unsigned char buf[256];
    for (size_t i = 0; i < sizeof(buf); ++i)
        buf[i] = static_cast<unsigned char>(i + 1);
    fail.armCrashAtVerb(0, /*keep_bytes=*/128);
    ASSERT_EQ(verbs.postWrite(RemotePtr(1, 1024), buf, sizeof(buf)),
              Status::BackendCrashed);

    unsigned char got[256] = {};
    dev.read(1024, got, sizeof(got));
    EXPECT_EQ(std::memcmp(got, buf, 128), 0) << "kept prefix landed";
    for (size_t i = 128; i < 256; ++i)
        ASSERT_EQ(got[i], 0u) << "byte past the tear at " << i;
}

// Crash-point sweep over the batched hot path: the explorer records the
// coalesced verb stream of an RCB session (posted op-log chains + sync
// commits), then crashes at sampled verb indices — including inside
// chains — and audits recovery. Violations here would mean doorbell
// batching broke the op-granular durability contract.
TEST(DoorbellOrderSweep, RcbChainsRecoverAtSampledCrashPoints)
{
    for (WorkloadKind kind : {WorkloadKind::Queue, WorkloadKind::Stack}) {
        SCOPED_TRACE(workloadName(kind));
        ExplorerOptions opt;
        opt.kind = kind;
        opt.session = SessionConfig::rcb(1, 256ull << 10, 13);
        opt.ops = 60;
        opt.flush_every = 13;
        opt.max_points = 24;
        const ExplorerResult res = exploreCrashPoints(opt);
        EXPECT_GT(res.workload_verbs, 0u);
        EXPECT_EQ(res.crashes_fired, res.points_run);
        EXPECT_EQ(res.recoveries, res.points_run);
        EXPECT_TRUE(res.report.clean()) << res.report.str();
    }
}

} // namespace
} // namespace asymnvm
