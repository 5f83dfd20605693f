/**
 * @file
 * Remaining verb-layer and session edge cases: RNIC bounds checking
 * (a torn pointer must fail the verb, not crash the process), atomic
 * write durability, posted-write failure surfacing, and the symmetric
 * session's seqlock code path.
 */

#include <gtest/gtest.h>

#include "backend/backend_node.h"
#include "frontend/session.h"
#include "nvm/nvm_device.h"
#include "rdma/verbs.h"
#include "sim/clock.h"

namespace asymnvm {
namespace {

BackendConfig
testConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 16ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 8;
    cfg.memlog_ring_size = 256ull << 10;
    cfg.oplog_ring_size = 128ull << 10;
    return cfg;
}

class VerbsEdgeTest : public ::testing::Test
{
  protected:
    VerbsEdgeTest() : dev(1 << 20), nic(120), verbs(&clock, &lat)
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

TEST_F(VerbsEdgeTest, OutOfBoundsReadRejected)
{
    uint8_t buf[64];
    EXPECT_EQ(verbs.read(RemotePtr(1, dev.size() - 32), buf, 64),
              Status::InvalidArgument);
    EXPECT_EQ(verbs.read(RemotePtr(1, UINT64_MAX - 100), buf, 64),
              Status::InvalidArgument);
}

TEST_F(VerbsEdgeTest, OutOfBoundsWriteRejected)
{
    const uint64_t v = 1;
    EXPECT_EQ(verbs.write(RemotePtr(1, dev.size()), &v, 8),
              Status::InvalidArgument);
    EXPECT_EQ(verbs.writeAsync(RemotePtr(1, dev.size()), &v, 8),
              Status::InvalidArgument);
    uint64_t out;
    EXPECT_EQ(verbs.read64(RemotePtr(1, dev.size() - 4), &out),
              Status::InvalidArgument);
}

TEST_F(VerbsEdgeTest, BoundaryAccessAllowed)
{
    const uint64_t v = 7;
    EXPECT_EQ(verbs.write(RemotePtr(1, dev.size() - 8), &v, 8),
              Status::Ok);
    uint64_t out = 0;
    EXPECT_EQ(verbs.read64(RemotePtr(1, dev.size() - 8), &out),
              Status::Ok);
    EXPECT_EQ(out, 7u);
}

// The atomic writes check their bound like read64: an 8-byte word that
// does not lie wholly inside the device fails the verb and writes
// nothing, whether it straddles the end or lies far past it.
constexpr uint64_t kFarOffset = 1ull << 40;

TEST_F(VerbsEdgeTest, OutOfBoundsWrite64Rejected)
{
    for (const uint64_t off : {dev.size() - 4, dev.size(), kFarOffset})
        EXPECT_EQ(verbs.write64(RemotePtr(1, off), 7),
                  Status::InvalidArgument)
            << off;
    EXPECT_EQ(verbs.counters().atomics, 3u); // each still charged a verb
}

TEST_F(VerbsEdgeTest, OutOfBoundsCompareAndSwapRejected)
{
    for (const uint64_t off : {dev.size() - 4, dev.size(), kFarOffset}) {
        uint64_t old = 0xdead;
        EXPECT_EQ(verbs.compareAndSwap(RemotePtr(1, off), 0, 7, &old),
                  Status::InvalidArgument)
            << off;
        EXPECT_EQ(old, 0xdeadu) << off;
    }
}

TEST_F(VerbsEdgeTest, OutOfBoundsFetchAddRejected)
{
    for (const uint64_t off : {dev.size() - 4, dev.size(), kFarOffset}) {
        uint64_t old = 0xdead;
        EXPECT_EQ(verbs.fetchAdd(RemotePtr(1, off), 1, &old),
                  Status::InvalidArgument)
            << off;
        EXPECT_EQ(old, 0xdeadu) << off;
    }
}

TEST_F(VerbsEdgeTest, Write64IsImmediatelyDurable)
{
    verbs.write64(RemotePtr(1, 512), 0xabc);
    dev.crash();
    EXPECT_EQ(dev.read64(512), 0xabcu);
}

TEST_F(VerbsEdgeTest, AsyncWriteSurfacesCrash)
{
    fail.armCrashAfterVerbs(0);
    const uint64_t v = 1;
    EXPECT_EQ(verbs.writeAsync(RemotePtr(1, 64), &v, 8),
              Status::BackendCrashed);
}

// ---------------------------------------------------------------------
// readGather all-or-nothing guarantees under transient faults.
// ---------------------------------------------------------------------

/**
 * A queue-pair error injected in the MIDDLE of a gather chain (a clean
 * WQE completes its fault consult first) must retry the WHOLE chain:
 * eventual success with correct bytes, counters moving in whole-batch
 * increments, and at least one QP reset performed.
 */
TEST_F(VerbsEdgeTest, ReadGatherRetriesWholeChainOnMidBatchQpError)
{
    constexpr uint64_t kN = 4;
    for (uint64_t i = 0; i < kN; ++i) {
        const uint64_t v = 0x1000 + i;
        ASSERT_EQ(verbs.write(RemotePtr(1, 256 + 64 * i), &v, 8),
                  Status::Ok);
    }
    FaultConfig fc;
    fc.qp_error_rate = 0.5;
    bool proved = false;
    for (uint64_t seed = 1; seed < 400 && !proved; ++seed) {
        // Only seeds whose first two decisions are clean-then-error put
        // the fault mid-batch on the first attempt.
        FaultModel probe;
        probe.configure(fc, seed);
        if (probe.onVerb(FaultVerb::Read, 0).qp_error)
            continue;
        if (!probe.onVerb(FaultVerb::Read, 0).qp_error)
            continue;
        SimClock c;
        Verbs v(&c, &lat);
        FaultModel fm;
        fm.configure(fc, seed);
        v.attach(1, RdmaTarget{&dev, &nic, &fail, &fm});
        uint64_t out[kN];
        for (uint64_t i = 0; i < kN; ++i) {
            out[i] = 0xeeeeeeeeeeeeeeee;
            ASSERT_EQ(v.postRead(RemotePtr(1, 256 + 64 * i), &out[i], 8),
                      Status::Ok);
        }
        if (v.readGather() != Status::Ok)
            continue; // this seed's storm outlived the retry budget
        proved = true;
        for (uint64_t i = 0; i < kN; ++i)
            EXPECT_EQ(out[i], 0x1000 + i);
        EXPECT_GE(v.retryStats().qp_errors, 1u);
        EXPECT_GE(v.retryStats().qp_resets, 1u);
        EXPECT_GE(v.retryStats().retries_read, 1u);
        // Whole-batch re-posts only: never a partial chain.
        EXPECT_EQ(v.counters().reads % kN, 0u);
        EXPECT_GE(v.counters().reads, 2 * kN);
        EXPECT_FALSE(v.qpInError(1));
    }
    EXPECT_TRUE(proved);
}

/**
 * When the QP error storm outlives every retry, the gather fails as a
 * unit: no destination buffer holds fetched bytes (reads deliver nothing
 * until the whole chain validates and completes).
 */
TEST_F(VerbsEdgeTest, ReadGatherExhaustionDeliversNothing)
{
    constexpr uint64_t kN = 3;
    for (uint64_t i = 0; i < kN; ++i) {
        const uint64_t v = 0x2000 + i;
        ASSERT_EQ(verbs.write(RemotePtr(1, 512 + 64 * i), &v, 8),
                  Status::Ok);
    }
    FaultConfig fc;
    fc.qp_error_rate = 1.0;
    FaultModel fm;
    fm.configure(fc, 7);
    SimClock c;
    Verbs v(&c, &lat);
    v.attach(1, RdmaTarget{&dev, &nic, &fail, &fm});
    uint64_t out[kN];
    for (uint64_t i = 0; i < kN; ++i) {
        out[i] = 0xeeeeeeeeeeeeeeee;
        ASSERT_EQ(v.postRead(RemotePtr(1, 512 + 64 * i), &out[i], 8),
                  Status::Ok);
    }
    EXPECT_EQ(v.readGather(), Status::QpError);
    for (uint64_t i = 0; i < kN; ++i)
        EXPECT_EQ(out[i], 0xeeeeeeeeeeeeeeee);
    EXPECT_EQ(v.counters().reads % kN, 0u);
    EXPECT_EQ(v.retryStats().retries_read,
              v.retryPolicy().max_attempts - 1);
    // The chain was consumed (failed as a unit, not left half-pending).
    EXPECT_EQ(v.pendingReadWqes(), 0u);
}

/** Dropped completions fail the batch the same way: nothing delivered. */
TEST_F(VerbsEdgeTest, ReadGatherDropFailsWholeBatch)
{
    const uint64_t v0 = 0x77;
    ASSERT_EQ(verbs.write(RemotePtr(1, 1024), &v0, 8), Status::Ok);
    FaultConfig fc;
    fc.drop_rate = 1.0;
    fc.drop_after_frac = 0.0; // reads never land before the loss
    FaultModel fm;
    fm.configure(fc, 11);
    SimClock c;
    Verbs v(&c, &lat);
    v.attach(1, RdmaTarget{&dev, &nic, &fail, &fm});
    uint64_t a = 0xeeeeeeeeeeeeeeee, b = 0xeeeeeeeeeeeeeeee;
    ASSERT_EQ(v.postRead(RemotePtr(1, 1024), &a, 8), Status::Ok);
    ASSERT_EQ(v.postRead(RemotePtr(1, 1032), &b, 8), Status::Ok);
    EXPECT_EQ(v.readGather(), Status::Timeout);
    EXPECT_EQ(a, 0xeeeeeeeeeeeeeeee);
    EXPECT_EQ(b, 0xeeeeeeeeeeeeeeee);
    EXPECT_GE(v.retryStats().timeouts, 1u);
}

/**
 * Chain validation precedes delivery: one bad address fails the batch
 * and the valid WQE's buffer stays untouched (never a prefix delivery).
 */
TEST_F(VerbsEdgeTest, ReadGatherValidatesWholeChainBeforeDelivery)
{
    const uint64_t v0 = 0x88;
    ASSERT_EQ(verbs.write(RemotePtr(1, 2048), &v0, 8), Status::Ok);
    uint64_t good = 0xeeeeeeeeeeeeeeee, bad = 0;
    ASSERT_EQ(verbs.postRead(RemotePtr(1, 2048), &good, 8), Status::Ok);
    ASSERT_EQ(verbs.postRead(RemotePtr(1, dev.size() - 4), &bad, 8),
              Status::Ok);
    EXPECT_EQ(verbs.readGather(), Status::InvalidArgument);
    EXPECT_EQ(good, 0xeeeeeeeeeeeeeeee);
}

TEST(SymmetricSeqlockTest, ReaderProtocolWorksLocally)
{
    BackendNode be(1, testConfig());
    FrontendSession s(SessionConfig::symmetricBase(1, false));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(s.createDs(1, "symlock", DsType::Bst, &ds), Status::Ok);
    uint64_t sn = 0;
    ASSERT_EQ(s.readerLock(ds, 1, &sn), Status::Ok);
    EXPECT_TRUE(s.readerValidate(ds, 1, sn));
    // A local writer lock is a cheap no-op flag in symmetric mode.
    ASSERT_EQ(s.writerLock(ds, 1), Status::Ok);
    EXPECT_TRUE(s.holdsWriterLock(ds, 1));
    ASSERT_EQ(s.writerUnlock(ds, 1), Status::Ok);
    EXPECT_FALSE(s.holdsWriterLock(ds, 1));
}

TEST(SessionEdgeTest, ReadUnknownBackendUnavailable)
{
    FrontendSession s(SessionConfig::r(5));
    uint64_t v;
    EXPECT_EQ(s.read(RemotePtr(9, 64), &v, 8), Status::Unavailable);
    EXPECT_EQ(s.logWrite(0, RemotePtr(9, 64), &v, 8),
              Status::Unavailable);
    RemotePtr p;
    EXPECT_EQ(s.alloc(9, 8, &p), Status::Unavailable);
}

TEST(SessionEdgeTest, NaiveModeReadsBypassOverlayAndCache)
{
    BackendNode be(1, testConfig());
    FrontendSession s(SessionConfig::naive(6));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    RemotePtr p;
    ASSERT_EQ(s.alloc(1, 64, &p), Status::Ok);
    const uint64_t v = 0x44;
    ASSERT_EQ(s.logWrite(0, p, &v, 8), Status::Ok);
    // Every read issues a verb in naive mode.
    const uint64_t verbs_before = s.verbs().verbsIssued();
    uint64_t got = 0;
    ReadHint hint;
    hint.cacheable = true; // must be ignored (no cache in naive)
    ASSERT_EQ(s.read(p, &got, 8, hint), Status::Ok);
    ASSERT_EQ(s.read(p, &got, 8, hint), Status::Ok);
    EXPECT_EQ(s.verbs().verbsIssued(), verbs_before + 2);
    EXPECT_EQ(got, 0x44u);
}

TEST(SessionEdgeTest, ZeroValuePayloadOpLog)
{
    BackendNode be(1, testConfig());
    FrontendSession s(SessionConfig::r(7));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    // Pop/Dequeue-style ops carry no payload; the record must survive
    // the ring and recovery scan.
    ASSERT_EQ(s.opBegin(0, 1, OpType::Pop, 0, nullptr, 0), Status::Ok);
    const auto ops = be.uncoveredOps(0);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].op, OpType::Pop);
    EXPECT_TRUE(ops[0].value.empty());
}

} // namespace
} // namespace asymnvm
