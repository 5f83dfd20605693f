/**
 * @file
 * Unit tests for the verbs layer: one-sided read/write/atomics, latency
 * charging, NIC reservation, failure injection (torn writes), and the
 * posted-write (async) path.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "nvm/nvm_device.h"
#include "rdma/verbs.h"
#include "sim/clock.h"
#include "sim/failure.h"
#include "sim/latency.h"
#include "sim/nic.h"

namespace asymnvm {
namespace {

class VerbsTest : public ::testing::Test
{
  protected:
    VerbsTest()
        : dev(1 << 20), nic(120), verbs(&clock, &lat)
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

TEST_F(VerbsTest, WriteThenReadRoundTrip)
{
    const char msg[] = "over the fabric";
    ASSERT_EQ(verbs.write(RemotePtr(1, 4096), msg, sizeof(msg)),
              Status::Ok);
    char buf[sizeof(msg)] = {};
    ASSERT_EQ(verbs.read(RemotePtr(1, 4096), buf, sizeof(buf)),
              Status::Ok);
    EXPECT_STREQ(buf, msg);
}

TEST_F(VerbsTest, WriteIsDurable)
{
    const uint64_t v = 99;
    verbs.write(RemotePtr(1, 64), &v, 8);
    dev.crash(); // RDMA write completed == persisted in NVM
    EXPECT_EQ(dev.read64(64), 99u);
}

TEST_F(VerbsTest, ReadChargesRoundTrip)
{
    uint64_t v;
    const uint64_t before = clock.now();
    verbs.read64(RemotePtr(1, 0), &v);
    EXPECT_GE(clock.now() - before, lat.rdma_atomic_rtt_ns);
}

TEST_F(VerbsTest, AsyncWriteChargesOnlyPostOverhead)
{
    const uint64_t v = 3;
    const uint64_t t0 = clock.now();
    verbs.writeAsync(RemotePtr(1, 128), &v, 8);
    const uint64_t async_cost = clock.now() - t0;
    const uint64_t t1 = clock.now();
    verbs.write(RemotePtr(1, 136), &v, 8);
    const uint64_t sync_cost = clock.now() - t1;
    EXPECT_LT(async_cost, sync_cost);
    EXPECT_LT(async_cost, lat.rdma_write_rtt_ns);
    // The payload still lands.
    EXPECT_EQ(dev.read64(128), 3u);
}

TEST_F(VerbsTest, UnknownTargetUnavailable)
{
    uint64_t v;
    EXPECT_EQ(verbs.read64(RemotePtr(9, 0), &v), Status::Unavailable);
}

TEST_F(VerbsTest, DetachMakesTargetUnavailable)
{
    verbs.detach(1);
    uint64_t v;
    EXPECT_EQ(verbs.read64(RemotePtr(1, 0), &v), Status::Unavailable);
}

TEST_F(VerbsTest, CasAndFetchAdd)
{
    verbs.write64(RemotePtr(1, 256), 10);
    uint64_t old = 0;
    ASSERT_EQ(verbs.compareAndSwap(RemotePtr(1, 256), 10, 20, &old),
              Status::Ok);
    EXPECT_EQ(old, 10u);
    ASSERT_EQ(verbs.compareAndSwap(RemotePtr(1, 256), 10, 30, &old),
              Status::Ok);
    EXPECT_EQ(old, 20u); // CAS failed, value unchanged
    ASSERT_EQ(verbs.fetchAdd(RemotePtr(1, 256), 5, &old), Status::Ok);
    EXPECT_EQ(old, 20u);
    uint64_t v;
    verbs.read64(RemotePtr(1, 256), &v);
    EXPECT_EQ(v, 25u);
}

TEST_F(VerbsTest, VerbAndByteCountersTrack)
{
    uint8_t buf[100] = {};
    verbs.write(RemotePtr(1, 512), buf, sizeof(buf));
    verbs.read(RemotePtr(1, 512), buf, sizeof(buf));
    EXPECT_EQ(verbs.verbsIssued(), 2u);
    EXPECT_EQ(verbs.counters().totalBytes(), 200u);
}

TEST_F(VerbsTest, CrashTearsInFlightWriteAtCacheLine)
{
    // Persist a base image first.
    std::vector<uint8_t> ones(512, 0x11);
    verbs.write(RemotePtr(1, 1024), ones.data(), ones.size());

    fail.armCrashAfterVerbs(0, /*seed=*/3);
    std::vector<uint8_t> twos(512, 0x22);
    EXPECT_EQ(verbs.write(RemotePtr(1, 1024), twos.data(), twos.size()),
              Status::BackendCrashed);

    // Some 64-byte-aligned prefix is new, the rest still old.
    std::vector<uint8_t> got(512);
    dev.read(1024, got.data(), got.size());
    size_t boundary = 0;
    while (boundary < 512 && got[boundary] == 0x22)
        ++boundary;
    EXPECT_EQ(boundary % 64, 0u);
    for (size_t i = boundary; i < 512; ++i)
        ASSERT_EQ(got[i], 0x11) << "byte " << i;
}

TEST_F(VerbsTest, VerbsAfterCrashFail)
{
    fail.armCrashAfterVerbs(0);
    uint64_t v;
    verbs.read64(RemotePtr(1, 0), &v);
    EXPECT_EQ(verbs.read64(RemotePtr(1, 0), &v), Status::BackendCrashed);
    EXPECT_EQ(verbs.write64(RemotePtr(1, 0), 1), Status::BackendCrashed);
}

TEST_F(VerbsTest, NicAccountsEveryVerb)
{
    SimClock clock2;
    Verbs verbs2(&clock2, &lat);
    verbs2.attach(1, RdmaTarget{&dev, &nic, &fail});

    uint64_t v;
    for (int i = 0; i < 50; ++i) {
        verbs.read64(RemotePtr(1, 0), &v);
        verbs2.read64(RemotePtr(1, 0), &v);
    }
    EXPECT_EQ(nic.verbCount(), 100u);
    EXPECT_EQ(nic.busyNs(), 100 * nic.serviceNs());
}

} // namespace
} // namespace asymnvm
