/**
 * @file
 * Remaining verb-layer and session edge cases: RNIC bounds checking
 * (a torn pointer must fail the verb, not crash the process), atomic
 * write durability, posted-write failure surfacing, and the symmetric
 * session's seqlock code path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstring>
#include <optional>
#include <string>
#include <utility>
#include <vector>

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
              kRetry.max_attempts - 1);
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

// ---------------------------------------------------------------------
// One table over every verb and every fault. Each cell checks the
// status, the clock delta, VerbCounters, RetryStats, the bytes that
// landed and the crash draws, all derived from the LatencyModel and the
// retry constants. The target has no NIC model, so that the clock delta
// is exact.
// ---------------------------------------------------------------------

/** The fault a cell injects (the table's columns). */
enum class Fault
{
    None,
    Drop,
    DropAfter,
    Delay,
    Slow,
    QpError,
    Crash,
    OutOfBounds,
    OutOfBoundsQpError,
};

const char *
faultName(Fault f)
{
    switch (f) {
      case Fault::None: return "none";
      case Fault::Drop: return "drop";
      case Fault::DropAfter: return "drop-after";
      case Fault::Delay: return "delay";
      case Fault::Slow: return "slow";
      case Fault::QpError: return "qp-error";
      case Fault::Crash: return "crash";
      case Fault::OutOfBounds: return "out-of-bounds";
      case Fault::OutOfBoundsQpError: return "out-of-bounds+qp-error";
    }
    return "?";
}

/** Where a verb checks its bounds relative to its fault draw. */
enum class BoundsOrder
{
    AfterFaultStatus, //!< a faulted attempt reports the fault
    AfterFaultDraw,   //!< faults are drawn, then the bound refuses
    BeforeFaultDraw,  //!< the bound refuses before any fault draw
};

/** Offsets and buffers of one cell: one slot per WQE. */
struct VerbCell
{
    uint64_t off[3] = {};
    uint8_t buf[3][64] = {};
};

/** One verb (the table's rows) and its cost and counter shape. */
struct VerbRow
{
    const char *name;
    Status (*run)(Verbs &, VerbCell &);
    uint64_t wqes;    //!< WQEs per attempt: crash and fault draws
    uint64_t len;     //!< bytes per WQE
    uint64_t inj_len; //!< write length the injector sees per draw
    bool reads;       //!< delivers bytes to the caller, not to NVM
    bool drop_after;  //!< a dropped completion may follow the landing
    bool tears;       //!< a crash lands a torn prefix
    uint64_t crash_at; //!< WQE index the crash column fires at
    BoundsOrder bounds;
    uint64_t RetryStats::*retries;
    uint64_t pre_ns;    //!< charged every attempt before the fault draw
    uint64_t ok_ns;     //!< charged after an attempt that returns Ok
    uint64_t failed_ns; //!< charged after an attempt that fails
    VerbCounters per_attempt;
    VerbCounters on_ok; //!< added once when the verb returns Ok
};

std::array<uint64_t, 11>
fields(const VerbCounters &c)
{
    return {c.reads, c.read_bytes, c.writes, c.write_bytes, c.posted,
            c.posted_bytes, c.atomics, c.atomic_bytes, c.doorbells,
            c.wqes, c.read_gathers};
}

std::array<uint64_t, 8>
fields(const RetryStats &r)
{
    return {r.retries_read, r.retries_write, r.retries_posted,
            r.retries_atomic, r.timeouts, r.delayed, r.qp_errors,
            r.qp_resets};
}

uint8_t
pattern(uint64_t wqe, uint64_t i)
{
    return static_cast<uint8_t>(0x80 | ((wqe * 64 + i) & 0x7f));
}

constexpr uint64_t kSlowNs = 7777;
constexpr uint64_t kTornKeep = 32;

/** Bounds of the jittered backoff that @p retries retries charge. */
std::pair<uint64_t, uint64_t>
backoffRange(uint64_t retries)
{
    uint64_t lo = 0, hi = 0, d = kRetry.base_backoff_ns;
    for (uint64_t i = 0; i < retries; ++i) {
        const auto span = static_cast<uint64_t>(static_cast<double>(d) *
                                                kRetry.jitter);
        lo += d - span / 2;
        hi += d - span / 2 + span;
        d = std::min(d * 2, kRetry.max_backoff_ns);
    }
    return {lo, hi};
}

std::vector<VerbRow>
verbRows(const LatencyModel &lat)
{
    const uint64_t rr = lat.rdma_read_rtt_ns + lat.wireBytes(64);
    const uint64_t wr = lat.rdma_write_rtt_ns + lat.wireBytes(64);
    const uint64_t ar = lat.rdma_atomic_rtt_ns + lat.wireBytes(8);
    const uint64_t post = lat.post_overhead_ns;
    const uint64_t chain = post + lat.doorbell_batch_wqe_ns;
    const uint64_t gather_post = post + 3 * lat.doorbell_batch_wqe_ns;
    const uint64_t gather_rtt =
        lat.rdma_read_rtt_ns + lat.wireBytes(3 * 64);
    return {
        {"read",
         [](Verbs &v, VerbCell &c) {
             return v.read(RemotePtr(1, c.off[0]), c.buf[0], 64);
         },
         1, 64, 0, true, false, false, 0, BoundsOrder::AfterFaultStatus,
         &RetryStats::retries_read, 0, rr, rr,
         VerbCounters{.reads = 1, .read_bytes = 64, .doorbells = 1},
         VerbCounters{}},
        {"readGather(3)",
         [](Verbs &v, VerbCell &c) {
             for (uint64_t i = 0; i < 3; ++i)
                 EXPECT_EQ(v.postRead(RemotePtr(1, c.off[i]), c.buf[i], 64),
                           Status::Ok);
             return v.readGather();
         },
         3, 64, 0, true, false, false, 1, BoundsOrder::AfterFaultStatus,
         &RetryStats::retries_read, gather_post, gather_rtt, 0,
         VerbCounters{.reads = 3, .read_bytes = 3 * 64, .doorbells = 1,
                      .read_gathers = 1},
         VerbCounters{}},
        {"write",
         [](Verbs &v, VerbCell &c) {
             return v.write(RemotePtr(1, c.off[0]), c.buf[0], 64);
         },
         1, 64, 64, false, true, true, 0, BoundsOrder::AfterFaultDraw,
         &RetryStats::retries_write, 0, wr, wr,
         VerbCounters{.writes = 1, .write_bytes = 64, .doorbells = 1},
         VerbCounters{}},
        {"writeAsync",
         [](Verbs &v, VerbCell &c) {
             return v.writeAsync(RemotePtr(1, c.off[0]), c.buf[0], 64);
         },
         1, 64, 64, false, true, true, 0, BoundsOrder::AfterFaultDraw,
         &RetryStats::retries_posted, 0, post, post,
         VerbCounters{.posted = 1, .posted_bytes = 64, .doorbells = 1,
                      .wqes = 1},
         VerbCounters{}},
        {"postWrite+ringDoorbell",
         [](Verbs &v, VerbCell &c) {
             const Status st =
                 v.postWrite(RemotePtr(1, c.off[0]), c.buf[0], 64);
             EXPECT_EQ(v.ringDoorbell(), Status::Ok);
             return st;
         },
         1, 64, 64, false, true, true, 0, BoundsOrder::BeforeFaultDraw,
         &RetryStats::retries_posted, 0, chain, 0,
         VerbCounters{.posted = 1, .posted_bytes = 64},
         VerbCounters{.doorbells = 1, .wqes = 1}},
        {"compareAndSwap",
         [](Verbs &v, VerbCell &c) {
             uint64_t desired = 0, old = 0;
             std::memcpy(&desired, c.buf[0], 8);
             return v.compareAndSwap(RemotePtr(1, c.off[0]), 0, desired,
                                     &old);
         },
         1, 8, 8, false, false, false, 0, BoundsOrder::AfterFaultStatus,
         &RetryStats::retries_atomic, 0, ar, ar,
         VerbCounters{.atomics = 1, .atomic_bytes = 8, .doorbells = 1},
         VerbCounters{}},
    };
}

/** Run one cell of the table and check everything it can observe. */
void
checkCell(const LatencyModel &lat, const VerbRow &row, Fault f)
{
    SCOPED_TRACE(std::string(row.name) + " x " + faultName(f));
    NvmDevice dev(1 << 20);
    FailureInjector fail;
    FaultModel faults;
    SimClock clock;
    Verbs v(&clock, &lat);
    uint64_t hooked = 0; // bytes reported to the replication hook
    v.attach(1, RdmaTarget{&dev, nullptr, &fail, &faults,
                           [&](uint64_t, size_t len) { hooked += len; }});

    const bool oob =
        f == Fault::OutOfBounds || f == Fault::OutOfBoundsQpError;
    VerbCell c;
    for (uint64_t w = 0; w < row.wqes; ++w) {
        c.off[w] = 4096 + 128 * w;
        if (oob && w == row.wqes - 1)
            c.off[w] = dev.size() - row.len / 2;
        uint8_t src[64];
        for (uint64_t i = 0; i < row.len; ++i)
            src[i] = pattern(w, i);
        if (!row.reads)
            std::memcpy(c.buf[w], src, row.len);
        else if (c.off[w] + row.len <= dev.size())
            dev.write(c.off[w], src, row.len);
    }
    dev.persist();

    FaultConfig fc;
    switch (f) {
      case Fault::Drop:
        fc.drop_rate = 1.0;
        fc.drop_after_frac = 0.0;
        break;
      case Fault::DropAfter:
        fc.drop_rate = 1.0;
        fc.drop_after_frac = 1.0;
        break;
      case Fault::Delay:
        fc.delay_rate = 1.0;
        break;
      case Fault::QpError:
      case Fault::OutOfBoundsQpError:
        fc.qp_error_rate = 1.0;
        break;
      default:
        break;
    }
    faults.configure(fc, /*seed=*/1);
    if (f == Fault::Slow)
        faults.slowDownUntil(UINT64_MAX, kSlowNs);
    fail.startRecording();
    if (f == Fault::Crash)
        fail.armCrashAtVerb(row.crash_at, kTornKeep);

    const Status st = row.run(v, c);
    const uint64_t elapsed = clock.now();

    // What the table expects.
    const bool bounds_win = f == Fault::OutOfBoundsQpError &&
                            row.bounds != BoundsOrder::AfterFaultStatus;
    Status want = Status::Ok;
    uint64_t attempts = 1;
    switch (f) {
      case Fault::Drop:
      case Fault::DropAfter:
        want = Status::Timeout;
        attempts = kRetry.max_attempts;
        break;
      case Fault::QpError:
        want = Status::QpError;
        attempts = kRetry.max_attempts;
        break;
      case Fault::OutOfBoundsQpError:
        want = bounds_win ? Status::InvalidArgument : Status::QpError;
        attempts = bounds_win ? 1 : kRetry.max_attempts;
        break;
      case Fault::Crash: want = Status::BackendCrashed; break;
      case Fault::OutOfBounds: want = Status::InvalidArgument; break;
      default: break;
    }
    EXPECT_EQ(st, want);

    RetryStats rs{};
    rs.*row.retries = attempts - 1;
    uint64_t admission_ns = 0;
    if (f == Fault::Drop || f == Fault::DropAfter) {
        rs.timeouts = attempts;
        admission_ns = kRetry.verb_timeout_ns;
    } else if (f == Fault::Delay) {
        rs.delayed = row.wqes;
        admission_ns = FaultConfig{}.delay_ns; // WQEs complete together
    } else if (f == Fault::Slow) {
        admission_ns = row.wqes * kSlowNs;
    } else if (f == Fault::QpError || f == Fault::OutOfBoundsQpError) {
        rs.qp_errors =
            row.bounds == BoundsOrder::BeforeFaultDraw && bounds_win
                ? 0
                : attempts;
        rs.qp_resets = attempts - 1;
    }
    EXPECT_EQ(fields(v.retryStats()), fields(rs));
    const auto [lo, hi] = backoffRange(attempts - 1);
    const uint64_t backoff = v.retryStats().backoff_ns;
    EXPECT_GE(backoff, lo);
    EXPECT_LE(backoff, hi);

    const uint64_t per_attempt =
        row.pre_ns + admission_ns + (ok(st) ? row.ok_ns : row.failed_ns);
    EXPECT_EQ(elapsed, attempts * per_attempt +
                           rs.qp_resets * kRetry.qp_reset_ns +
                           backoff);

    auto want_ctr = fields(row.per_attempt);
    const auto extra = fields(row.on_ok);
    for (size_t i = 0; i < want_ctr.size(); ++i)
        want_ctr[i] = want_ctr[i] * attempts + (ok(st) ? extra[i] : 0);
    EXPECT_EQ(fields(v.counters()), want_ctr);

    uint64_t landed = 0;
    for (uint64_t w = 0; w < row.wqes; ++w) {
        uint8_t got[64] = {};
        if (row.reads)
            std::memcpy(got, c.buf[w], row.len);
        else if (c.off[w] < dev.size())
            dev.read(c.off[w], got,
                     std::min<uint64_t>(row.len, dev.size() - c.off[w]));
        for (uint64_t i = 0; i < row.len; ++i)
            landed += got[i] == pattern(w, i) ? 1 : 0;
    }
    uint64_t want_landed = 0;
    if (ok(st) || (f == Fault::DropAfter))
        want_landed = row.wqes * row.len;
    else if (f == Fault::Crash && row.tears)
        want_landed = kTornKeep;
    EXPECT_EQ(landed, want_landed);
    uint64_t want_hooked = 0;
    if (!row.reads && ok(st))
        want_hooked = row.len;
    else if (f == Fault::DropAfter)
        want_hooked = attempts * row.len; // every attempt lands again
    EXPECT_EQ(hooked, want_hooked);

    const uint64_t draws =
        f == Fault::Crash ? row.crash_at + 1 : attempts * row.wqes;
    EXPECT_EQ(fail.recordedWriteLens(),
              std::vector<uint64_t>(draws, row.inj_len));
    if (f == Fault::Crash) {
        EXPECT_EQ(fail.firedAtVerb(),
                  std::optional<uint64_t>(row.crash_at));
    }
}

TEST(VerbAttemptTable, EveryVerbUnderEveryFault)
{
    const LatencyModel lat;
    for (const VerbRow &row : verbRows(lat)) {
        for (const Fault f :
             {Fault::None, Fault::Drop, Fault::DropAfter, Fault::Delay,
              Fault::Slow, Fault::QpError, Fault::Crash,
              Fault::OutOfBounds, Fault::OutOfBoundsQpError}) {
            if (f == Fault::DropAfter && !row.drop_after)
                continue; // only writes land before a lost completion
            checkCell(lat, row, f);
        }
    }
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
