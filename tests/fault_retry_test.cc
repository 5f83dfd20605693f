/**
 * @file
 * Unit tests for transient-fault injection (sim/fault.h), the verb
 * retry/backoff policy (rdma/verbs), and session-level transparent
 * failover (Section 7.2 Cases 3/4 without application help), with a live
 * handle of every data structure.
 */

#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "check/chaos.h"
#include "cluster/cluster.h"
#include "ds/bptree.h"
#include "ds/bst.h"
#include "ds/hash_table.h"
#include "ds/mv_bptree.h"
#include "ds/mv_bst.h"
#include "ds/queue.h"
#include "ds/skiplist.h"
#include "ds/stack.h"
#include "frontend/session.h"
#include "nvm/nvm_device.h"
#include "rdma/verbs.h"
#include "sim/fault.h"

namespace asymnvm {
namespace {

class FaultVerbsTest : public ::testing::Test
{
  protected:
    FaultVerbsTest() : dev(1 << 20), nic(120), verbs(&clock, &lat)
    {
        verbs.attach(1, RdmaTarget{&dev, &nic, &fail, &faults});
    }

    NvmDevice dev;
    NicModel nic;
    FailureInjector fail;
    FaultModel faults;
    SimClock clock;
    LatencyModel lat;
    Verbs verbs;
};

TEST_F(FaultVerbsTest, DroppedCompletionsAreRetriedTransparently)
{
    FaultConfig fc;
    fc.drop_rate = 0.3;
    faults.configure(fc, /*seed=*/42);
    for (uint64_t i = 0; i < 200; ++i) {
        const uint64_t v = i * 3 + 1;
        ASSERT_EQ(verbs.write(RemotePtr(1, 64 + i * 8), &v, 8),
                  Status::Ok);
    }
    for (uint64_t i = 0; i < 200; ++i) {
        uint64_t v = 0;
        ASSERT_EQ(verbs.read(RemotePtr(1, 64 + i * 8), &v, 8), Status::Ok)
            << "read " << i;
        EXPECT_EQ(v, i * 3 + 1);
    }
    const RetryStats &rs = verbs.retryStats();
    EXPECT_GT(rs.timeouts, 0u) << "drops should have been injected";
    EXPECT_GT(rs.totalRetries(), 0u);
    EXPECT_GT(rs.backoff_ns, 0u) << "retries charge jittered backoff";
}

TEST_F(FaultVerbsTest, QpErrorIsResetAndVerbsRecover)
{
    FaultConfig fc;
    fc.qp_error_rate = 0.1;
    faults.configure(fc, /*seed=*/7);
    for (uint64_t i = 0; i < 300; ++i) {
        const uint64_t v = i;
        ASSERT_EQ(verbs.write64(RemotePtr(1, 1024), v), Status::Ok);
    }
    const RetryStats &rs = verbs.retryStats();
    EXPECT_GT(rs.qp_errors, 0u);
    EXPECT_EQ(rs.qp_errors, rs.qp_resets)
        << "every QP error transition is followed by a reset";
    EXPECT_FALSE(verbs.qpInError(1));
}

TEST_F(FaultVerbsTest, RetryExhaustionSurfacesTimeout)
{
    FaultConfig fc;
    fc.drop_rate = 1.0;     // every completion is lost
    fc.drop_after_frac = 0; // and no payload lands
    faults.configure(fc, /*seed=*/3);
    uint64_t v = 0;
    EXPECT_EQ(verbs.read(RemotePtr(1, 64), &v, 8), Status::Timeout);
    EXPECT_EQ(verbs.retryStats().timeouts, kRetry.max_attempts);
}

TEST_F(FaultVerbsTest, DropAfterLandsPayloadDespiteTimeout)
{
    FaultConfig fc;
    fc.drop_rate = 1.0;
    fc.drop_after_frac = 1.0; // payload always lands, completion lost
    faults.configure(fc, /*seed=*/11);
    const uint64_t v = 0xabcdef;
    EXPECT_EQ(verbs.write(RemotePtr(1, 2048), &v, 8), Status::Timeout);
    faults.disarm();
    uint64_t got = 0;
    ASSERT_EQ(verbs.read64(RemotePtr(1, 2048), &got), Status::Ok);
    EXPECT_EQ(got, v) << "duplicated payloads must still land (idempotent)";
}

TEST_F(FaultVerbsTest, DelaysChargeTimeWithoutRetries)
{
    FaultConfig fc;
    fc.delay_rate = 1.0;
    fc.delay_ns = 9000;
    faults.configure(fc, /*seed=*/5);
    const uint64_t before = clock.now();
    uint64_t v = 0;
    ASSERT_EQ(verbs.read(RemotePtr(1, 64), &v, 8), Status::Ok);
    EXPECT_GE(clock.now() - before, 9000u);
    EXPECT_EQ(verbs.retryStats().totalRetries(), 0u);
    EXPECT_EQ(verbs.retryStats().delayed, 1u);
}

TEST_F(FaultVerbsTest, GraySlowdownChargesExtraServiceTime)
{
    faults.slowDownUntil(/*until_ns=*/1ull << 40, /*extra_ns=*/7777);
    const uint64_t before = clock.now();
    uint64_t v = 0;
    ASSERT_EQ(verbs.read(RemotePtr(1, 64), &v, 8), Status::Ok);
    const uint64_t gray = clock.now() - before;
    faults.disarm();
    const uint64_t before2 = clock.now();
    ASSERT_EQ(verbs.read(RemotePtr(1, 64), &v, 8), Status::Ok);
    // The NIC bandwidth reservation rounds against virtual time, so the
    // two service times can differ by a nanosecond; only the injected
    // penalty's order of magnitude matters.
    EXPECT_GE(gray + 1000, (clock.now() - before2) + 7777);
}

TEST_F(FaultVerbsTest, DeterministicUnderSeed)
{
    FaultConfig fc;
    fc.drop_rate = 0.2;
    fc.delay_rate = 0.2;
    fc.qp_error_rate = 0.05;
    uint64_t clocks[2];
    uint64_t retries[2];
    for (int run = 0; run < 2; ++run) {
        NvmDevice d(1 << 20);
        NicModel n(120);
        FailureInjector fi;
        FaultModel fm;
        SimClock ck;
        Verbs vb(&ck, &lat);
        vb.attach(1, RdmaTarget{&d, &n, &fi, &fm});
        fm.configure(fc, /*seed=*/1234);
        for (uint64_t i = 0; i < 100; ++i) {
            const uint64_t v = i;
            ASSERT_EQ(vb.write64(RemotePtr(1, 64 + i * 8), v), Status::Ok);
        }
        clocks[run] = ck.now();
        retries[run] = vb.retryStats().totalRetries();
    }
    EXPECT_EQ(clocks[0], clocks[1]);
    EXPECT_EQ(retries[0], retries[1]);
}

// ---------------------------------------------------------------------
// Transparent failover end-to-end
// ---------------------------------------------------------------------

ClusterConfig
failoverCluster(uint32_t mirrors = 2)
{
    ClusterConfig cfg;
    cfg.num_backends = 1;
    cfg.mirrors_per_backend = mirrors;
    cfg.backend.nvm_size = 16ull << 20;
    cfg.backend.max_frontends = 4;
    cfg.backend.max_names = 16;
    cfg.backend.memlog_ring_size = 256ull << 10;
    cfg.backend.oplog_ring_size = 256ull << 10;
    cfg.transparent_failover = true;
    return cfg;
}

// The calls a keyed structure's live handle is driven through; the hash
// table names its upsert and lookup put/get and sizes its bucket array.
template <typename Ds>
Status
createNamed(FrontendSession &s, Ds *out)
{
    return Ds::create(s, 1, "ds", out);
}
Status
createNamed(FrontendSession &s, HashTable *out)
{
    return HashTable::create(s, 1, "ds", 64, out);
}
template <typename Ds>
Status
upsert(Ds &ds, Key k, const Value &v)
{
    return ds.insert(k, v);
}
Status
upsert(HashTable &ht, Key k, const Value &v)
{
    return ht.put(k, v);
}
template <typename Ds>
Status
lookup(Ds &ds, Key k, Value *v)
{
    return ds.find(k, v);
}
Status
lookup(HashTable &ht, Key k, Value *v)
{
    return ht.get(k, v);
}

/**
 * One structure's live-handle failover case: write(k) stores 7k (under
 * key k for keyed structures), and expectContents checks that elements
 * 1..n are all there exactly once — every key, or the whole LIFO/FIFO
 * drain.
 */
template <typename Ds>
struct Keyed
{
    using Handle = Ds;
    static constexpr bool kLookupAudit = true; //!< expectContents only reads
    static Status write(Ds &ds, uint64_t k)
    {
        return upsert(ds, k, Value::ofU64(k * 7));
    }
    static void expectContents(Ds &ds, uint64_t n)
    {
        for (uint64_t k = 1; k <= n; ++k) {
            Value v;
            ASSERT_EQ(lookup(ds, k, &v), Status::Ok) << "key " << k;
            EXPECT_EQ(v.asU64(), k * 7) << "key " << k;
        }
    }
};

/** Drain @p ds through @p take: 7k for each k of @p order, then empty. */
template <typename Ds>
void
expectDrain(Ds &ds, Status (Ds::*take)(Value *),
            const std::vector<uint64_t> &order)
{
    for (const uint64_t k : order) {
        Value v;
        ASSERT_EQ((ds.*take)(&v), Status::Ok) << "element " << k;
        ASSERT_EQ(v.asU64(), k * 7) << "exactly once, in order";
    }
    Value v;
    EXPECT_EQ((ds.*take)(&v), Status::NotFound) << "no duplicates";
}

struct StackCase
{
    using Handle = Stack;
    static constexpr bool kLookupAudit = false; //!< expectContents drains
    static Status write(Stack &st, uint64_t k)
    {
        return st.push(Value::ofU64(k * 7));
    }
    static void expectContents(Stack &st, uint64_t n)
    {
        std::vector<uint64_t> lifo;
        for (uint64_t k = n; k >= 1; --k)
            lifo.push_back(k);
        expectDrain(st, &Stack::pop, lifo);
    }
};

struct QueueCase
{
    using Handle = Queue;
    static constexpr bool kLookupAudit = false;
    static Status write(Queue &q, uint64_t k)
    {
        return q.enqueue(Value::ofU64(k * 7));
    }
    static void expectContents(Queue &q, uint64_t n)
    {
        std::vector<uint64_t> fifo;
        for (uint64_t k = 1; k <= n; ++k)
            fifo.push_back(k);
        expectDrain(q, &Queue::dequeue, fifo);
    }
};

enum class BackendLoss
{
    Restart,   //!< transient crash: Case 3, the node restarts
    Promotion, //!< condemned node: Case 4, a mirror is promoted
};

template <typename C>
class LiveHandleFailoverTest : public ::testing::Test
{
  protected:
    using Ds = typename C::Handle;

    /**
     * @p n writes under group commit every 16 (by default 20: the last
     * four still batched), lose the back-end, then write one more: the
     * session heals inside that call, and the live handle must resync to
     * the recovered image before op-log replay — or replayed ops
     * double-count.
     */
    void run(BackendLoss loss, uint64_t n = 20)
    {
        Cluster cluster(failoverCluster());
        auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 16));
        ASSERT_NE(s, nullptr);
        Ds ds;
        ASSERT_EQ(createNamed(*s, &ds), Status::Ok);
        for (uint64_t k = 1; k <= n; ++k)
            ASSERT_EQ(C::write(ds, k), Status::Ok);

        cluster.keepAlive().renew(1, s->clock().now());
        BackendNode *old = cluster.backend(1);
        if (loss == BackendLoss::Restart)
            cluster.crashBackendTransient(1);
        else
            cluster.condemnBackend(1);

        ASSERT_EQ(C::write(ds, n + 1), Status::Ok);
        EXPECT_EQ(s->failoversCompleted(), 1u);
        if (loss == BackendLoss::Promotion) {
            EXPECT_NE(cluster.backend(1), old) << "a mirror was promoted";
        }
        EXPECT_EQ(ds.size(), n + 1);
        ASSERT_EQ(s->flushAll(), Status::Ok);

        auto s2 = cluster.makeSession(SessionConfig::rc(2, 1 << 20));
        ASSERT_NE(s2, nullptr);
        Ds reopened;
        ASSERT_EQ(Ds::open(*s2, 1, "ds", &reopened), Status::Ok);
        EXPECT_EQ(reopened.size(), n + 1) << "durable count";
        if constexpr (C::kLookupAudit)
            C::expectContents(reopened, n + 1); // the durable root too

        C::expectContents(ds, n + 1);
    }
};

using LiveHandleCases =
    ::testing::Types<Keyed<HashTable>, Keyed<SkipList>, Keyed<BpTree>,
                     Keyed<Bst>, Keyed<MvBst>, Keyed<MvBpTree>, StackCase,
                     QueueCase>;

struct LiveHandleCaseNames
{
    template <typename C>
    static std::string GetName(int i)
    {
        static const char *const kNames[] = {
            "HashTable", "SkipList", "BpTree", "Bst",
            "MvBst",     "MvBpTree", "Stack",  "Queue"};
        return kNames[i];
    }
};

TYPED_TEST_SUITE(LiveHandleFailoverTest, LiveHandleCases,
                 LiveHandleCaseNames);

TYPED_TEST(LiveHandleFailoverTest, TransientCrashHealsWithoutAppHelp)
{
    this->run(BackendLoss::Restart);
}

TYPED_TEST(LiveHandleFailoverTest, PromotionHealsWithoutAppHelp)
{
    this->run(BackendLoss::Promotion);
}

/**
 * The in-place trees hold their root word in the handle. Here the root
 * moves inside the batch the back-end loses: the B+tree's root leaf
 * splits at the 33rd key (keys 33..40 are unflushed), and the BST's
 * root is set by its first key (all eight unflushed). Failover must
 * reload the held root from the recovered image before replay.
 */
template <typename C>
class RootMoveFailoverTest : public LiveHandleFailoverTest<C>
{
  protected:
    static constexpr uint64_t kWrites =
        std::is_same_v<typename C::Handle, BpTree> ? 40 : 8;
};

using RootMoveCases = ::testing::Types<Keyed<BpTree>, Keyed<Bst>>;

struct RootMoveCaseNames
{
    template <typename C>
    static std::string GetName(int i)
    {
        return i == 0 ? "BpTree" : "Bst";
    }
};

TYPED_TEST_SUITE(RootMoveFailoverTest, RootMoveCases, RootMoveCaseNames);

TYPED_TEST(RootMoveFailoverTest, TransientCrashInsideRootMove)
{
    this->run(BackendLoss::Restart, this->kWrites);
}

TYPED_TEST(RootMoveFailoverTest, PromotionInsideRootMove)
{
    this->run(BackendLoss::Promotion, this->kWrites);
}

TEST(TransparentFailoverTest, CondemnedNodeWaitsOutLeaseThenPromotes)
{
    Cluster cluster(failoverCluster());
    auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 16));
    ASSERT_NE(s, nullptr);
    HashTable ht;
    ASSERT_EQ(HashTable::create(*s, 1, "h", 64, &ht), Status::Ok);
    for (uint64_t k = 1; k <= 20; ++k)
        ASSERT_EQ(ht.put(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);

    cluster.keepAlive().renew(1, s->clock().now());
    BackendNode *old = cluster.backend(1);
    cluster.condemnBackend(1);
    // Restart is impossible now; only promotion can heal.
    EXPECT_EQ(cluster.restartBackend(1), Status::Unavailable);

    const uint64_t t0 = s->clock().now();
    ASSERT_EQ(ht.put(21, Value::ofU64(21)), Status::Ok);
    EXPECT_EQ(s->failoversCompleted(), 1u);
    EXPECT_NE(cluster.backend(1), old) << "a mirror was promoted";
    EXPECT_EQ(cluster.backend(1)->id(), 1u);
    EXPECT_EQ(cluster.mirrorsOf(1).size(), 1u)
        << "the promoted mirror left the replica roster";
    EXPECT_GE(s->clock().now() - t0, cluster.keepAlive().leaseNs())
        << "promotion must wait out the condemned node's lease";

    ASSERT_EQ(s->flushAll(), Status::Ok);
    for (uint64_t k = 1; k <= 21; ++k) {
        Value v;
        ASSERT_EQ(ht.get(k, &v), Status::Ok) << "key " << k;
    }
    // The promoted primary is a full citizen: it can fail over again.
    cluster.keepAlive().renew(1, s->clock().now());
    cluster.condemnBackend(1);
    ASSERT_EQ(ht.put(22, Value::ofU64(22)), Status::Ok);
    EXPECT_EQ(s->failoversCompleted(), 2u);
    EXPECT_TRUE(cluster.mirrorsOf(1).empty());
}

TEST(TransparentFailoverTest, StatsExposeRetryAndFailoverWork)
{
    Cluster cluster(failoverCluster());
    auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 16));
    ASSERT_NE(s, nullptr);
    HashTable ht;
    ASSERT_EQ(HashTable::create(*s, 1, "h", 64, &ht), Status::Ok);
    FaultConfig fc;
    fc.drop_rate = 0.05;
    cluster.backend(1)->faults().configure(fc, /*seed=*/9);
    for (uint64_t k = 1; k <= 60; ++k)
        ASSERT_EQ(ht.put(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    const SessionStats stats = s->stats();
    EXPECT_GT(stats.ops_started, 0u);
    EXPECT_GT(stats.verbs.writes + stats.verbs.posted, 0u);
    EXPECT_GT(stats.retry.totalRetries(), 0u);
}

// A short deterministic chaos run doubles as the harness's smoke test.
TEST(ChaosSmokeTest, TwoSeedsSurviveMixedChaos)
{
    for (uint64_t seed : {1ull, 2ull}) {
        ChaosConfig cfg;
        cfg.seed = seed;
        cfg.num_ops = 120;
        const ChaosResult r = runChaosSoak(cfg);
        EXPECT_TRUE(r.ok) << "seed " << seed << ": " << r.error;
        EXPECT_EQ(r.ops_done, cfg.num_ops);
        EXPECT_GT(r.audits, 0u);
    }
}

} // namespace
} // namespace asymnvm
