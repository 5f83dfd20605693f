/**
 * @file
 * Robustness tests beyond the per-module suites:
 *  - SWMR thread stress: concurrent writer + readers on shared
 *    structures never observe garbage values;
 *  - replication property: after arbitrary traffic, the mirror replica
 *    is byte-identical to the back-end in every recovery-relevant
 *    region (naming space, bitmap, control blocks, data area);
 *  - operation-log ring wrap-around across crash recovery;
 *  - RPC layer edge cases;
 *  - application-level (SmallBank) randomized crash recovery.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <set>
#include <span>
#include <thread>
#include <vector>

#include "apps/smallbank.h"
#include "cluster/cluster.h"
#include "common/rand.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "ds/partitioned.h"
#include "frontend/session.h"
#include "rdma/rpc.h"

namespace asymnvm {
namespace {

BackendConfig
testConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 32ull << 20;
    cfg.max_frontends = 8;
    cfg.max_names = 16;
    cfg.memlog_ring_size = 512ull << 10;
    cfg.oplog_ring_size = 256ull << 10;
    return cfg;
}

TEST(SwmrStressTest, ReadersNeverObserveGarbage)
{
    BackendNode be(1, testConfig());
    DsOptions shared;
    shared.shared = true;
    shared.max_read_retries = 4096;

    FrontendSession writer(SessionConfig::rcb(1, 256 << 10, 8));
    ASSERT_EQ(writer.connect(&be), Status::Ok);
    HashTable wht;
    ASSERT_EQ(HashTable::create(writer, 1, "stress", 64, &wht, shared),
              Status::Ok);
    // Invariant: table[k] is always k * f for some generation f >= 1.
    for (uint64_t k = 1; k <= 32; ++k)
        ASSERT_EQ(wht.put(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(writer.flushAll(), Status::Ok);

    std::atomic<bool> stop{false};
    std::atomic<uint64_t> bad_reads{0};
    std::vector<std::thread> readers;
    std::vector<std::unique_ptr<FrontendSession>> sessions;
    std::vector<std::unique_ptr<HashTable>> tables;
    for (int r = 0; r < 3; ++r) {
        sessions.push_back(std::make_unique<FrontendSession>(
            SessionConfig::rc(10 + r, 256 << 10)));
        ASSERT_EQ(sessions.back()->connect(&be), Status::Ok);
        tables.push_back(std::make_unique<HashTable>());
        ASSERT_EQ(HashTable::open(*sessions.back(), 1, "stress",
                                  tables.back().get(), shared),
                  Status::Ok);
    }
    for (int r = 0; r < 3; ++r) {
        readers.emplace_back([&, r] {
            Rng rng(100 + r);
            while (!stop.load(std::memory_order_relaxed)) {
                const uint64_t k = 1 + rng.nextBounded(32);
                Value v;
                const Status st = tables[r]->get(k, &v);
                if (st == Status::Conflict)
                    continue; // writer too hot; retry later
                if (st != Status::Ok || v.asU64() % k != 0 ||
                    v.asU64() == 0) {
                    bad_reads.fetch_add(1);
                }
            }
        });
    }
    // Writer: bump every key through generations k, 2k, 3k, ...
    for (uint64_t gen = 2; gen <= 40; ++gen) {
        for (uint64_t k = 1; k <= 32; ++k)
            ASSERT_EQ(wht.put(k, Value::ofU64(k * gen)), Status::Ok);
    }
    ASSERT_EQ(writer.flushAll(), Status::Ok);
    stop.store(true);
    for (auto &t : readers)
        t.join();
    EXPECT_EQ(bad_reads.load(), 0u)
        << "a reader saw a value violating the generation invariant";
}

TEST(ReplicationPropertyTest, MirrorMatchesBackendRecoveryRegions)
{
    BackendConfig cfg = testConfig();
    BackendNode be(1, cfg);
    MirrorNode mirror(50, cfg.nvm_size);
    be.addMirror(&mirror);

    FrontendSession s(SessionConfig::rcb(1, 256 << 10, 16));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    BpTree tree;
    ASSERT_EQ(BpTree::create(s, 1, "rep", &tree), Status::Ok);
    Rng rng(5);
    for (int i = 0; i < 2000; ++i) {
        const Key k = 1 + rng.nextBounded(500);
        if (rng.nextBool(0.75))
            ASSERT_EQ(tree.insert(k, Value::ofU64(rng.next())),
                      Status::Ok);
        else
            (void)tree.erase(k);
    }
    ASSERT_EQ(s.flushAll(), Status::Ok);

    // Every recovery-relevant region must be byte-identical. (The RPC
    // response rings are volatile scratch; ring skip-padding markers are
    // not shipped. Data, naming, bitmap and control state must match.)
    const Layout &lay = be.layout();
    auto compareRegion = [&](uint64_t off, uint64_t len,
                             const char *what) {
        std::vector<uint8_t> a(len), b(len);
        be.nvm().read(off, a.data(), len);
        mirror.device().read(off, b.data(), len);
        EXPECT_EQ(a, b) << what << " diverged";
    };
    compareRegion(lay.super.naming_off,
                  cfg.max_names * sizeof(NamingEntry), "naming space");
    compareRegion(lay.super.bitmap_off, lay.super.bitmap_bytes,
                  "allocation bitmap");
    compareRegion(lay.dataOff(), lay.dataEnd() - lay.dataOff(),
                  "data area");
    for (uint32_t slot = 0; slot < cfg.max_frontends; ++slot)
        compareRegion(lay.logControlOff(slot), sizeof(LogControl),
                      "log control block");
}

TEST(RingWrapTest, OpLogWrapSurvivesBackendRestart)
{
    BackendConfig cfg = testConfig();
    cfg.oplog_ring_size = 8ull << 10; // wraps every ~70 records
    cfg.memlog_ring_size = 64ull << 10;
    auto be = std::make_unique<BackendNode>(1, cfg);
    FrontendSession s(SessionConfig::rcb(1, 256 << 10, /*batch=*/512));
    ASSERT_EQ(s.connect(be.get()), Status::Ok);
    HashTable ht;
    ASSERT_EQ(HashTable::create(s, 1, "wrap", 64, &ht), Status::Ok);
    ASSERT_EQ(s.flushAll(), Status::Ok);
    // Enough un-flushed ops to wrap the op-log ring several times is NOT
    // allowed (the window must fit); instead wrap it across multiple
    // committed batches, then leave a modest uncovered tail.
    for (int round = 0; round < 10; ++round) {
        for (uint64_t k = 0; k < 40; ++k)
            ASSERT_EQ(ht.put(round * 100 + k, Value::ofU64(k)),
                      Status::Ok);
        ASSERT_EQ(s.flushAll(), Status::Ok);
    }
    for (uint64_t k = 0; k < 30; ++k)
        ASSERT_EQ(ht.put(5000 + k, Value::ofU64(k + 1)), Status::Ok);
    // Back-end restarts; the wrapped ring must rescan cleanly.
    auto device = be->device();
    be = std::make_unique<BackendNode>(1, cfg, device);
    s.simulateCrash();
    ASSERT_EQ(s.failover(1, be.get()), Status::Ok);
    HashTable re;
    ASSERT_EQ(HashTable::open(s, 1, "wrap", &re), Status::Ok);
    ASSERT_EQ(s.recover(), Status::Ok);
    HashTable audit;
    ASSERT_EQ(HashTable::open(s, 1, "wrap", &audit), Status::Ok);
    for (uint64_t k = 0; k < 30; ++k) {
        Value v;
        ASSERT_EQ(audit.get(5000 + k, &v), Status::Ok)
            << "uncovered op " << k << " lost across the wrap";
        EXPECT_EQ(v.asU64(), k + 1);
    }
}

TEST(RpcEdgeTest, OversizedPayloadRejected)
{
    BackendNode be(1, testConfig());
    FrontendSession s(SessionConfig::r(1));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    RfpRpc rpc(&s.verbs(), &be, 0);
    std::vector<uint8_t> huge(be.layout().super.rpc_ring_size + 1);
    uint64_t args[1] = {0};
    EXPECT_EQ(rpc.call(RpcOp::Retire, args, huge, nullptr),
              Status::InvalidArgument);
}

TEST(RpcEdgeTest, UnknownOpReturnsInvalidArgument)
{
    BackendNode be(1, testConfig());
    FrontendSession s(SessionConfig::r(1));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    RfpRpc rpc(&s.verbs(), &be, 0);
    uint64_t args[1] = {0};
    uint64_t rets[4];
    EXPECT_EQ(rpc.call(static_cast<RpcOp>(77), args, {}, rets),
              Status::InvalidArgument);
}

/**
 * The one RPC dispatch (BackendNode::serveRpc, behind handleRpc and the
 * symmetric session's local call) accepts a Retire only when the payload
 * holds exactly `count` {off, nblocks} pairs, including a count whose
 * byte length would wrap.
 */
TEST(RpcEdgeTest, RetirePayloadMustMatchCount)
{
    BackendNode be(1, testConfig());
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x77, DsType::MvBst, &ds), Status::Ok);
    const uint64_t pair[2] = {4096, 1};
    std::vector<uint8_t> one(sizeof(pair));
    std::memcpy(one.data(), pair, sizeof(pair));
    const uint64_t wrapping = 1ull << 60; // 16 * 2^60 wraps to 0
    for (const uint64_t count : {uint64_t{2}, uint64_t{0}, wrapping}) {
        const uint64_t args[3] = {ds, count, 0};
        const std::span<const uint8_t> payload =
            count == wrapping ? std::span<const uint8_t>() : one;
        EXPECT_EQ(be.serveRpc(RpcOp::Retire, args, payload, nullptr, 0),
                  Status::InvalidArgument)
            << count;
    }
    const uint64_t args[3] = {ds, 1, 0};
    EXPECT_EQ(be.serveRpc(RpcOp::Retire, args, one, nullptr, 0),
              Status::Ok);
}

TEST(RpcEdgeTest, GarbageRequestRingDetected)
{
    BackendNode be(1, testConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(9, &slot), Status::Ok);
    uint8_t junk[64];
    std::memset(junk, 0xee, sizeof(junk));
    be.nvm().write(be.layout().rpcReqRingOff(slot), junk, sizeof(junk));
    be.nvm().persist();
    EXPECT_EQ(be.handleRpc(slot), Status::Corruption);
}

TEST(PartitionedFailoverTest, OneBackendOfSeveralFailsOver)
{
    ClusterConfig ccfg;
    ccfg.num_backends = 3;
    ccfg.mirrors_per_backend = 1;
    ccfg.backend = testConfig();
    Cluster cluster(ccfg);
    auto s = cluster.makeSession(SessionConfig::rcb(1, 256 << 10, 8));
    ASSERT_NE(s, nullptr);

    const auto ids = cluster.backendIds();
    Partitioned<BpTree> part;
    ASSERT_EQ(Partitioned<BpTree>::create(
                  *s, ids, "pf", 3, &part,
                  [](FrontendSession &sess, NodeId be,
                     std::string_view name, BpTree *out) {
                      return BpTree::create(sess, be, name, out);
                  }),
              Status::Ok);
    for (uint64_t k = 1; k <= 300; ++k)
        ASSERT_EQ(part.insert(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);

    // Kill back-end 2 permanently; its mirror takes over.
    cluster.crashBackendTransient(2);
    ASSERT_EQ(cluster.failBackendPermanently(2, s->clock().now()),
              Status::Ok);
    ASSERT_EQ(s->failover(2, cluster.backend(2)), Status::Ok);

    // Partitions must be re-opened (handles bind to the new node).
    Partitioned<BpTree> reopened;
    ASSERT_EQ(Partitioned<BpTree>::open(
                  *s, ids, "pf", &reopened,
                  [](FrontendSession &sess, NodeId be,
                     std::string_view name, BpTree *out) {
                      return BpTree::open(sess, be, name, out);
                  }),
              Status::Ok);
    for (uint64_t k = 1; k <= 300; ++k) {
        Value v;
        ASSERT_EQ(reopened.find(k, &v), Status::Ok) << "key " << k;
        EXPECT_EQ(v.asU64(), k);
    }
}

TEST(AppCrashTest, SmallBankConservesMoneyAcrossRandomCrash)
{
    for (uint64_t seed = 1; seed <= 4; ++seed) {
        Cluster cluster([&] {
            ClusterConfig c;
            c.num_backends = 1;
            c.mirrors_per_backend = 1;
            c.backend = testConfig();
            return c;
        }());
        auto s = cluster.makeSession(
            SessionConfig::rcb(20 + seed, 256 << 10, 32));
        ASSERT_NE(s, nullptr);
        SmallBank bank;
        ASSERT_EQ(SmallBank::create(*s, 1, 200, &bank), Status::Ok);
        int64_t opening = 0;
        ASSERT_EQ(bank.totalAssets(&opening), Status::Ok);

        Rng rng(seed);
        cluster.backend(1)->failure().armCrashAfterVerbs(
            300 + rng.nextBounded(1500), seed);
        // Transfer-only traffic (fixed amount 2): assets are invariant
        // up to the framework's atomicity granularity — recovery is
        // per *operation* (per op log), so the single transaction in
        // flight at the crash may be half-applied: at most one debit
        // of 2 can go missing.
        bool crashed = false;
        for (int i = 0; i < 20000 && !crashed; ++i) {
            const uint64_t a = 1 + rng.nextBounded(200);
            uint64_t b = 1 + rng.nextBounded(200);
            if (a == b)
                b = b % 200 + 1;
            crashed = bank.sendPayment(a, b, 2) == Status::BackendCrashed;
        }
        ASSERT_TRUE(crashed) << "seed " << seed;

        cluster.backend(1)->nvm().crash();
        ASSERT_EQ(cluster.restartBackend(1), Status::Ok);
        s->simulateCrash();
        ASSERT_EQ(s->failover(1, cluster.backend(1)), Status::Ok);
        SmallBank re;
        ASSERT_EQ(SmallBank::open(*s, 1, &re), Status::Ok);
        ASSERT_EQ(s->recover(), Status::Ok);
        SmallBank audit;
        ASSERT_EQ(SmallBank::open(*s, 1, &audit), Status::Ok);
        int64_t closing = 0;
        ASSERT_EQ(audit.totalAssets(&closing), Status::Ok);
        EXPECT_GE(closing, opening - 2)
            << "lost more than the in-flight debit (seed " << seed << ")";
        EXPECT_LE(closing, opening)
            << "money invented across crash (seed " << seed << ")";
    }
}

} // namespace
} // namespace asymnvm
