/**
 * @file
 * End-to-end tests of the recovery and replication protocol (Section 7):
 * the keepAlive lease service, and crash scenarios Cases 1-5 — front-end
 * reader/writer crashes, back-end transient restart, back-end permanent
 * failure with mirror promotion, and mirror crashes — driven through the
 * Cluster harness with real data structures on top.
 */

#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

ClusterConfig
smallCluster(uint32_t backends = 1, uint32_t mirrors = 2)
{
    ClusterConfig cfg;
    cfg.num_backends = backends;
    cfg.mirrors_per_backend = mirrors;
    cfg.backend.nvm_size = 16ull << 20;
    cfg.backend.max_frontends = 4;
    cfg.backend.max_names = 16;
    cfg.backend.memlog_ring_size = 256ull << 10;
    cfg.backend.oplog_ring_size = 256ull << 10;
    return cfg;
}

// ---------------------------------------------------------------------
// KeepAlive service
// ---------------------------------------------------------------------

TEST(KeepAliveTest, LeaseExpiryDetectsCrash)
{
    KeepAliveService ka(1000);
    ka.join(1, NodeRole::BackEnd, 0);
    EXPECT_TRUE(ka.isAlive(1, 500));
    EXPECT_TRUE(ka.renew(1, 900));
    EXPECT_TRUE(ka.isAlive(1, 1500));
    EXPECT_FALSE(ka.isAlive(1, 2500));
}

TEST(KeepAliveTest, LapsedNodeCannotResurrect)
{
    KeepAliveService ka(1000);
    ka.join(2, NodeRole::FrontEnd, 0);
    EXPECT_FALSE(ka.renew(2, 5000)) << "expired lease cannot renew";
    EXPECT_FALSE(ka.isAlive(2, 5001));
}

TEST(KeepAliveTest, ExpiredListsOnlyDeadNodes)
{
    KeepAliveService ka(1000);
    ka.join(1, NodeRole::BackEnd, 0);
    ka.join(2, NodeRole::Mirror, 0);
    ka.renew(1, 800);
    const auto dead = ka.expired(1500);
    ASSERT_EQ(dead.size(), 1u);
    EXPECT_EQ(dead[0], 2);
}

TEST(KeepAliveTest, VotePrefersLiveNvmMirror)
{
    KeepAliveService ka(1000);
    ka.join(1, NodeRole::BackEnd, 0);
    ka.join(100, NodeRole::Mirror, 0, /*has_nvm=*/false, /*of=*/1);
    ka.join(101, NodeRole::Mirror, 0, /*has_nvm=*/true, /*of=*/1);
    const auto winner = ka.voteReplacement(1, 500);
    ASSERT_TRUE(winner.has_value());
    EXPECT_EQ(*winner, 101) << "only NVM mirrors are promotable";
}

TEST(KeepAliveTest, NoCandidateNoWinner)
{
    KeepAliveService ka(1000);
    ka.join(1, NodeRole::BackEnd, 0);
    EXPECT_FALSE(ka.voteReplacement(1, 0).has_value());
}

TEST(KeepAliveTest, RenewExactlyAtExpirySucceeds)
{
    // The lease is inclusive of its deadline: renewing at now ==
    // lease_until is still in time; one tick later it is not.
    KeepAliveService ka(1000);
    ka.join(1, NodeRole::BackEnd, 0);
    EXPECT_TRUE(ka.isAlive(1, 1000));
    EXPECT_TRUE(ka.renew(1, 1000)) << "deadline itself is still alive";
    EXPECT_TRUE(ka.isAlive(1, 2000));
    EXPECT_FALSE(ka.renew(1, 2001)) << "one tick past the lease is dead";
}

TEST(KeepAliveTest, RejoinAfterEvictionRestoresLease)
{
    KeepAliveService ka(1000);
    ka.join(3, NodeRole::BackEnd, 0);
    EXPECT_FALSE(ka.renew(3, 5000)) << "lapses and is evicted";
    EXPECT_FALSE(ka.isAlive(3, 5000));
    // A restarted node re-registers: join overwrites the evicted member
    // with a fresh lease (Case 3 restart path).
    ka.join(3, NodeRole::BackEnd, 6000);
    EXPECT_TRUE(ka.isAlive(3, 6500));
    EXPECT_TRUE(ka.renew(3, 6500));
}

TEST(KeepAliveTest, VoteIgnoresDramOnlyMirrors)
{
    KeepAliveService ka(1000);
    ka.join(1, NodeRole::BackEnd, 0);
    ka.join(100, NodeRole::Mirror, 0, /*has_nvm=*/false, /*of=*/1);
    ka.join(101, NodeRole::Mirror, 0, /*has_nvm=*/false, /*of=*/1);
    EXPECT_FALSE(ka.voteReplacement(1, 500).has_value())
        << "DRAM-only mirrors cannot become the back-end";
}

TEST(KeepAliveTest, LeaveThenRejoinSameIdGetsFreshLease)
{
    KeepAliveService ka(1000);
    ka.join(7, NodeRole::Mirror, 0, /*has_nvm=*/true, /*of=*/1);
    ka.leave(7);
    EXPECT_FALSE(ka.isAlive(7, 100));
    EXPECT_EQ(ka.memberCount(), 0u);
    ka.join(7, NodeRole::Mirror, 4000, /*has_nvm=*/true, /*of=*/1);
    EXPECT_TRUE(ka.isAlive(7, 4500));
    ka.join(1, NodeRole::BackEnd, 4000);
    const auto winner = ka.voteReplacement(1, 4500);
    ASSERT_TRUE(winner.has_value());
    EXPECT_EQ(*winner, 7u) << "a re-joined mirror is promotable again";
}

// ---------------------------------------------------------------------
// Full-cluster crash scenarios
// ---------------------------------------------------------------------

TEST(ClusterTest, Case1FrontendReaderCrashResumesViaNaming)
{
    Cluster cluster(smallCluster());
    auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 16));
    ASSERT_NE(s, nullptr);
    BpTree tree;
    ASSERT_EQ(BpTree::create(*s, 1, "t", &tree), Status::Ok);
    for (uint64_t k = 1; k <= 50; ++k)
        ASSERT_EQ(tree.insert(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);

    // Reader crash: nothing in flight; re-open via naming and resume.
    s->simulateCrash();
    ASSERT_EQ(s->recover(), Status::Ok);
    BpTree reopened;
    ASSERT_EQ(BpTree::open(*s, 1, "t", &reopened), Status::Ok);
    Value v;
    ASSERT_EQ(reopened.find(25, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), 25u);
}

TEST(ClusterTest, Case2FrontendWriterCrashMidBatch)
{
    Cluster cluster(smallCluster());
    auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 64));
    ASSERT_NE(s, nullptr);
    HashTable ht;
    ASSERT_EQ(HashTable::create(*s, 1, "h", 64, &ht), Status::Ok);
    for (uint64_t k = 1; k <= 30; ++k)
        ASSERT_EQ(ht.put(k, Value::ofU64(k * 5)), Status::Ok);
    // Crash with 30 ops durable only as operation logs (Case 2.c).
    s->simulateCrash();
    HashTable recovered;
    ASSERT_EQ(HashTable::open(*s, 1, "h", &recovered), Status::Ok);
    ASSERT_EQ(s->recover(), Status::Ok);
    HashTable verify;
    ASSERT_EQ(HashTable::open(*s, 1, "h", &verify), Status::Ok);
    for (uint64_t k = 1; k <= 30; ++k) {
        Value v;
        ASSERT_EQ(verify.get(k, &v), Status::Ok) << "key " << k;
        EXPECT_EQ(v.asU64(), k * 5);
    }
}

TEST(ClusterTest, Case3BackendTransientRestart)
{
    Cluster cluster(smallCluster());
    auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 8));
    ASSERT_NE(s, nullptr);
    BpTree tree;
    ASSERT_EQ(BpTree::create(*s, 1, "t", &tree), Status::Ok);
    for (uint64_t k = 1; k <= 40; ++k)
        ASSERT_EQ(tree.insert(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    // Probe from a cold cache: the session write-allocated every node it
    // created, so a warm find would never reach the back-end.
    s->cache().clear();

    // The back-end dies; verbs fail through the RNIC feedback.
    cluster.crashBackendTransient(1);
    Value v;
    EXPECT_EQ(tree.find(1, &v), Status::BackendCrashed);

    // It restarts from its own NVM; the session fails over to the new
    // incarnation (same node id) and resumes.
    ASSERT_EQ(cluster.restartBackend(1), Status::Ok);
    ASSERT_EQ(s->failover(1, cluster.backend(1)), Status::Ok);
    BpTree reopened;
    ASSERT_EQ(BpTree::open(*s, 1, "t", &reopened), Status::Ok);
    for (uint64_t k = 1; k <= 40; ++k) {
        ASSERT_EQ(reopened.find(k, &v), Status::Ok) << "key " << k;
        EXPECT_EQ(v.asU64(), k);
    }
    // And it keeps serving writes.
    ASSERT_EQ(reopened.insert(41, Value::ofU64(41)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    ASSERT_EQ(reopened.find(41, &v), Status::Ok);
}

TEST(ClusterTest, Case4PermanentFailurePromotesMirror)
{
    Cluster cluster(smallCluster());
    auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 8));
    ASSERT_NE(s, nullptr);
    BpTree tree;
    ASSERT_EQ(BpTree::create(*s, 1, "t", &tree), Status::Ok);
    for (uint64_t k = 1; k <= 60; ++k)
        ASSERT_EQ(tree.insert(k, Value::ofU64(k * 2)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);

    BackendNode *old = cluster.backend(1);
    cluster.crashBackendTransient(1);
    ASSERT_EQ(cluster.failBackendPermanently(1, /*now=*/1000),
              Status::Ok);
    BackendNode *promoted = cluster.backend(1);
    ASSERT_NE(promoted, old);
    EXPECT_EQ(promoted->id(), 1) << "promotion keeps the node id";

    ASSERT_EQ(s->failover(1, promoted), Status::Ok);
    BpTree reopened;
    ASSERT_EQ(BpTree::open(*s, 1, "t", &reopened), Status::Ok);
    EXPECT_EQ(reopened.size(), 60u);
    for (uint64_t k = 1; k <= 60; ++k) {
        Value v;
        ASSERT_EQ(reopened.find(k, &v), Status::Ok) << "key " << k;
        EXPECT_EQ(v.asU64(), k * 2);
    }
    // The promoted back-end accepts new writes and replicates onward.
    ASSERT_EQ(reopened.insert(61, Value::ofU64(122)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
}

TEST(ClusterTest, Case4WithUnflushedOpsReexecutesThem)
{
    Cluster cluster(smallCluster());
    auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 128));
    ASSERT_NE(s, nullptr);
    HashTable ht;
    ASSERT_EQ(HashTable::create(*s, 1, "h", 64, &ht), Status::Ok);
    for (uint64_t k = 1; k <= 20; ++k)
        ASSERT_EQ(ht.put(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    // These ops reach the op log (replicated) but not the data area.
    for (uint64_t k = 21; k <= 40; ++k)
        ASSERT_EQ(ht.put(k, Value::ofU64(k)), Status::Ok);

    cluster.crashBackendTransient(1);
    ASSERT_EQ(cluster.failBackendPermanently(1, 1000), Status::Ok);
    s->simulateCrash(); // the writer also loses its buffers
    ASSERT_EQ(s->failover(1, cluster.backend(1)), Status::Ok);

    HashTable recovered;
    ASSERT_EQ(HashTable::open(*s, 1, "h", &recovered), Status::Ok);
    ASSERT_EQ(s->recover(), Status::Ok);
    HashTable verify;
    ASSERT_EQ(HashTable::open(*s, 1, "h", &verify), Status::Ok);
    for (uint64_t k = 1; k <= 40; ++k) {
        Value v;
        ASSERT_EQ(verify.get(k, &v), Status::Ok)
            << "key " << k << " lost across promotion";
    }
}

TEST(ClusterTest, Case5MirrorCrashLeavesServiceIntact)
{
    Cluster cluster(smallCluster(1, 2));
    auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 8));
    ASSERT_NE(s, nullptr);
    BpTree tree;
    ASSERT_EQ(BpTree::create(*s, 1, "t", &tree), Status::Ok);
    ASSERT_EQ(tree.insert(1, Value::ofU64(1)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);

    cluster.crashMirror(1, 0, 500);
    ASSERT_EQ(cluster.mirrorsOf(1).size(), 1u);
    // Service continues; the surviving mirror still replicates.
    ASSERT_EQ(tree.insert(2, Value::ofU64(2)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    // And the surviving mirror can still take over (Case 4).
    cluster.crashBackendTransient(1);
    ASSERT_EQ(cluster.failBackendPermanently(1, 1000), Status::Ok);
    ASSERT_EQ(s->failover(1, cluster.backend(1)), Status::Ok);
    BpTree reopened;
    ASSERT_EQ(BpTree::open(*s, 1, "t", &reopened), Status::Ok);
    Value v;
    ASSERT_EQ(reopened.find(2, &v), Status::Ok);
}

TEST(ClusterTest, TornCommitDetectedAfterCrashMidFlush)
{
    Cluster cluster(smallCluster());
    auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 512));
    ASSERT_NE(s, nullptr);
    BackendNode *be = cluster.backend(1);
    HashTable ht;
    ASSERT_EQ(HashTable::create(*s, 1, "h", 64, &ht), Status::Ok);
    for (uint64_t k = 1; k <= 25; ++k)
        ASSERT_EQ(ht.put(k, Value::ofU64(k)), Status::Ok);

    // Crash the back-end on the very next verb: the flush's transaction
    // write tears mid-flight; the checksum end mark must catch it.
    be->failure().armCrashAfterVerbs(0, /*seed=*/5);
    EXPECT_NE(s->flushAll(), Status::Ok);
    be->nvm().crash();

    ASSERT_EQ(cluster.restartBackend(1), Status::Ok);
    s->simulateCrash();
    ASSERT_EQ(s->failover(1, cluster.backend(1)), Status::Ok);
    HashTable recovered;
    ASSERT_EQ(HashTable::open(*s, 1, "h", &recovered), Status::Ok);
    ASSERT_EQ(s->recover(), Status::Ok);
    HashTable verify;
    ASSERT_EQ(HashTable::open(*s, 1, "h", &verify), Status::Ok);
    for (uint64_t k = 1; k <= 25; ++k) {
        Value v;
        ASSERT_EQ(verify.get(k, &v), Status::Ok)
            << "key " << k << " lost to the torn transaction";
        EXPECT_EQ(v.asU64(), k);
    }
}

TEST(ClusterTest, MultiBackendClusterServesPartitions)
{
    Cluster cluster(smallCluster(3, 1));
    auto s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 8));
    ASSERT_NE(s, nullptr);
    ASSERT_EQ(cluster.backendIds().size(), 3u);
    // One structure per back-end, all reachable from one session.
    for (NodeId id : cluster.backendIds()) {
        BpTree tree;
        ASSERT_EQ(BpTree::create(*s, id, "t", &tree), Status::Ok);
        ASSERT_EQ(tree.insert(id, Value::ofU64(id * 10)), Status::Ok);
        ASSERT_EQ(s->flushAll(), Status::Ok);
        Value v;
        ASSERT_EQ(tree.find(id, &v), Status::Ok);
        EXPECT_EQ(v.asU64(), id * 10u);
    }
}

} // namespace
} // namespace asymnvm
