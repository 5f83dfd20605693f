/**
 * @file
 * Failure-aware Partitioned<DS> (DESIGN.md §12): per-shard health over a
 * transparent-failover cluster. Operations routed to a shard whose
 * back-end died fast-fail with Unavailable — no 10ms-class stall — while
 * the surviving k-1 shards keep serving; dead shards re-attach through
 * the session's non-blocking heal path once a promoted incarnation
 * serves; reads may be answered from a degraded source during the
 * outage; open() survives a dead coordinator back-end because the
 * coordinator entry is replicated into every back-end's namespace.
 */

#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cluster/cluster.h"
#include "ds/hash_table.h"
#include "ds/partitioned.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

constexpr uint32_t kBackends = 3;
constexpr uint32_t kParts = 3;

ClusterConfig
partClusterConfig()
{
    ClusterConfig cfg;
    cfg.num_backends = kBackends;
    cfg.mirrors_per_backend = 2;
    cfg.backend.nvm_size = 16ull << 20;
    cfg.backend.max_frontends = 4;
    cfg.backend.max_names = 16;
    cfg.backend.memlog_ring_size = 256ull << 10;
    cfg.backend.oplog_ring_size = 256ull << 10;
    cfg.transparent_failover = true;
    return cfg;
}

Partitioned<HashTable>::MakeFn
makeHash()
{
    return [](FrontendSession &sess, NodeId be, std::string_view name,
              HashTable *out) {
        return HashTable::create(sess, be, name, 64, out);
    };
}

Partitioned<HashTable>::MakeFn
openHash()
{
    return [](FrontendSession &sess, NodeId be, std::string_view name,
              HashTable *out) {
        return HashTable::open(sess, be, name, out);
    };
}

struct Fixture
{
    Cluster cluster{partClusterConfig()};
    std::unique_ptr<FrontendSession> s;
    Partitioned<HashTable> part;
    std::map<Key, uint64_t> shadow;

    Fixture()
    {
        s = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 16));
        EXPECT_NE(s, nullptr);
        const auto ids = cluster.backendIds();
        EXPECT_EQ(Partitioned<HashTable>::create(*s, ids, "pfo", kParts,
                                                 &part, makeHash()),
                  Status::Ok);
        for (Key k = 1; k <= 90; ++k) {
            EXPECT_EQ(part.insert(k, Value::ofU64(k * 11)), Status::Ok);
            shadow[k] = k * 11;
        }
        EXPECT_EQ(s->flushAll(), Status::Ok);
        // Tests probe dead shards with reads; start them from a cold
        // cache, or the write-allocated items would answer locally.
        s->cache().clear();
    }

    /** Keys owned by the shard homed on @p be / not homed on it. */
    Key keyOn(NodeId be) const
    {
        for (Key k = 1;; ++k) {
            if (part.shardBackend(part.shardForKey(k)) == be)
                return k;
        }
    }
    Key keyNotOn(NodeId be) const
    {
        for (Key k = 1;; ++k) {
            if (part.shardBackend(part.shardForKey(k)) != be)
                return k;
        }
    }

    void renewAll(bool include_primary2 = true)
    {
        const uint64_t now = s->clock().now();
        for (const NodeId id : cluster.backendIds()) {
            if (id != 2 || include_primary2)
                cluster.keepAlive().renew(id, now);
            for (MirrorNode *m : cluster.mirrorsOf(id))
                cluster.keepAlive().renew(m->id(), now);
        }
    }

    /** Jump virtual time past node 2's lease, keeping everyone else's
     *  keepalive current. */
    void jumpPastLeaseOf2()
    {
        const uint64_t lease = cluster.keepAlive().leaseNs();
        for (int step = 0; step < 3; ++step) {
            s->clock().advance(lease / 2 + 1);
            renewAll(/*include_primary2=*/false);
        }
    }
};

TEST(PartitionedFailoverTest, DeadShardFastFailsWhileSiblingsServe)
{
    Fixture f;
    f.renewAll();
    const Key dead_key = f.keyOn(2);
    const Key live_key = f.keyNotOn(2);
    f.cluster.condemnBackend(2);

    // First op on the dead shard discovers the failure (FailingOver);
    // the next op's probe confirms the back-end is down and the shard
    // settles Degraded — every op fast-fails, no failover stall.
    Value v;
    EXPECT_EQ(f.part.find(dead_key, &v), Status::Unavailable);
    const uint32_t dead_idx = f.part.shardForKey(dead_key);
    EXPECT_EQ(f.part.shardHealth(dead_idx), ShardHealth::FailingOver);

    const uint64_t t0 = f.s->clock().now();
    for (int i = 0; i < 8; ++i)
        EXPECT_EQ(f.part.insert(dead_key, Value::ofU64(1)),
                  Status::Unavailable);
    EXPECT_EQ(f.part.shardHealth(dead_idx), ShardHealth::Degraded);
    EXPECT_LT(f.s->clock().now() - t0, f.cluster.keepAlive().leaseNs())
        << "a degraded shard must fast-fail, not ride the full "
           "failover wait";
    EXPECT_GE(f.part.unavailableOps(), 9u);

    // The surviving shards keep serving reads and writes throughout.
    ASSERT_EQ(f.part.find(live_key, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), f.shadow[live_key]);
    EXPECT_EQ(f.part.insert(live_key, Value::ofU64(7)), Status::Ok);
    EXPECT_EQ(f.part.erase(live_key), Status::Ok);
    for (uint32_t i = 0; i < kParts; ++i) {
        if (i != dead_idx) {
            EXPECT_EQ(f.part.shardHealth(i), ShardHealth::Healthy);
        }
    }
}

TEST(PartitionedFailoverTest, DegradedShardReattachesAfterPromotion)
{
    Fixture f;
    f.renewAll();
    const Key dead_key = f.keyOn(2);
    f.cluster.condemnBackend(2);
    Value v;
    EXPECT_EQ(f.part.find(dead_key, &v), Status::Unavailable);

    // Lease lapses; the re-attach probes drive the promotion claim to
    // completion (claim on the first probe, complete on the next), then
    // the shard rejoins.
    f.jumpPastLeaseOf2();
    uint32_t serving = 0;
    for (int tick = 0; tick < 4 && serving < kParts; ++tick)
        serving = f.part.tickHealth();
    EXPECT_EQ(serving, kParts);
    EXPECT_EQ(f.cluster.slotEpoch(2), 2u) << "exactly one promotion";

    // The rejoined shard serves the data it held before the failure —
    // promotion recovered it from the mirror replica.
    for (const auto &[k, want] : f.shadow) {
        ASSERT_EQ(f.part.find(k, &v), Status::Ok) << "key " << k;
        EXPECT_EQ(v.asU64(), want);
    }
    EXPECT_EQ(f.part.insert(dead_key, Value::ofU64(123)), Status::Ok);
}

TEST(PartitionedFailoverTest, DegradedReadServesWhileShardIsDown)
{
    Fixture f;
    f.renewAll();
    const Key dead_key = f.keyOn(2);
    f.part.setDegradedRead([&f](uint32_t, Key k, Value *out) {
        const auto it = f.shadow.find(k);
        if (it == f.shadow.end())
            return Status::NotFound;
        *out = Value::ofU64(it->second);
        return Status::Ok;
    });
    f.cluster.condemnBackend(2);

    // Reads of the dead shard come from the degraded source; writes
    // still refuse (the degraded mode is read-only by construction).
    Value v;
    ASSERT_EQ(f.part.find(dead_key, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), f.shadow[dead_key]);
    EXPECT_EQ(f.part.insert(dead_key, Value::ofU64(5)),
              Status::Unavailable);
}

TEST(PartitionedFailoverTest, DetachedShardStaysDetached)
{
    Fixture f;
    f.renewAll();
    const Key key = f.keyOn(3);
    const uint32_t idx = f.part.shardForKey(key);
    f.part.detachShard(idx);
    Value v;
    EXPECT_EQ(f.part.find(key, &v), Status::Unavailable);
    EXPECT_EQ(f.part.insert(key, Value::ofU64(1)), Status::Unavailable);
    // Health ticks never resurrect an administratively detached shard.
    EXPECT_EQ(f.part.tickHealth(), kParts - 1);
    EXPECT_EQ(f.part.shardHealth(idx), ShardHealth::Detached);
}

TEST(PartitionedFailoverTest, OpenSurvivesDeadCoordinatorBackend)
{
    Cluster cluster(partClusterConfig());
    auto writer = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 16));
    ASSERT_NE(writer, nullptr);
    const auto ids = cluster.backendIds();
    Partitioned<HashTable> created;
    ASSERT_EQ(Partitioned<HashTable>::create(*writer, ids, "pcoord",
                                             kParts, &created,
                                             makeHash()),
              Status::Ok);
    for (Key k = 1; k <= 30; ++k)
        ASSERT_EQ(created.insert(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(writer->flushAll(), Status::Ok);

    // Node 1 — the coordinator home in a non-replicated design — dies
    // for good. The entry's replicas on nodes 2 and 3 still serve it.
    const uint64_t now = writer->clock().now();
    for (const NodeId id : ids) {
        cluster.keepAlive().renew(id, now);
        for (MirrorNode *m : cluster.mirrorsOf(id))
            cluster.keepAlive().renew(m->id(), now);
    }
    cluster.condemnBackend(1);

    auto reader = cluster.makeSession(SessionConfig::rcb(1, 1 << 20, 16));
    ASSERT_NE(reader, nullptr);
    Partitioned<HashTable> reopened;
    ASSERT_EQ(Partitioned<HashTable>::open(*reader, ids, "pcoord",
                                           &reopened, openHash()),
              Status::Ok);
    ASSERT_EQ(reopened.partitionCount(), kParts);

    // Shards homed on the dead node opened degraded; the rest serve.
    uint32_t degraded = 0;
    for (uint32_t i = 0; i < kParts; ++i) {
        if (reopened.shardBackend(i) == 1) {
            EXPECT_EQ(reopened.shardHealth(i), ShardHealth::Degraded);
            ++degraded;
        } else {
            EXPECT_EQ(reopened.shardHealth(i), ShardHealth::Healthy);
        }
    }
    EXPECT_GE(degraded, 1u);
    for (Key k = 1; k <= 30; ++k) {
        const uint32_t idx = reopened.shardForKey(k);
        Value v;
        if (reopened.shardBackend(idx) == 1) {
            EXPECT_EQ(reopened.find(k, &v), Status::Unavailable);
        } else {
            ASSERT_EQ(reopened.find(k, &v), Status::Ok) << "key " << k;
            EXPECT_EQ(v.asU64(), k);
        }
    }
}

} // namespace
} // namespace asymnvm
