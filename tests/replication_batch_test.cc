/**
 * @file
 * Group-commit replication batching (Section 7.1): the back-end ships one
 * coalesced byte-range batch — with ONE mirror persist — per committed
 * transaction instead of persisting every mutation individually; the
 * batch travels strictly before the commit ack; a mirror crash mid-batch
 * rolls the partial batch back to the last transaction boundary, keeping
 * the replica promotable; and transient-faulted transfers retry under the
 * kRetry constants instead of wedging the commit (retry exhaustion
 * detaches the mirror, Case 5).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <vector>

#include "backend/backend_node.h"
#include "cluster/mirror.h"
#include "ds/hash_table.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

BackendConfig
testConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 16ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 16;
    cfg.memlog_ring_size = 256ull << 10;
    cfg.oplog_ring_size = 256ull << 10;
    cfg.block_size = 1024;
    return cfg;
}

/** Full byte-level comparison of the back-end device and a replica. */
bool
devicesIdentical(const NvmDevice &a, const NvmDevice &b)
{
    if (a.size() != b.size())
        return false;
    std::vector<uint8_t> ba(a.size()), bb(b.size());
    a.read(0, ba.data(), ba.size());
    b.read(0, bb.data(), bb.size());
    return std::memcmp(ba.data(), bb.data(), ba.size()) == 0;
}

// ---------------------------------------------------------------------
// Mirror-side batch mechanics
// ---------------------------------------------------------------------

TEST(MirrorBatchTest, StagedBatchRollsBackOnCrash)
{
    MirrorNode m(100, 1 << 20);
    const uint64_t a = 0x1111, b = 0x2222;
    m.stageWrite(0, &a, 8);
    m.stageWrite(64, &b, 8);
    m.persistBatch();
    EXPECT_EQ(m.persistCount(), 1u);

    // A second batch stages but the mirror loses power before the fence:
    // the whole partial batch must vanish, restoring the image as of the
    // last persisted batch — a transaction boundary.
    const uint64_t c = 0x3333;
    m.stageWrite(0, &c, 8);
    m.stageWrite(128, &c, 8);
    m.crash();
    EXPECT_EQ(m.device().read64(0), a) << "partial batch must roll back";
    EXPECT_EQ(m.device().read64(64), b);
    EXPECT_EQ(m.device().read64(128), 0u);
    EXPECT_EQ(m.persistCount(), 1u);
}

// ---------------------------------------------------------------------
// Attach onto a stale replica
// ---------------------------------------------------------------------

TEST(MirrorAttachTest, SyncOverwritesStaleReplicaWherePrimaryIsZero)
{
    BackendNode be(1, testConfig());
    const uint64_t size = testConfig().nvm_size;
    MirrorNode m(100, size);

    // A replica that held another image (re-attach after a restart or
    // promotion): one stale word where the primary's page is all zero,
    // and one in the primary's formatted superblock page.
    const uint64_t stale_off = size - 4096 + 512;
    std::vector<uint8_t> primary_page(4096);
    be.nvm().read(size - 4096, primary_page.data(), primary_page.size());
    ASSERT_TRUE(std::all_of(primary_page.begin(), primary_page.end(),
                            [](uint8_t b) { return b == 0; }));
    const uint64_t junk = 0xDEADBEEFCAFEF00Dull;
    m.stageWrite(stale_off, &junk, 8);
    m.stageWrite(8, &junk, 8);
    m.persistBatch();

    const uint64_t persists0 = m.persistCount();
    const uint64_t replicated0 = m.bytesReplicated();
    const uint64_t written0 = m.device().bytesWritten();
    be.addMirror(&m);

    EXPECT_TRUE(devicesIdentical(be.nvm(), m.device()))
        << "a page zero only on the primary must still be copied";
    EXPECT_EQ(m.device().read64(stale_off), 0u);
    EXPECT_EQ(m.persistCount() - persists0, 1u) << "one durable sync";
    EXPECT_EQ(m.bytesReplicated() - replicated0, size);
    EXPECT_EQ(m.device().bytesWritten() - written0, size);
    EXPECT_EQ(m.device().pendingWrites(), 0u) << "the sync is durable";
}

// ---------------------------------------------------------------------
// One persist per committed transaction
// ---------------------------------------------------------------------

TEST(ReplicationBatchTest, OnePersistPerCommitBoundary)
{
    constexpr uint32_t kBatch = 8;
    BackendNode be(1, testConfig());
    MirrorNode m(100, testConfig().nvm_size);
    be.addMirror(&m);

    FrontendSession s(SessionConfig::rcb(41, 1 << 20, kBatch));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    RemotePtr region;
    ASSERT_EQ(s.alloc(1, kBatch * 16, &region), Status::Ok);

    // Warm one batch so lock state and allocator traffic settle.
    for (uint32_t i = 0; i < kBatch; ++i) {
        const uint64_t v = i;
        ASSERT_EQ(s.opBegin(0, 1, OpType::Update, i, &v, 8), Status::Ok);
        ASSERT_EQ(s.logWrite(0, RemotePtr(1, region.offset + i * 16), &v,
                             8),
                  Status::Ok);
        ASSERT_EQ(s.opEnd(), Status::Ok);
    }
    ASSERT_EQ(s.flushAll(), Status::Ok);

    const uint64_t p0 = m.persistCount();
    const ReplicationStats s0 = be.replicationStats();
    for (uint32_t i = 0; i < kBatch; ++i) {
        const uint64_t v = 0xBEE0 + i;
        ASSERT_EQ(s.opBegin(0, 1, OpType::Update, i, &v, 8), Status::Ok);
        // Two modifications per op: replay writes both, yet the whole
        // transaction still costs one replication persist.
        ASSERT_EQ(s.logWrite(0, RemotePtr(1, region.offset + i * 16), &v,
                             8),
                  Status::Ok);
        ASSERT_EQ(s.logWrite(0,
                             RemotePtr(1, region.offset + i * 16 + 8), &v,
                             8),
                  Status::Ok);
        ASSERT_EQ(s.opEnd(), Status::Ok);
    }
    ASSERT_EQ(s.flushAll(), Status::Ok);

    // Each op-log record is its own durability point (it is individually
    // recoverable after a crash), so it ships as one batch; the group
    // commit transaction — tx bytes, control block, every replayed
    // modification, SN bumps — ships as ONE more. Pre-batching, the same
    // commit cost one persist per mutation: >= kBatch op logs + 2*kBatch
    // replayed writes + 2 control writes + 2 SN writes.
    const uint64_t delta = m.persistCount() - p0;
    EXPECT_LE(delta, kBatch + 3)
        << "one persist per op-log record plus O(1) for the transaction";
    EXPECT_GE(delta, kBatch + 1);

    const ReplicationStats &rs = be.replicationStats();
    EXPECT_EQ(rs.persists - s0.persists, delta);
    EXPECT_GT(rs.raw_writes - s0.raw_writes, rs.ranges - s0.ranges)
        << "adjacent/duplicate ranges must coalesce";
    EXPECT_EQ(rs.mirrors_dropped, 0u);
    EXPECT_GT(be.replicationHistogram().count(), 0u);
}

// ---------------------------------------------------------------------
// Byte-identity audit: replica bytes == back-end bytes at every commit
// ---------------------------------------------------------------------

TEST(ReplicationBatchTest, MirrorByteIdenticalAfterEveryCommit)
{
    BackendNode be(1, testConfig());
    MirrorNode m(100, testConfig().nvm_size);
    be.addMirror(&m);

    FrontendSession s(SessionConfig::rcb(42, 1 << 20, 16));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    HashTable ht;
    ASSERT_EQ(HashTable::create(s, 1, "audit", 64, &ht), Status::Ok);

    uint64_t rng = 0x9E3779B97F4A7C15ull;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (int commit = 0; commit < 8; ++commit) {
        for (int i = 0; i < 40; ++i) {
            const Key k = next() % 97; // overwrites exercise coalescing
            ASSERT_EQ(ht.put(k, Value::ofU64(next())), Status::Ok);
        }
        ASSERT_EQ(s.flushAll(), Status::Ok);
        // Post-commit one-sided writes (lock releases on the trailing
        // doorbell chain) stage into the next batch; drain them so the
        // comparison sees a quiesced device.
        be.flushReplication();
        EXPECT_TRUE(devicesIdentical(be.nvm(), m.device()))
            << "replica diverged after commit " << commit;
    }
}

// ---------------------------------------------------------------------
// Crash mid-batch: the mirror stays promotable
// ---------------------------------------------------------------------

TEST(ReplicationBatchTest, MirrorCrashMidBatchStaysPromotable)
{
    const BackendConfig cfg = testConfig();
    auto be = std::make_unique<BackendNode>(1, cfg);
    MirrorNode m(100, cfg.nvm_size);
    be->addMirror(&m);

    {
        FrontendSession s(SessionConfig::rcb(43, 1 << 20, 8));
        ASSERT_EQ(s.connect(be.get()), Status::Ok);
        HashTable ht;
        ASSERT_EQ(HashTable::create(s, 1, "t", 64, &ht), Status::Ok);
        for (uint64_t k = 1; k <= 20; ++k)
            ASSERT_EQ(ht.put(k, Value::ofU64(k * 3)), Status::Ok);
        ASSERT_EQ(s.flushAll(), Status::Ok);
        be->flushReplication();
    }

    // The next replication batch reaches the mirror only partially (the
    // back-end dies mid-transfer), and then the mirror itself loses
    // power before any persist fence: everything staged since the last
    // persisted batch must roll back to the committed image.
    const uint64_t junk = 0xDEADDEADDEADDEADull;
    m.stageWrite(1ull << 20, &junk, 8);
    m.stageWrite((1ull << 20) + 8, &junk, 8);
    m.crash();
    be.reset(); // the back-end is gone for good (Case 4)

    // Promote: the replica device simply becomes the new back-end.
    BackendNode promoted(1, cfg, m.releaseDevice());
    FrontendSession s2(SessionConfig::rcb(44, 1 << 20, 8));
    ASSERT_EQ(s2.connect(&promoted), Status::Ok);
    ASSERT_EQ(s2.recover(), Status::Ok);
    HashTable recovered;
    ASSERT_EQ(HashTable::open(s2, 1, "t", &recovered), Status::Ok);
    for (uint64_t k = 1; k <= 20; ++k) {
        Value v;
        ASSERT_EQ(recovered.get(k, &v), Status::Ok) << "key " << k;
        EXPECT_EQ(v.asU64(), k * 3);
    }
}

// ---------------------------------------------------------------------
// Replication retry: transient faults retry; storms detach, not wedge
// ---------------------------------------------------------------------

TEST(ReplicationBatchTest, TransientFaultRetriesInsteadOfWedging)
{
    BackendNode be(1, testConfig());
    MirrorNode m(100, testConfig().nvm_size);
    be.addMirror(&m);
    FaultConfig fc;
    fc.drop_rate = 0.3;
    m.faults().configure(fc, 1234);

    FrontendSession s(SessionConfig::rcb(45, 1 << 20, 8));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    HashTable ht;
    ASSERT_EQ(HashTable::create(s, 1, "r", 64, &ht), Status::Ok);
    for (uint64_t k = 1; k <= 64; ++k) {
        ASSERT_EQ(ht.put(k, Value::ofU64(k)), Status::Ok)
            << "a faulted replication transfer must never fail a commit";
    }
    ASSERT_EQ(s.flushAll(), Status::Ok);

    const ReplicationStats &rs = be.replicationStats();
    EXPECT_GT(rs.retries, 0u) << "30% drop rate must trigger retries";
    EXPECT_GT(rs.backoff_ns, 0u);
    EXPECT_EQ(rs.mirrors_dropped, 0u)
        << "transient faults are absorbed, not treated as mirror death";

    m.faults().disarm();
    be.flushReplication();
    EXPECT_TRUE(devicesIdentical(be.nvm(), m.device()))
        << "retried batches must leave the replica byte-identical";
}

TEST(ReplicationBatchTest, RetryStormDetachesMirrorButCommitSucceeds)
{
    BackendNode be(1, testConfig());
    MirrorNode m(100, testConfig().nvm_size);
    be.addMirror(&m);
    FaultConfig fc;
    fc.drop_rate = 1.0;
    fc.drop_after_frac = 0.0;
    m.faults().configure(fc, 99);

    FrontendSession s(SessionConfig::rcb(46, 1 << 20, 4));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    HashTable ht;
    ASSERT_EQ(HashTable::create(s, 1, "s", 64, &ht), Status::Ok);
    for (uint64_t k = 1; k <= 8; ++k)
        ASSERT_EQ(ht.put(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(s.flushAll(), Status::Ok)
        << "a replication storm detaches the mirror (Case 5); it must "
           "not wedge or fail the commit";

    EXPECT_EQ(be.replicationStats().mirrors_dropped, 1u);

    // Committing continues without the mirror.
    ASSERT_EQ(ht.put(100, Value::ofU64(100)), Status::Ok);
    ASSERT_EQ(s.flushAll(), Status::Ok);
    Value v;
    ASSERT_EQ(ht.get(100, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), 100u);
}

} // namespace
} // namespace asymnvm
