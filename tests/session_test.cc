/**
 * @file
 * Integration tests for FrontendSession: the Table 1 API end to end —
 * read paths (overlay/cache/remote), the memory/operation log pipeline,
 * group commit, the writer lock and seqlock, naming, allocation, and the
 * front-end crash recovery protocol (Cases 1/2) plus back-end failover
 * (Cases 3/4).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "backend/backend_node.h"
#include "ds/bptree.h"
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
    cfg.oplog_ring_size = 128ull << 10;
    cfg.block_size = 1024;
    return cfg;
}

class SessionTest : public ::testing::Test
{
  protected:
    SessionTest() : be(1, testConfig()) {}

    BackendNode be;

    std::unique_ptr<FrontendSession> makeSession(const SessionConfig &cfg)
    {
        auto s = std::make_unique<FrontendSession>(cfg);
        EXPECT_EQ(s->connect(&be), Status::Ok);
        return s;
    }
};

TEST_F(SessionTest, NaiveWriteIsImmediatelyDurable)
{
    auto s = makeSession(SessionConfig::naive(10));
    RemotePtr p;
    ASSERT_EQ(s->alloc(1, 64, &p), Status::Ok);
    const uint64_t v = 0x1234;
    ASSERT_EQ(s->logWrite(0, p, &v, 8), Status::Ok);
    // Durable without any flush: direct RDMA_Write.
    EXPECT_EQ(be.nvm().read64(p.offset), 0x1234u);
}

TEST_F(SessionTest, BufferedWriteVisibleThroughOverlayBeforeFlush)
{
    auto s = makeSession(SessionConfig::rcb(11, 1 << 20, 64));
    RemotePtr p;
    ASSERT_EQ(s->alloc(1, 64, &p), Status::Ok);
    ASSERT_EQ(s->opBegin(0, 1, OpType::Update, 1, nullptr, 0), Status::Ok);
    const uint64_t v = 0x77;
    ASSERT_EQ(s->logWrite(0, p, &v, 8), Status::Ok);
    // Not yet in the back-end data area...
    EXPECT_EQ(be.nvm().read64(p.offset), 0u);
    // ...but read-your-writes sees it.
    uint64_t got = 0;
    ASSERT_EQ(s->read(p, &got, 8), Status::Ok);
    EXPECT_EQ(got, 0x77u);
    // After the flush the back-end replayed it.
    ASSERT_EQ(s->opEnd(), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    EXPECT_EQ(be.nvm().read64(p.offset), 0x77u);
}

TEST_F(SessionTest, BatchBoundaryTriggersGroupCommit)
{
    auto s = makeSession(SessionConfig::rcb(12, 1 << 20, /*batch=*/4));
    RemotePtr p;
    ASSERT_EQ(s->alloc(1, 256, &p), Status::Ok);
    for (uint64_t i = 0; i < 4; ++i) {
        ASSERT_EQ(s->opBegin(0, 1, OpType::Update, i, nullptr, 0),
                  Status::Ok);
        const uint64_t v = i + 1;
        ASSERT_EQ(s->logWrite(0, p + i * 8, &v, 8), Status::Ok);
        ASSERT_EQ(s->opEnd(), Status::Ok);
    }
    // The 4th opEnd crossed the batch boundary: everything replayed.
    EXPECT_EQ(s->opsInBatch(), 0u);
    for (uint64_t i = 0; i < 4; ++i)
        EXPECT_EQ(be.nvm().read64(p.offset + i * 8), i + 1);
}

TEST_F(SessionTest, CoalescingMergesWritesToSameAddress)
{
    auto s = makeSession(SessionConfig::rcb(13, 1 << 20, 1024));
    RemotePtr p;
    ASSERT_EQ(s->alloc(1, 64, &p), Status::Ok);
    for (uint64_t i = 0; i < 10; ++i) {
        ASSERT_EQ(s->opBegin(0, 1, OpType::Update, i, nullptr, 0),
                  Status::Ok);
        ASSERT_EQ(s->logWrite(0, p, &i, 8), Status::Ok);
        ASSERT_EQ(s->opEnd(), Status::Ok);
    }
    ASSERT_EQ(s->flushAll(), Status::Ok);
    EXPECT_EQ(be.nvm().read64(p.offset), 9u);
    // Ten writes to one address coalesce into a single memory log.
    EXPECT_EQ(be.replayedEntries(), 1u);
}

TEST_F(SessionTest, CacheServesRepeatedReads)
{
    auto s = makeSession(SessionConfig::rc(14, 1 << 20));
    RemotePtr p;
    ASSERT_EQ(s->alloc(1, 64, &p), Status::Ok);
    const uint64_t v = 5;
    be.nvm().write(p.offset, &v, 8);
    be.nvm().persist();

    ReadHint hint;
    hint.cacheable = true;
    uint64_t got = 0;
    ASSERT_EQ(s->read(p, &got, 8, hint), Status::Ok);
    const uint64_t verbs_after_first = s->verbs().verbsIssued();
    for (int i = 0; i < 5; ++i)
        ASSERT_EQ(s->read(p, &got, 8, hint), Status::Ok);
    EXPECT_EQ(s->verbs().verbsIssued(), verbs_after_first)
        << "cached reads must not issue verbs";
    EXPECT_EQ(got, 5u);
}

TEST_F(SessionTest, WriteUpdatesCachedCopy)
{
    auto s = makeSession(SessionConfig::rcb(15, 1 << 20, 8));
    RemotePtr p;
    ASSERT_EQ(s->alloc(1, 64, &p), Status::Ok);
    uint64_t v = 1;
    be.nvm().write(p.offset, &v, 8);
    be.nvm().persist();

    ReadHint hint;
    hint.cacheable = true;
    uint64_t got = 0;
    ASSERT_EQ(s->read(p, &got, 8, hint), Status::Ok); // cached now
    ASSERT_EQ(s->opBegin(0, 1, OpType::Update, 0, nullptr, 0), Status::Ok);
    v = 2;
    ASSERT_EQ(s->logWrite(0, p, &v, 8), Status::Ok);
    ASSERT_EQ(s->opEnd(), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok); // overlay gone; cache must serve
    ASSERT_EQ(s->read(p, &got, 8, hint), Status::Ok);
    EXPECT_EQ(got, 2u);
}

/** One committed op writing @p len bytes of @p fill at @p p. */
void
writeOp(FrontendSession &s, RemotePtr p, uint8_t fill, uint32_t len)
{
    std::vector<uint8_t> buf(len, fill);
    ASSERT_EQ(s.opBegin(0, 1, OpType::Update, 0, nullptr, 0), Status::Ok);
    ASSERT_EQ(s.logWrite(0, p, buf.data(), len), Status::Ok);
    ASSERT_EQ(s.opEnd(), Status::Ok);
    ASSERT_EQ(s.flushAll(), Status::Ok);
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

TEST_F(SessionTest, WriteAllocateServesFreshInsertsWithoutVerbs)
{
    // A roomy cache holds every node and value cell the inserts create,
    // so finding a just-inserted key never goes remote.
    auto s = makeSession(SessionConfig::rcb(40, 1 << 20, 8));
    BpTree tree;
    ASSERT_EQ(BpTree::create(*s, 1, "wa", &tree), Status::Ok);
    for (Key k = 1; k <= 200; ++k)
        ASSERT_EQ(tree.insert(k, Value::ofU64(k * 3)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    EXPECT_GT(s->cache().writeAllocs(), 200u);
    EXPECT_EQ(s->cache().evictions(), 0u);

    const VerbCounters before = s->verbs().counters();
    for (Key k = 1; k <= 200; ++k) {
        Value v;
        ASSERT_EQ(tree.find(k, &v), Status::Ok) << "key " << k;
        EXPECT_EQ(v.asU64(), k * 3);
    }
    expectSameCounters(s->verbs().counters(), before);
}

TEST_F(SessionTest, WriteAllocateNeedsTheWholeObjectOnFirstWrite)
{
    auto s = makeSession(SessionConfig::rcb(41, 1 << 20, 8));
    RemotePtr whole, part;
    ASSERT_EQ(s->alloc(1, 64, &whole), Status::Ok);
    writeOp(*s, whole, 0xab, 64);
    EXPECT_TRUE(s->cache().contains(whole, 64));
    EXPECT_EQ(s->cache().writeAllocs(), 1u);

    // A partial first write consumes the record: the later whole write
    // is an ordinary update and installs nothing.
    ASSERT_EQ(s->alloc(1, 64, &part), Status::Ok);
    writeOp(*s, part, 0xcd, 8);
    writeOp(*s, part, 0xcd, 64);
    EXPECT_FALSE(s->cache().contains(part, 64));
    EXPECT_EQ(s->cache().writeAllocs(), 1u);

    // resetStats clears the counter like every other cache statistic.
    s->cache().resetStats();
    EXPECT_EQ(s->cache().writeAllocs(), 0u);
}

TEST_F(SessionTest, WriteAllocateStopsOnceTheCacheHasEvicted)
{
    // Four 64 B objects fit; the fifth demanded read evicts.
    auto s = makeSession(SessionConfig::rcb(42, 256, 8));
    ReadHint hint;
    hint.cacheable = true;
    RemotePtr objs[5];
    for (RemotePtr &p : objs)
        ASSERT_EQ(s->alloc(1, 64, &p), Status::Ok);
    uint8_t buf[64];
    for (const RemotePtr &p : objs)
        ASSERT_EQ(s->read(p, buf, sizeof(buf), hint), Status::Ok);
    ASSERT_EQ(s->cache().evictions(), 1u);

    RemotePtr fresh;
    ASSERT_EQ(s->alloc(1, 64, &fresh), Status::Ok);
    const uint64_t entries = s->cache().entryCount();
    writeOp(*s, fresh, 0x11, 64);
    EXPECT_FALSE(s->cache().contains(fresh, 64));
    EXPECT_EQ(s->cache().writeAllocs(), 0u);
    EXPECT_EQ(s->cache().evictions(), 1u) << "a fresh write evicted";
    EXPECT_EQ(s->cache().entryCount(), entries);

    // Free space alone does not reopen admission; clear() does.
    s->cache().invalidate(objs[4]);
    RemotePtr gap;
    ASSERT_EQ(s->alloc(1, 64, &gap), Status::Ok);
    writeOp(*s, gap, 0x22, 64);
    EXPECT_FALSE(s->cache().contains(gap, 64));
    s->cache().clear();
    RemotePtr cold;
    ASSERT_EQ(s->alloc(1, 64, &cold), Status::Ok);
    writeOp(*s, cold, 0x33, 64);
    EXPECT_TRUE(s->cache().contains(cold, 64));
}

TEST_F(SessionTest, WriteAllocatedEntryGoesWithFreeFailoverAndCrash)
{
    auto s = makeSession(SessionConfig::rcb(43, 1 << 20, 8));
    auto installFresh = [&] {
        RemotePtr p;
        EXPECT_EQ(s->alloc(1, 64, &p), Status::Ok);
        writeOp(*s, p, 0x5a, 64);
        EXPECT_TRUE(s->cache().contains(p, 64));
        return p;
    };

    const RemotePtr freed = installFresh();
    ASSERT_EQ(s->free(freed, 64), Status::Ok);
    EXPECT_FALSE(s->cache().contains(freed, 64));

    const RemotePtr failed_over = installFresh();
    ASSERT_EQ(s->failover(1, &be), Status::Ok);
    EXPECT_FALSE(s->cache().contains(failed_over, 64));

    const RemotePtr crashed = installFresh();
    s->simulateCrash();
    EXPECT_FALSE(s->cache().contains(crashed, 64));
    ASSERT_EQ(s->recover(), Status::Ok);
}

TEST_F(SessionTest, OpLogPersistedPerOpWithoutBatching)
{
    auto s = makeSession(SessionConfig::r(16));
    const Value val = Value::ofU64(9);
    ASSERT_EQ(s->opBegin(0, 1, OpType::Insert, 42, val.bytes.data(),
                         Value::kSize),
              Status::Ok);
    const auto ops = be.uncoveredOps(0);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].key, 42u);
    EXPECT_EQ(ops[0].op, OpType::Insert);
}

TEST_F(SessionTest, WriterLockExcludesSecondSession)
{
    auto s1 = makeSession(SessionConfig::rcb(17, 1 << 20, 8));
    auto s2 = makeSession(SessionConfig::rcb(18, 1 << 20, 8));
    DsId ds = 0;
    ASSERT_EQ(s1->createDs(1, "locked", DsType::Bst, &ds), Status::Ok);

    ASSERT_EQ(s1->writerLock(ds, 1), Status::Ok);
    EXPECT_TRUE(s1->holdsWriterLock(ds, 1));
    // The lock word in NVM names session 1's slot.
    const uint64_t lock = be.namingEntry(ds).writer_lock;
    EXPECT_NE(lock, 0u);
    // Release through unlock (flushes and resets the word).
    ASSERT_EQ(s1->writerUnlock(ds, 1), Status::Ok);
    EXPECT_FALSE(s1->holdsWriterLock(ds, 1));
    ASSERT_EQ(s2->writerLock(ds, 1), Status::Ok);
    ASSERT_EQ(s2->writerUnlock(ds, 1), Status::Ok);
}

TEST_F(SessionTest, SeqlockDetectsConcurrentReplay)
{
    auto writer = makeSession(SessionConfig::rcb(19, 1 << 20, 1));
    auto reader = makeSession(SessionConfig::r(20));
    DsId ds = 0;
    ASSERT_EQ(writer->createDs(1, "seq", DsType::Bst, &ds), Status::Ok);
    RemotePtr p;
    ASSERT_EQ(writer->alloc(1, 64, &p), Status::Ok);

    uint64_t sn = 0;
    ASSERT_EQ(reader->readerLock(ds, 1, &sn), Status::Ok);
    EXPECT_TRUE(reader->readerValidate(ds, 1, sn))
        << "no concurrent write: validation succeeds";

    ASSERT_EQ(reader->readerLock(ds, 1, &sn), Status::Ok);
    // Writer commits while the reader is mid-critical-section.
    ASSERT_EQ(writer->writerLock(ds, 1), Status::Ok);
    ASSERT_EQ(writer->opBegin(ds, 1, OpType::Update, 1, nullptr, 0),
              Status::Ok);
    const uint64_t v = 3;
    ASSERT_EQ(writer->logWrite(ds, p, &v, 8), Status::Ok);
    ASSERT_EQ(writer->opEnd(), Status::Ok);
    EXPECT_FALSE(reader->readerValidate(ds, 1, sn))
        << "SN changed: the reader must retry";
}

TEST_F(SessionTest, NamingRoundTripAcrossSessions)
{
    auto s1 = makeSession(SessionConfig::rcb(21, 1 << 20, 8));
    auto s2 = makeSession(SessionConfig::rcb(22, 1 << 20, 8));
    DsId id1 = 0;
    ASSERT_EQ(s1->createDs(1, "shared-tree", DsType::BpTree, &id1),
              Status::Ok);
    DsId id2 = 99;
    DsType type = DsType::None;
    ASSERT_EQ(s2->openDs(1, "shared-tree", &id2, &type), Status::Ok);
    EXPECT_EQ(id2, id1);
    EXPECT_EQ(type, DsType::BpTree);
    EXPECT_EQ(s2->openDs(1, "absent", &id2, &type), Status::NotFound);
}

TEST_F(SessionTest, AuxFieldsRoundTripThroughLogPath)
{
    auto s = makeSession(SessionConfig::rcb(23, 1 << 20, 8));
    DsId ds = 0;
    ASSERT_EQ(s->createDs(1, "aux", DsType::Queue, &ds), Status::Ok);
    ASSERT_EQ(s->opBegin(ds, 1, OpType::Update, 0, nullptr, 0), Status::Ok);
    ASSERT_EQ(s->writeAux(ds, 1, 0, 0xabcd), Status::Ok);
    uint64_t v = 0;
    ASSERT_EQ(s->readAux(ds, 1, 0, &v), Status::Ok);
    EXPECT_EQ(v, 0xabcdu) << "overlay read before flush";
    ASSERT_EQ(s->opEnd(), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    v = 0;
    ASSERT_EQ(s->readAux(ds, 1, 0, &v), Status::Ok);
    EXPECT_EQ(v, 0xabcdu) << "NVM read after flush";
}

TEST_F(SessionTest, CasRootSwapsAtomically)
{
    auto s = makeSession(SessionConfig::rcb(24, 1 << 20, 8));
    DsId ds = 0;
    ASSERT_EQ(s->createDs(1, "mv", DsType::MvBst, &ds), Status::Ok);
    uint64_t old_raw = 1;
    ASSERT_EQ(s->casRoot(ds, 1, 0, RemotePtr(1, 4096).raw(), &old_raw),
              Status::Ok);
    EXPECT_EQ(old_raw, 0u);
    DsMeta meta{};
    ASSERT_EQ(s->readDsMeta(ds, 1, &meta), Status::Ok);
    EXPECT_EQ(RemotePtr::fromRaw(meta.root_raw), RemotePtr(1, 4096));
}

TEST_F(SessionTest, GcEpochAdvanceInvalidatesDsCache)
{
    auto s = makeSession(SessionConfig::rc(25, 1 << 20));
    DsId ds = 0;
    ASSERT_EQ(s->createDs(1, "gc", DsType::MvBst, &ds), Status::Ok);
    RemotePtr p;
    ASSERT_EQ(s->alloc(1, 64, &p), Status::Ok);
    const uint64_t v = 8;
    be.nvm().write(p.offset, &v, 8);
    be.nvm().persist();

    ReadHint hint;
    hint.ds = ds;
    hint.cacheable = true;
    uint64_t got;
    DsMeta meta{};
    ASSERT_EQ(s->readDsMeta(ds, 1, &meta), Status::Ok); // epoch baseline
    ASSERT_EQ(s->read(p, &got, 8, hint), Status::Ok);   // now cached
    EXPECT_GT(s->cache().entryCount(), 0u);

    // Retire something and force GC: the epoch bump must flush the cache.
    s->retire(ds, p, 64);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    be.processGc(0, /*force=*/true);
    ASSERT_EQ(s->readDsMeta(ds, 1, &meta), Status::Ok);
    // Invalidation is lazy (epoch-based): the next probe must miss.
    EXPECT_FALSE(s->cache().lookup(p, &got, 8));
}

TEST_F(SessionTest, FrontendCrashRecoveryReexecutesUncoveredOps)
{
    auto s = makeSession(SessionConfig::rcb(26, 1 << 20, /*batch=*/64));
    DsId ds = 0;
    ASSERT_EQ(s->createDs(1, "recover-me", DsType::Stack, &ds), Status::Ok);
    RemotePtr cell;
    ASSERT_EQ(s->alloc(1, 64, &cell), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);

    // Three ops: op logs persisted, memory logs still buffered.
    for (uint64_t i = 1; i <= 3; ++i) {
        const Value v = Value::ofU64(i * 100);
        ASSERT_EQ(s->opBegin(ds, 1, OpType::Push, i, v.bytes.data(),
                             Value::kSize),
                  Status::Ok);
        ASSERT_EQ(s->logWrite(ds, cell, &i, 8), Status::Ok);
        ASSERT_EQ(s->opEnd(), Status::Ok);
    }
    EXPECT_EQ(be.nvm().read64(cell.offset), 0u) << "nothing flushed yet";

    s->simulateCrash();
    // The structure is "re-opened" and registers its replayer.
    uint64_t replayed = 0;
    uint64_t last_key = 0;
    s->setReplayer(ds, 1, [&](const ParsedOpLog &op) {
        ++replayed;
        last_key = op.key;
        // Re-execute through the normal write path.
        EXPECT_EQ(s->opBegin(ds, 1, op.op, op.key, op.value.data(),
                             static_cast<uint32_t>(op.value.size())),
                  Status::Ok);
        EXPECT_EQ(s->logWrite(ds, cell, &op.key, 8), Status::Ok);
        return s->opEnd();
    });
    ASSERT_EQ(s->recover(), Status::Ok);
    EXPECT_EQ(replayed, 3u);
    EXPECT_EQ(last_key, 3u);
    EXPECT_EQ(be.nvm().read64(cell.offset), 3u)
        << "re-executed ops must be applied and durable";
    // A second recovery finds nothing left to redo.
    replayed = 0;
    ASSERT_EQ(s->recover(), Status::Ok);
    EXPECT_EQ(replayed, 0u);
}

TEST_F(SessionTest, CrashWhileHoldingLockIsReleasedByRecovery)
{
    auto s = makeSession(SessionConfig::rcb(27, 1 << 20, 64));
    DsId ds = 0;
    ASSERT_EQ(s->createDs(1, "locked-crash", DsType::Bst, &ds), Status::Ok);
    ASSERT_EQ(s->writerLock(ds, 1), Status::Ok);
    EXPECT_NE(be.namingEntry(ds).writer_lock, 0u);

    s->simulateCrash();
    ASSERT_EQ(s->recover(), Status::Ok);
    EXPECT_EQ(be.nvm().read64(be.layout().namingEntryOff(ds) +
                              naming_field::kWriterLock),
              0u)
        << "the lock-ahead record must release the orphaned lock";
}

TEST_F(SessionTest, BackendCrashSurfacesThroughVerbs)
{
    auto s = makeSession(SessionConfig::r(28));
    RemotePtr p;
    ASSERT_EQ(s->alloc(1, 64, &p), Status::Ok);
    be.failure().armCrashAfterVerbs(0);
    uint64_t got;
    EXPECT_EQ(s->read(p, &got, 8), Status::BackendCrashed);
}

TEST_F(SessionTest, SymmetricModeAppliesWritesLocally)
{
    auto s = std::make_unique<FrontendSession>(
        SessionConfig::symmetricBase(29, false));
    ASSERT_EQ(s->connect(&be), Status::Ok);
    RemotePtr p;
    ASSERT_EQ(s->alloc(1, 64, &p), Status::Ok);
    ASSERT_EQ(s->opBegin(0, 1, OpType::Update, 0, nullptr, 0), Status::Ok);
    const uint64_t v = 0x5eed;
    ASSERT_EQ(s->logWrite(0, p, &v, 8), Status::Ok);
    ASSERT_EQ(s->opEnd(), Status::Ok);
    EXPECT_EQ(be.nvm().read64(p.offset), 0x5eedu);
    EXPECT_EQ(s->verbs().counters().reads, 0u)
        << "symmetric mode must not touch the network for data";
    EXPECT_EQ(s->verbs().counters().writes, 0u)
        << "symmetric mode must not touch the network for data";
    // Log *shipping* does use the wire: the op's log bytes ride the
    // posted chain to the replica and launch with opEnd's doorbell.
    EXPECT_GT(s->verbs().counters().posted, 0u)
        << "symmetric log shipping must ride the posted-WQE chain";
    EXPECT_GT(s->verbs().counters().doorbells, 0u);
    uint64_t got = 0;
    ASSERT_EQ(s->read(p, &got, 8), Status::Ok);
    EXPECT_EQ(got, 0x5eedu);
}

TEST_F(SessionTest, ModesOrderedByPerOpCost)
{
    // The whole point of the paper: Naive > R > RCB in per-op virtual
    // cost for a simple write workload.
    auto run = [&](const SessionConfig &cfg, uint64_t session_base) {
        auto s = std::make_unique<FrontendSession>(cfg);
        BackendNode local(1, testConfig());
        EXPECT_EQ(s->connect(&local), Status::Ok);
        RemotePtr p;
        EXPECT_EQ(s->alloc(1, 1024, &p), Status::Ok);
        const uint64_t t0 = s->clock().now();
        for (uint64_t i = 0; i < 256; ++i) {
            EXPECT_EQ(s->opBegin(0, 1, OpType::Update, i, nullptr, 0),
                      Status::Ok);
            // A realistic write op touches several locations (new node,
            // predecessor link, metadata), which is where decoupled log
            // persistency wins over per-location RDMA writes.
            for (uint64_t w = 0; w < 3; ++w) {
                const uint64_t v = i;
                EXPECT_EQ(s->logWrite(0, p + ((3 * i + w) % 48) * 8, &v, 8),
                          Status::Ok);
            }
            EXPECT_EQ(s->opEnd(), Status::Ok);
        }
        s->flushAll();
        (void)session_base;
        return s->clock().now() - t0;
    };
    const uint64_t naive = run(SessionConfig::naive(30), 0);
    const uint64_t r = run(SessionConfig::r(31), 0);
    const uint64_t rcb = run(SessionConfig::rcb(32, 1 << 20, 256), 0);
    EXPECT_GT(naive, r);
    EXPECT_GT(r, rcb);
    EXPECT_GT(naive, 2 * rcb) << "batching should win big";
}

TEST_F(SessionTest, RingWrapsAreHandledAcrossManyFlushes)
{
    // Push enough transactions through a small ring to wrap it several
    // times; every write must stay replayable.
    BackendConfig cfg = testConfig();
    cfg.memlog_ring_size = 8ull << 10;
    cfg.oplog_ring_size = 8ull << 10;
    BackendNode small(2, cfg);
    auto s = std::make_unique<FrontendSession>(
        SessionConfig::rcb(33, 1 << 20, 4));
    ASSERT_EQ(s->connect(&small), Status::Ok);
    RemotePtr p;
    ASSERT_EQ(s->alloc(2, 1024, &p), Status::Ok);
    for (uint64_t i = 0; i < 2000; ++i) {
        ASSERT_EQ(s->opBegin(0, 2, OpType::Update, i, nullptr, 0),
                  Status::Ok);
        const uint64_t v = i;
        ASSERT_EQ(s->logWrite(0, p + (i % 128) * 8, &v, 8), Status::Ok);
        ASSERT_EQ(s->opEnd(), Status::Ok);
    }
    ASSERT_EQ(s->flushAll(), Status::Ok);
    // Slot 79 was last written at i = 1999, slot 127 at i = 1919.
    EXPECT_EQ(small.nvm().read64(p.offset + 79 * 8), 1999u);
    EXPECT_EQ(small.nvm().read64(p.offset + 127 * 8), 1919u);
}

} // namespace
} // namespace asymnvm
