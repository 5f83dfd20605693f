/**
 * @file
 * Integration tests for the back-end node: layout, the persistent-bitmap
 * slab allocator, the naming space, log append + replay, tail validation,
 * restart recovery (Case 3), mirror replication and promotion (Case 4),
 * and lazy GC epoch bumps.
 */

#include <gtest/gtest.h>

#include <cstring>

#include "backend/backend_node.h"
#include "backend/log_format.h"
#include "rdma/rpc.h"

namespace asymnvm {
namespace {

BackendConfig
smallConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 16ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 16;
    cfg.memlog_ring_size = 64ull << 10;
    cfg.oplog_ring_size = 32ull << 10;
    cfg.block_size = 1024;
    return cfg;
}

TEST(LayoutTest, RegionsAreDisjointAndOrdered)
{
    const Layout lay = Layout::compute(smallConfig());
    const SuperBlock &sb = lay.super;
    EXPECT_LT(sizeof(SuperBlock), sb.naming_off);
    EXPECT_LT(sb.naming_off, sb.felog_off);
    EXPECT_LT(sb.felog_off, sb.bitmap_off);
    EXPECT_LT(sb.bitmap_off, sb.data_off);
    EXPECT_LE(lay.dataEnd(), smallConfig().nvm_size);
    EXPECT_GT(sb.data_blocks, 1000u);
}

TEST(LayoutTest, TooSmallDeviceRejected)
{
    BackendConfig cfg = smallConfig();
    cfg.nvm_size = 300ull << 10; // smaller than the metadata needs
    EXPECT_THROW(Layout::compute(cfg), std::invalid_argument);
}

TEST(BackendAllocTest, AllocFreeRoundTrip)
{
    BackendNode be(1, smallConfig());
    uint64_t off = 0;
    ASSERT_EQ(be.rpcAllocBlocks(4, &off), Status::Ok);
    EXPECT_GE(off, be.layout().dataOff());
    EXPECT_TRUE(be.allocator().isAllocated(off));
    ASSERT_EQ(be.rpcFreeBlocks(off, 4), Status::Ok);
    EXPECT_FALSE(be.allocator().isAllocated(off));
}

TEST(BackendAllocTest, DistinctAllocationsDoNotOverlap)
{
    BackendNode be(1, smallConfig());
    uint64_t a = 0, b = 0;
    ASSERT_EQ(be.rpcAllocBlocks(2, &a), Status::Ok);
    ASSERT_EQ(be.rpcAllocBlocks(2, &b), Status::Ok);
    const uint64_t bs = be.config().block_size;
    EXPECT_TRUE(a + 2 * bs <= b || b + 2 * bs <= a);
}

TEST(BackendAllocTest, DoubleFreeRejected)
{
    BackendNode be(1, smallConfig());
    uint64_t off = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &off), Status::Ok);
    ASSERT_EQ(be.rpcFreeBlocks(off, 1), Status::Ok);
    EXPECT_EQ(be.rpcFreeBlocks(off, 1), Status::InvalidArgument);
}

TEST(BackendAllocTest, ExhaustionReturnsOutOfMemory)
{
    BackendNode be(1, smallConfig());
    uint64_t off = 0;
    EXPECT_EQ(be.rpcAllocBlocks(be.allocator().totalBlocks() + 1, &off),
              Status::OutOfMemory);
}

TEST(BackendAllocTest, BitmapSurvivesRestart)
{
    auto cfg = smallConfig();
    uint64_t off = 0;
    std::shared_ptr<NvmDevice> dev;
    {
        BackendNode be(1, cfg);
        ASSERT_EQ(be.rpcAllocBlocks(3, &off), Status::Ok);
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    EXPECT_TRUE(be2.allocator().isAllocated(off));
    // The recovered allocator must not hand the same blocks out again.
    uint64_t off2 = 0;
    ASSERT_EQ(be2.rpcAllocBlocks(3, &off2), Status::Ok);
    EXPECT_NE(off, off2);
}

TEST(NamingTest, CreateLookupRoundTrip)
{
    BackendNode be(1, smallConfig());
    DsId id = 0;
    ASSERT_EQ(be.rpcCreateName(0x1234, DsType::BpTree, &id), Status::Ok);
    DsId found = 99;
    DsType type = DsType::None;
    ASSERT_EQ(be.rpcLookupName(0x1234, &found, &type), Status::Ok);
    EXPECT_EQ(found, id);
    EXPECT_EQ(type, DsType::BpTree);
}

TEST(NamingTest, DuplicateNameRejected)
{
    BackendNode be(1, smallConfig());
    DsId id = 0;
    ASSERT_EQ(be.rpcCreateName(0x77, DsType::Stack, &id), Status::Ok);
    EXPECT_EQ(be.rpcCreateName(0x77, DsType::Queue, &id), Status::Exists);
}

TEST(NamingTest, UnknownNameNotFound)
{
    BackendNode be(1, smallConfig());
    DsId id = 0;
    EXPECT_EQ(be.rpcLookupName(0x9999, &id, nullptr), Status::NotFound);
}

TEST(NamingTest, NamesSurviveRestart)
{
    auto cfg = smallConfig();
    std::shared_ptr<NvmDevice> dev;
    DsId id = 0;
    {
        BackendNode be(1, cfg);
        ASSERT_EQ(be.rpcCreateName(0xabc, DsType::SkipList, &id),
                  Status::Ok);
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    DsId found = 0;
    DsType type = DsType::None;
    ASSERT_EQ(be2.rpcLookupName(0xabc, &found, &type), Status::Ok);
    EXPECT_EQ(found, id);
    EXPECT_EQ(type, DsType::SkipList);
    EXPECT_EQ(be2.nameCount(), 1u);
}

TEST(RegistrationTest, SlotsAreStablePerSession)
{
    BackendNode be(1, smallConfig());
    uint32_t s1 = 99, s2 = 99, s1again = 99;
    ASSERT_EQ(be.registerFrontend(111, &s1), Status::Ok);
    ASSERT_EQ(be.registerFrontend(222, &s2), Status::Ok);
    EXPECT_NE(s1, s2);
    ASSERT_EQ(be.registerFrontend(111, &s1again), Status::Ok);
    EXPECT_EQ(s1, s1again) << "reconnect must reattach the same slot";
}

TEST(RegistrationTest, SlotsExhaust)
{
    BackendNode be(1, smallConfig());
    uint32_t s = 0;
    for (uint64_t i = 1; i <= smallConfig().max_frontends; ++i)
        ASSERT_EQ(be.registerFrontend(i, &s), Status::Ok);
    EXPECT_EQ(be.registerFrontend(1000, &s), Status::Unavailable);
}

// Helper: append logs directly into the rings like a front-end would.
struct RawAppender
{
    BackendNode *be;
    uint32_t slot;
    uint64_t memlog_head = 0;
    uint64_t oplog_head = 0;

    /** Ring position for a @p len-byte record; a lap tail it does not
     *  fit gets a skip marker, as the front end writes one. */
    uint64_t reserve(uint64_t *head, uint64_t ring_base, uint64_t ring,
                     size_t len)
    {
        const uint64_t off = *head % ring;
        if (off + len > ring) {
            const uint32_t skip = kSkipMagic;
            if (ring - off >= sizeof(skip))
                be->nvm().write(ring_base + off, &skip, sizeof(skip));
            *head += ring - off;
        }
        const uint64_t pos = *head;
        *head += len;
        return pos;
    }

    /** Persist a finished transaction; notify the back-end unless
     *  @p notify is false (the crash hit before the ack). */
    Status appendTxBytes(std::span<const uint8_t> bytes, bool notify = true)
    {
        const Layout &lay = be->layout();
        const uint64_t base = lay.memlogRingOff(slot);
        const uint64_t ring = lay.super.memlog_ring_size;
        const uint64_t pos = reserve(&memlog_head, base, ring, bytes.size());
        be->nvm().write(base + pos % ring, bytes.data(), bytes.size());
        be->nvm().persist();
        if (!notify)
            return Status::Ok;
        return be->onTxAppended(slot, pos,
                                static_cast<uint32_t>(bytes.size()), 0);
    }

    Status appendTx(DsId ds, uint64_t lpn, uint64_t covered_opn,
                    std::vector<std::pair<uint64_t, uint64_t>> writes,
                    bool notify = true)
    {
        TxBuilder b;
        b.reset(lpn, ds, covered_opn);
        for (auto &[addr, val] : writes)
            b.addInline(RemotePtr(be->id(), addr), &val, 8);
        return appendTxBytes(b.finish(), notify);
    }

    /** Persist an op record; notify the back-end unless @p notify is
     *  false (the crash hit before the ack). */
    Status appendOp(DsId ds, uint64_t opn, OpType op, Key key,
                    uint64_t value, bool notify = true)
    {
        const auto rec = encodeOpLog(op, ds, opn, key, &value, 8);
        const Layout &lay = be->layout();
        const uint64_t base = lay.oplogRingOff(slot);
        const uint64_t ring = lay.super.oplog_ring_size;
        const uint64_t pos = reserve(&oplog_head, base, ring, rec.size());
        be->nvm().write(base + pos % ring, rec.data(), rec.size());
        be->nvm().persist();
        if (!notify)
            return Status::Ok;
        return be->onOpLogAppended(slot, pos,
                                   static_cast<uint32_t>(rec.size()), 0);
    }
};

TEST(ReplayTest, TxUpdatesDataArea)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

    RawAppender app{&be, slot};
    ASSERT_EQ(app.appendTx(0, 0, 0, {{dst, 0xfeed}, {dst + 8, 0xface}}),
              Status::Ok);
    EXPECT_EQ(be.nvm().read64(dst), 0xfeedu);
    EXPECT_EQ(be.nvm().read64(dst + 8), 0xfaceu);
    EXPECT_EQ(be.replayedTxs(), 1u);
    EXPECT_EQ(be.replayedEntries(), 2u);
}

TEST(ReplayTest, SeqNumBracketsLockBasedReplay)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x1, DsType::Bst, &ds), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

    EXPECT_EQ(be.namingEntry(ds).seq_num, 0u);
    RawAppender app{&be, slot};
    ASSERT_EQ(app.appendTx(ds, 0, 0, {{dst, 1}}), Status::Ok);
    // SN went odd during replay and even after: net +2, and it is even.
    EXPECT_EQ(be.namingEntry(ds).seq_num, 2u);
}

TEST(ReplayTest, MultiVersionTypesDoNotBumpSeqNum)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x2, DsType::MvBst, &ds), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

    RawAppender app{&be, slot};
    ASSERT_EQ(app.appendTx(ds, 0, 0, {{dst, 1}}), Status::Ok);
    EXPECT_EQ(be.namingEntry(ds).seq_num, 0u);
}

TEST(ReplayTest, TornTxRejectedAndNotReplayed)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

    TxBuilder b;
    b.reset(0, 0, 0);
    const uint64_t v = 0xbad;
    b.addInline(RemotePtr(1, dst), &v, 8);
    const auto bytes = b.finish();
    // Write only a prefix (torn RDMA_Write).
    const Layout &lay = be.layout();
    be.nvm().write(lay.memlogRingOff(slot), bytes.data(),
                   bytes.size() - 5);
    be.nvm().persist();
    EXPECT_EQ(be.onTxAppended(slot, 0,
                              static_cast<uint32_t>(bytes.size()), 0),
              Status::Corruption);
    EXPECT_EQ(be.nvm().read64(dst), 0u) << "torn tx must not replay";
    EXPECT_EQ(be.validateTail(slot), TxValidation::Torn);
}

/**
 * An op-ref entry is only as good as the op-log record it points at. A
 * reference to a missing record, a corrupt one, or a slice past the
 * record's value must reject the whole transaction before replication
 * is staged or a control field moves — never replay zeroes or garbage.
 */
TEST(ReplayTest, OpRefToMissingRecordRejectedAndNotReplayed)
{
    struct Case
    {
        const char *what;
        bool write_record;
        bool corrupt_record;
        uint32_t val_off;
    };
    const Case cases[] = {
        {"missing record", false, false, 0},
        {"corrupt record", true, true, 0},
        {"slice past the value", true, false, 4},
    };
    for (const Case &tc : cases) {
        SCOPED_TRACE(tc.what);
        BackendNode be(1, smallConfig());
        uint32_t slot = 0;
        ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
        uint64_t dst = 0;
        ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

        RawAppender app{&be, slot};
        ASSERT_EQ(app.appendTx(0, 0, 0, {{dst, 0x5eed}}), Status::Ok);
        if (tc.write_record) {
            // Written but not announced: the op-ref alone points at it.
            const uint64_t v = 0xabcd;
            auto rec = encodeOpLog(OpType::Insert, 0, 0, 1, &v, sizeof(v));
            if (tc.corrupt_record)
                rec[sizeof(OpLogHeader)] ^= 0x01;
            be.nvm().write(be.layout().oplogRingOff(slot), rec.data(),
                           rec.size());
            be.nvm().persist();
        }
        const LogControl before = be.readControl(slot);
        const uint64_t replayed = be.replayedEntries();

        TxBuilder b;
        b.reset(1, 0, 0);
        b.addOpRef(RemotePtr(1, dst), /*oplog_off=*/0, tc.val_off, 8);
        EXPECT_EQ(app.appendTxBytes(b.finish()), Status::Corruption);
        EXPECT_EQ(be.nvm().read64(dst), 0x5eedu)
            << "an unresolvable op-ref must not replay";
        EXPECT_EQ(be.replayedEntries(), replayed);
        const LogControl after = be.readControl(slot);
        EXPECT_EQ(after.lpn, before.lpn);
        EXPECT_EQ(after.memlog_head, before.memlog_head);
        EXPECT_EQ(after.last_tx_off, before.last_tx_off);
    }
}

TEST(ReplayTest, OpLogWindowShrinksWhenCovered)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);

    RawAppender app{&be, slot};
    ASSERT_EQ(app.appendOp(0, 0, OpType::Insert, 1, 10), Status::Ok);
    ASSERT_EQ(app.appendOp(0, 1, OpType::Insert, 2, 20), Status::Ok);
    EXPECT_EQ(be.uncoveredOps(slot).size(), 2u);

    ASSERT_EQ(app.appendTx(0, 0, /*covered_opn=*/2, {{dst, 1}}),
              Status::Ok);
    EXPECT_EQ(be.uncoveredOps(slot).size(), 0u);
}

TEST(RecoveryTest, CleanTailRollsForwardOnRestart)
{
    auto cfg = smallConfig();
    std::shared_ptr<NvmDevice> dev;
    uint64_t dst = 0;
    {
        BackendNode be(1, cfg);
        uint32_t slot = 0;
        ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
        ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);
        // Append tx bytes WITHOUT notifying the backend: simulates a
        // crash between the RDMA_Write and the ack (Case 3.a).
        TxBuilder b;
        b.reset(0, 0, 0);
        const uint64_t v = 0x11aa;
        b.addInline(RemotePtr(1, dst), &v, 8);
        const auto bytes = b.finish();
        be.nvm().write(be.layout().memlogRingOff(slot), bytes.data(),
                       bytes.size());
        be.nvm().persist();
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    EXPECT_EQ(be2.nvm().read64(dst), 0x11aau)
        << "restart must roll the persisted tail transaction forward";
    EXPECT_EQ(be2.readControl(0).lpn, 1u);
}

TEST(RecoveryTest, TornTailIgnoredOnRestart)
{
    auto cfg = smallConfig();
    std::shared_ptr<NvmDevice> dev;
    uint64_t dst = 0;
    {
        BackendNode be(1, cfg);
        uint32_t slot = 0;
        ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
        ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);
        TxBuilder b;
        b.reset(0, 0, 0);
        const uint64_t v = 0x22bb;
        b.addInline(RemotePtr(1, dst), &v, 8);
        const auto bytes = b.finish();
        be.nvm().write(be.layout().memlogRingOff(slot), bytes.data(),
                       bytes.size() - 3); // torn
        be.nvm().persist();
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    EXPECT_EQ(be2.nvm().read64(dst), 0u);
    EXPECT_EQ(be2.readControl(0).lpn, 0u);
}

TEST(RecoveryTest, OpLogTailRollsForwardOnRestart)
{
    auto cfg = smallConfig();
    std::shared_ptr<NvmDevice> dev;
    {
        BackendNode be(1, cfg);
        uint32_t slot = 0;
        ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
        // Op log lands, ack lost.
        const uint64_t val = 42;
        const auto rec = encodeOpLog(OpType::Insert, 0, 0, 7, &val, 8);
        be.nvm().write(be.layout().oplogRingOff(slot), rec.data(),
                       rec.size());
        be.nvm().persist();
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    const auto ops = be2.uncoveredOps(0);
    ASSERT_EQ(ops.size(), 1u);
    EXPECT_EQ(ops[0].key, 7u);
    EXPECT_EQ(be2.readControl(0).opn, 1u);
}

/**
 * Lap tails too small for the next record but at least as large as the
 * smallest record of either ring: a 36 B op-log tail (an empty op
 * record takes 44 B) and a 44 B memlog tail (an empty transaction takes
 * 48 B), each padded with a skip marker. A restart must rescan the op
 * window across the op-log wrap and roll the unacknowledged transaction
 * past the memlog wrap forward, reproducing both exactly.
 */
TEST(RingWrapTest, SmallLapTailsRebuildExactlyOnRestart)
{
    constexpr uint64_t kOpRec = sizeof(OpLogHeader) + 8 + 4;
    constexpr uint64_t kTxRec = sizeof(TxHeader) +
                                sizeof(MemLogEntryHeader) + 8 +
                                sizeof(TxFooter);
    auto cfg = smallConfig();
    cfg.oplog_ring_size = 8 * kOpRec + 36;
    cfg.memlog_ring_size = 4 * kTxRec + 44;
    std::shared_ptr<NvmDevice> dev;
    uint64_t dst = 0;
    LogControl before{};
    std::vector<uint64_t> window_opns;
    {
        BackendNode be(1, cfg);
        uint32_t slot = 0;
        ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
        ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);
        RawAppender app{&be, slot};
        for (uint64_t opn = 0; opn < 8; ++opn)
            ASSERT_EQ(app.appendOp(0, opn, OpType::Insert, 100 + opn, opn),
                      Status::Ok);
        // Cover the first two ops; four transactions leave a 44 B tail.
        for (uint64_t lpn = 0; lpn < 4; ++lpn)
            ASSERT_EQ(app.appendTx(0, lpn, 2, {{dst + 8 * lpn, lpn + 1}}),
                      Status::Ok);
        ASSERT_EQ(app.memlog_head % cfg.memlog_ring_size, 4 * kTxRec);
        // The ninth op record wraps past the 36 B op-log tail.
        ASSERT_EQ(app.oplog_head % cfg.oplog_ring_size, 8 * kOpRec);
        ASSERT_EQ(app.appendOp(0, 8, OpType::Insert, 108, 8), Status::Ok);
        ASSERT_EQ(app.oplog_head, cfg.oplog_ring_size + kOpRec);
        // The fifth transaction wraps too, and lands without its ack.
        ASSERT_EQ(app.appendTx(0, 4, 2, {{dst + 32, 0x77}},
                               /*notify=*/false),
                  Status::Ok);
        ASSERT_EQ(app.memlog_head, cfg.memlog_ring_size + kTxRec);
        before = be.readControl(slot);
        for (const ParsedOpLog &op : be.uncoveredOps(slot))
            window_opns.push_back(op.opn);
        dev = be.device();
    }
    ASSERT_EQ(window_opns.size(), 7u);

    BackendNode be2(1, cfg, dev);
    std::vector<uint64_t> rebuilt;
    for (const ParsedOpLog &op : be2.uncoveredOps(0)) {
        rebuilt.push_back(op.opn);
        EXPECT_EQ(op.key, 100 + op.opn);
    }
    EXPECT_EQ(rebuilt, window_opns);
    EXPECT_EQ(be2.opWindowSize(0), window_opns.size());
    const LogControl after = be2.readControl(0);
    EXPECT_EQ(after.oplog_tail, before.oplog_tail);
    EXPECT_EQ(after.oplog_head, before.oplog_head);
    EXPECT_EQ(after.opn, before.opn);
    // The wrapped tail transaction rolled forward, and only it.
    EXPECT_EQ(after.lpn, before.lpn + 1);
    EXPECT_EQ(after.last_tx_off, cfg.memlog_ring_size);
    EXPECT_EQ(after.memlog_head, cfg.memlog_ring_size + kTxRec);
    EXPECT_EQ(be2.nvm().read64(dst + 32), 0x77u);
    for (uint64_t lpn = 0; lpn < 4; ++lpn)
        EXPECT_EQ(be2.nvm().read64(dst + 8 * lpn), lpn + 1);
}

/**
 * An op record whose append landed but whose ack did not, placed past a
 * skip-marked lap tail large enough for the smallest op record (48 B
 * against 44 B): the restart's roll-forward must follow the marker to
 * the next lap, exactly as the window rebuild does.
 */
TEST(RingWrapTest, UnackedOpPastSkipMarkerRollsForwardOnRestart)
{
    constexpr uint64_t kOpRec = sizeof(OpLogHeader) + 8 + 4;
    auto cfg = smallConfig();
    cfg.oplog_ring_size = 8 * kOpRec + 48;
    std::shared_ptr<NvmDevice> dev;
    LogControl before{};
    {
        BackendNode be(1, cfg);
        uint32_t slot = 0;
        ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
        uint64_t dst = 0;
        ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);
        RawAppender app{&be, slot};
        for (uint64_t opn = 0; opn < 8; ++opn)
            ASSERT_EQ(app.appendOp(0, opn, OpType::Insert, 100 + opn, opn),
                      Status::Ok);
        ASSERT_EQ(app.oplog_head, 8 * kOpRec);
        // Cover the first two ops so the wrapped record may reuse them.
        ASSERT_EQ(app.appendTx(0, 0, 2, {{dst, 1}}), Status::Ok);
        before = be.readControl(slot);
        ASSERT_EQ(before.oplog_tail, 2 * kOpRec);
        ASSERT_EQ(app.appendOp(0, 8, OpType::Insert, 108, 8,
                               /*notify=*/false),
                  Status::Ok);
        ASSERT_EQ(app.oplog_head, cfg.oplog_ring_size + kOpRec);
        dev = be.device();
    }

    BackendNode be2(1, cfg, dev);
    const LogControl after = be2.readControl(0);
    EXPECT_EQ(after.oplog_tail, before.oplog_tail);
    EXPECT_EQ(after.oplog_head, cfg.oplog_ring_size + kOpRec);
    EXPECT_EQ(after.opn, 9u);
    std::vector<uint64_t> opns;
    for (const ParsedOpLog &op : be2.uncoveredOps(0))
        opns.push_back(op.opn);
    EXPECT_EQ(opns, (std::vector<uint64_t>{2, 3, 4, 5, 6, 7, 8}));
}

TEST(RecoveryTest, EpochAdvancesOnEveryRestart)
{
    auto cfg = smallConfig();
    std::shared_ptr<NvmDevice> dev;
    uint64_t epoch1 = 0;
    {
        BackendNode be(1, cfg);
        epoch1 = be.epoch();
        dev = be.device();
    }
    BackendNode be2(1, cfg, dev);
    EXPECT_GT(be2.epoch(), epoch1);
}

TEST(StaleLockTest, ReleasedViaLockAheadRecord)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x3, DsType::Bst, &ds), Status::Ok);

    // Simulate the crashed front-end: lock word set, lock-ahead written.
    const uint64_t lock_off =
        be.layout().namingEntryOff(ds) + naming_field::kWriterLock;
    be.nvm().write64Atomic(lock_off, slot + 1);
    be.nvm().write64Atomic(be.layout().logControlOff(slot) +
                               offsetof(LogControl, lock_ahead),
                           ds + 1);
    be.releaseStaleLocks(slot);
    EXPECT_EQ(be.nvm().read64(lock_off), 0u);
}

TEST(StaleLockTest, ForeignLockNotTouched)
{
    BackendNode be(1, smallConfig());
    uint32_t s1 = 0, s2 = 0;
    ASSERT_EQ(be.registerFrontend(5, &s1), Status::Ok);
    ASSERT_EQ(be.registerFrontend(6, &s2), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x4, DsType::Bst, &ds), Status::Ok);

    const uint64_t lock_off =
        be.layout().namingEntryOff(ds) + naming_field::kWriterLock;
    be.nvm().write64Atomic(lock_off, s2 + 1); // held by session 6
    be.nvm().write64Atomic(be.layout().logControlOff(s1) +
                               offsetof(LogControl, lock_ahead),
                           ds + 1); // stale record from session 5
    be.releaseStaleLocks(s1);
    EXPECT_EQ(be.nvm().read64(lock_off), s2 + 1u)
        << "a lock now held by another session must survive";
}

TEST(GcTest, EpochBumpsAfterDelay)
{
    BackendNode be(1, smallConfig());
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x5, DsType::MvBst, &ds), Status::Ok);
    std::vector<std::pair<uint64_t, uint64_t>> regions = {{4096, 1}};
    ASSERT_EQ(be.rpcRetire(ds, regions, /*now=*/1000), Status::Ok);
    EXPECT_EQ(be.namingEntry(ds).gc_epoch, 0u);

    be.processGc(1000 + be.config().gc_delay_ns - 1);
    EXPECT_EQ(be.namingEntry(ds).gc_epoch, 0u) << "GC must respect n+l";
    be.processGc(1000 + be.config().gc_delay_ns + 1);
    EXPECT_EQ(be.namingEntry(ds).gc_epoch, 1u);
}

TEST(MirrorTest, ReplicaTracksBackendWrites)
{
    BackendNode be(1, smallConfig());
    MirrorNode mirror(50, smallConfig().nvm_size);
    be.addMirror(&mirror);

    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);
    RawAppender app{&be, slot};
    // The mirror is notified through onTxAppended replication.
    ASSERT_EQ(app.appendTx(0, 0, 0, {{dst, 0x5151}}), Status::Ok);
    EXPECT_EQ(mirror.device().read64(dst), 0x5151u);
    EXPECT_GT(mirror.bytesReplicated(), 0u);
}

TEST(MirrorTest, PromotionYieldsWorkingBackend)
{
    auto cfg = smallConfig();
    BackendNode be(1, cfg);
    MirrorNode mirror(50, cfg.nvm_size);
    be.addMirror(&mirror);

    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);
    DsId ds = 0;
    ASSERT_EQ(be.rpcCreateName(0x6, DsType::Queue, &ds), Status::Ok);
    uint64_t dst = 0;
    ASSERT_EQ(be.rpcAllocBlocks(1, &dst), Status::Ok);
    RawAppender app{&be, slot};
    ASSERT_EQ(app.appendTx(ds, 0, 0, {{dst, 0x7777}}), Status::Ok);

    // Case 4: promote the mirror — same node id, replica device.
    BackendNode promoted(1, cfg, mirror.releaseDevice());
    EXPECT_EQ(promoted.nvm().read64(dst), 0x7777u);
    DsId found = 0;
    EXPECT_EQ(promoted.rpcLookupName(0x6, &found, nullptr), Status::Ok);
    EXPECT_EQ(found, ds);
    EXPECT_TRUE(promoted.allocator().isAllocated(dst));
}

TEST(RpcRingTest, HandleRpcServesAllocationViaRings)
{
    BackendNode be(1, smallConfig());
    uint32_t slot = 0;
    ASSERT_EQ(be.registerFrontend(5, &slot), Status::Ok);

    RpcRequest req{};
    req.magic = kRpcReqMagic;
    req.op = static_cast<uint32_t>(RpcOp::AllocBlocks);
    req.seq = 1;
    req.args[0] = 2;
    req.checksum = rpcRequestChecksum(req, {});
    be.nvm().write(be.layout().rpcReqRingOff(slot), &req, sizeof(req));
    be.nvm().persist();
    ASSERT_EQ(be.handleRpc(slot), Status::Ok);

    RpcResponse resp{};
    be.nvm().read(be.layout().rpcRespRingOff(slot), &resp, sizeof(resp));
    EXPECT_EQ(resp.magic, kRpcRespMagic);
    EXPECT_EQ(resp.seq, 1u);
    EXPECT_EQ(static_cast<Status>(resp.status), Status::Ok);
    EXPECT_TRUE(be.allocator().isAllocated(resp.rets[0]));
}

} // namespace
} // namespace asymnvm
