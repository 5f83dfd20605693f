/**
 * @file
 * Tests for the op-ref memory-log optimization (Figure 3's "Flag" byte):
 * a memory log whose value duplicates the operation log's payload
 * carries a 16-byte reference instead of the bytes, and the back-end
 * replayer fetches the value from the op-log ring.
 */

#include <gtest/gtest.h>

#include "backend/backend_node.h"
#include "ds/bptree.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

BackendConfig
testConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 32ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 16;
    cfg.memlog_ring_size = 1ull << 20;
    cfg.oplog_ring_size = 1ull << 20;
    return cfg;
}

TEST(OpRefTest, ReplayFetchesValueFromOpLogRing)
{
    BackendNode be(1, testConfig());
    FrontendSession s(SessionConfig::rcb(1, 1 << 20, 8));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    RemotePtr cell;
    ASSERT_EQ(s.alloc(1, Value::kSize, &cell), Status::Ok);

    const Value v = Value::ofString("op-ref payload");
    ASSERT_EQ(s.opBegin(0, 1, OpType::Insert, 7, v.bytes.data(),
                        Value::kSize),
              Status::Ok);
    ASSERT_EQ(s.logWriteFromOp(0, cell, v.bytes.data(), Value::kSize),
              Status::Ok);
    ASSERT_EQ(s.opEnd(), Status::Ok);
    ASSERT_EQ(s.flushAll(), Status::Ok);

    Value got;
    be.nvm().read(cell.offset, got.bytes.data(), Value::kSize);
    EXPECT_EQ(got.asString(), "op-ref payload")
        << "replay must dereference the op-log ring";
}

TEST(OpRefTest, PartialSliceUsesValOff)
{
    BackendNode be(1, testConfig());
    FrontendSession s(SessionConfig::rcb(1, 1 << 20, 8));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    RemotePtr cell;
    ASSERT_EQ(s.alloc(1, 32, &cell), Status::Ok);

    uint8_t payload[64];
    for (int i = 0; i < 64; ++i)
        payload[i] = static_cast<uint8_t>(i);
    ASSERT_EQ(s.opBegin(0, 1, OpType::Insert, 8, payload, sizeof(payload)),
              Status::Ok);
    // Write bytes 16..47 of the op payload to the cell.
    ASSERT_EQ(s.logWriteFromOp(0, cell, payload + 16, 32, /*val_off=*/16),
              Status::Ok);
    ASSERT_EQ(s.opEnd(), Status::Ok);
    ASSERT_EQ(s.flushAll(), Status::Ok);

    uint8_t got[32];
    be.nvm().read(cell.offset, got, sizeof(got));
    for (int i = 0; i < 32; ++i)
        ASSERT_EQ(got[i], 16 + i) << "byte " << i;
}

TEST(OpRefTest, ShrinksWireBytes)
{
    auto run = [&](bool opref) {
        BackendNode be(1, testConfig());
        SessionConfig cfg = SessionConfig::rcb(1, 1 << 20, 64);
        cfg.use_opref = opref;
        FrontendSession s(cfg);
        EXPECT_EQ(s.connect(&be), Status::Ok);
        BpTree tree;
        EXPECT_EQ(BpTree::create(s, 1, "t", &tree), Status::Ok);
        for (uint64_t k = 1; k <= 500; ++k)
            EXPECT_EQ(tree.insert(k * 5, Value::ofU64(k)), Status::Ok);
        EXPECT_EQ(s.flushAll(), Status::Ok);
        // Verify correctness too.
        Value v;
        EXPECT_EQ(tree.find(2500, &v), Status::Ok);
        EXPECT_EQ(v.asU64(), 500u);
        return s.verbs().counters().totalBytes();
    };
    const uint64_t with_ref = run(true);
    const uint64_t without = run(false);
    EXPECT_LT(with_ref, without)
        << "op-refs must shrink the transaction wire size";
}

TEST(OpRefTest, FallsBackToInlineWhenOpLogDisabled)
{
    BackendNode be(1, testConfig());
    SessionConfig cfg = SessionConfig::rcb(1, 1 << 20, 8);
    cfg.use_oplog = false; // no op logs to reference
    FrontendSession s(cfg);
    ASSERT_EQ(s.connect(&be), Status::Ok);
    RemotePtr cell;
    ASSERT_EQ(s.alloc(1, Value::kSize, &cell), Status::Ok);
    const Value v = Value::ofU64(99);
    ASSERT_EQ(s.opBegin(0, 1, OpType::Insert, 1, v.bytes.data(),
                        Value::kSize),
              Status::Ok);
    ASSERT_EQ(s.logWriteFromOp(0, cell, v.bytes.data(), Value::kSize),
              Status::Ok);
    ASSERT_EQ(s.opEnd(), Status::Ok);
    ASSERT_EQ(s.flushAll(), Status::Ok);
    EXPECT_EQ(be.nvm().read64(cell.offset), 99u);
}

/**
 * The flushGroup op-ref guard (`c.oplog_head - e.oplog_pos < oplog_ring`)
 * must fall back to inline values exactly when the referenced record has
 * aged out of the ring. A 216-byte ring holds precisely two 108-byte
 * push-style records, so after three appends (head = 324):
 *  - op 1 at pos 0:   324 - 0   = 324 >= 216 — lapped, bytes overwritten
 *  - op 2 at pos 108: 324 - 108 = 216, the exact boundary; the strict
 *    `<` keeps the guard conservative and falls back to inline
 *  - op 3 at pos 216: 324 - 216 = 108 < 216 — a valid op-ref
 * Every cell must replay its correct value regardless of which side of
 * the boundary its record landed on.
 */
TEST(OpRefTest, RingAgeOutAtExactWrapBoundaryFallsBackToInline)
{
    // One classic op record: OpLogHeader(40) + 64 B value + CRC(4).
    constexpr uint64_t kRecLen = 108;
    BackendConfig bcfg = testConfig();
    bcfg.oplog_ring_size = 2 * kRecLen;

    BackendNode be(1, bcfg);
    FrontendSession s(SessionConfig::rcb(1, 1 << 20, 8));
    ASSERT_EQ(s.connect(&be), Status::Ok);

    RemotePtr cells[3];
    Value vals[3];
    for (int i = 0; i < 3; ++i) {
        ASSERT_EQ(s.alloc(1, Value::kSize, &cells[i]), Status::Ok);
        vals[i] = Value::ofU64(0xa0a0 + i);
        ASSERT_EQ(s.opBegin(0, 1, OpType::Insert, 100 + i,
                            vals[i].bytes.data(), Value::kSize),
                  Status::Ok);
        ASSERT_EQ(s.logWriteFromOp(0, cells[i], vals[i].bytes.data(),
                                   Value::kSize),
                  Status::Ok);
        ASSERT_EQ(s.opEnd(), Status::Ok);
    }
    ASSERT_EQ(s.flushAll(), Status::Ok);

    for (int i = 0; i < 3; ++i) {
        Value got;
        be.nvm().read(cells[i].offset, got.bytes.data(), Value::kSize);
        EXPECT_EQ(got.asU64(), 0xa0a0u + i)
            << "cell " << i << " lost its value across the age-out";
    }
}

TEST(OpRefTest, CoalescingKnobChangesReplayCount)
{
    auto run = [&](bool coalesce) {
        BackendNode be(1, testConfig());
        SessionConfig cfg = SessionConfig::rcb(1, 1 << 20, 64);
        cfg.coalesce_memlogs = coalesce;
        FrontendSession s(cfg);
        EXPECT_EQ(s.connect(&be), Status::Ok);
        RemotePtr p;
        EXPECT_EQ(s.alloc(1, 64, &p), Status::Ok);
        for (uint64_t i = 0; i < 32; ++i) {
            EXPECT_EQ(s.opBegin(0, 1, OpType::Update, i, nullptr, 0),
                      Status::Ok);
            EXPECT_EQ(s.logWrite(0, p, &i, 8), Status::Ok);
            EXPECT_EQ(s.opEnd(), Status::Ok);
        }
        EXPECT_EQ(s.flushAll(), Status::Ok);
        EXPECT_EQ(be.nvm().read64(p.offset), 31u); // last write wins
        return be.replayedEntries();
    };
    EXPECT_EQ(run(true), 1u) << "32 writes to one address coalesce";
    EXPECT_EQ(run(false), 32u) << "without coalescing each replays";
}

} // namespace
} // namespace asymnvm
