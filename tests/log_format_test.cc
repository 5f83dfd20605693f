/**
 * @file
 * Unit tests for the log wire formats (Figure 3): transaction building
 * and parsing, torn-log detection via the checksum end mark, op-ref
 * entries, and operation-log records.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>

#include "backend/log_format.h"

namespace asymnvm {
namespace {

std::vector<uint8_t>
toVec(std::span<const uint8_t> s)
{
    return {s.begin(), s.end()};
}

TEST(TxFormatTest, BuildAndParseRoundTrip)
{
    TxBuilder b;
    b.reset(/*lpn=*/5, /*ds=*/2, /*covered_opn=*/9);
    const uint64_t v1 = 0xaabb, v2 = 0xccdd;
    b.addInline(RemotePtr(1, 0x1000), &v1, 8);
    b.addInline(RemotePtr(1, 0x2000), &v2, 8);
    const auto bytes = toVec(b.finish());

    auto tx = TxParser::parse(bytes);
    ASSERT_TRUE(tx.has_value());
    EXPECT_EQ(tx->header().lpn, 5u);
    EXPECT_EQ(tx->header().ds_id, 2u);
    EXPECT_EQ(tx->header().covered_opn, 9u);
    ASSERT_EQ(tx->entries().size(), 2u);
    EXPECT_EQ(tx->entries()[0].addr, RemotePtr(1, 0x1000));
    uint64_t got;
    std::memcpy(&got, tx->entries()[0].inline_value, 8);
    EXPECT_EQ(got, v1);
    std::memcpy(&got, tx->entries()[1].inline_value, 8);
    EXPECT_EQ(got, v2);
}

TEST(TxFormatTest, EmptyTransactionParses)
{
    TxBuilder b;
    b.reset(0, 0, 0);
    const auto bytes = toVec(b.finish()); // parse() aliases the buffer
    auto tx = TxParser::parse(bytes);
    ASSERT_TRUE(tx.has_value());
    EXPECT_EQ(tx->entries().size(), 0u);
}

TEST(TxFormatTest, TruncatedTailDetected)
{
    TxBuilder b;
    b.reset(1, 0, 0);
    const uint64_t v = 7;
    b.addInline(RemotePtr(0, 64), &v, 8);
    auto bytes = toVec(b.finish());
    for (size_t cut = 1; cut < sizeof(TxFooter) + 8; ++cut) {
        std::vector<uint8_t> torn(bytes.begin(), bytes.end() - cut);
        EXPECT_FALSE(TxParser::parse(torn).has_value())
            << "cut of " << cut << " bytes went undetected";
    }
}

TEST(TxFormatTest, CorruptedPayloadFailsChecksum)
{
    TxBuilder b;
    b.reset(1, 0, 0);
    uint8_t blob[100];
    std::memset(blob, 0x5a, sizeof(blob));
    b.addInline(RemotePtr(0, 256), blob, sizeof(blob));
    auto bytes = toVec(b.finish());
    bytes[sizeof(TxHeader) + sizeof(MemLogEntryHeader) + 50] ^= 0xff;
    EXPECT_FALSE(TxParser::parse(bytes).has_value());
}

TEST(TxFormatTest, MissingCommitFlagDetected)
{
    TxBuilder b;
    b.reset(1, 0, 0);
    const uint64_t v = 7;
    b.addInline(RemotePtr(0, 64), &v, 8);
    auto bytes = toVec(b.finish());
    // Zero the commit flag but keep everything else.
    std::memset(bytes.data() + bytes.size() - sizeof(TxFooter), 0, 4);
    EXPECT_FALSE(TxParser::parse(bytes).has_value());
}

TEST(TxFormatTest, BadMagicRejected)
{
    std::vector<uint8_t> junk(sizeof(TxHeader) + sizeof(TxFooter), 0xab);
    EXPECT_FALSE(TxParser::parse(junk).has_value());
}

TEST(TxFormatTest, OpRefEntryRoundTrip)
{
    TxBuilder b;
    b.reset(3, 1, 4);
    b.addOpRef(RemotePtr(1, 0x3000), /*oplog_off=*/0x40, /*val_off=*/8,
               /*len=*/64);
    const auto bytes = toVec(b.finish()); // parse() aliases the buffer
    auto tx = TxParser::parse(bytes);
    ASSERT_TRUE(tx.has_value());
    ASSERT_EQ(tx->entries().size(), 1u);
    const ParsedMemLog &m = tx->entries()[0];
    EXPECT_EQ(m.flag, MemLogFlag::kOpRef);
    EXPECT_EQ(m.oplog_off, 0x40u);
    EXPECT_EQ(m.val_off, 8u);
    EXPECT_EQ(m.len, 64u);
}

TEST(TxFormatTest, ManyEntriesSurvive)
{
    TxBuilder b;
    b.reset(10, 7, 100);
    for (uint64_t i = 0; i < 500; ++i) {
        const uint64_t v = i * 3;
        b.addInline(RemotePtr(0, 4096 + i * 8), &v, 8);
    }
    const auto bytes = toVec(b.finish()); // parse() aliases the buffer
    auto tx = TxParser::parse(bytes);
    ASSERT_TRUE(tx.has_value());
    ASSERT_EQ(tx->entries().size(), 500u);
    uint64_t got;
    std::memcpy(&got, tx->entries()[499].inline_value, 8);
    EXPECT_EQ(got, 499u * 3);
}

/**
 * An entry header whose len field is near UINT32_MAX must be rejected
 * by a length comparison, not by `p + eh.len` pointer arithmetic — the
 * latter overflows past one-past-the-end (undefined behaviour, and a
 * wild read wherever it happens to wrap). The footer checksum is
 * recomputed after patching so the parser actually reaches the bounds
 * check instead of bailing at the end mark.
 */
TEST(TxFormatTest, HugeEntryLenRejectedWithoutOverflow)
{
    TxBuilder b;
    b.reset(1, 0, 0);
    const uint64_t v = 7;
    b.addInline(RemotePtr(0, 64), &v, 8);
    auto bytes = toVec(b.finish());

    for (const uint32_t evil :
         {UINT32_MAX, UINT32_MAX - 7, UINT32_MAX - 15, 1u << 31}) {
        auto patched = bytes;
        auto *eh = reinterpret_cast<MemLogEntryHeader *>(
            patched.data() + sizeof(TxHeader));
        eh->len = evil;
        auto *foot = reinterpret_cast<TxFooter *>(
            patched.data() + patched.size() - sizeof(TxFooter));
        foot->checksum = crc32c(patched.data(),
                                patched.size() - sizeof(TxFooter));
        EXPECT_FALSE(TxParser::parse(patched).has_value())
            << "len=" << evil;
    }
}

/** Same hazard on the op-log side: val_len near UINT32_MAX. */
TEST(OpLogTest, HugeValLenRejectedWithoutOverflow)
{
    const char val[] = "tiny";
    auto rec = encodeOpLog(OpType::Insert, 1, 2, 3, val, sizeof(val));
    for (const uint32_t evil : {UINT32_MAX, UINT32_MAX - 3, 1u << 31}) {
        auto patched = rec;
        auto *hdr = reinterpret_cast<OpLogHeader *>(patched.data());
        hdr->val_len = evil;
        EXPECT_FALSE(decodeOpLog(patched).has_value()) << "len=" << evil;
    }
}

/**
 * Deterministic structured fuzz: every single-byte corruption and every
 * truncation of a valid transaction must parse cleanly (to a value or
 * to nullopt) without touching memory outside the buffer. Run under
 * ASYMNVM_SANITIZE=ON this is the torn-header safety net.
 */
TEST(TxFormatTest, ByteFlipAndTruncationFuzz)
{
    TxBuilder b;
    b.reset(2, 3, 4);
    uint8_t blob[48];
    std::memset(blob, 0x11, sizeof(blob));
    b.addInline(RemotePtr(1, 0x100), blob, sizeof(blob));
    b.addOpRef(RemotePtr(1, 0x200), 0x80, 8, 64);
    const auto bytes = toVec(b.finish());

    for (size_t i = 0; i < bytes.size(); ++i) {
        for (const uint8_t delta : {0x01, 0x80, 0xff}) {
            auto mut = bytes;
            mut[i] ^= delta;
            (void)TxParser::parse(mut); // must not crash
        }
    }
    for (size_t cut = 1; cut <= bytes.size(); ++cut) {
        std::vector<uint8_t> torn(bytes.begin(), bytes.end() - cut);
        EXPECT_FALSE(TxParser::parse(torn).has_value())
            << "truncation of " << cut << " bytes went undetected";
    }
}

TEST(OpLogTest, EncodeDecodeRoundTrip)
{
    const char val[] = "value-bytes";
    const auto rec =
        encodeOpLog(OpType::Insert, 4, 17, 0xbeef, val, sizeof(val));
    auto parsed = decodeOpLog(rec);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->op, OpType::Insert);
    EXPECT_EQ(parsed->ds_id, 4u);
    EXPECT_EQ(parsed->opn, 17u);
    EXPECT_EQ(parsed->key, 0xbeefu);
    EXPECT_EQ(parsed->wire_len, rec.size());
    ASSERT_EQ(parsed->value.size(), sizeof(val));
    EXPECT_EQ(std::memcmp(parsed->value.data(), val, sizeof(val)), 0);
}

TEST(OpLogTest, EmptyValueAllowed)
{
    const auto rec = encodeOpLog(OpType::Pop, 1, 2, 0, nullptr, 0);
    auto parsed = decodeOpLog(rec);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_TRUE(parsed->value.empty());
}

TEST(OpLogTest, TornRecordDetected)
{
    const char val[] = "torn";
    auto rec = encodeOpLog(OpType::Update, 0, 1, 2, val, sizeof(val));
    rec.pop_back();
    EXPECT_FALSE(decodeOpLog(rec).has_value());
}

TEST(OpLogTest, CorruptValueDetected)
{
    const char val[] = "corrupt-me";
    auto rec = encodeOpLog(OpType::Insert, 0, 1, 2, val, sizeof(val));
    rec[sizeof(OpLogHeader) + 3] ^= 0x80;
    EXPECT_FALSE(decodeOpLog(rec).has_value());
}

TEST(OpLogTest, DecodeFromLargerBufferUsesWireLen)
{
    const char val[] = "x";
    auto rec = encodeOpLog(OpType::Erase, 9, 3, 4, val, sizeof(val));
    const size_t wire = rec.size();
    rec.resize(rec.size() + 100, 0xcd); // trailing garbage in the ring
    auto parsed = decodeOpLog(rec);
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(parsed->wire_len, wire);
}

// ---------------------------------------------------------------------
// Satellite regressions: finishedSize() in both states, strict flag and
// OpType validation.
// ---------------------------------------------------------------------

TEST(TxFormatTest, FinishedSizeExactBeforeAndAfterFinish)
{
    TxBuilder b;
    b.reset(5, 1, 2);
    const uint64_t v = 11;
    b.addInline(RemotePtr(0, 128), &v, 8);
    b.addOpRef(RemotePtr(0, 512), 0x80, 0, 64);
    const size_t predicted = b.finishedSize();
    const auto bytes = b.finish();
    EXPECT_EQ(predicted, bytes.size())
        << "pre-finish prediction must match the wire size";
    EXPECT_EQ(b.finishedSize(), bytes.size())
        << "post-finish size must not add a phantom footer";
}

TEST(TxFormatTest, UnknownEntryFlagRejected)
{
    TxBuilder b;
    b.reset(1, 0, 0);
    const uint64_t v = 7;
    b.addInline(RemotePtr(0, 64), &v, 8);
    const auto bytes = toVec(b.finish());
    for (const int bad : {2, 3, 0x80, 0xff}) {
        auto patched = bytes;
        patched[sizeof(TxHeader)] = static_cast<uint8_t>(bad);
        auto *foot = reinterpret_cast<TxFooter *>(
            patched.data() + patched.size() - sizeof(TxFooter));
        foot->checksum =
            crc32c(patched.data(), patched.size() - sizeof(TxFooter));
        EXPECT_FALSE(TxParser::parse(patched).has_value())
            << "flag byte " << bad << " misparsed instead of rejected";
    }
}

TEST(OpLogTest, OutOfRangeOpTypeRejected)
{
    const char val[] = "x";
    auto rec = encodeOpLog(OpType::Insert, 1, 2, 3, val, sizeof(val));
    auto *hdr = reinterpret_cast<OpLogHeader *>(rec.data());
    hdr->op = kMaxOpTypeByte + 1;
    const size_t body = rec.size() - sizeof(uint32_t);
    const uint32_t crc = crc32c(rec.data(), body);
    std::memcpy(rec.data() + body, &crc, sizeof(crc));
    EXPECT_FALSE(decodeOpLog(rec).has_value());
}

} // namespace
} // namespace asymnvm
