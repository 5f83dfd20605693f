/**
 * @file
 * Unit tests for the common substrate: remote pointers, values, CRC32-C,
 * the PRNG, the Zipf sampler, and the statistics helpers.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/checksum.h"
#include "common/hash.h"
#include "common/rand.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/zipf.h"

namespace asymnvm {
namespace {

TEST(RemotePtrTest, RawRoundTrip)
{
    const RemotePtr p(7, 0x123456789aULL);
    const RemotePtr q = RemotePtr::fromRaw(p.raw());
    EXPECT_EQ(q.backend, 7);
    EXPECT_EQ(q.offset, 0x123456789aULL);
    EXPECT_EQ(p, q);
}

TEST(RemotePtrTest, NullSemantics)
{
    EXPECT_TRUE(kNullPtr.isNull());
    EXPECT_TRUE(RemotePtr(3, 0).isNull());
    EXPECT_FALSE(RemotePtr(0, 8).isNull());
    EXPECT_EQ(RemotePtr::fromRaw(0), kNullPtr);
}

TEST(RemotePtrTest, ArithmeticKeepsBackend)
{
    const RemotePtr p(2, 100);
    const RemotePtr q = p + 28;
    EXPECT_EQ(q.backend, 2);
    EXPECT_EQ(q.offset, 128u);
}

TEST(RemotePtrTest, MaxOffsetSurvivesEncoding)
{
    const uint64_t max_off = (1ULL << 48) - 1;
    const RemotePtr p(0xffff, max_off);
    const RemotePtr q = RemotePtr::fromRaw(p.raw());
    EXPECT_EQ(q.backend, 0xffff);
    EXPECT_EQ(q.offset, max_off);
}

TEST(ValueTest, U64RoundTrip)
{
    const Value v = Value::ofU64(0xdeadbeefcafeULL);
    EXPECT_EQ(v.asU64(), 0xdeadbeefcafeULL);
}

TEST(ValueTest, StringRoundTrip)
{
    const Value v = Value::ofString("asymnvm");
    EXPECT_EQ(v.asString(), "asymnvm");
}

TEST(ValueTest, StringTruncatesTo64Bytes)
{
    const std::string long_str(100, 'x');
    const Value v = Value::ofString(long_str);
    EXPECT_EQ(v.asString(), std::string(64, 'x'));
}

TEST(ValueTest, EqualityComparesAllBytes)
{
    Value a = Value::ofU64(1);
    Value b = Value::ofU64(1);
    EXPECT_EQ(a, b);
    b.bytes[63] = 1;
    EXPECT_NE(a, b);
}

TEST(ChecksumTest, KnownVector)
{
    // CRC32-C("123456789") is the classic check value.
    EXPECT_EQ(crc32c("123456789", 9), 0xe3069283u);
}

TEST(ChecksumTest, EmptyInput)
{
    EXPECT_EQ(crc32c("", 0), 0u);
}

TEST(ChecksumTest, DetectsSingleBitFlip)
{
    uint8_t buf[64] = {};
    for (int i = 0; i < 64; ++i)
        buf[i] = static_cast<uint8_t>(i);
    const uint32_t base = crc32c(buf, sizeof(buf));
    for (int byte = 0; byte < 64; byte += 7) {
        buf[byte] ^= 0x10;
        EXPECT_NE(crc32c(buf, sizeof(buf)), base)
            << "flip at byte " << byte << " undetected";
        buf[byte] ^= 0x10;
    }
}

TEST(ChecksumTest, IncrementalMatchesOneShot)
{
    const std::string data = "the quick brown fox jumps over the lazy dog";
    const uint32_t whole = crc32c(data.data(), data.size());
    const uint32_t part1 = crc32c(data.data(), 10);
    const uint32_t part2 = crc32c(data.data() + 10, data.size() - 10,
                                  part1);
    EXPECT_EQ(whole, part2);
}

/** Bit-at-a-time CRC32-C: the definition, independent of any table. */
uint32_t
crc32cBitwise(const uint8_t *p, size_t len, uint32_t seed)
{
    uint32_t crc = ~seed;
    for (size_t i = 0; i < len; ++i) {
        crc ^= p[i];
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ ((crc & 1) ? 0x82f63b78u : 0);
    }
    return ~crc;
}

TEST(ChecksumTest, FastPathMatchesBitwiseReference)
{
    // Every length through the 8-byte-word loop and its byte tail, at
    // every misalignment; crc32c takes the SSE4.2 path where the CPU
    // has it, crc32cPortable is the table fallback.
    std::vector<uint8_t> buf(600 + 8);
    Rng rng(7);
    for (uint8_t &b : buf)
        b = static_cast<uint8_t>(rng.next());
    for (size_t off = 0; off <= 8; ++off) {
        for (size_t len = 0; len <= 600; ++len) {
            const uint8_t *p = buf.data() + off;
            const uint32_t seed = static_cast<uint32_t>(len * 2654435761u);
            const uint32_t want = crc32cBitwise(p, len, seed);
            ASSERT_EQ(crc32c(p, len, seed), want)
                << "off " << off << " len " << len;
            ASSERT_EQ(crc32cPortable(p, len, seed), want)
                << "off " << off << " len " << len;
        }
    }
}

TEST(RngTest, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, BoundedStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(5);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(ZipfTest, RanksInRange)
{
    ZipfGenerator zipf(1000, 0.99);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.next(), 1000u);
}

TEST(ZipfTest, SkewConcentratesMass)
{
    // At theta = 0.99, the hottest 10% of items should absorb well over
    // half the accesses; at theta = 0.5 much less so.
    auto hot_fraction = [](double theta) {
        ZipfGenerator zipf(1000, theta, 7);
        uint64_t hot = 0;
        const int n = 20000;
        for (int i = 0; i < n; ++i)
            hot += zipf.next() < 100 ? 1 : 0;
        return static_cast<double>(hot) / n;
    };
    const double skewed = hot_fraction(0.99);
    const double mild = hot_fraction(0.5);
    EXPECT_GT(skewed, 0.55);
    EXPECT_GT(skewed, mild + 0.15);
}

TEST(HashTest, Fnv1aNeverZeroAndStable)
{
    EXPECT_NE(fnv1a64(""), 0u);
    EXPECT_EQ(fnv1a64("asymnvm"), fnv1a64("asymnvm"));
    EXPECT_NE(fnv1a64("a"), fnv1a64("b"));
}

TEST(HistogramTest, PercentilesOrdered)
{
    Histogram h;
    for (uint64_t i = 1; i <= 1000; ++i)
        h.record(i * 10);
    EXPECT_EQ(h.count(), 1000u);
    EXPECT_LE(h.percentile(50), h.percentile(99));
    EXPECT_LE(h.percentile(99), h.max());
    EXPECT_NEAR(h.mean(), 5005.0, 1.0);
}

TEST(HistogramTest, MergeAccumulates)
{
    Histogram a, b;
    a.record(100);
    b.record(200);
    a.merge(b);
    EXPECT_EQ(a.count(), 2u);
    EXPECT_EQ(a.max(), 200u);
}

TEST(HistogramTest, InterpolatedPercentilesAgainstKnownDistribution)
{
    // Uniform 1..10000, one sample each: percentile p should come out
    // near p% of the range. The log-bucket layout alone only resolves
    // powers of two; interpolation inside the containing bucket must do
    // substantially better than a bucket bound.
    Histogram h;
    for (uint64_t v = 1; v <= 10000; ++v)
        h.record(v);
    EXPECT_NEAR(static_cast<double>(h.percentileInterp(50)), 5000.0,
                900.0);
    EXPECT_NEAR(static_cast<double>(h.percentileInterp(99)), 9900.0,
                600.0);
    EXPECT_NEAR(static_cast<double>(h.percentileInterp(99.9)), 9990.0,
                600.0);
    // Ordering and clamping invariants.
    EXPECT_LE(h.percentileInterp(50), h.percentileInterp(99));
    EXPECT_LE(h.percentileInterp(99), h.percentileInterp(99.9));
    EXPECT_LE(h.percentileInterp(99.9), h.max());
    EXPECT_EQ(h.percentileInterp(100), h.max());
    // The bucket-bound percentile stays what existing tables print.
    EXPECT_EQ(h.percentile(50), (1ULL << 13) - 1);
    EXPECT_EQ(Histogram{}.percentileInterp(99), 0u);
}

TEST(HistogramTest, MergeEqualsRecordingUnion)
{
    // Merging two histograms must answer percentiles exactly as if every
    // sample had been recorded into one.
    Histogram a, b, all;
    for (uint64_t v = 1; v <= 3000; ++v) {
        ((v % 3 == 0) ? a : b).record(v * 7);
        all.record(v * 7);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_EQ(a.max(), all.max());
    EXPECT_DOUBLE_EQ(a.mean(), all.mean());
    for (const double p : {10.0, 50.0, 90.0, 99.0, 99.9}) {
        EXPECT_EQ(a.percentile(p), all.percentile(p)) << "p=" << p;
        EXPECT_EQ(a.percentileInterp(p), all.percentileInterp(p))
            << "p=" << p;
    }
}

TEST(ThroughputTest, KopsComputedAgainstVirtualTime)
{
    Throughput t{1000, 1000000}; // 1000 ops in 1 ms of virtual time
    EXPECT_DOUBLE_EQ(t.kops(), 1000.0);
    EXPECT_DOUBLE_EQ(t.mops(), 1.0);
    const Throughput zero{100, 0};
    EXPECT_DOUBLE_EQ(zero.kops(), 0.0);
}

} // namespace
} // namespace asymnvm
