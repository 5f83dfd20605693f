/**
 * @file
 * PrefetchEngine stream-table tests: learned-run commit/collect
 * semantics and the overflow policy. The table caps at 4096 streams;
 * overflow must evict only the lowest-scoring stream under
 * hit-rate-weighted LRU — recency plus a credit per served prediction —
 * never wipe the table: a stream whose predictions actually fired has
 * to survive bursts of newer cold streams (scan anchors, dying
 * buckets), but only until the table churns past its credit.
 */

#include <gtest/gtest.h>

#include "frontend/prefetch.h"

namespace asymnvm {
namespace {

constexpr size_t kCap = 4096; // PrefetchEngine::kMaxStreams

/** Walk the hot stream's 4-address chain once and wrap to its head,
 *  committing the run as the stream's prediction. */
void
walkHotChain(PrefetchEngine &eng, DsId ds, uint64_t stream)
{
    for (uint64_t a = 1; a <= 4; ++a)
        eng.onAccess(ds, stream, 0x1000 * a, 64);
    eng.onAccess(ds, stream, 0x1000, 64); // back to the head: commit
}

TEST(PrefetchEngineTest, HeadOnlyWalkKeepsTheDeeperRun)
{
    PrefetchEngine eng;
    const uint64_t kStream = 0xb0c7;
    walkHotChain(eng, 1, kStream); // a deep walk commits head + 3
    // A lookup that finds its key at the head: its walk is the head
    // alone, and the next lookup wraps back to the head again.
    eng.onAccess(1, kStream, 0x1000, 64);
    eng.onAccess(1, kStream, 0x1000, 64);
    std::vector<PrefetchCandidate> out;
    eng.collect(1, kStream, 0x1000, &out);
    ASSERT_EQ(out.size(), 3u) << "a head-only walk replaced the deep run";
    for (uint64_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i].addr_raw, 0x1000 * (i + 2));

    // A walk that differs (a shorter chain after an erase) still
    // replaces the run: only a strict prefix is ignored.
    eng.onAccess(1, kStream, 0x3000, 64);
    eng.onAccess(1, kStream, 0x1000, 64);
    out.clear();
    eng.collect(1, kStream, 0x1000, &out);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(out[0].addr_raw, 0x3000u);
}

TEST(PrefetchEngineTest, HotStreamSurvivesOverflowBurst)
{
    PrefetchEngine eng;
    const uint64_t kHot = 0xbeef;
    walkHotChain(eng, 1, kHot);
    std::vector<PrefetchCandidate> out;
    eng.collect(1, kHot, 0x1000, &out);
    ASSERT_EQ(out.size(), 3u) << "run must be committed before the burst";

    // Fill the table to its cap with cold one-shot streams.
    for (uint64_t i = 0; eng.streamCount() < kCap; ++i)
        eng.onAccess(2, 0x10000 + i, 0x200000 + i * 64, 64);
    EXPECT_EQ(eng.streamCount(), kCap);

    // Touch the hot stream so it is recent, then keep overflowing.
    walkHotChain(eng, 1, kHot);
    for (uint64_t i = 0; i < 500; ++i)
        eng.onAccess(2, 0x900000 + i, 0x400000 + i * 64, 64);

    EXPECT_EQ(eng.streamCount(), kCap)
        << "overflow must evict one stream per arrival, not clear()";
    out.clear();
    eng.collect(1, kHot, 0x1000, &out);
    EXPECT_EQ(out.size(), 3u)
        << "hot stream's prediction was lost to a cold-stream burst";
}

TEST(PrefetchEngineTest, OverflowEvictsTheColdestStreamFirst)
{
    PrefetchEngine eng;
    // Two committed streams, touched in a known order...
    walkHotChain(eng, 1, /*stream=*/100); // older
    walkHotChain(eng, 1, /*stream=*/200); // newer
    for (uint64_t i = 0; eng.streamCount() < kCap; ++i)
        eng.onAccess(3, 0x50000 + i, 0x300000 + i * 64, 64);
    // ...then exactly one arrival past the cap: stream 100 is the LRU
    // victim among the committed pair only if every cold filler is
    // newer, so re-touch 200 and overflow once.
    walkHotChain(eng, 1, 200);
    eng.onAccess(4, 0x77777, 0x500000, 64);
    EXPECT_EQ(eng.streamCount(), kCap);

    std::vector<PrefetchCandidate> out;
    eng.collect(1, 200, 0x1000, &out);
    EXPECT_FALSE(out.empty()) << "recently touched stream evicted";
}

TEST(PrefetchEngineTest, ServedPredictionOutlivesColdNewerStreams)
{
    PrefetchEngine eng;
    const uint64_t kHit = 0xaaaa;
    walkHotChain(eng, 1, kHit);
    std::vector<PrefetchCandidate> out;
    eng.collect(1, kHit, 0x1000, &out); // prediction served: one hit
    ASSERT_EQ(out.size(), 3u);

    // Fill to the cap with cold streams, every one of them touched more
    // recently than the hit stream.
    for (uint64_t i = 0; eng.streamCount() < kCap; ++i)
        eng.onAccess(2, 0x10000 + i, 0x200000 + i * 64, 64);

    // Overflow once. Plain LRU-of-streams would evict the hit stream —
    // it has the oldest touch in the table; the hit credit must make a
    // cold filler the victim instead.
    eng.onAccess(3, 0x4242, 0x600000, 64);
    EXPECT_EQ(eng.streamCount(), kCap);
    out.clear();
    eng.collect(1, kHit, 0x1000, &out);
    EXPECT_EQ(out.size(), 3u)
        << "stream with a served prediction lost to cold newer streams";

    // The credit is one table turnover per served hit (two by now), not
    // immortality: once the table churns past it, the stale hit stream
    // goes too.
    for (uint64_t i = 0; i < 3 * kCap + 256; ++i)
        eng.onAccess(4, 0x800000 + i, 0x900000 + i * 64, 64);
    out.clear();
    eng.collect(1, kHit, 0x1000, &out);
    EXPECT_TRUE(out.empty())
        << "stale hit stream must age out after a full table turnover";
}

TEST(PrefetchEngineTest, InvalidatedStreamsLeaveTheEvictionOrder)
{
    // Streams dropped by invalidateDs must leave the eviction index
    // too: later overflows evict live streams in score order, never a
    // ghost, and the table stays exactly at its cap.
    PrefetchEngine eng;
    const uint64_t kHit = 0xcccc;
    walkHotChain(eng, 7, kHit);
    std::vector<PrefetchCandidate> out;
    eng.collect(7, kHit, 0x1000, &out); // one hit: credit level 1
    for (uint64_t i = 0; eng.streamCount() < kCap; ++i)
        eng.onAccess(i % 2 == 0 ? 5 : 6, 0x10000 + i, 0x200000 + i * 64,
                     64);
    eng.invalidateDs(5);
    EXPECT_EQ(eng.streamCount(), kCap / 2);
    eng.invalidateDs(7);
    for (uint64_t i = 0; i < 2 * kCap; ++i)
        eng.onAccess(8, 0x900000 + i, 0x400000 + i * 64, 64);
    EXPECT_EQ(eng.streamCount(), kCap);
    out.clear();
    eng.collect(7, kHit, 0x1000, &out);
    EXPECT_TRUE(out.empty()) << "invalidated stream came back";
}

} // namespace
} // namespace asymnvm
