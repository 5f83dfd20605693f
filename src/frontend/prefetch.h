#ifndef ASYMNVM_FRONTEND_PREFETCH_H_
#define ASYMNVM_FRONTEND_PREFETCH_H_

/**
 * @file
 * Traversal prefetch policy for the remote-read hot path.
 *
 * A dependent remote traversal (B+-tree descent, skiplist walk, hash
 * chain) pays one RDMA_Read round trip per pointer hop. The session can
 * hide part of that cost by gathering the demanded node *plus* likely
 * neighbors in one doorbell-batched read chain (Verbs::readGather). Two
 * candidate sources feed that gather:
 *
 *  1. Explicit structural neighbors the data structure already knows
 *     (sibling children around the taken B+-tree route, the lower levels
 *     of a skiplist tower). These ride in `ReadHint::neighbors` and need
 *     no history.
 *  2. Learned runs for pointer chains whose successors are NOT known
 *     before the read (hash-table bucket chains, skiplist bottom-level
 *     scans). The structure labels such reads with a stable `stream` id
 *     (e.g. the bucket address); this engine records the address run
 *     observed under each stream and, when the run's head is re-visited,
 *     commits it as the prediction for the next traversal.
 *
 * The engine is purely volatile, per-session state: it holds addresses,
 * never data, so it needs no invalidation protocol beyond dropping its
 * predictions when the owning structure's gc epoch bumps (stale addresses
 * would at worst prefetch garbage bytes that cache-validate away — but
 * dropping them avoids wasted wire traffic).
 */

#include <algorithm>
#include <array>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/types.h"

namespace asymnvm {

/** One speculative read the prefetch policy proposes to gather. */
struct PrefetchCandidate
{
    uint64_t addr_raw = 0; //!< RemotePtr::raw() of the neighbor
    uint32_t len = 0;      //!< bytes to fetch (the node size)
};

/** Per-session learned-run predictor for chain-shaped traversals. */
class PrefetchEngine
{
  public:
    PrefetchEngine() = default;
    // Runs hold iterators into by_credit_, so a copy would point into
    // the source's lists.
    PrefetchEngine(const PrefetchEngine &) = delete;
    PrefetchEngine &operator=(const PrefetchEngine &) = delete;

    /**
     * Record that @p ds read @p len bytes at @p addr_raw while walking
     * @p stream. Re-visiting the first address of the run under
     * construction commits that run as the stream's prediction and starts
     * recording the next one — so a bucket chain's full membership is
     * predictable from its second traversal on. A recorded run that is a
     * strict prefix of the committed one (a walk that stopped early)
     * keeps the committed run.
     */
    void onAccess(DsId ds, uint64_t stream, uint64_t addr_raw,
                  uint32_t len);

    /**
     * Append to @p out the committed successors of @p demanded_raw in
     * @p stream's predicted run (empty when the stream is unknown or the
     * address is not part of the prediction). A successful prediction
     * counts as a hit on the stream and refreshes its eviction score.
     */
    void collect(DsId ds, uint64_t stream, uint64_t demanded_raw,
                 std::vector<PrefetchCandidate> *out);

    /** Forget every prediction for @p ds (gc epoch bump / structure drop). */
    void invalidateDs(DsId ds);

    /** Forget everything (crash, failover: volatile state dies). */
    void clear()
    {
        streams_.clear();
        for (auto &l : by_credit_)
            l.clear();
    }

    /** Streams currently tracked (observability / tests). */
    size_t streamCount() const { return streams_.size(); }

  private:
    /** Longest run recorded per stream (bounds memory and gather size). */
    static constexpr size_t kMaxRunLen = 64;
    /** Tracked-stream cap; overflow evicts the lowest-scoring stream
     *  (hit-rate-weighted LRU) so hot predictions survive bursts of
     *  one-shot streams. */
    static constexpr size_t kMaxStreams = 4096;
    /**
     * Eviction-score credit per served prediction, in recency ticks. One
     * hit is worth a full table turnover of cold streams: a stream whose
     * prediction actually fired outlives every never-hit stream that
     * merely arrived later, until the table churns past its credit.
     */
    static constexpr uint64_t kHitBonusTicks = kMaxStreams;
    /** Hits credited at most this many times (bounds score staleness). */
    static constexpr uint64_t kMaxHitCredit = 4;

    using StreamKey = std::pair<uint64_t, uint64_t>; // (ds, stream)
    /** Streams of one hit credit, least recently touched first. */
    using CreditList = std::list<StreamKey>;

    struct Run
    {
        std::vector<PrefetchCandidate> committed; //!< last full traversal
        std::vector<PrefetchCandidate> building;  //!< traversal in progress
        uint64_t last_hit = 0;                    //!< recency (tick_ stamp)
        uint64_t hits = 0; //!< predictions served (collect() matches)
        CreditList::iterator pos; //!< place in by_credit_[credit(hits)]
    };

    static size_t credit(uint64_t hits)
    {
        return static_cast<size_t>(std::min(hits, kMaxHitCredit));
    }

    /** Stamp @p run as just touched and move it to the recent end of
     *  its credit list (re-filed when its credit changed from
     *  @p old_credit). */
    void touch(Run &run, size_t old_credit);

    /** Drop the lowest-scoring stream to make room (table at cap). */
    void evictColdest();

    uint64_t tick_ = 0;

    struct StreamKeyHash
    {
        size_t operator()(const StreamKey &k) const noexcept
        {
            return std::hash<uint64_t>{}(k.first * 0x9e3779b97f4a7c15ULL ^
                                         k.second);
        }
    };

    std::unordered_map<StreamKey, Run, StreamKeyHash> streams_;
    /**
     * Eviction index. A touch stamps the global maximum tick, so each
     * list is ordered by last_hit and the lowest score is at one of the
     * kMaxHitCredit + 1 fronts: O(1) eviction instead of a table scan.
     */
    std::array<CreditList, kMaxHitCredit + 1> by_credit_;
};

} // namespace asymnvm

#endif // ASYMNVM_FRONTEND_PREFETCH_H_
