#ifndef ASYMNVM_FRONTEND_CACHE_H_
#define ASYMNVM_FRONTEND_CACHE_H_

/**
 * @file
 * Front-end DRAM data cache (Section 4.4).
 *
 * The front-end maps remote NVM objects (tree nodes, hash-table items,
 * pages — "the page size is adjustable according to different data
 * structures") to local DRAM copies through a hash map. Three replacement
 * policies are provided:
 *
 *  - Lru:    exact LRU; best hit ratio but charges extra DRAM work on
 *            every access for list maintenance (the paper calls its
 *            implementation "expensive"),
 *  - Random: random replacement; cheap but keeps no hot data,
 *  - Hybrid: the paper's policy — sample a random set of K pages and
 *            evict the least recently used one of the set, combining
 *            LRU-quality hit ratios with RR-level bookkeeping cost. One
 *            sample serves a whole insert: its members are evicted
 *            oldest first until the object fits.
 *
 * Entries are tagged with the owning data structure so multi-version
 * readers can flush a structure's entries when its gc_epoch advances
 * (reclaimed NVM may be reused; see Section 6.2 and frontend/session.h).
 */

#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/rand.h"
#include "common/types.h"
#include "sim/clock.h"
#include "sim/latency.h"

namespace asymnvm {

/** Replacement policies for the front-end data cache. */
enum class CachePolicy : uint8_t
{
    Lru,
    Random,
    Hybrid,
};

/** Object-granularity DRAM cache in front of remote NVM. */
class PageCache
{
  public:
    /**
     * @param policy     Replacement policy.
     * @param capacity   Capacity in bytes of cached data.
     * @param clock      Session clock charged for probe/maintenance work.
     * @param lat        Cost constants.
     * @param sample_k   Sample-set size for the Hybrid policy (paper: 32).
     * @param seed       PRNG seed for Random/Hybrid sampling.
     */
    PageCache(CachePolicy policy, uint64_t capacity, SimClock *clock,
              const LatencyModel *lat, uint32_t sample_k = 32,
              uint64_t seed = 1234);

    /**
     * Probe for @p addr. On a hit, copies the cached bytes (which must
     * have been inserted with the same length) into @p dst.
     */
    bool lookup(RemotePtr addr, void *dst, uint32_t len);

    /** Insert (or refresh) an object; evicts per policy to make room. */
    void insert(DsId ds, RemotePtr addr, const void *data, uint32_t len);

    /**
     * Evict per policy until @p bytes more fit on top of the current
     * contents. insert() and insertSpeculative() call it for their own
     * object. A read miss calls it ahead of its fills, while the read is
     * in flight, once per fill with the fills' cumulative bytes, so each
     * fill then finds its room made and evicts nothing itself.
     */
    void makeRoom(uint64_t bytes);

    /**
     * Insert bytes fetched speculatively by a read gather. The entry is
     * tagged speculative and pre-aged (logical tick 0, LRU tail) so it is
     * the preferred victim under every policy until a real lookup hits it
     * — prefetched garbage must not displace proven-hot entries. The
     * first hit promotes it to a normal entry (and counts prefetchHits);
     * eviction or invalidation while still speculative counts
     * prefetchWasted. @p issue_epoch is the epochNow() snapshot taken
     * when the gather was ISSUED: an invalidateDs that lands between
     * issue and completion outranks the data, and the insert is dropped.
     */
    void insertSpeculative(DsId ds, RemotePtr addr, const void *data,
                           uint32_t len, uint64_t issue_epoch);

    /**
     * Write-allocate a freshly allocated object its session has just
     * written whole (Gather-Apply, Section 4): the front-end already holds
     * the bytes, so a later read need not fetch them. Admitted only when
     * the object fits in free space AND the cache has not evicted since
     * the last clear(): once the working set has overflowed, an object
     * nobody has read would only displace one a read proved useful. The
     * rule is sticky on purpose, because free space after an eviction
     * is a gap a demanded fill will want. Installs like insert() (same
     * charge) and returns true, or touches nothing and returns false.
     */
    bool insertFresh(DsId ds, RemotePtr addr, const void *data,
                     uint32_t len);

    /**
     * Write-through update after a memory log: patch the cached copy if
     * present. Length mismatch invalidates the entry instead.
     */
    void update(RemotePtr addr, const void *data, uint32_t len);

    /** Drop one object. */
    void invalidate(RemotePtr addr);

    /** Drop every object belonging to @p ds (gc_epoch advanced). */
    void invalidateDs(DsId ds);

    /** Drop everything (back-end failover, Section 4.3). */
    void clear();

    /**
     * Pure presence probe (no stats, no clock charge): true when a valid
     * same-length entry exists. The prefetch path uses this to avoid
     * gathering bytes that are already resident.
     */
    bool contains(RemotePtr addr, uint32_t len) const;

    /**
     * Current invalidation epoch. Snapshot BEFORE issuing a read gather
     * and pass to insertSpeculative so a concurrent invalidateDs drops
     * the in-flight prefetch.
     */
    uint64_t epochNow() const { return epoch_; }

    /**
     * True when @p ds's entries were invalidated, or the whole cache
     * cleared, after the epochNow() snapshot @p issue_epoch: bytes read
     * under that snapshot may predate the invalidation and must not be
     * installed. No charge.
     */
    bool invalidatedSince(DsId ds, uint64_t issue_epoch) const;

    uint64_t hits() const { return ctr_.hits; }
    uint64_t misses() const { return ctr_.misses; }
    uint64_t evictions() const { return ctr_.evictions; }
    uint64_t sizeBytes() const { return vol_.size_bytes; }
    uint64_t capacity() const { return capacity_; }
    uint64_t entryCount() const { return vol_.map.size(); }
    uint64_t prefetchHits() const { return ctr_.prefetch_hits; }
    uint64_t prefetchWasted() const { return ctr_.prefetch_wasted; }
    uint64_t writeAllocs() const { return ctr_.write_allocs; }
    /** Hybrid sampling passes, each charged k × dram_access_ns / 8. */
    uint64_t evictionSamples() const { return ctr_.eviction_samples; }

    /**
     * Speculation gate (DESIGN.md §9): true while read-gather prefetch
     * pays for @p ds, i.e. its ledger holds fewer than
     * kGateSlack + kGateHitWorth × hits wasted entries. No charge, no
     * state change.
     */
    bool speculationPays(DsId ds) const;

    /**
     * Gate verdict for one remote miss of @p ds that has speculative
     * candidates: true when the gate is open, and on every
     * kProbeInterval-th miss while it is closed (a probe, so a closed
     * gate can see the access pattern change). False means the miss
     * posts its demanded read alone.
     */
    bool admitSpeculation(DsId ds);

    /** Observed miss ratio since the last resetStats(). */
    double missRatio() const
    {
        const uint64_t total = ctr_.hits + ctr_.misses;
        return total == 0 ? 0.0
                          : static_cast<double>(ctr_.misses) / total;
    }

    /**
     * Stats only: the speculation ledger survives on purpose. It steers
     * which reads are issued, and a stats reset must never move virtual
     * time. Only clear() forgets it.
     */
    void resetStats() { ctr_ = {}; }

  private:
    /** Gate rule: open while wasted < kGateSlack + kGateHitWorth × hits.
     *  A hit saves a ~2 µs round trip; a wasted install costs ~200 ns,
     *  ~450 ns with the one Hybrid sample a full cache adds when that
     *  sample does not hide under the gather's round trip, so one hit
     *  is worth about 8 wastes. */
    static constexpr uint64_t kGateHitWorth = 8;
    static constexpr uint64_t kGateSlack = 64;
    /** Ledger window: at this many outcomes both counts halve, so old
     *  history fades and a closed gate can reopen. */
    static constexpr uint64_t kLedgerWindow = 1024;
    /** While closed, every kProbeInterval-th miss still speculates. */
    static constexpr uint64_t kProbeInterval = 64;

    /** Per-structure speculation outcomes (the gate's evidence). */
    struct SpecLedger
    {
        uint64_t hits = 0;
        uint64_t wasted = 0;
        uint64_t closed_misses = 0; //!< misses seen while closed (probes)
    };

    struct Entry
    {
        std::vector<uint8_t> data;
        uint64_t epoch;             //!< insertion epoch (DS invalidation)
        size_t keys_idx;            //!< position in keys and ticks
        std::list<uint64_t>::iterator lru_it; //!< valid under Lru
        DsId ds;
        bool speculative = false;   //!< prefetched, no real hit yet
    };

    bool entryValid(const Entry &e) const;
    /** Count one speculative outcome in the session totals and in
     *  @p ds's ledger. */
    void recordSpec(DsId ds, bool hit);

    /** Hybrid sample member: last-use tick and key. A key, not an index,
     *  because removeKey swap-pops the dense vectors. */
    struct Drawn
    {
        uint64_t tick;
        uint64_t raw;
    };

    /** Drop @p raw if present; false when it was already gone. */
    bool removeKey(uint64_t raw);

    // Wiring: never reset. The RNG keeps its stream across clear(), and
    // tick_ and epoch_ never repeat a value: a gather's epochNow()
    // snapshot may still be held across a clear(), which bumps epoch_
    // and records it in cleared_epoch_.
    CachePolicy policy_;
    uint64_t capacity_;
    SimClock *clock_;
    const LatencyModel *lat_;
    uint32_t sample_k_;
    Rng rng_;
    uint64_t tick_ = 0;
    uint64_t epoch_ = 1;
    uint64_t cleared_epoch_ = 0; //!< epoch_ at the last clear()
    std::vector<Drawn> sample_; //!< Hybrid scratch: the current sample

    /** The contents: everything clear() drops. */
    struct Contents
    {
        std::unordered_map<uint64_t, Entry> map;
        std::vector<uint64_t> keys; //!< dense key set for random sampling
        /** Last-use logical time of keys[i], kept dense so a Hybrid
         *  sample reads it without a hash probe. */
        std::vector<uint64_t> ticks;
        std::list<uint64_t> lru_list; //!< MRU at front (Lru policy only)
        std::unordered_map<DsId, uint64_t> ds_min_epoch;
        /** A cleared cache has no speculation evidence either way. */
        std::unordered_map<DsId, SpecLedger> spec_ledger;
        uint64_t size_bytes = 0;
        bool evicted_since_clear = false; //!< closes write-allocate admission
    } vol_;

    /** Everything resetStats() zeroes. */
    struct Counters
    {
        uint64_t hits = 0;
        uint64_t misses = 0;
        uint64_t evictions = 0;
        uint64_t prefetch_hits = 0;
        uint64_t prefetch_wasted = 0;
        uint64_t write_allocs = 0;
        uint64_t eviction_samples = 0;
    } ctr_;
};

/**
 * Adaptive level-based cache admission for tree-like structures
 * (Section 8.3): only nodes at level <= N are admitted; N decreases when
 * the miss ratio exceeds 50% and increases when it drops below 25%,
 * evaluated over fixed-size windows of accesses.
 */
class LevelAdmission
{
  public:
    explicit LevelAdmission(uint32_t initial_n = 8, uint32_t window = 512)
        : n_(initial_n), window_(window)
    {}

    /** Should a node at @p level (root = 0) be admitted to the cache? */
    bool admit(uint32_t level) const { return level <= n_; }

    /** Record the outcome of one cacheable read. */
    void record(bool hit)
    {
        ++accesses_;
        misses_ += hit ? 0 : 1;
        if (accesses_ < window_)
            return;
        const double ratio =
            static_cast<double>(misses_) / static_cast<double>(accesses_);
        if (ratio > 0.50 && n_ > 0)
            --n_;
        else if (ratio < 0.25 && n_ < 64)
            ++n_;
        accesses_ = misses_ = 0;
    }

    uint32_t level() const { return n_; }

  private:
    uint32_t n_;
    uint32_t window_;
    uint64_t accesses_ = 0;
    uint64_t misses_ = 0;
};

} // namespace asymnvm

#endif // ASYMNVM_FRONTEND_CACHE_H_
