#include "frontend/cache.h"

#include <algorithm>
#include <cstring>

namespace asymnvm {

PageCache::PageCache(CachePolicy policy, uint64_t capacity, SimClock *clock,
                     const LatencyModel *lat, uint32_t sample_k,
                     uint64_t seed)
    : policy_(policy), capacity_(capacity), clock_(clock), lat_(lat),
      sample_k_(sample_k), rng_(seed)
{
    clear();
    sample_.reserve(sample_k_);
}

bool
PageCache::entryValid(const Entry &e) const
{
    auto it = vol_.ds_min_epoch.find(e.ds);
    return it == vol_.ds_min_epoch.end() || e.epoch >= it->second;
}

bool
PageCache::lookup(RemotePtr addr, void *dst, uint32_t len)
{
    clock_->advance(lat_->cache_probe_ns);
    auto it = vol_.map.find(addr.raw());
    if (it == vol_.map.end() || it->second.data.size() != len ||
        !entryValid(it->second)) {
        if (it != vol_.map.end() && !entryValid(it->second))
            removeKey(addr.raw()); // lazily drop invalidated entries
        ++ctr_.misses;
        return false;
    }
    Entry &e = it->second;
    std::memcpy(dst, e.data.data(), len);
    vol_.ticks[e.keys_idx] = ++tick_;
    if (e.speculative) {
        // First real hit: the prefetch paid off — promote to a normal
        // entry so it competes for residency like any other hot object.
        e.speculative = false;
        recordSpec(e.ds, true);
    }
    clock_->advance(lat_->dram_access_ns);
    if (policy_ == CachePolicy::Lru) {
        // Exact LRU pays list maintenance on every access — this is the
        // overhead the hybrid policy avoids (Section 4.4).
        vol_.lru_list.splice(vol_.lru_list.begin(), vol_.lru_list, e.lru_it);
        clock_->advance(2 * lat_->dram_access_ns);
    }
    ++ctr_.hits;
    return true;
}

void
PageCache::insert(DsId ds, RemotePtr addr, const void *data, uint32_t len)
{
    if (len > capacity_)
        return;
    const uint64_t raw = addr.raw();
    auto it = vol_.map.find(raw);
    if (it != vol_.map.end()) {
        if (it->second.data.size() == len) {
            it->second.ds = ds;
            std::memcpy(it->second.data.data(), data, len);
            vol_.ticks[it->second.keys_idx] = ++tick_;
            it->second.epoch = epoch_;
            it->second.speculative = false; // demanded bytes: a real entry
            clock_->advance(lat_->dram_access_ns);
            return;
        }
        // Size changed: fall through to a fresh insert so the eviction
        // loop keeps vol_.size_bytes within capacity_.
        removeKey(raw);
    }
    makeRoom(len);
    Entry e;
    e.ds = ds;
    e.data.assign(static_cast<const uint8_t *>(data),
                  static_cast<const uint8_t *>(data) + len);
    e.epoch = epoch_;
    e.keys_idx = vol_.keys.size();
    vol_.keys.push_back(raw);
    vol_.ticks.push_back(++tick_);
    if (policy_ == CachePolicy::Lru) {
        vol_.lru_list.push_front(raw);
        e.lru_it = vol_.lru_list.begin();
    }
    vol_.size_bytes += len;
    vol_.map.emplace(raw, std::move(e));
    clock_->advance(lat_->dram_access_ns);
}

bool
PageCache::insertFresh(DsId ds, RemotePtr addr, const void *data,
                       uint32_t len)
{
    if (vol_.evicted_since_clear || vol_.size_bytes + len > capacity_)
        return false;
    insert(ds, addr, data, len);
    ++ctr_.write_allocs;
    return true;
}

void
PageCache::insertSpeculative(DsId ds, RemotePtr addr, const void *data,
                             uint32_t len, uint64_t issue_epoch)
{
    if (len > capacity_)
        return;
    // An invalidateDs between gather issue and completion outranks the
    // data: the fetched bytes may predate a gc-epoch bump (reclaimed NVM
    // could already be reused), so the in-flight entry is dropped.
    if (invalidatedSince(ds, issue_epoch)) {
        recordSpec(ds, false);
        return;
    }
    const uint64_t raw = addr.raw();
    auto it = vol_.map.find(raw);
    if (it != vol_.map.end()) {
        if (entryValid(it->second))
            return; // never downgrade a live entry to speculative
        removeKey(raw);
    }
    makeRoom(len);
    Entry e;
    e.ds = ds;
    e.data.assign(static_cast<const uint8_t *>(data),
                  static_cast<const uint8_t *>(data) + len);
    e.epoch = issue_epoch;
    e.speculative = true;
    e.keys_idx = vol_.keys.size();
    vol_.keys.push_back(raw);
    // Pre-aged on purpose: tick 0 loses every Hybrid sample comparison
    // and the LRU tail position is the next victim, so an unproven
    // prefetch never displaces a proven-hot entry under either policy.
    vol_.ticks.push_back(0);
    if (policy_ == CachePolicy::Lru) {
        vol_.lru_list.push_back(raw);
        e.lru_it = std::prev(vol_.lru_list.end());
    }
    vol_.size_bytes += len;
    vol_.map.emplace(raw, std::move(e));
    clock_->advance(lat_->dram_access_ns);
}

void
PageCache::recordSpec(DsId ds, bool hit)
{
    ++(hit ? ctr_.prefetch_hits : ctr_.prefetch_wasted);
    SpecLedger &l = vol_.spec_ledger[ds];
    ++(hit ? l.hits : l.wasted);
    if (l.hits + l.wasted >= kLedgerWindow) {
        l.hits /= 2;
        l.wasted /= 2;
    }
}

bool
PageCache::speculationPays(DsId ds) const
{
    auto it = vol_.spec_ledger.find(ds);
    return it == vol_.spec_ledger.end() ||
           it->second.wasted < kGateSlack + kGateHitWorth * it->second.hits;
}

bool
PageCache::admitSpeculation(DsId ds)
{
    if (speculationPays(ds))
        return true;
    return ++vol_.spec_ledger[ds].closed_misses % kProbeInterval == 0;
}

bool
PageCache::invalidatedSince(DsId ds, uint64_t issue_epoch) const
{
    if (issue_epoch < cleared_epoch_)
        return true;
    auto it = vol_.ds_min_epoch.find(ds);
    return it != vol_.ds_min_epoch.end() && issue_epoch < it->second;
}

bool
PageCache::contains(RemotePtr addr, uint32_t len) const
{
    auto it = vol_.map.find(addr.raw());
    return it != vol_.map.end() && it->second.data.size() == len &&
           entryValid(it->second);
}

void
PageCache::update(RemotePtr addr, const void *data, uint32_t len)
{
    auto it = vol_.map.find(addr.raw());
    if (it == vol_.map.end())
        return;
    if (it->second.data.size() != len) {
        invalidate(addr);
        return;
    }
    std::memcpy(it->second.data.data(), data, len);
    clock_->advance(lat_->dram_access_ns);
}

bool
PageCache::removeKey(uint64_t raw)
{
    auto it = vol_.map.find(raw);
    if (it == vol_.map.end())
        return false;
    Entry &e = it->second;
    if (e.speculative)
        recordSpec(e.ds, false); // evicted/invalidated before any hit
    // Swap-pop from the dense key and tick vectors.
    const size_t idx = e.keys_idx;
    vol_.keys[idx] = vol_.keys.back();
    vol_.ticks[idx] = vol_.ticks.back();
    vol_.map.find(vol_.keys[idx])->second.keys_idx = idx;
    vol_.keys.pop_back();
    vol_.ticks.pop_back();
    if (policy_ == CachePolicy::Lru)
        vol_.lru_list.erase(e.lru_it);
    vol_.size_bytes -= e.data.size();
    vol_.map.erase(it);
    return true;
}

void
PageCache::invalidate(RemotePtr addr)
{
    removeKey(addr.raw());
}

void
PageCache::invalidateDs(DsId ds)
{
    // O(1): entries of this structure inserted before the new epoch are
    // treated as misses and lazily removed on their next probe.
    vol_.ds_min_epoch[ds] = ++epoch_;
    clock_->advance(lat_->dram_access_ns);
}

void
PageCache::clear()
{
    vol_ = {};
    cleared_epoch_ = ++epoch_;
    // Write-allocate can fill the cache with 64 B value cells, hundreds
    // of thousands of them in a roomy cache. Sizing the table for that
    // up front spares the host a rehash of every entry at each growth.
    vol_.map.reserve(capacity_ / 64);
}

void
PageCache::makeRoom(uint64_t bytes)
{
    while (vol_.size_bytes + bytes > capacity_ && !vol_.map.empty()) {
        vol_.evicted_since_clear = true;
        if (policy_ != CachePolicy::Hybrid) {
            // One victim per step: the LRU tail, or a random entry.
            ++ctr_.evictions;
            removeKey(policy_ == CachePolicy::Lru
                          ? vol_.lru_list.back()
                          : vol_.keys[rng_.nextBounded(vol_.keys.size())]);
            clock_->advance(lat_->dram_access_ns);
            continue;
        }
        // One Hybrid pass: sample k entries, then evict them by last use
        // until the object fits. The first-drawn oldest goes first, as a
        // stable sort would rank it; an evicted member is ranked out with
        // tick UINT64_MAX. Only a sample that cannot free enough bytes
        // makes the loop draw another.
        const size_t k = std::min<size_t>(sample_k_, vol_.keys.size());
        sample_.clear();
        for (size_t i = 0; i < k; ++i) {
            const size_t idx = rng_.nextBounded(vol_.keys.size());
            sample_.push_back({vol_.ticks[idx], vol_.keys[idx]});
        }
        ++ctr_.eviction_samples;
        // Sampling touches k cache slots' metadata.
        clock_->advance(k * lat_->dram_access_ns / 8);
        for (size_t n = 0; n < k && vol_.size_bytes + bytes > capacity_; ++n) {
            auto oldest = std::min_element(
                sample_.begin(), sample_.end(),
                [](const Drawn &a, const Drawn &b) { return a.tick < b.tick; });
            ctr_.evictions += removeKey(oldest->raw); // a repeat draw is gone
            oldest->tick = UINT64_MAX;
        }
    }
}

} // namespace asymnvm
