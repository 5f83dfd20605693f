#include "frontend/allocator.h"

#include <algorithm>
#include <cassert>
#include <vector>

#include "rdma/rpc.h"

namespace asymnvm {

FrontendAllocator::FrontendAllocator(NodeId backend, uint64_t slab_size,
                                     RpcFn rpc, uint32_t reclaim_threshold,
                                     uint32_t hysteresis_cycles)
    : backend_(backend), slab_size_(slab_size), rpc_(std::move(rpc)),
      reclaim_threshold_(reclaim_threshold),
      hysteresis_cycles_(std::max(1u, hysteresis_cycles))
{}

void
FrontendAllocator::reindex(Slab &slab)
{
    // Keep the by-largest-hole index current so best-fit allocation is
    // a single ordered lookup, independent of how many (nearly) full
    // slabs have accumulated.
    uint64_t largest = 0;
    for (const auto &[off, len] : slab.holes)
        largest = std::max(largest, len);
    if (largest != slab.largest_hole) {
        vol_.by_hole.erase({slab.largest_hole, slab.base});
        slab.largest_hole = largest;
        if (largest != 0)
            vol_.by_hole.insert({largest, slab.base});
    } else if (largest != 0 &&
               vol_.by_hole.count({largest, slab.base}) == 0) {
        vol_.by_hole.insert({largest, slab.base});
    }
}

Status
FrontendAllocator::allocLarge(uint64_t size, RemotePtr *out)
{
    const uint64_t nblocks = (size + slab_size_ - 1) / slab_size_;
    uint64_t args[1] = {nblocks};
    uint64_t rets[4] = {};
    const Status st = rpc_(RpcOp::AllocBlocks, args, {}, rets);
    if (!ok(st))
        return st;
    *out = RemotePtr(backend_, rets[0]);
    return Status::Ok;
}

Status
FrontendAllocator::newSlab()
{
    // Refill several slabs per RPC: one round trip amortizes over
    // kRefillSlabs slab-worths of fine-grained allocations, the point
    // of the two-tier design (Section 5.2).
    constexpr uint64_t kRefillSlabs = 8;
    uint64_t args[1] = {kRefillSlabs};
    uint64_t rets[4] = {};
    Status st = rpc_(RpcOp::AllocBlocks, args, {}, rets);
    uint64_t got = kRefillSlabs;
    if (st == Status::OutOfMemory) {
        // Memory pressure: fall back to a single block.
        args[0] = 1;
        st = rpc_(RpcOp::AllocBlocks, args, {}, rets);
        got = 1;
    }
    if (!ok(st))
        return st;
    for (uint64_t i = 0; i < got; ++i) {
        Slab slab;
        slab.base = rets[0] + i * slab_size_;
        slab.free_bytes = slab_size_;
        slab.largest_hole = slab_size_;
        slab.holes[0] = slab_size_;
        vol_.by_hole.insert({slab_size_, slab.base});
        vol_.slabs.emplace(slab.base, std::move(slab));
    }
    vol_.empty_count += static_cast<uint32_t>(got);
    return Status::Ok;
}

Status
FrontendAllocator::alloc(uint64_t size, RemotePtr *out)
{
    if (size == 0)
        return Status::InvalidArgument;
    size = roundUp(size);
    if (size > slab_size_)
        return allocLarge(size, out);

    // First allocation after a free phase opens a new demand cycle; the
    // closed cycle's consumption enters the hysteresis window and the
    // oldest entry beyond the window rotates out.
    if (vol_.in_free_phase) {
        vol_.in_free_phase = false;
        vol_.past_cycles.push_back(vol_.cycle_consumed);
        while (vol_.past_cycles.size() >= hysteresis_cycles_)
            vol_.past_cycles.pop_front();
        vol_.cycle_consumed = 0;
    }

    // Best fit: the partial slab hole with the least leftover wins.
    // Scanning is bounded to keep host cost O(1): allocation sizes are
    // few in practice, so an exact hit appears within a few slabs.
    Slab *best_slab = nullptr;
    uint64_t best_off = 0;
    uint64_t best_leftover = UINT64_MAX;
    auto consider = [&](Slab &slab) {
        if (slab.free_bytes < size)
            return;
        for (const auto &[off, len] : slab.holes) {
            if (len >= size && len - size < best_leftover) {
                best_leftover = len - size;
                best_slab = &slab;
                best_off = off;
            }
        }
    };
    // Best-fit slab: the smallest largest-hole that still fits, found
    // with one ordered lookup; a couple of neighbors refine the choice.
    uint32_t candidates = 0;
    for (auto it = vol_.by_hole.lower_bound({size, 0});
         it != vol_.by_hole.end(); ++it) {
        consider(vol_.slabs.at(it->second));
        if (best_leftover == 0 || ++candidates >= 4)
            break;
    }
    if (best_slab == nullptr) {
        const Status st = newSlab();
        if (!ok(st))
            return st;
        return alloc(size, out);
    }
    const uint64_t hole_len = best_slab->holes[best_off];
    best_slab->holes.erase(best_off);
    if (hole_len > size)
        best_slab->holes[best_off + size] = hole_len - size;
    if (best_slab->free_bytes == slab_size_) {
        --vol_.empty_count;
        ++vol_.cycle_consumed; // the empty list met demand this cycle
    }
    best_slab->free_bytes -= size;
    reindex(*best_slab);
    *out = RemotePtr(backend_, best_slab->base + best_off);
    return Status::Ok;
}

Status
FrontendAllocator::free(RemotePtr p, uint64_t size)
{
    if (p.isNull() || size == 0 || p.backend != backend_)
        return Status::InvalidArgument;
    size = roundUp(size);
    if (size > slab_size_) {
        const uint64_t nblocks = (size + slab_size_ - 1) / slab_size_;
        uint64_t args[2] = {p.offset, nblocks};
        return rpc_(RpcOp::FreeBlocks, args, {}, nullptr);
    }
    // Locate the owning slab: the greatest base <= offset.
    auto sit = vol_.slabs.upper_bound(p.offset);
    if (sit != vol_.slabs.begin()) {
        --sit;
        Slab &slab = sit->second;
        const uint64_t base = sit->first;
        if (p.offset >= base && p.offset + size <= base + slab_size_) {
            uint64_t off = p.offset - base;
            uint64_t len = size;
            // Coalesce with neighbors.
            auto next = slab.holes.lower_bound(off);
            if (next != slab.holes.end() && off + len == next->first) {
                len += next->second;
                next = slab.holes.erase(next);
            }
            if (next != slab.holes.begin()) {
                auto prev = std::prev(next);
                if (prev->first + prev->second == off) {
                    off = prev->first;
                    len += prev->second;
                    slab.holes.erase(prev);
                }
            }
            slab.holes[off] = len;
            slab.free_bytes += size;
            reindex(slab);
            if (slab.free_bytes == slab_size_)
                ++vol_.empty_count;
            vol_.in_free_phase = true;
            maybeReclaim();
            return Status::Ok;
        }
    }
    // Not one of ours (allocated by a previous incarnation or another
    // session). Section 5.2: allocation state recovers only at slab
    // granularity, so sub-slab regions inside foreign slabs leak until
    // the owning slab is reclaimed; freeing the block here could corrupt
    // live neighbours.
    return Status::Ok;
}

void
FrontendAllocator::maybeReclaim()
{
    // Adaptive hysteresis: keep enough empty slabs to absorb the peak
    // demand of the last hysteresis_cycles_ alloc/free cycles, so
    // burst-retire/burst-alloc workloads (group commit, Section 8.3)
    // do not ping-pong the same slabs through FreeBlocks/AllocBlocks
    // round trips — even when quiet cycles separate the bursts, as long
    // as the oscillation period fits the window. A workload whose
    // demand collapses sees keep follow it down within a window of
    // cycles and the surplus drains to the floor.
    uint64_t keep =
        std::max<uint64_t>(reclaim_threshold_ / 2, vol_.cycle_consumed);
    for (const uint64_t c : vol_.past_cycles)
        keep = std::max(keep, c);
    if (vol_.empty_count <= std::max<uint64_t>(reclaim_threshold_, keep))
        return;
    // Collect fully free slabs (top of the hole-size index), keep the
    // hysteresis level's worth around, and return the rest — contiguous
    // runs coalesce into single FreeBlocks calls so a burst of frees
    // costs O(runs) round trips, not O(slabs).
    std::vector<uint64_t> bases;
    for (auto it = vol_.by_hole.lower_bound({slab_size_, 0});
         it != vol_.by_hole.end() && it->first == slab_size_ &&
         vol_.empty_count - bases.size() > keep;
         ++it) {
        bases.push_back(it->second);
    }
    if (bases.empty())
        return;
    std::sort(bases.begin(), bases.end());
    size_t run_start = 0;
    for (size_t i = 1; i <= bases.size(); ++i) {
        const bool run_ends =
            i == bases.size() ||
            bases[i] != bases[i - 1] + slab_size_;
        if (run_ends) {
            uint64_t args[2] = {bases[run_start], i - run_start};
            rpc_(RpcOp::FreeBlocks, args, {}, nullptr);
            run_start = i;
        }
    }
    for (uint64_t base : bases) {
        vol_.by_hole.erase({slab_size_, base});
        vol_.slabs.erase(base);
        --vol_.empty_count;
    }
}

void
FrontendAllocator::loseVolatileState()
{
    vol_ = {};
}

} // namespace asymnvm
