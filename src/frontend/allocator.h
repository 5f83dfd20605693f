#ifndef ASYMNVM_FRONTEND_ALLOCATOR_H_
#define ASYMNVM_FRONTEND_ALLOCATOR_H_

/**
 * @file
 * Front-end tier of the two-tier slab allocator (Section 5.2).
 *
 * The back-end hands out fixed-size slabs; the front-end subdivides them
 * at finer granularity. Slabs are organized in full-, partial-, and
 * empty-lists according to consumption, sub-slab allocation is best-fit,
 * and surplus empty slabs are reclaimed to the back-end via RPC. Table 2
 * of the paper compares this design against an RPC-per-allocation
 * strawman and the local-only NVML/glibc allocators —
 * bench/bench_table2_allocators.cc regenerates that comparison.
 *
 * Reclaim hysteresis adapts to the workload: the allocator keeps as many
 * empty slabs as the last `hysteresis_cycles` alloc/free cycles actually
 * drew from the empty list. Group-commit retirement (MV structures under
 * batching) frees slabs in batch-sized bursts that the very next batch
 * re-allocates; a fixed keep level turns that cycle into a
 * FreeBlocks/AllocBlocks RPC ping-pong with the back-end — the dominant
 * RPC traffic of the MV benches before this was measured. The window is
 * configurable (SessionConfig::alloc_hysteresis_cycles, default 2)
 * because the demand peak must stay inside it: a workload oscillating
 * with a period of k cycles needs a window >= k or the heavy cycle's
 * demand rotates out during the quiet ones and the ping-pong reappears.
 * When demand collapses for good, the keep level follows it down within
 * a window's worth of cycles and the surplus drains to the static
 * threshold.
 *
 * Sub-slab allocation metadata is volatile (it lives in front-end DRAM);
 * after a front-end crash the allocation state is recovered only at slab
 * granularity from the back-end's persistent bitmap, exactly the trade-off
 * Section 5.2 describes.
 */

#include <cstdint>
#include <deque>
#include <functional>
#include <list>
#include <map>
#include <set>
#include <span>
#include <unordered_map>

#include "common/types.h"

namespace asymnvm {

enum class RpcOp : uint32_t;

/** Front-end (second-tier) slab allocator for one back-end. */
class FrontendAllocator
{
  public:
    /**
     * Transport used to reach the back-end allocator: normally bound to
     * RfpRpc::call, or to a direct local call in the symmetric baseline.
     */
    using RpcFn = std::function<Status(
        RpcOp op, std::span<const uint64_t> args,
        std::span<const uint8_t> payload, uint64_t rets[4])>;

    /**
     * @param backend          Back-end node id (for RemotePtr stamping).
     * @param slab_size        Back-end block size in bytes.
     * @param rpc              Transport to the back-end allocator.
     * @param reclaim_threshold Static floor of the reclaim hysteresis:
     *                          surplus above max(threshold, measured
     *                          cycle demand) is returned to the back-end.
     * @param hysteresis_cycles Demand-window length: empty slabs are
     *                          retained up to the peak consumption of
     *                          this many recent alloc/free cycles
     *                          (clamped to >= 1; 2 reproduces the
     *                          original current+previous pair).
     */
    FrontendAllocator(NodeId backend, uint64_t slab_size, RpcFn rpc,
                      uint32_t reclaim_threshold = 32,
                      uint32_t hysteresis_cycles = 2);

    /** Allocate @p size bytes of back-end NVM. */
    Status alloc(uint64_t size, RemotePtr *out);

    /** Free an allocation of @p size bytes at @p p. */
    Status free(RemotePtr p, uint64_t size);

    /** Drop all volatile sub-slab state (front-end crash simulation). */
    void loseVolatileState();

    uint64_t slabsHeld() const { return vol_.slabs.size(); }
    /** Empty slabs the adaptive hysteresis currently retains. */
    uint64_t emptySlabsHeld() const { return vol_.empty_count; }
    /** Configured demand-window length (cycles). */
    uint32_t hysteresisCycles() const { return hysteresis_cycles_; }

  private:
    struct Slab
    {
        uint64_t base;                    //!< absolute NVM offset
        uint64_t free_bytes;
        uint64_t largest_hole;            //!< index key into by_hole
        std::map<uint64_t, uint64_t> holes; //!< offset -> length
    };

    Status allocLarge(uint64_t size, RemotePtr *out);
    Status newSlab();
    void reindex(Slab &slab);
    void maybeReclaim();
    static uint64_t roundUp(uint64_t v) { return (v + 7) & ~7ull; }

    NodeId backend_;
    uint64_t slab_size_;
    RpcFn rpc_;
    uint32_t reclaim_threshold_;

    uint32_t hysteresis_cycles_;

    /** Sub-slab state: volatile, loseVolatileState() assigns {}. */
    struct Slabs
    {
        std::map<uint64_t, Slab> slabs; //!< keyed by base offset (ordered)
        /** (largest hole, base): best-fit slab lookup is one lower_bound. */
        std::set<std::pair<uint64_t, uint64_t>> by_hole;
        uint32_t empty_count = 0;
        /**
         * Demand estimate for the adaptive hysteresis: empty slabs
         * consumed (turned partial, including fresh refills) during the
         * current alloc phase, plus the per-cycle totals of up to
         * hysteresis_cycles_ - 1 closed cycles (newest at the back). A
         * free after an alloc closes the cycle.
         */
        uint64_t cycle_consumed = 0;
        std::deque<uint64_t> past_cycles;
        bool in_free_phase = false;
    } vol_;
};

} // namespace asymnvm

#endif // ASYMNVM_FRONTEND_ALLOCATOR_H_
