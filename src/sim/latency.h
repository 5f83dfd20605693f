#ifndef ASYMNVM_SIM_LATENCY_H_
#define ASYMNVM_SIM_LATENCY_H_

/**
 * @file
 * All simulated hardware cost constants in one place.
 *
 * Values follow the paper's Section 3.2 (NVM ~100/300 ns read/write, RDMA
 * RTT ~2 us) and Section 9.1 (Mellanox CX-3, 40 Gbps). See DESIGN.md
 * Section 6 for the full table and sources.
 */

#include <cstdint>

namespace asymnvm {

/** Cost model for every simulated device. All times in nanoseconds. */
struct LatencyModel
{
    // --- NVM device (Intel Optane DC PMM class) ---
    // Optane random reads are the slow path (~300 ns); stores land in the
    // DIMM write buffer quickly (~100 ns) and persistence is enforced by
    // flush/fence. The paper quotes the same pair in Section 3.2.
    uint64_t nvm_read_ns = 300;        //!< media read
    uint64_t nvm_write_ns = 100;       //!< store into the DIMM buffer
    uint64_t persist_fence_ns = 250;   //!< clwb + sfence drain

    // --- DRAM / front-end cache ---
    uint64_t dram_access_ns = 60;  //!< local DRAM load/store
    uint64_t cache_probe_ns = 40;  //!< hash-map probe in the page cache

    // --- RDMA network (one-sided verbs over InfiniBand) ---
    uint64_t rdma_read_rtt_ns = 2000;   //!< READ round trip
    uint64_t rdma_write_rtt_ns = 1900;  //!< WRITE incl. completion
    uint64_t rdma_atomic_rtt_ns = 2100; //!< CAS / fetch-add
    double network_ns_per_byte = 0.2;   //!< 40 Gbps == 5 GB/s payload

    /**
     * CPU cost of *posting* a one-sided write without waiting for its
     * completion. Decoupled log persistency (Section 4.2/4.3) moves the
     * memory-log writes off the critical path by posting them and letting
     * the queue pair's ordering guarantee durability by the time the next
     * synchronous verb completes.
     */
    uint64_t post_overhead_ns = 150;

    /**
     * Amortized CPU cost per WQE in a doorbell-batched post list: linked
     * WQE chains let one doorbell launch many posted writes, so each
     * additional WQE costs a fraction of a standalone post. The chain's
     * flush pays post_overhead_ns once plus this per WQE (the mechanism
     * FaRM-style systems and the paper's batching lean on, Section 4.3).
     */
    uint64_t doorbell_batch_wqe_ns = 40;

    /**
     * Per-verb service time at the back-end RNIC; bounds aggregate IOPS
     * when many front-ends share one back-end (Figures 8 and 9).
     */
    uint64_t nic_verb_service_ns = 150;

    // --- CPU work ---
    uint64_t cpu_op_overhead_ns = 80;   //!< bookkeeping per DS operation
    uint64_t cpu_log_replay_ns = 150;   //!< back-end replay of one mem log

    /** Byte-transfer cost on the wire. */
    uint64_t wireBytes(uint64_t n) const
    {
        return static_cast<uint64_t>(network_ns_per_byte *
                                     static_cast<double>(n));
    }

    /**
     * The default model. The symmetric baseline uses the same constants;
     * its sessions charge local NVM costs where the asymmetric ones
     * charge the network.
     */
    static LatencyModel defaults() { return LatencyModel{}; }
};

} // namespace asymnvm

#endif // ASYMNVM_SIM_LATENCY_H_
