#ifndef ASYMNVM_NVM_NVM_DEVICE_H_
#define ASYMNVM_NVM_NVM_DEVICE_H_

/**
 * @file
 * Byte-addressable NVM device emulation.
 *
 * Substitutes for the Intel Optane DC PMM modules of the paper's back-end
 * (Section 9.1). The emulation preserves the property the framework's
 * crash-consistency machinery actually depends on: *which bytes survive a
 * crash*. Writes are staged in a durability journal until persist() is
 * called; crash() rolls back everything still volatile, and crashPartial()
 * keeps only a prefix of the staged writes — modeling a power failure in
 * the middle of a sequence of media writes (e.g. a torn RDMA_Write that
 * only the transaction checksum can detect, Section 4.2).
 *
 * The device itself charges no virtual time; callers (the verbs layer, the
 * back-end CPU model) account latency so that local and remote access can
 * be priced differently.
 */

#include <cstdint>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <vector>

namespace asymnvm {

/** One NVM DIMM set attached to a back-end (or mirror) node. */
class NvmDevice
{
  public:
    /** @param size Capacity in bytes. */
    explicit NvmDevice(uint64_t size);

    uint64_t size() const { return size_; }

    /** Read @p len bytes at @p off into @p dst (sees staged writes). */
    void read(uint64_t off, void *dst, size_t len) const;

    /** Stage a write of @p len bytes; durable only after persist(). */
    void write(uint64_t off, const void *src, size_t len);

    /** Atomic 8-byte read (RDMA guarantees 64-bit atomicity, §3.3). */
    uint64_t read64(uint64_t off) const;

    /** Atomic 8-byte write, immediately durable (RDMA atomic verb). */
    void write64Atomic(uint64_t off, uint64_t v);

    /**
     * Atomic compare-and-swap on an 8-byte word; immediately durable.
     * @return The previous value (equals @p expected on success).
     */
    uint64_t compareAndSwap64(uint64_t off, uint64_t expected,
                              uint64_t desired);

    /** Atomic fetch-and-add on an 8-byte word; immediately durable. */
    uint64_t fetchAdd64(uint64_t off, uint64_t delta);

    /** Make all staged writes durable (persist barrier / DMA complete). */
    void persist();

    /**
     * Make this device a durable byte-for-byte copy of @p src (same
     * size), under both devices' locks. A 4 KiB page is skipped only when
     * it is zero on both sides: a stale replica's non-zero page must be
     * overwritten even where the source is zero. Counts the whole device
     * as written, as a full-image write would.
     */
    void copyFrom(const NvmDevice &src);

    /** Number of writes staged since the last persist(). */
    size_t pendingWrites() const;

    /**
     * Simulate a power failure: every staged (non-durable) write is rolled
     * back, restoring the last persisted image.
     */
    void crash();

    /**
     * Simulate a power failure where only the first @p keep_writes staged
     * writes reached the media; the rest are rolled back.
     */
    void crashPartial(size_t keep_writes);

    /**
     * crashPartial at single-write granularity: stage a write of @p len
     * bytes as the DMA would, then lose power so that only the first
     * @p keep_bytes survive durably — the tail rolls back to the previous
     * image. Used by the verbs layer to model a torn in-flight RDMA_Write
     * (Section 4.2). Byte-granular so crash sweeps can enumerate every
     * 64-byte tear prefix deterministically.
     */
    void applyTornWrite(uint64_t off, const void *src, size_t len,
                        size_t keep_bytes);

    /** Total bytes written over the device's lifetime (wear statistics). */
    uint64_t bytesWritten() const { return bytes_written_; }

  private:
    struct Pending
    {
        uint64_t off;
        std::vector<uint8_t> old_bytes;
    };

    struct FreeDeleter
    {
        void operator()(uint8_t *p) const { std::free(p); }
    };

    /**
     * calloc'd, so a large device is fresh mmap'd memory that the kernel
     * zeroes page by page on first touch instead of up front.
     */
    std::unique_ptr<uint8_t[], FreeDeleter> mem_;
    uint64_t size_;
    std::vector<Pending> pending_;
    uint64_t bytes_written_ = 0;
    mutable std::shared_mutex mu_;
};

} // namespace asymnvm

#endif // ASYMNVM_NVM_NVM_DEVICE_H_
