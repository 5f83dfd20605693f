#ifndef ASYMNVM_COMMON_CHECKSUM_H_
#define ASYMNVM_COMMON_CHECKSUM_H_

/**
 * @file
 * CRC32-C checksums used to validate transaction-log integrity.
 *
 * AsymNVM appends a checksum as the end mark of every transaction written
 * to the back-end log area (Section 4.2): a crash during a single
 * RDMA_Write may tear the log, and the checksum of the latest transaction
 * is used after restart to decide whether it committed.
 */

#include <cstddef>
#include <cstdint>

namespace asymnvm {

/**
 * Compute the CRC32-C (Castagnoli) checksum of a byte range.
 *
 * @param data Pointer to the first byte.
 * @param len  Number of bytes.
 * @param seed Initial CRC, allowing incremental computation over multiple
 *             buffers by threading the previous result through.
 * @return The CRC32-C value.
 */
uint32_t crc32c(const void *data, size_t len, uint32_t seed = 0);

/**
 * The portable table-driven CRC32-C that crc32c() falls back to on CPUs
 * without the SSE4.2 `crc32` instruction. Same contract as crc32c().
 */
uint32_t crc32cPortable(const void *data, size_t len, uint32_t seed = 0);

} // namespace asymnvm

#endif // ASYMNVM_COMMON_CHECKSUM_H_
