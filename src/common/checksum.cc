#include "common/checksum.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace asymnvm {

namespace {

/** Build the CRC32-C lookup table at static-init time. */
std::array<uint32_t, 256>
makeTable()
{
    // Castagnoli polynomial, reflected form.
    constexpr uint32_t poly = 0x82f63b78u;
    std::array<uint32_t, 256> table{};
    for (uint32_t i = 0; i < 256; ++i) {
        uint32_t crc = i;
        for (int k = 0; k < 8; ++k)
            crc = (crc >> 1) ^ ((crc & 1) ? poly : 0);
        table[i] = crc;
    }
    return table;
}

const std::array<uint32_t, 256> crcTable = makeTable();

#if defined(__x86_64__)
/**
 * SSE4.2 `crc32` computes the same reflected Castagnoli step as the
 * table loop, eight bytes per instruction.
 */
__attribute__((target("sse4.2"))) uint32_t
crc32cHardware(const uint8_t *p, size_t len, uint32_t seed)
{
    uint64_t crc = ~seed;
    for (; len >= 8; p += 8, len -= 8) {
        uint64_t word;
        std::memcpy(&word, p, sizeof(word));
        crc = _mm_crc32_u64(crc, word);
    }
    auto crc32 = static_cast<uint32_t>(crc);
    for (; len > 0; ++p, --len)
        crc32 = _mm_crc32_u8(crc32, *p);
    return ~crc32;
}

// Static initializers may run before libgcc's own CPU probe, so probe
// explicitly first.
const bool haveSse42 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("sse4.2") != 0;
}();
#endif

} // namespace

uint32_t
crc32cPortable(const void *data, size_t len, uint32_t seed)
{
    const auto *p = static_cast<const uint8_t *>(data);
    uint32_t crc = ~seed;
    for (size_t i = 0; i < len; ++i)
        crc = (crc >> 8) ^ crcTable[(crc ^ p[i]) & 0xff];
    return ~crc;
}

uint32_t
crc32c(const void *data, size_t len, uint32_t seed)
{
#if defined(__x86_64__)
    if (haveSse42)
        return crc32cHardware(static_cast<const uint8_t *>(data), len, seed);
#endif
    return crc32cPortable(data, len, seed);
}

} // namespace asymnvm
