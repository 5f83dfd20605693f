#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

/**
 * @file
 * The benchmark's four workloads and the input helpers they share.
 *
 * Every workload is a closed loop driven from one thread: each session
 * has one public call in flight at a time. All inputs (keys, values, op
 * kinds) are generated from the seed before the timed phase starts, so
 * generation stays out of the host-cost metrics, and the same seed always
 * yields the same inputs and the same virtual-time results.
 */

#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "backend/layout.h"
#include "common/hash.h"
#include "common/rand.h"
#include "common/types.h"
#include "metrics.h"
#include "trace.h"

namespace perfbench {

Result runKvWrite(const RunConfig &rc, Tracer &tr);
Result runReadPipelined(const RunConfig &rc, Tracer &tr);
Result runTatp(const RunConfig &rc, Tracer &tr);
Result runFailover(const RunConfig &rc, Tracer &tr);

/** Independent generator stream @p stream of the run's seed. */
inline asymnvm::Rng
streamRng(uint64_t seed, uint64_t stream)
{
    return asymnvm::Rng(asymnvm::mix64(seed * 0x100000001b3ULL + stream));
}

/**
 * The 64-byte value written for tag @p tag: every byte depends on the
 * tag, so a torn or misplaced value fails the output check.
 */
inline asymnvm::Value
valueOf(uint64_t tag)
{
    asymnvm::Value v;
    for (size_t w = 0; w < asymnvm::Value::kSize / 8; ++w) {
        const uint64_t word = asymnvm::mix64(tag + w);
        std::memcpy(v.bytes.data() + 8 * w, &word, 8);
    }
    return v;
}

/** Keys 1..n in a seed-dependent order (Fisher-Yates). */
inline std::vector<asymnvm::Key>
shuffledKeys(uint64_t n, asymnvm::Rng &rng)
{
    std::vector<asymnvm::Key> keys(n);
    for (uint64_t i = 0; i < n; ++i)
        keys[i] = i + 1;
    for (uint64_t i = n; i > 1; --i)
        std::swap(keys[i - 1], keys[rng.nextBounded(i)]);
    return keys;
}

/**
 * Back-end sizing shared by the single-node workloads: log rings for four
 * front-ends (the workload's session plus the output checker) take 24 MB
 * of the device, the rest is data.
 */
inline asymnvm::BackendConfig
backendConfig(uint64_t nvm_mb)
{
    asymnvm::BackendConfig cfg;
    cfg.nvm_size = nvm_mb << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 64;
    cfg.memlog_ring_size = 4ull << 20;
    cfg.oplog_ring_size = 2ull << 20;
    return cfg;
}

/** Seconds between two host-clock readings. */
inline double
secondsBetween(uint64_t h0, uint64_t h1)
{
    return static_cast<double>(h1 - h0) / 1e9;
}

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H_
