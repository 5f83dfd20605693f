#ifndef ASYMNVM_CHECK_INVARIANT_CHECKER_H_
#define ASYMNVM_CHECK_INVARIANT_CHECKER_H_

/**
 * @file
 * Post-recovery invariant validation against raw back-end NVM.
 *
 * After a simulated crash and recovery (Section 7), the durable image must
 * be *logically* consistent: writer locks released, seqlocks quiescent,
 * log rings sane, and every data structure extractable by walking raw node
 * bytes — without any front-end session, cache, or shadow state. The
 * extraction doubles as the allocator audit: every reachable node must lie
 * in allocated blocks of the data area.
 *
 * Two strictness levels: the logged modes (R/RC/RCB) promise op-granular
 * atomicity, so counts, tails and per-level skiplist membership must agree
 * exactly. AsymNVM-Naive issues direct per-write RDMA and makes no mid-op
 * crash promises (that is the point of the paper's logging), so `strict =
 * false` tolerates the bounded mid-op states naive can legally leave:
 * element counts one behind the walk, a stale queue tail, a half-unlinked
 * skiplist tower.
 */

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "backend/backend_node.h"

namespace asymnvm {

/**
 * Logical contents of one structure, the shape both the raw image and a
 * harness's shadow model take: `list` for stacks and queues (bottom /
 * oldest first), `map` for keyed structures (the first 8 value bytes).
 */
struct Model
{
    std::vector<uint64_t> list;
    std::map<Key, uint64_t> map;

    bool operator==(const Model &) const = default;
};

/** Accumulated invariant violations from one crash-point audit. */
struct AuditReport
{
    std::vector<std::string> violations;

    bool clean() const { return violations.empty(); }
    void add(std::string v) { violations.push_back(std::move(v)); }
    /** All violations joined for test failure messages. */
    std::string str() const;
};

/** Validates recovery invariants by reading a back-end's NVM directly. */
class InvariantChecker
{
  public:
    /** @param strict Logged-mode exactness (see file comment). */
    explicit InvariantChecker(BackendNode *node, bool strict = true)
        : node_(node), strict_(strict)
    {}

    /**
     * Concurrency quiescence for @p ds: writer lock free, seqlock SN even
     * (no writer died inside a critical section without the recovery
     * protocol noticing).
     */
    void checkQuiescent(DsId ds, AuditReport *rep);

    /**
     * Log-control sanity for front-end @p slot: ring heads within one lap
     * of their tails, covered_opn <= opn, lock-ahead word clear, and every
     * record in the uncovered op window decodable (an undecodable record
     * inside the window would be silently skipped by replay).
     */
    void checkLogControl(uint32_t slot, AuditReport *rep);

    /**
     * The image of @p ds as a Model, by the naming entry's type. The walk
     * is also the heap audit: every reachable node must lie in allocated
     * blocks of this back-end's data area (leaked blocks, allocated but
     * unreachable, are legal — recovery re-executes ops rather than
     * reclaiming partial allocations). Returns nullopt after recording a
     * violation when the image is structurally broken (free or unaudited
     * entry, cycle, out-of-range pointer, ...).
     */
    std::optional<Model> contents(DsId ds, AuditReport *rep);

  private:
    /** Mirrors of the private DS node PODs (layout asserted in .cc). */
    struct ListNodeImage
    {
        Value value;
        uint64_t next_raw;
        uint64_t pad;
    };
    struct HashNodeImage
    {
        Key key;
        uint64_t next_raw;
        Value value;
    };
    struct SkipNodeImage
    {
        Key key;
        uint32_t level;
        uint32_t pad;
        Value value;
        uint64_t next[16];
    };

    /** Why [off, off + size) is not allocated data area, or nullptr. */
    const char *badRange(uint64_t off, uint64_t size) const;

    /**
     * Validate that @p raw points into this back-end's data area with
     * @p size bytes of allocated blocks behind it, then read the node
     * image. Returns false (recording a violation) on any failure.
     */
    bool readNodeImage(uint64_t raw, void *image, size_t size,
                       const char *what, AuditReport *rep);

    std::optional<Model> listContents(DsId ds, const NamingEntry &e,
                                      AuditReport *rep);
    std::optional<Model> hashContents(DsId ds, const NamingEntry &e,
                                      AuditReport *rep);
    std::optional<Model> skipContents(DsId ds, const NamingEntry &e,
                                      AuditReport *rep);

    BackendNode *node_;
    bool strict_;
};

} // namespace asymnvm

#endif // ASYMNVM_CHECK_INVARIANT_CHECKER_H_
