#ifndef ASYMNVM_DS_BPTREE_H_
#define ASYMNVM_DS_BPTREE_H_

/**
 * @file
 * Persistent B+tree with fan-out 32 (Sections 8.3 and 9.2).
 *
 * Internal nodes route by separator keys; leaves hold pointers to 64-byte
 * value cells and are chained for range scans. Upper levels are cached
 * with the adaptive level threshold; leaves and value cells mostly read
 * remote. Deletion is by lazy leaf compaction (no merges), a common
 * simplification for NVM trees.
 */

#include <span>
#include <vector>

#include "ds/ds_common.h"

namespace asymnvm {

/** A persistent ordered map implemented as a B+tree. */
class BpTree : public DsBase
{
  public:
    static constexpr uint32_t kFanout = 32;

    BpTree() = default; //!< unbound; use create()/open()

    static Status create(FrontendSession &s, NodeId backend,
                         std::string_view name, BpTree *out,
                         const DsOptions &opt = {})
    {
        return createHandle(s, backend, name, out, opt);
    }
    static Status open(FrontendSession &s, NodeId backend,
                       std::string_view name, BpTree *out,
                       const DsOptions &opt = {})
    {
        return openHandle(s, backend, name, out, opt);
    }

    /** Insert or update: insertAsync run inline. */
    Status insert(Key key, const Value &v);

    /**
     * Insert/update as a resumable op — the one implementation behind
     * insert(), insertMany() and insertBatch(). The descent co_awaits
     * every remote read (phase A), then — once the read set validates
     * against sibling window writes — runs the write-out inline (phase
     * B: allocs, memory logs, splits, root growth). Same-key ops in one
     * window are ordered by a WindowGate; a sibling write under the
     * descent restarts it from the (now hot) local tiers. Outside a
     * pipelined window nothing suspends. @p pin keeps the descent's
     * reads in the batch-local pin set (vector insertion, Algorithm 3).
     */
    OpTask insertAsync(Key key, Value v, bool pin = false);

    /**
     * Pipelined multi-insert: up to SessionConfig::pipeline_depth
     * insertAsync descents in flight; their traversal reads share the
     * per-round gather, their op-log appends ride one doorbell chain,
     * and all commit fences coalesce into one flushAll at drain.
     * Shared handles without the writer lock fall back to serial
     * insert() per pair.
     */
    Status insertMany(std::span<const std::pair<Key, Value>> kvs,
                      Status *results);

    /** Vector insertion (Algorithm 3; sorted, path-sharing). */
    Status insertBatch(std::span<const std::pair<Key, Value>> kvs);

    /** Point lookup: findAsync run inline under the reader protocol. */
    Status find(Key key, Value *out);

    /**
     * Point lookup as a resumable op: the traversal co_awaits every
     * remote read, letting FrontendSession::executePipelined keep
     * several lookups' reads in flight per round trip. Pipelined only
     * on handles where pipelineEligible() holds; find() runs it inline
     * inside the seqlock retry loop on shared handles.
     */
    OpTask findAsync(Key key, Value *out);

    /**
     * Pipelined multi-lookup: runs up to SessionConfig::pipeline_depth
     * findAsync traversals concurrently; results[i] receives the status
     * of keys[i]. Shared handles without the writer lock fall back to
     * serial find() per key (seqlock tracking is session-global).
     */
    Status findMany(std::span<const Key> keys, Value *vals,
                    Status *results);

    /** Range scan: up to @p limit pairs with key >= @p from. */
    Status scan(Key from, uint32_t limit,
                std::vector<std::pair<Key, Value>> *out);

    /** Remove; NotFound when absent. */
    Status erase(Key key);

    /**
     * Remove as a resumable op (erase() runs it inline). Phase A
     * descends to the leaf with suspendable reads; phase B compacts the
     * leaf, frees/retires the cell and updates the count inline after
     * read-set validation. Same WindowGate / restart discipline as
     * insertAsync.
     */
    OpTask eraseAsync(Key key);

    /** Pipelined multi-erase; results[i] receives keys[i]'s status. */
    Status eraseMany(std::span<const Key> keys, Status *results);

    bool contains(Key key);
    uint64_t size() const { return count_; }

  private:
    friend class DsBase;
    static constexpr DsType kType = DsType::BpTree;

    BpTree(FrontendSession &s, NodeId backend, std::string name, DsId id,
           const DsOptions &opt)
        : DsBase(s, backend, std::move(name), id, opt)
    {}

    struct Node
    {
        uint16_t is_leaf;
        uint16_t count;
        uint32_t pad;
        uint64_t next_raw; //!< leaf chain
        Key keys[kFanout];
        uint64_t children[kFanout];
    };
    static_assert(sizeof(Node) == 16 + 16 * kFanout);

    /** One level of a write descent: the node's address and its copy. */
    struct PathEnt
    {
        PathEnt() {} // node left uninitialized: the descent's read fills it
        uint64_t raw = 0;
        Node node;
    };

    Status reload();
    Status readRoot(uint64_t *root_raw);
    Status writeRoot(uint64_t root_raw);
    /**
     * scan()'s serial descent to the leaf covering @p key: each child
     * read carries the nearest sibling children around the taken route
     * as gather candidates — range locality makes the next access likely
     * to land in one of them.
     */
    Status findLeaf(Key key, uint64_t *leaf_raw, Node *leaf,
                    uint32_t *depth);

    /**
     * Phase B of insertAsync: the write sequence (value-cell alloc +
     * memory log, leaf insert or split, bottom-up split absorption, root
     * growth) against the validated node copies captured during the
     * suspendable descent. Runs inline — no suspension — so it is atomic
     * with respect to sibling window ops.
     */
    Status insertWriteout(std::span<PathEnt> path, Key key,
                          const Value &v, bool *added);

    /** Index of the child to descend into (internal nodes). */
    static uint32_t routeIndex(const Node &n, Key key);

    uint64_t count_ = 0; //!< aux1
};

} // namespace asymnvm

#endif // ASYMNVM_DS_BPTREE_H_
