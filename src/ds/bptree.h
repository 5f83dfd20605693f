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
 *
 * BpNode and BpTreeCore are the B+tree core the multi-version tree
 * (mv_bptree.h) shares: node layout and edits, descent path, lookup.
 */

#include <span>
#include <vector>

#include "ds/ds_common.h"

namespace asymnvm {

/**
 * The node both B+trees store, and the in-DRAM edits both apply to it.
 * Internal nodes route by separator keys (entry 0's key is a low
 * sentinel, never compared); leaves hold pointers to 64-byte value
 * cells. Only the in-place BpTree chains its leaves through next_raw;
 * the multi-version tree leaves it 0.
 */
struct BpNode
{
    static constexpr uint32_t kFanout = 32;

    uint16_t is_leaf;
    uint16_t count;
    uint32_t pad;
    uint64_t next_raw; //!< leaf chain (in-place tree only)
    Key keys[kFanout];
    uint64_t children[kFanout];

    /** The one-entry leaf that starts an empty tree. */
    static BpNode firstLeaf(Key key, uint64_t cell_raw);

    /** The root grown over a split root: (sentinel, left), (sep, right). */
    static BpNode grownRoot(uint64_t left_raw, Key sep, uint64_t right_raw);

    /** Index of the child to descend into (internal nodes). */
    uint32_t routeIndex(Key key) const;

    /** Insert (key, child) at its sorted position; the node has room. */
    void insertSorted(Key key, uint64_t child);

    /** Remove entry @p i, shifting the later entries down. */
    void eraseAt(uint32_t i);

    /**
     * Split this full node in half: the upper half (and a leaf's chain
     * link) moves to the returned right sibling, then (key, child) goes
     * into the half that covers it. The caller gives the right node an
     * address; its separator is its keys[0].
     */
    BpNode splitInsert(Key key, uint64_t child);

    /**
     * Prefetch candidates around entry @p r: the children nearest to it,
     * alternating right and left, each read as @p len bytes. Fills up to
     * @p cap entries of @p out and returns how many.
     */
    size_t neighbors(uint32_t r, uint32_t len, PrefetchCandidate *out,
                     size_t cap) const;
};
static_assert(sizeof(BpNode) == 16 + 16 * BpNode::kFanout);

/**
 * What the in-place and the multi-version B+tree share on top of their
 * handle base (DsBase or MvBase): the node and descent-path types, the
 * value-cell write, and the one lookup coroutine. Each tree adds only
 * its own write-out policy.
 */
template <typename Base>
class BpTreeCore : public Base
{
  public:
    static constexpr uint32_t kFanout = BpNode::kFanout;

    /**
     * Point lookup as a resumable op: the traversal co_awaits every
     * remote node read, letting FrontendSession::executePipelined keep
     * several lookups' reads in flight per round trip, and each child
     * read gathers the nearest siblings around the taken route (read
     * path only; writers never speculate). Only the root differs per
     * tree: the in-place tree takes readRootAsync (the held root word,
     * or for a lock-free shared reader the naming entry's field); the
     * MV tree takes MvBase::readerRoot, so each op traverses the
     * snapshot it fetched, whatever other in-flight ops do.
     */
    OpTask findAsync(Key key, Value *out);

  protected:
    using Base::Base;

    using Node = BpNode;

    /** One level of a write descent: the node's address, its copy, and
     *  the child taken (internal nodes; the MV path copy re-points it). */
    struct PathEnt
    {
        PathEnt() {} // node left uninitialized: the descent's read fills it
        uint64_t raw = 0;
        Node node;
        uint32_t idx = 0;
    };

    static constexpr uint32_t kMaxHeight = 64;

    /** Allocate a value cell and log @p v into it (op-ref encoded). */
    Status newCell(const Value &v, RemotePtr *cell)
    {
        const Status st = this->s_->alloc(this->backend_, Value::kSize, cell);
        if (!ok(st))
            return st;
        return this->s_->logWriteFromOp(this->id_, *cell, v.bytes.data(),
                                        Value::kSize);
    }
};

/** A persistent ordered map implemented as a B+tree. */
class BpTree : public BpTreeCore<DsBase>
{
  public:
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

    /**
     * Point lookup: findAsync run inline under the reader protocol.
     * findAsync is pipelined only on handles where pipelineEligible()
     * holds; on shared handles find() runs it inside the seqlock retry
     * loop.
     */
    Status find(Key key, Value *out);

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
        : BpTreeCore(s, backend, std::move(name), id, opt)
    {}

    Status reload();
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
     * suspendable descent, written in place. Runs inline — no
     * suspension — so it is atomic with respect to sibling window ops.
     */
    Status insertWriteout(std::span<PathEnt> path, Key key,
                          const Value &v, bool *added);

    uint64_t count_ = 0; //!< aux1
};

} // namespace asymnvm

#endif // ASYMNVM_DS_BPTREE_H_
