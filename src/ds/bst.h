#ifndef ASYMNVM_DS_BST_H_
#define ASYMNVM_DS_BST_H_

/**
 * @file
 * Persistent (unbalanced) binary search tree — the lock-based tree of
 * Sections 8.3 and 9.2.
 *
 * The root reference lives in the naming entry; nodes are 88-byte cells
 * in the data area. Caching follows the tree-structure rule: nodes nearer
 * the root are admitted with the adaptive level threshold N, lower nodes
 * are read directly from remote NVM. Sorted vector insertion (Algorithm
 * 3's Gather-Apply traversal sharing) is exposed as insertBatch.
 *
 * The BST has no pipelined (OpTask) form: each operation has exactly one
 * implementation, the serial one below. No batch or window entry point
 * calls it, and Table 3's BST cells are serial measurements, so a
 * coroutine port would add code without a caller.
 */

#include <span>
#include <vector>

#include "ds/ds_common.h"

namespace asymnvm {

/** The 88-byte node both BSTs store (Bst in place, MvBst path-copied). */
struct BstNode
{
    Key key;
    uint64_t left_raw;
    uint64_t right_raw;
    Value value;
};
static_assert(sizeof(BstNode) == 88);

/**
 * What the in-place and the multi-version BST share on top of their
 * handle base (DsBase or MvBase): the node type and the one lookup loop.
 */
template <typename Base>
class BstCore : public Base
{
  protected:
    using Base::Base;

    using Node = BstNode;

    static constexpr uint32_t kMaxDepth = 1u << 16;

    /**
     * Point lookup. Only the root differs per tree: the in-place tree
     * takes readRoot (the held root word, or for a lock-free shared
     * reader the naming entry's field), the MV tree takes
     * MvBase::readerRoot (a lock-free snapshot). A path deeper than
     * kMaxDepth is a torn view in place (Conflict, for the seqlock to
     * retry) and corruption in an immutable snapshot.
     */
    Status lookup(Key key, Value *out);
};

/** A persistent ordered map implemented as a binary search tree. */
class Bst : public BstCore<DsBase>
{
  public:
    Bst() = default; //!< unbound; use create()/open()

    static Status create(FrontendSession &s, NodeId backend,
                         std::string_view name, Bst *out,
                         const DsOptions &opt = {})
    {
        return createHandle(s, backend, name, out, opt);
    }
    static Status open(FrontendSession &s, NodeId backend,
                       std::string_view name, Bst *out,
                       const DsOptions &opt = {})
    {
        return openHandle(s, backend, name, out, opt);
    }

    /** Insert or update. */
    Status insert(Key key, const Value &v);

    /**
     * Vector insertion (Algorithm 3): the batch is sorted and inserted
     * with batch-local pinning, so shared path nodes are read from
     * remote NVM once per batch instead of once per operation.
     */
    Status insertBatch(std::span<const std::pair<Key, Value>> kvs);

    /** Point lookup. */
    Status find(Key key, Value *out);

    /** Remove; NotFound when absent. */
    Status erase(Key key);

    bool contains(Key key);
    uint64_t size() const { return count_; }

  private:
    friend class DsBase;
    static constexpr DsType kType = DsType::Bst;

    Bst(FrontendSession &s, NodeId backend, std::string name, DsId id,
        const DsOptions &opt)
        : BstCore(s, backend, std::move(name), id, opt)
    {}

    Status reload();
    Status insertOne(Key key, const Value &v, bool pin);
    Status eraseLocked(Key key);

    uint64_t count_ = 0; //!< aux1
};

} // namespace asymnvm

#endif // ASYMNVM_DS_BST_H_
