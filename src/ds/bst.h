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

/** A persistent ordered map implemented as a binary search tree. */
class Bst : public DsBase
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
        : DsBase(s, backend, std::move(name), id, opt)
    {}

    struct Node
    {
        Key key;
        uint64_t left_raw;
        uint64_t right_raw;
        Value value;
    };
    static_assert(sizeof(Node) == 88);

    Status reload();
    Status readRoot(uint64_t *root_raw, bool pin);
    Status writeRoot(uint64_t root_raw);
    Status insertOne(Key key, const Value &v, bool pin);
    Status findLocked(Key key, Value *out, bool pin);
    Status eraseLocked(Key key);

    uint64_t count_ = 0; //!< aux1
};

} // namespace asymnvm

#endif // ASYMNVM_DS_BST_H_
