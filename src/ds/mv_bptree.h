#ifndef ASYMNVM_DS_MV_BPTREE_H_
#define ASYMNVM_DS_MV_BPTREE_H_

/**
 * @file
 * Multi-version B+tree (Sections 6.2 and 8.3), in the style of
 * append-only/CouchDB B-trees the paper cites: every insert copies the
 * root-to-leaf path into fresh nodes and publishes the new version with
 * one atomic root swap. Value cells are immutable as well (an update
 * allocates a new cell). Leaf chaining is not maintained across versions
 * (scans traverse the tree), the usual trade-off of append-only B-trees.
 */

#include <span>
#include <vector>

#include "ds/bptree.h"
#include "ds/mv_common.h"

namespace asymnvm {

/** A persistent multi-version (lock-free for readers) B+tree. */
class MvBpTree : public BpTreeCore<MvBase>
{
  public:
    MvBpTree() = default; //!< unbound; use create()/open()

    static Status create(FrontendSession &s, NodeId backend,
                         std::string_view name, MvBpTree *out,
                         const DsOptions &opt = {})
    {
        return createHandle(s, backend, name, out, opt);
    }
    static Status open(FrontendSession &s, NodeId backend,
                       std::string_view name, MvBpTree *out,
                       const DsOptions &opt = {})
    {
        return openHandle(s, backend, name, out, opt);
    }

    /** Insert or update: insertAsync run inline. */
    Status insert(Key key, const Value &v);

    /**
     * Insert/update as a resumable op — the one implementation behind
     * insert(), insertMany() and insertBatch(). Phase A descends with
     * suspendable reads; phase B runs the path-copy write-out (retires,
     * cell + node allocs, splits, root staging) inline after read-set
     * validation. Every MV write supersedes the whole root path, so
     * window writes to the same tree are ordered by one per-structure
     * WindowGate rather than per-key gates — sibling *reads* and ops on
     * other structures still overlap freely. @p pin keeps the descent's
     * reads in the batch-local pin set (vector insertion).
     */
    OpTask insertAsync(Key key, Value v, bool pin = false);

    /** Pipelined multi-insert; results[i] receives kvs[i]'s status. */
    Status insertMany(std::span<const std::pair<Key, Value>> kvs,
                      Status *results);

    Status insertBatch(std::span<const std::pair<Key, Value>> kvs);

    /** Point lookup: findAsync run inline (snapshot readers need no
     *  reader protocol). */
    Status find(Key key, Value *out);

    /** Pipelined multi-lookup; results[i] receives keys[i]'s status. */
    Status findMany(std::span<const Key> keys, Value *vals,
                    Status *results);
    /** Remove; NotFound when absent. eraseAsync run inline. */
    Status erase(Key key);

    /**
     * Remove as a resumable op: suspendable descent, then the path-copy
     * of the leaf and its ancestors inline after validation. Same
     * per-structure write ordering as insertAsync.
     */
    OpTask eraseAsync(Key key);

    /** Pipelined multi-erase; results[i] receives keys[i]'s status. */
    Status eraseMany(std::span<const Key> keys, Status *results);

    bool contains(Key key);
    uint64_t size() const { return count_; }

  private:
    friend class DsBase;
    static constexpr DsType kType = DsType::MvBpTree;

    MvBpTree(FrontendSession &s, NodeId backend, std::string name,
             DsId id, const DsOptions &opt)
        : BpTreeCore(s, backend, std::move(name), id, opt)
    {}

    /**
     * Phase B of insertAsync: the path copy against the validated
     * descent. Every path node is retired; the leaf takes the new cell,
     * and each level, bottom-up, is written to a fresh node that points
     * at its copied child, absorbing or splitting on a pending
     * separator. Sets @p new_root_raw to the new version's root.
     */
    Status insertWriteout(std::span<PathEnt> path, Key key,
                          const Value &v, bool *added,
                          uint64_t *new_root_raw);
};

} // namespace asymnvm

#endif // ASYMNVM_DS_MV_BPTREE_H_
