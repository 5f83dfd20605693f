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

#include "ds/mv_common.h"

namespace asymnvm {

/** A persistent multi-version (lock-free for readers) B+tree. */
class MvBpTree : public MvBase
{
  public:
    static constexpr uint32_t kFanout = 32;

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

    /** Point lookup: findAsync run inline. */
    Status find(Key key, Value *out);

    /**
     * Point lookup as a resumable op: the descent co_awaits every remote
     * node read so executePipelined can overlap several lookups per
     * round trip. The root fetch stays synchronous (for pure readers it
     * is an atomic meta verb, not a gatherable read); the snapshot
     * property is unchanged — each op traverses the root it fetched.
     */
    OpTask findAsync(Key key, Value *out);

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
        : MvBase(s, backend, std::move(name), id, opt)
    {}

    struct Node
    {
        uint16_t is_leaf;
        uint16_t count;
        uint32_t pad;
        uint64_t unused; //!< no leaf chain across versions
        Key keys[kFanout];
        uint64_t children[kFanout];
    };
    static_assert(sizeof(Node) == 16 + 16 * kFanout);

    /** One level of a write descent: the node as read, and the route. */
    struct PathEnt
    {
        PathEnt() {} // node left uninitialized: the descent's read fills it
        uint64_t raw = 0;
        Node node;
        uint32_t idx = 0; //!< child taken (internal nodes)
    };

    struct Split
    {
        bool happened = false;
        Key sep_key = 0;
        uint64_t right_raw = 0;
    };

    static uint32_t routeIndex(const Node &n, Key key);
};

} // namespace asymnvm

#endif // ASYMNVM_DS_MV_BPTREE_H_
