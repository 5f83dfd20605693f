#ifndef ASYMNVM_DS_MV_BST_H_
#define ASYMNVM_DS_MV_BST_H_

/**
 * @file
 * Multi-version binary search tree (Sections 6.2 and 8.3, Figure 5).
 *
 * Writers never modify nodes in place: an insert copies every node on
 * the path from the root to the insertion point ("path copying"), builds
 * the new version bottom-up, and publishes it with an atomic root swap.
 * Readers traverse whichever root they observed — always a consistent
 * snapshot — without locks or retries. Superseded nodes retire through
 * the lazy-GC protocol (n + l delay, gc_epoch cache invalidation).
 *
 * Like Bst, MvBst stays serial-only (one implementation per operation,
 * no OpTask form): nothing windows it through the reactor.
 */

#include <span>
#include <vector>

#include "ds/bst.h"
#include "ds/mv_common.h"

namespace asymnvm {

/** A persistent multi-version (lock-free for readers) BST. */
class MvBst : public BstCore<MvBase>
{
  public:
    MvBst() = default; //!< unbound; use create()/open()

    static Status create(FrontendSession &s, NodeId backend,
                         std::string_view name, MvBst *out,
                         const DsOptions &opt = {})
    {
        return createHandle(s, backend, name, out, opt);
    }
    static Status open(FrontendSession &s, NodeId backend,
                       std::string_view name, MvBst *out,
                       const DsOptions &opt = {})
    {
        return openHandle(s, backend, name, out, opt);
    }

    /** Insert or update (copy-on-write path). */
    Status insert(Key key, const Value &v);

    /** Vector insertion (shared path copies coalesce, Section 8.3). */
    Status insertBatch(std::span<const std::pair<Key, Value>> kvs);

    /** Snapshot-consistent lookup; lock-free. */
    Status find(Key key, Value *out);

    /** Remove by path copying; NotFound when absent. */
    Status erase(Key key);

    bool contains(Key key);
    uint64_t size() const { return count_; }

  private:
    friend class DsBase;
    static constexpr DsType kType = DsType::MvBst;

    MvBst(FrontendSession &s, NodeId backend, std::string name, DsId id,
          const DsOptions &opt)
        : BstCore(s, backend, std::move(name), id, opt)
    {}

    struct PathElem
    {
        uint64_t raw;
        Node node;
        bool went_left;
    };

    Status insertOne(Key key, const Value &v, bool pin);

    /** Rebuild the path above a replaced child, bottom-up (Figure 5). */
    Status copyPathUp(const std::vector<PathElem> &path,
                      uint64_t new_child_raw, uint64_t *new_root_raw);
};

} // namespace asymnvm

#endif // ASYMNVM_DS_MV_BST_H_
