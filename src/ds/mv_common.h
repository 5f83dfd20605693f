#ifndef ASYMNVM_DS_MV_COMMON_H_
#define ASYMNVM_DS_MV_COMMON_H_

/**
 * @file
 * Shared plumbing for the multi-version (lock-free) structures of
 * Section 6.2: path-copying writers publish a whole new version with a
 * single atomic root swap; readers always traverse a consistent snapshot
 * and need no locks; superseded nodes are retired through the lazy-GC
 * protocol.
 *
 * Batching interplay (Section 4.3 + 6.2): inside a batch the writer
 * chains path copies against its *pending* root; the memory logs flush as
 * one transaction and only then does the post-flush hook CAS the root.
 * The transaction's covered-OPN is pinned at the OPN of the last
 * *published* batch, so a crash between the flush and the root swap still
 * re-executes the unpublished operations (their already-written nodes
 * merely leak until GC).
 */

#include "ds/ds_common.h"

namespace asymnvm {

/** Base for path-copying multi-version structures. */
class MvBase : public DsBase
{
    friend class DsBase;

  protected:
    MvBase() = default;
    MvBase(FrontendSession &s, NodeId backend, std::string name, DsId id,
           const DsOptions &opt)
        : DsBase(s, backend, std::move(name), id, opt)
    {}

    /** Publish/coverage hooks, registered by DsBase::install. */
    void installHooks()
    {
        s_->setFlushHook(id_, backend_, [this] {
            if (dirty_)
                s_->setGroupCoverage(id_, backend_, cov_opn_);
            return Status::Ok;
        });
        s_->setPostFlushHook(id_, backend_, [this] { return publish(); });
    }

    /**
     * The lifecycle's reload (DsBase): load the published root (and GC
     * epoch) from the naming entry, restart the writer's working version
     * from it, and reload the element count.
     */
    Status reload()
    {
        DsMeta meta{};
        const Status st = s_->readDsMeta(id_, backend_, &meta);
        if (!ok(st))
            return st;
        published_root_ = meta.root_raw;
        root_ = meta.root_raw;
        dirty_ = false;
        cov_opn_ = s_->currentOpn(backend_);
        return s_->readAux(id_, backend_, 1, &count_);
    }

    /**
     * The version the writer extends (readers use the published one):
     * the handle's held root word, DsBase::root_.
     */
    uint64_t workingRoot() const { return root_; }

    /** Record the new version produced by one write operation. */
    void stageRoot(uint64_t new_root_raw)
    {
        root_ = new_root_raw;
        dirty_ = true;
        is_writer_ = true;
    }

    /** Atomic root swap after the batch's logs are durable. */
    Status publish()
    {
        if (!dirty_ || root_ == published_root_) {
            dirty_ = false;
            return Status::Ok;
        }
        uint64_t old_raw = 0;
        const Status st = s_->casRoot(id_, backend_, published_root_,
                                      root_, &old_raw);
        if (!ok(st))
            return st;
        if (old_raw != published_root_)
            return Status::Conflict; // SWMR violation
        published_root_ = root_;
        cov_opn_ = s_->currentOpn(backend_);
        dirty_ = false;
        return Status::Ok;
    }

    /**
     * Root used by read operations: the writer sees its own unpublished
     * version; pure readers fetch the published root (one verbs read
     * that also carries the GC epoch for cache invalidation). A shared
     * handle is the writer only while it holds the lock: once released,
     * a successor writer may publish past its working version. The
     * ownership predicate is DsBase::ownsRoot, the one the in-place
     * trees' readRoot uses.
     */
    Status readerRoot(uint64_t *root_raw)
    {
        if (is_writer_ && ownsRoot()) {
            *root_raw = root_; // writer reads its own version
            return Status::Ok;
        }
        DsMeta meta{};
        const Status st = s_->readDsMeta(id_, backend_, &meta);
        if (!ok(st))
            return st;
        *root_raw = meta.root_raw;
        return Status::Ok;
    }

    uint64_t count_ = 0; //!< aux1 (writer-maintained)
    uint64_t published_root_ = 0;
    uint64_t cov_opn_ = 0;
    bool dirty_ = false;
    bool is_writer_ = false;
};

} // namespace asymnvm

#endif // ASYMNVM_DS_MV_COMMON_H_
