#ifndef ASYMNVM_CLUSTER_MIRROR_H_
#define ASYMNVM_CLUSTER_MIRROR_H_

/**
 * @file
 * Mirror node (Section 7.1).
 *
 * Each back-end replicates to at least one mirror node before committing
 * a transaction and acknowledging the front-end. Replication here ships
 * every durable back-end NVM mutation (log appends, replayed data, naming
 * and bitmap updates) at byte level, so a mirror equipped with NVM holds a
 * promotable replica: when the back-end fails permanently (Case 4), the
 * voting service promotes the mirror and its device simply becomes the
 * new back-end's device.
 *
 * Mirrors without NVM (SSD/disk class, per the paper) still hold the
 * replicated bytes but cannot be promoted directly; front-ends instead
 * reconstruct the structure onto a fresh back-end from the mirror's data
 * and logs.
 */

#include <memory>

#include "common/stats.h"
#include "common/types.h"
#include "nvm/nvm_device.h"
#include "sim/fault.h"

namespace asymnvm {

/** A replication target for one (or more) back-end nodes. */
class MirrorNode
{
  public:
    /**
     * @param id       Cluster node id.
     * @param nvm_size Device capacity; must match the back-end it mirrors.
     * @param has_nvm  True for NVM-equipped mirrors (promotable).
     */
    MirrorNode(NodeId id, uint64_t nvm_size, bool has_nvm = true)
        : id_(id), has_nvm_(has_nvm),
          device_(std::make_shared<NvmDevice>(nvm_size))
    {}

    NodeId id() const { return id_; }
    bool hasNvm() const { return has_nvm_; }

    /**
     * Bring the replica up to date with a durable full copy of
     * @p primary: the synchronization when a mirror attaches (or
     * re-attaches after a restart or promotion). The steady-state path
     * is the batched stageWrite/persistBatch pair below.
     */
    void syncFrom(const NvmDevice &primary)
    {
        device_->copyFrom(primary);
        persists_.add();
        bytes_replicated_.add(primary.size());
    }

    /**
     * Stage one range of a replication batch WITHOUT persisting: the
     * bytes sit in the replica device's durability journal until the
     * batch's single persistBatch() fence. A mirror power failure in
     * between rolls the whole partial batch back (see crash()), so the
     * replica always recovers to a transaction boundary — the property
     * that keeps a mid-batch crash promotable.
     */
    void stageWrite(uint64_t off, const void *src, size_t len)
    {
        device_->write(off, src, len);
        bytes_replicated_.add(len);
    }

    /** One persist fence covering every stageWrite since the last one. */
    void persistBatch()
    {
        device_->persist();
        persists_.add();
    }

    /**
     * Mirror power failure: staged (unpersisted) batch ranges roll back,
     * restoring the image as of the last persisted batch — a committed-
     * transaction boundary, so the replica stays promotable.
     */
    void crash() { device_->crash(); }

    /** Transient-fault source consulted per replication transfer. */
    FaultModel &faults() { return faults_; }

    /** Replica device (read-only use by recovery paths). */
    const NvmDevice &device() const { return *device_; }

    /**
     * Promotion (Case 4): hand the replica device to a new BackendNode.
     * Only valid for NVM-equipped mirrors.
     */
    std::shared_ptr<NvmDevice> releaseDevice() { return device_; }

    uint64_t bytesReplicated() const { return bytes_replicated_.get(); }

    /** Persist fences this replica has absorbed (O(1) per commit). */
    uint64_t persistCount() const { return persists_.get(); }

  private:
    NodeId id_;
    bool has_nvm_;
    std::shared_ptr<NvmDevice> device_;
    FaultModel faults_;
    Counter bytes_replicated_;
    Counter persists_;
};

} // namespace asymnvm

#endif // ASYMNVM_CLUSTER_MIRROR_H_
