#ifndef ASYMNVM_BACKEND_BACKEND_NODE_H_
#define ASYMNVM_BACKEND_BACKEND_NODE_H_

/**
 * @file
 * The back-end NVM node.
 *
 * A back-end node is *passive*: it never initiates communication. Front-
 * ends read and write its NVM through one-sided verbs; the small fixed set
 * of functions it does run — log validation and replay, slab allocation,
 * naming, lazy garbage collection, replication to mirror nodes — is the
 * paper's "simple and fixed API" (Section 3.2/3.3), modeled here as
 * handlers the transport invokes after a verb lands (onTxAppended /
 * onOpLogAppended) plus RFP-RPC handlers (Section 5.1).
 *
 * All durable state lives in the NvmDevice laid out per backend/layout.h;
 * every volatile structure (allocator rover, op-log window, naming cache)
 * is reconstructed from NVM by the recovering constructor, which is what
 * makes the Case 3/4 recovery paths of Section 7.2 testable.
 */

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "backend/allocator.h"
#include "backend/layout.h"
#include "backend/log_format.h"
#include "cluster/mirror.h"
#include "common/stats.h"
#include "common/types.h"
#include "nvm/nvm_device.h"
#include "rdma/rpc.h"
#include "rdma/verbs.h"
#include "sim/failure.h"
#include "sim/fault.h"
#include "sim/latency.h"
#include "sim/nic.h"

namespace asymnvm {

/**
 * An entry of the lazy-GC queue (Section 6.2). The back-end's role in
 * reclamation is to delay *reuse visibility*: after the n+l delay it bumps
 * the structure's gc_epoch so reader caches drop entries that may alias
 * reused NVM. The memory itself is returned through the owning front-end
 * allocator (sub-slab regions) or rnvm_free (whole blocks).
 */
struct GcItem
{
    uint64_t reclaim_at_ns;
    DsId ds;
};

/** Result of validating a front-end's latest transaction after a crash. */
enum class TxValidation : uint8_t
{
    None,  //!< no transaction pending
    Clean, //!< last transaction fully persisted (checksum valid)
    Torn,  //!< last transaction torn; front-end must re-flush
};

/**
 * QP-id namespace base for back-end background shippers at the shared
 * NIC's per-QP contention model. Front-end sessions use their (small)
 * session ids as QP ids; a back-end's replication shipper registers as
 * kShipperQpBase + node id so the two arrival streams never collide.
 */
constexpr uint64_t kShipperQpBase = 1ull << 32;

/** The back-end NVM node (one NVM "blade" of the AsymNVM architecture). */
class BackendNode
{
  public:
    /** Format a fresh device and start serving. */
    BackendNode(NodeId id, const BackendConfig &cfg,
                const LatencyModel &lat = LatencyModel::defaults());

    /**
     * Open an existing device (restart after a crash, or promotion of a
     * mirror replica). Reconstructs all volatile state from NVM and rolls
     * the log tails forward where the checksums validate (Case 3).
     */
    BackendNode(NodeId id, const BackendConfig &cfg,
                std::shared_ptr<NvmDevice> device,
                const LatencyModel &lat = LatencyModel::defaults());

    NodeId id() const { return id_; }
    const Layout &layout() const { return layout_; }
    const BackendConfig &config() const { return cfg_; }
    NvmDevice &nvm() { return *device_; }
    std::shared_ptr<NvmDevice> device() { return device_; }
    NicModel &nic() { return nic_; }
    FailureInjector &failure() { return fail_; }
    FaultModel &faults() { return fault_model_; }
    BackendAllocator &allocator() { return *allocator_; }

    /** What a front-end NIC needs to reach this node. */
    RdmaTarget rdmaTarget()
    {
        RdmaTarget t{device_.get(), &nic_, &fail_, &fault_model_, {}};
        // One-sided writes (lock words, lock-ahead records, ring pads,
        // aux generations) mutate durable NVM without passing through any
        // handler; observing them here is what makes the mirror replica
        // byte-identical rather than merely log-equivalent.
        t.on_write = [this](uint64_t off, size_t len) {
            noteRemoteWrite(off, len);
        };
        return t;
    }

    /** Attach a mirror node; subsequent durable writes replicate to it. */
    void addMirror(MirrorNode *mirror);

    /** Detach a crashed mirror (Case 5). */
    void removeMirror(MirrorNode *mirror);

    /**
     * Stage a range a front-end just wrote one-sided into this node's
     * replication batch (invoked from the verbs layer's on_write hook).
     */
    void noteRemoteWrite(uint64_t off, size_t len);

    /**
     * Ship the pending replication batch now: one chained transfer and
     * ONE persist per mirror (Section 7.1). Runs automatically before
     * every commit ack (onTxAppended, fenced op-log appends, RPC
     * mutations); the explicit entry point exists for audits and for
     * draining ranges staged by post-commit one-sided writes.
     */
    void flushReplication();

    /** Replication batching counters (batches, persists, coalescing). */
    const ReplicationStats &replicationStats() const { return repl_stats_; }

    /** Modeled per-batch replication latency (ship + persist fence). */
    const Histogram &replicationHistogram() const { return repl_hist_; }

    // ------------------------------------------------------------------
    // Session management (connection setup, out of band like QP setup)
    // ------------------------------------------------------------------

    /**
     * Register a front-end session. If @p session_id already owns a slot
     * (reconnect after a front-end crash, Cases 1/2) the same slot is
     * returned so the session recovers its log rings.
     */
    Status registerFrontend(uint64_t session_id, uint32_t *slot);

    /** Release a slot on clean session shutdown. */
    void unregisterFrontend(uint32_t slot);

    /** Read the control block of @p slot (recovery uses this). */
    LogControl readControl(uint32_t slot) const;

    // ------------------------------------------------------------------
    // Passive handlers: invoked by the transport after a one-sided
    // append lands in this node's log rings.
    // ------------------------------------------------------------------

    /**
     * A transaction of memory logs was appended at monotonic ring
     * position @p pos with byte length @p len. Validates the checksum,
     * replays the logs into the data area (bracketed by SN increments for
     * lock-based structures), replicates, advances LPN, and processes due
     * GC items. @p now_ns is the caller's virtual time.
     */
    Status onTxAppended(uint32_t slot, uint64_t pos, uint32_t len,
                        uint64_t now_ns);

    /**
     * An operation log record was appended (validate + replicate).
     *
     * @p fenced distinguishes a synchronous append (the op's durability
     * point in per-op modes: the control block persists immediately) from
     * a doorbell-batched posted append, whose control-block update is
     * deferred to the batch's commit (the next onTxAppended or fenced
     * append persists the accumulated positions). Deferred records are
     * safe: a back-end restart rolls decodable records beyond the
     * persisted head forward (rollTailsForward), and unfenced appends
     * were never acked as durable to the application anyway. Batched
     * appends also share one @p now_ns timestamp — the doorbell's.
     */
    Status onOpLogAppended(uint32_t slot, uint64_t pos, uint32_t len,
                           uint64_t now_ns, bool fenced = true);

    // ------------------------------------------------------------------
    // RFP-RPC handlers (the memory-management interface of Table 1)
    // ------------------------------------------------------------------

    /** Allocate @p nblocks contiguous slabs; returns their NVM offset. */
    Status rpcAllocBlocks(uint64_t nblocks, uint64_t *off);

    /** Free slabs previously returned by rpcAllocBlocks. */
    Status rpcFreeBlocks(uint64_t off, uint64_t nblocks);

    /**
     * Retire memory of a multi-version structure: after the lazy-GC
     * delay (Section 6.2) the structure's gc_epoch is bumped, signalling
     * readers that the regions may be reused.
     */
    Status rpcRetire(DsId ds, std::span<const std::pair<uint64_t, uint64_t>>
                                  regions,
                     uint64_t now_ns);

    /**
     * Serve the RPC request currently in @p slot's request ring and write
     * the response into its response ring (the passive half of RfpRpc).
     */
    Status handleRpc(uint32_t slot);

    /**
     * Run one RPC: the one dispatch behind handleRpc and the symmetric
     * baseline's local call. @p rets (may be null) receives the results
     * of @p op; @p now_ns is the serve time a Retire is stamped with.
     */
    Status serveRpc(RpcOp op, std::span<const uint64_t> args,
                    std::span<const uint8_t> payload, uint64_t rets[4],
                    uint64_t now_ns);

    /** Create (or fail on duplicate) a named structure; returns its id. */
    Status rpcCreateName(uint64_t name_hash, DsType type, DsId *id);

    /** Look up a named structure. */
    Status rpcLookupName(uint64_t name_hash, DsId *id, DsType *type) const;

    // ------------------------------------------------------------------
    // Recovery API (Section 7.2)
    // ------------------------------------------------------------------

    /**
     * Validate the durability of the newest transaction bytes a front-end
     * may have in flight at its memlog head (Case 2/3).
     */
    TxValidation validateTail(uint32_t slot);

    /**
     * Case 2.a/3.a: if a fully persisted transaction sits unprocessed at
     * the memlog head (the crash hit between the append and the ack),
     * roll it forward. Returns what was found.
     */
    TxValidation recoverTailTx(uint32_t slot);

    /**
     * Operation logs whose memory logs were never replayed (OPN beyond
     * covered_opn). The recovering front-end re-executes these.
     */
    std::vector<ParsedOpLog> uncoveredOps(uint32_t slot) const;

    /**
     * Number of op-log records currently in the uncovered window (the
     * records recovery would replay). Crash audits cross-check this
     * against what uncoveredOps() can actually decode: a shortfall means
     * an undecodable record sits inside the recovery window.
     */
    uint64_t opWindowSize(uint32_t slot) const;

    /**
     * Clear a writer lock left behind by a crashed front-end, using the
     * lock-ahead record (Section 6.1).
     */
    void releaseStaleLocks(uint32_t slot);

    /** Force all due (and optionally all pending) GC items to run. */
    void processGc(uint64_t now_ns, bool force = false);

    // ------------------------------------------------------------------
    // Naming-space access helpers used by front-end sessions
    // ------------------------------------------------------------------

    /** Volatile snapshot of a naming entry (backend-local read). */
    NamingEntry namingEntry(DsId id) const;

    uint32_t nameCount() const;

    // ------------------------------------------------------------------
    // Statistics (Figure 11 CPU-utilization accounting)
    // ------------------------------------------------------------------

    uint64_t busyNs() const { return busy_ns_.get(); }
    uint64_t replayedTxs() const { return replayed_txs_.get(); }
    uint64_t replayedEntries() const { return replayed_entries_.get(); }
    uint64_t rpcCalls() const { return rpc_calls_.get(); }
    uint64_t gcPending() const;
    uint64_t epoch() const { return layoutEpoch_; }

    void resetStats();

  private:
    /**
     * Pending mirror-replication batch: byte ranges staged during log
     * append, replay and one-sided writes, coalesced and shipped as one
     * chained transfer (plus one persist) per mirror at the next commit
     * boundary. Ranges store their payload in a shared bump buffer;
     * adjacent appends extend the running range (the ring-append pattern)
     * and an exact (off,len) re-write overwrites its slot in place (the
     * control block is written twice per transaction).
     */
    struct ReplBatch
    {
        struct Range
        {
            uint64_t off;
            uint32_t len;
            uint32_t buf_off;
        };
        std::vector<Range> ranges;
        std::vector<uint8_t> buf;
        std::unordered_map<uint64_t, size_t> index; //!< off -> range slot
        uint64_t raw_writes = 0;

        bool empty() const { return ranges.empty(); }
        void clear()
        {
            ranges.clear();
            buf.clear();
            index.clear();
            raw_writes = 0;
        }
    };

    /** Stage @p len device bytes at @p off into the batch (mu_ held). */
    void stageReplicationLocked(uint64_t off, size_t len);

    /** Ship + persist the batch to every mirror (mu_ held). */
    void flushReplicationLocked(uint64_t now_ns);

    /** One retried transfer of the batch to one mirror; false = give up. */
    bool shipBatchToMirror(MirrorNode *m, uint64_t now_ns);

    /** Durable backend-local write: stage, persist, replicate. */
    void writeLocal(uint64_t off, const void *src, size_t len);

    /** Durable atomic 8-byte backend-local write (SN, gc_epoch). */
    void writeLocal64(uint64_t off, uint64_t v);

    void writeControl(uint32_t slot);
    void loadVolatileState();
    void rollTailsForward();
    /**
     * Resolve every op-ref entry of @p tx against its op-log record
     * (mu_ held): the record must fit in the ring's contiguous
     * remainder and decode (magic, CRC), and the slice must lie inside
     * its value. Appends each op-ref's record value to @p values in
     * entry order; false means the transaction must not replay.
     */
    bool resolveOpRefsLocked(uint32_t slot, const TxParser &tx,
                             std::vector<std::vector<uint8_t>> *values) const;
    /** Apply @p tx's entries; @p ref_values from resolveOpRefsLocked. */
    void replayTx(const TxParser &tx,
                  const std::vector<std::vector<uint8_t>> &ref_values);
    void processGcLocked(uint64_t now_ns, bool force);
    uint64_t ringReadAbs(uint64_t ring_base, uint64_t ring_size,
                         uint64_t pos) const;

    NodeId id_;
    BackendConfig cfg_;
    LatencyModel lat_;
    Layout layout_;
    std::shared_ptr<NvmDevice> device_;
    NicModel nic_;
    FailureInjector fail_;
    FaultModel fault_model_;
    std::unique_ptr<BackendAllocator> allocator_;
    std::vector<MirrorNode *> mirrors_;
    ReplBatch repl_batch_;
    ReplicationStats repl_stats_;
    Histogram repl_hist_;

    mutable std::mutex mu_; //!< serializes the backend "CPU"

    // Volatile shadows reconstructed on open().
    std::vector<LogControl> controls_;
    std::vector<uint64_t> slot_session_; //!< 0 = free slot
    std::vector<NamingEntry> names_;

    /** Sliding window of op logs not yet covered by a transaction. */
    struct OpWindowItem
    {
        uint64_t opn;
        uint64_t pos;
        uint32_t len;
    };
    std::vector<std::deque<OpWindowItem>> op_window_;

    /**
     * Volatile RPC dedup state (idempotent resend): last sequence number
     * served per slot and the response it produced. A resent request with
     * the same seq is answered from the stored response without
     * re-executing. Deliberately NOT persisted: a back-end restart clears
     * it, and the worst a post-restart re-execution can do is leak an
     * allocation — which recovery's heap audit tolerates by design.
     */
    std::vector<uint64_t> rpc_served_seq_;
    std::vector<RpcResponse> rpc_last_resp_;

    std::deque<GcItem> gc_queue_;
    uint64_t layoutEpoch_ = 0;
    /** Last virtual time the GC queue was scanned. Doorbell-batched log
     *  appends all carry the batch's timestamp, so repeat scans at an
     *  unchanged time are skipped unless an item is actually due. */
    uint64_t last_gc_scan_ns_ = UINT64_MAX;

    Counter busy_ns_;
    Counter replayed_txs_;
    Counter replayed_entries_;
    Counter rpc_calls_;
};

} // namespace asymnvm

#endif // ASYMNVM_BACKEND_BACKEND_NODE_H_
