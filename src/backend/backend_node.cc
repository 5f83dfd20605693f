#include "backend/backend_node.h"

#include <algorithm>
#include <cassert>

#include "rdma/rpc.h"
#include <cstring>
#include <stdexcept>

namespace asymnvm {

namespace {

/** Advance a monotonic ring position past the current ring lap. */
uint64_t
ringSkipToWrap(uint64_t pos, uint64_t ring_size)
{
    return (pos / ring_size + 1) * ring_size;
}

/**
 * The ring-wrap rule every recovery scan follows: a lap remainder too
 * short for the ring's smallest record (@p min_wire bytes), or one that
 * starts with a skip marker, is padding, and the record at @p pos
 * really starts the next lap. Returns where that record starts.
 */
uint64_t
ringRecordPos(const NvmDevice &dev, uint64_t base, uint64_t ring,
              uint64_t pos, uint64_t min_wire)
{
    const uint64_t off_in_ring = pos % ring;
    if (ring - off_in_ring < min_wire)
        return ringSkipToWrap(pos, ring);
    uint32_t magic;
    dev.read(base + off_in_ring, &magic, sizeof(magic));
    return magic == kSkipMagic ? ringSkipToWrap(pos, ring) : pos;
}

/** True when @p type uses the seqlock reader protocol (Section 6.3). */
bool
isLockBased(DsType type)
{
    switch (type) {
      case DsType::MvBst:
      case DsType::MvBpTree:
        return false;
      default:
        return true;
    }
}

} // namespace

BackendNode::BackendNode(NodeId id, const BackendConfig &cfg,
                         const LatencyModel &lat)
    : id_(id), cfg_(cfg), lat_(lat), layout_(Layout::compute(cfg)),
      device_(std::make_shared<NvmDevice>(cfg.nvm_size)),
      nic_(lat.nic_verb_service_ns)
{
    nic_.setQos(cfg_.nic_qos);
    // Format: the fresh device is zero-filled, so only the superblock
    // needs explicit initialization.
    layout_.super.epoch = 1;
    device_->write(0, &layout_.super, sizeof(SuperBlock));
    device_->persist();
    layoutEpoch_ = 1;

    controls_.assign(cfg_.max_frontends, LogControl{});
    slot_session_.assign(cfg_.max_frontends, 0);
    names_.assign(cfg_.max_names, NamingEntry{});
    op_window_.assign(cfg_.max_frontends, {});
    rpc_served_seq_.assign(cfg_.max_frontends, 0);
    rpc_last_resp_.assign(cfg_.max_frontends, RpcResponse{});
    // The allocator writes bitmap words through writeLocal so mirror
    // replication sees every allocation-state change.
    allocator_ = std::make_unique<BackendAllocator>(
        device_.get(), layout_,
        [this](uint64_t off, const void *src, size_t len) {
            writeLocal(off, src, len);
        });
}

BackendNode::BackendNode(NodeId id, const BackendConfig &cfg,
                         std::shared_ptr<NvmDevice> device,
                         const LatencyModel &lat)
    : id_(id), cfg_(cfg), lat_(lat), layout_(Layout::compute(cfg)),
      device_(std::move(device)), nic_(lat.nic_verb_service_ns)
{
    nic_.setQos(cfg_.nic_qos);
    SuperBlock sb;
    device_->read(0, &sb, sizeof(sb));
    if (sb.magic != kSuperMagic)
        throw std::runtime_error("BackendNode: device is not formatted");
    if (sb.block_size != cfg.block_size ||
        sb.max_frontends != cfg.max_frontends) {
        throw std::runtime_error("BackendNode: config mismatch on open");
    }
    layout_.super = sb;
    allocator_ = std::make_unique<BackendAllocator>(
        device_.get(), layout_,
        [this](uint64_t off, const void *src, size_t len) {
            writeLocal(off, src, len);
        });
    loadVolatileState();
    // Fence off the previous incarnation.
    layoutEpoch_ = sb.epoch + 1;
    layout_.super.epoch = layoutEpoch_;
    writeLocal(0, &layout_.super, sizeof(SuperBlock));
    rollTailsForward();
}

void
BackendNode::addMirror(MirrorNode *mirror)
{
    std::lock_guard lock(mu_);
    // Bring the mirror replica up to date with a full device copy; from
    // here on, incremental writes keep it in sync (pre-commit shipping).
    mirror->syncFrom(*device_);
    mirrors_.push_back(mirror);
}

void
BackendNode::removeMirror(MirrorNode *mirror)
{
    std::lock_guard lock(mu_);
    std::erase(mirrors_, mirror);
}

void
BackendNode::stageReplicationLocked(uint64_t off, size_t len)
{
    if (mirrors_.empty() || len == 0)
        return;
    ++repl_batch_.raw_writes;
    ReplBatch &b = repl_batch_;
    // A write that continues exactly where the previous range ended
    // extends it (ring appends, sequential replay) — the byte-range
    // analogue of the post list's scatter-gather merge. The extended
    // range's payload stays contiguous because its bytes are always the
    // buffer tail.
    if (!b.ranges.empty()) {
        ReplBatch::Range &last = b.ranges.back();
        if (off == last.off + last.len) {
            const size_t at = b.buf.size();
            b.buf.resize(at + len);
            device_->read(off, b.buf.data() + at, len);
            last.len += static_cast<uint32_t>(len);
            return;
        }
    }
    // An exact re-write of a staged range refreshes it in place (the
    // control block is written twice per transaction; one range ships).
    auto it = b.index.find(off);
    if (it != b.index.end()) {
        ReplBatch::Range &r = b.ranges[it->second];
        if (r.len == len) {
            device_->read(off, b.buf.data() + r.buf_off, len);
            return;
        }
    }
    ReplBatch::Range r;
    r.off = off;
    r.len = static_cast<uint32_t>(len);
    r.buf_off = static_cast<uint32_t>(b.buf.size());
    b.buf.resize(b.buf.size() + len);
    device_->read(off, b.buf.data() + r.buf_off, len);
    b.index[off] = b.ranges.size();
    b.ranges.push_back(r);
}

bool
BackendNode::shipBatchToMirror(MirrorNode *m, uint64_t now_ns)
{
    uint64_t backoff = kRetry.base_backoff_ns;
    for (uint32_t attempt = 0; attempt < kRetry.max_attempts; ++attempt) {
        if (m->faults().armed()) {
            const FaultAction a =
                m->faults().onVerb(FaultVerb::Write, now_ns);
            if (a.qp_error || a.drop) {
                // The transfer (or its completion) was lost: pay the
                // detection timeout plus backoff in back-end time and
                // re-ship. The batch is idempotent — a drop_after that
                // landed bytes before the loss just gets them again.
                ++repl_stats_.retries;
                const uint64_t wait = kRetry.verb_timeout_ns + backoff;
                repl_stats_.backoff_ns += wait;
                busy_ns_.add(wait);
                backoff = std::min<uint64_t>(backoff * 2,
                                             kRetry.max_backoff_ns);
                continue;
            }
            busy_ns_.add(a.delay_ns + a.slow_ns);
        }
        for (const ReplBatch::Range &r : repl_batch_.ranges)
            m->stageWrite(r.off, repl_batch_.buf.data() + r.buf_off,
                          r.len);
        m->persistBatch();
        return true;
    }
    return false;
}

void
BackendNode::flushReplicationLocked(uint64_t now_ns)
{
    if (repl_batch_.empty())
        return;
    if (mirrors_.empty()) {
        repl_batch_.clear();
        return;
    }
    ++repl_stats_.batches;
    repl_stats_.raw_writes += repl_batch_.raw_writes;
    repl_stats_.ranges += repl_batch_.ranges.size();
    const uint64_t batch_bytes = repl_batch_.buf.size();

    std::vector<MirrorNode *> dead;
    for (MirrorNode *m : mirrors_) {
        if (shipBatchToMirror(m, now_ns)) {
            ++repl_stats_.persists;
            repl_stats_.bytes += batch_bytes;
        } else {
            // A replication storm outlived every retry: detach the
            // mirror (Case 5) rather than wedging the commit — the
            // cluster will re-attach a fresh replica with a full-image
            // sync.
            dead.push_back(m);
        }
    }
    for (MirrorNode *m : dead) {
        std::erase(mirrors_, m);
        ++repl_stats_.mirrors_dropped;
    }
    // Modeled batch latency: one chained RDMA transfer plus one remote
    // persist fence; posting it is back-end CPU time.
    uint64_t queue_ns = 0;
    if (nic_.qosEnabled() && now_ns != 0) {
        // Replication shipping shares the NIC with foreground verbs. The
        // per-QP model accounts the batch as one Background-class burst
        // on this node's shipper QP — so a storm of it is visible to (and
        // rate-capped against) live sessions. The legacy scalar model
        // never charged replication here; keeping that path unchanged
        // preserves every pre-existing result bit-identically. now_ns==0
        // marks control-path flushes with no session clock to anchor to.
        queue_ns = nic_.reserveBatch(repl_batch_.ranges.size(), now_ns,
                                     kShipperQpBase + id_,
                                     VerbClass::Background);
    }
    repl_hist_.record(queue_ns + lat_.rdma_write_rtt_ns +
                      lat_.wireBytes(batch_bytes) + lat_.persist_fence_ns);
    busy_ns_.add(lat_.post_overhead_ns);
    repl_batch_.clear();
}

void
BackendNode::flushReplication()
{
    std::lock_guard lock(mu_);
    flushReplicationLocked(0);
}

void
BackendNode::noteRemoteWrite(uint64_t off, size_t len)
{
    std::lock_guard lock(mu_);
    stageReplicationLocked(off, len);
}

void
BackendNode::writeLocal(uint64_t off, const void *src, size_t len)
{
    device_->write(off, src, len);
    device_->persist();
    stageReplicationLocked(off, len);
}

void
BackendNode::writeLocal64(uint64_t off, uint64_t v)
{
    device_->write64Atomic(off, v);
    stageReplicationLocked(off, sizeof(v));
}

void
BackendNode::writeControl(uint32_t slot)
{
    // The lock-ahead word is written one-sided by the front-end (it must
    // persist *before* the memory logs it covers, Section 6.1); refresh
    // it from NVM so rewriting the block does not clobber it.
    const uint64_t off = layout_.logControlOff(slot);
    controls_[slot].lock_ahead =
        device_->read64(off + offsetof(LogControl, lock_ahead));
    writeLocal(off, &controls_[slot], sizeof(LogControl));
}

void
BackendNode::loadVolatileState()
{
    controls_.assign(cfg_.max_frontends, LogControl{});
    slot_session_.assign(cfg_.max_frontends, 0);
    names_.assign(cfg_.max_names, NamingEntry{});
    op_window_.assign(cfg_.max_frontends, {});
    rpc_served_seq_.assign(cfg_.max_frontends, 0);
    rpc_last_resp_.assign(cfg_.max_frontends, RpcResponse{});

    for (uint32_t i = 0; i < cfg_.max_names; ++i)
        device_->read(layout_.namingEntryOff(i), &names_[i],
                      sizeof(NamingEntry));

    for (uint32_t s = 0; s < cfg_.max_frontends; ++s) {
        device_->read(layout_.logControlOff(s), &controls_[s],
                      sizeof(LogControl));
        slot_session_[s] = controls_[s].session_epoch;

        // Rebuild the uncovered op-log window by scanning the ring from
        // the persisted tail to the head.
        const LogControl &c = controls_[s];
        const uint64_t ring = layout_.super.oplog_ring_size;
        const uint64_t base = layout_.oplogRingOff(s);
        uint64_t pos = c.oplog_tail;
        while (true) {
            pos = ringRecordPos(*device_, base, ring, pos, kMinOpLogWire);
            if (pos >= c.oplog_head)
                break;
            const uint64_t off_in_ring = pos % ring;
            std::vector<uint8_t> buf(ring - off_in_ring);
            device_->read(base + off_in_ring, buf.data(), buf.size());
            auto rec = decodeOpLog({buf.data(), buf.size()});
            if (!rec.has_value())
                break; // torn tail; handled by rollTailsForward
            op_window_[s].push_back(
                {rec->opn, pos, static_cast<uint32_t>(rec->wire_len)});
            pos += rec->wire_len;
        }
    }
    allocator_->recover();
}

void
BackendNode::rollTailsForward()
{
    for (uint32_t s = 0; s < cfg_.max_frontends; ++s) {
        if (slot_session_[s] == 0)
            continue;
        // Op-log tail first: a valid record beyond the recorded head means
        // the append landed but the control update did not survive.
        while (true) {
            LogControl &c = controls_[s];
            const uint64_t ring = layout_.super.oplog_ring_size;
            const uint64_t base = layout_.oplogRingOff(s);
            const uint64_t pos =
                ringRecordPos(*device_, base, ring, c.oplog_head,
                              kMinOpLogWire);
            const uint64_t off_in_ring = pos % ring;
            std::vector<uint8_t> buf(ring - off_in_ring);
            device_->read(base + off_in_ring, buf.data(), buf.size());
            auto rec = decodeOpLog({buf.data(), buf.size()});
            if (!rec.has_value() || rec->opn != c.opn)
                break;
            const bool was_empty = op_window_[s].empty();
            op_window_[s].push_back(
                {rec->opn, pos, static_cast<uint32_t>(rec->wire_len)});
            if (was_empty)
                c.oplog_tail = pos;
            c.oplog_head = pos + rec->wire_len;
            c.opn = rec->opn + 1;
            writeControl(s);
        }
        // Memory-log tail: roll a fully persisted (checksummed) trailing
        // transaction forward; a torn one is simply ignored — the front-
        // end never received its ack and will re-flush (Case 3.b).
        recoverTailTx(s);
    }
}

TxValidation
BackendNode::recoverTailTx(uint32_t slot)
{
    const TxValidation v = validateTail(slot);
    if (v != TxValidation::Clean)
        return v;
    const LogControl &c = controls_[slot];
    const uint64_t ring = layout_.super.memlog_ring_size;
    const uint64_t base = layout_.memlogRingOff(slot);
    const uint64_t pos =
        ringRecordPos(*device_, base, ring, c.memlog_head, kMinTxWire);
    TxHeader hdr;
    device_->read(base + pos % ring, &hdr, sizeof(hdr));
    const uint32_t len = static_cast<uint32_t>(txWireLen(hdr));
    // A checksummed transaction whose op-refs do not resolve did not
    // roll forward.
    return ok(onTxAppended(slot, pos, len, 0)) ? v : TxValidation::Torn;
}

Status
BackendNode::registerFrontend(uint64_t session_id, uint32_t *slot)
{
    std::lock_guard lock(mu_);
    if (session_id == 0)
        return Status::InvalidArgument;
    for (uint32_t s = 0; s < cfg_.max_frontends; ++s) {
        if (slot_session_[s] == session_id) {
            *slot = s; // reconnect after a front-end crash
            return Status::Ok;
        }
    }
    for (uint32_t s = 0; s < cfg_.max_frontends; ++s) {
        if (slot_session_[s] == 0) {
            slot_session_[s] = session_id;
            controls_[s] = LogControl{};
            controls_[s].session_epoch = session_id;
            writeControl(s);
            flushReplicationLocked(0);
            *slot = s;
            return Status::Ok;
        }
    }
    return Status::Unavailable;
}

void
BackendNode::unregisterFrontend(uint32_t slot)
{
    std::lock_guard lock(mu_);
    if (slot >= cfg_.max_frontends)
        return;
    slot_session_[slot] = 0;
    controls_[slot] = LogControl{};
    writeControl(slot);
    op_window_[slot].clear();
    flushReplicationLocked(0);
}

LogControl
BackendNode::readControl(uint32_t slot) const
{
    std::lock_guard lock(mu_);
    return controls_[slot];
}

uint64_t
BackendNode::ringReadAbs(uint64_t ring_base, uint64_t ring_size,
                         uint64_t pos) const
{
    return ring_base + pos % ring_size;
}

Status
BackendNode::onOpLogAppended(uint32_t slot, uint64_t pos, uint32_t len,
                             uint64_t now_ns, bool fenced)
{
    std::lock_guard lock(mu_);
    if (slot >= cfg_.max_frontends || slot_session_[slot] == 0)
        return Status::InvalidArgument;
    LogControl &c = controls_[slot];
    const uint64_t ring = layout_.super.oplog_ring_size;
    const uint64_t abs = ringReadAbs(layout_.oplogRingOff(slot), ring, pos);

    std::vector<uint8_t> buf(len);
    device_->read(abs, buf.data(), len);
    auto rec = decodeOpLog({buf.data(), buf.size()});
    if (!rec.has_value())
        return Status::Corruption;

    // Stage the raw log bytes for mirror replication (the posted write
    // already staged them via on_write; this refreshes the same range, so
    // only one range ships). Unlike the control-block persist, shipping
    // cannot defer past this call even for unfenced appends: restart
    // recovery rolls any decodable record beyond the persisted head
    // forward, which makes every landed op-log record individually
    // recoverable — so the mirror must hold it before promotion could be
    // asked to (replicate-before-ack, Section 7.1).
    stageReplicationLocked(abs, len);

    if (op_window_[slot].empty())
        c.oplog_tail = pos;
    op_window_[slot].push_back({rec->opn, pos, len});
    c.oplog_head = pos + len;
    c.opn = rec->opn + 1;
    // A doorbell-batched (unfenced) append defers the control-block
    // persist to the batch commit: the next onTxAppended (or fenced
    // append) writes the accumulated positions in one NVM write instead
    // of one per record. Restart recovery rolls any decodable records
    // beyond a stale persisted head forward, and unfenced records were
    // never individually acked, so nothing durable is promised early.
    if (fenced)
        writeControl(slot);

    busy_ns_.add(lat_.cpu_op_overhead_ns + len / 8);
    processGcLocked(now_ns, false);
    flushReplicationLocked(now_ns);
    return Status::Ok;
}

Status
BackendNode::onTxAppended(uint32_t slot, uint64_t pos, uint32_t len,
                          uint64_t now_ns)
{
    std::lock_guard lock(mu_);
    if (slot >= cfg_.max_frontends || slot_session_[slot] == 0)
        return Status::InvalidArgument;
    LogControl &c = controls_[slot];
    const uint64_t ring = layout_.super.memlog_ring_size;
    const uint64_t abs = ringReadAbs(layout_.memlogRingOff(slot), ring, pos);

    std::vector<uint8_t> buf(len);
    device_->read(abs, buf.data(), len);
    auto tx = TxParser::parse({buf.data(), buf.size()});
    if (!tx.has_value())
        return Status::Corruption;
    std::vector<std::vector<uint8_t>> ref_values;
    if (!resolveOpRefsLocked(slot, *tx, &ref_values))
        return Status::Corruption;

    // Stage the transaction bytes; everything the replay below writes
    // (data blocks, SN bumps, control updates) joins the same batch and
    // ships to each mirror as ONE chained transfer with ONE persist fence
    // before this call returns — i.e. before the commit is acknowledged.
    stageReplicationLocked(abs, len);

    c.memlog_head = pos + len;
    c.last_tx_off = pos;
    c.last_tx_len = len;
    c.lpn = tx->header().lpn + 1;
    c.covered_opn = std::max(c.covered_opn, tx->header().covered_opn);
    auto &window = op_window_[slot];
    while (!window.empty() && window.front().opn < c.covered_opn)
        window.pop_front();
    c.oplog_tail = window.empty() ? c.oplog_head : window.front().pos;
    writeControl(slot);

    replayTx(*tx, ref_values);
    c.memlog_applied = c.memlog_head;
    writeControl(slot);

    replayed_txs_.add();
    processGcLocked(now_ns, false);
    // Group-commit replication: one batched ship + persist per committed
    // transaction, strictly before the front-end sees the ack.
    flushReplicationLocked(now_ns);
    return Status::Ok;
}

bool
BackendNode::resolveOpRefsLocked(
    uint32_t slot, const TxParser &tx,
    std::vector<std::vector<uint8_t>> *values) const
{
    const uint64_t ring = layout_.super.oplog_ring_size;
    const uint64_t base = layout_.oplogRingOff(slot);
    for (const ParsedMemLog &m : tx.entries()) {
        if (m.flag != MemLogFlag::kOpRef)
            continue;
        // Records never straddle the ring wrap, so a valid reference
        // fits in the contiguous remainder.
        const uint64_t contiguous = ring - m.oplog_off % ring;
        if (contiguous < kMinOpLogWire)
            return false;
        const uint64_t abs = ringReadAbs(base, ring, m.oplog_off);
        OpLogHeader hdr;
        device_->read(abs, &hdr, sizeof(hdr));
        const uint64_t wire = sizeof(OpLogHeader) +
                              static_cast<uint64_t>(hdr.val_len) +
                              sizeof(uint32_t);
        if (wire > contiguous)
            return false;
        std::vector<uint8_t> rec(wire);
        device_->read(abs, rec.data(), wire);
        auto op = decodeOpLog({rec.data(), rec.size()});
        if (!op.has_value() ||
            static_cast<uint64_t>(m.val_off) + m.len > op->value.size())
            return false;
        values->push_back(std::move(op->value));
    }
    return true;
}

void
BackendNode::replayTx(const TxParser &tx,
                      const std::vector<std::vector<uint8_t>> &ref_values)
{
    const uint64_t ds = tx.header().ds_id;
    const bool bump_sn =
        ds < names_.size() &&
        isLockBased(static_cast<DsType>(names_[ds].type));
    const uint64_t sn_off = layout_.namingEntryOff(static_cast<DsId>(ds)) +
                            naming_field::kSeqNum;
    if (bump_sn) {
        // Write_Begin (Algorithm 2): SN becomes odd while replaying.
        names_[ds].seq_num += 1;
        writeLocal64(sn_off, names_[ds].seq_num);
    }
    auto ref = ref_values.begin();
    for (const ParsedMemLog &m : tx.entries()) {
        assert(m.addr.backend == id_);
        const uint8_t *src = m.inline_value;
        if (m.flag == MemLogFlag::kOpRef)
            src = (ref++)->data() + m.val_off;
        writeLocal(m.addr.offset, src, m.len);
        replayed_entries_.add();
        busy_ns_.add(lat_.cpu_log_replay_ns + lat_.nvm_write_ns);
    }
    if (bump_sn) {
        // Write_End: SN even again, readers revalidate.
        names_[ds].seq_num += 1;
        writeLocal64(sn_off, names_[ds].seq_num);
    }
}

Status
BackendNode::handleRpc(uint32_t slot)
{
    if (slot >= cfg_.max_frontends)
        return Status::InvalidArgument;
    const uint64_t req_off = layout_.rpcReqRingOff(slot);
    RpcRequest req;
    device_->read(req_off, &req, sizeof(req));
    if (req.magic != kRpcReqMagic)
        return Status::Corruption;
    if (sizeof(req) + req.payload_len > layout_.super.rpc_ring_size)
        return Status::Corruption; // length torn: don't trust it
    std::vector<uint8_t> payload(req.payload_len);
    if (req.payload_len > 0)
        device_->read(req_off + sizeof(req), payload.data(),
                      req.payload_len);
    // A torn or corrupt request must not execute: reject, and let the
    // client rewrite it (same seq) and poke again.
    if (rpcRequestChecksum(req, {payload.data(), payload.size()}) !=
        req.checksum)
        return Status::Corruption;
    // Idempotent resend: the client lost our response, not the request.
    // Serve the repeat from the stored response without re-executing.
    if (req.seq != 0 && rpc_served_seq_[slot] == req.seq) {
        device_->write(layout_.rpcRespRingOff(slot), &rpc_last_resp_[slot],
                       sizeof(RpcResponse));
        device_->persist();
        std::lock_guard lock(mu_);
        stageReplicationLocked(layout_.rpcRespRingOff(slot),
                               sizeof(RpcResponse));
        flushReplicationLocked(0);
        return Status::Ok;
    }

    RpcResponse resp{};
    resp.magic = kRpcRespMagic;
    resp.seq = req.seq;
    const Status st = serveRpc(static_cast<RpcOp>(req.op), req.args,
                               payload, resp.rets, req.args[2]);
    resp.status = static_cast<uint32_t>(st);
    rpc_served_seq_[slot] = req.seq;
    rpc_last_resp_[slot] = resp;
    device_->write(layout_.rpcRespRingOff(slot), &resp, sizeof(resp));
    device_->persist();
    // Replicate the whole RPC's effects — allocator bitmap words, naming
    // entries, GC epochs, and the response ring itself — as one batch.
    // (The response ring is scratch for recovery purposes, but shipping
    // it keeps the mirror byte-identical with the back-end device.)
    std::lock_guard lock(mu_);
    stageReplicationLocked(layout_.rpcRespRingOff(slot), sizeof(resp));
    flushReplicationLocked(0);
    return Status::Ok;
}

Status
BackendNode::serveRpc(RpcOp op, std::span<const uint64_t> args,
                      std::span<const uint8_t> payload, uint64_t rets[4],
                      uint64_t now_ns)
{
    uint64_t unused[4] = {};
    if (rets == nullptr)
        rets = unused;
    switch (op) {
      case RpcOp::AllocBlocks:
        return rpcAllocBlocks(args[0], &rets[0]);
      case RpcOp::FreeBlocks:
        return rpcFreeBlocks(args[0], args[1]);
      case RpcOp::CreateName: {
        DsId id = 0;
        const Status st =
            rpcCreateName(args[0], static_cast<DsType>(args[1]), &id);
        rets[0] = id;
        return st;
      }
      case RpcOp::LookupName: {
        DsId id = 0;
        DsType type = DsType::None;
        const Status st = rpcLookupName(args[0], &id, &type);
        rets[0] = id;
        rets[1] = static_cast<uint64_t>(type);
        return st;
      }
      case RpcOp::Retire: {
        // Compare by division: count * 16 could wrap for a torn count.
        const uint64_t count = args[1];
        if (payload.size() % 16 != 0 || payload.size() / 16 != count)
            return Status::InvalidArgument;
        std::vector<std::pair<uint64_t, uint64_t>> regions(count);
        for (uint64_t i = 0; i < count; ++i) {
            std::memcpy(&regions[i].first, payload.data() + i * 16, 8);
            std::memcpy(&regions[i].second, payload.data() + i * 16 + 8, 8);
        }
        return rpcRetire(static_cast<DsId>(args[0]), regions, now_ns);
      }
      case RpcOp::None:
        break;
    }
    return Status::InvalidArgument;
}

Status
BackendNode::rpcAllocBlocks(uint64_t nblocks, uint64_t *off)
{
    std::lock_guard lock(mu_);
    rpc_calls_.add();
    busy_ns_.add(lat_.cpu_op_overhead_ns + lat_.nvm_write_ns);
    const Status st = allocator_->alloc(nblocks, off);
    flushReplicationLocked(0);
    return st;
}

Status
BackendNode::rpcFreeBlocks(uint64_t off, uint64_t nblocks)
{
    std::lock_guard lock(mu_);
    rpc_calls_.add();
    busy_ns_.add(lat_.cpu_op_overhead_ns + lat_.nvm_write_ns);
    const Status st = allocator_->free(off, nblocks);
    flushReplicationLocked(0);
    return st;
}

Status
BackendNode::rpcRetire(DsId ds,
                       std::span<const std::pair<uint64_t, uint64_t>>
                           regions,
                       uint64_t now_ns)
{
    std::lock_guard lock(mu_);
    rpc_calls_.add();
    if (!regions.empty())
        gc_queue_.push_back({now_ns + cfg_.gc_delay_ns, ds});
    processGcLocked(now_ns, false);
    flushReplicationLocked(now_ns);
    return Status::Ok;
}

Status
BackendNode::rpcCreateName(uint64_t name_hash, DsType type, DsId *id)
{
    std::lock_guard lock(mu_);
    rpc_calls_.add();
    if (name_hash == 0)
        return Status::InvalidArgument;
    for (uint32_t i = 0; i < cfg_.max_names; ++i) {
        if (names_[i].name_hash == name_hash)
            return Status::Exists;
    }
    for (uint32_t i = 0; i < cfg_.max_names; ++i) {
        if (names_[i].name_hash == 0) {
            NamingEntry e{};
            e.name_hash = name_hash;
            e.type = static_cast<uint32_t>(type);
            names_[i] = e;
            writeLocal(layout_.namingEntryOff(i), &e, sizeof(e));
            flushReplicationLocked(0);
            *id = i;
            return Status::Ok;
        }
    }
    return Status::OutOfMemory;
}

Status
BackendNode::rpcLookupName(uint64_t name_hash, DsId *id, DsType *type) const
{
    std::lock_guard lock(mu_);
    for (uint32_t i = 0; i < cfg_.max_names; ++i) {
        if (names_[i].name_hash == name_hash) {
            *id = i;
            if (type != nullptr)
                *type = static_cast<DsType>(names_[i].type);
            return Status::Ok;
        }
    }
    return Status::NotFound;
}

TxValidation
BackendNode::validateTail(uint32_t slot)
{
    std::lock_guard lock(mu_);
    const LogControl &c = controls_[slot];
    const uint64_t ring = layout_.super.memlog_ring_size;
    const uint64_t base = layout_.memlogRingOff(slot);
    const uint64_t off_in_ring =
        ringRecordPos(*device_, base, ring, c.memlog_head, kMinTxWire) %
        ring;
    TxHeader hdr;
    device_->read(base + off_in_ring, &hdr, sizeof(hdr));
    if (hdr.magic != kTxMagic || hdr.lpn != c.lpn)
        return TxValidation::None; // nothing (or only stale bytes) there
    const uint64_t max_len = ring - off_in_ring;
    const uint64_t need = txWireLen(hdr);
    if (need > max_len)
        return TxValidation::Torn;
    std::vector<uint8_t> buf(need);
    device_->read(base + off_in_ring, buf.data(), need);
    return TxParser::parse({buf.data(), buf.size()}).has_value()
               ? TxValidation::Clean
               : TxValidation::Torn;
}

std::vector<ParsedOpLog>
BackendNode::uncoveredOps(uint32_t slot) const
{
    std::lock_guard lock(mu_);
    std::vector<ParsedOpLog> out;
    const uint64_t ring = layout_.super.oplog_ring_size;
    const uint64_t base = layout_.oplogRingOff(slot);
    for (const OpWindowItem &item : op_window_[slot]) {
        std::vector<uint8_t> buf(item.len);
        device_->read(base + item.pos % ring, buf.data(), item.len);
        auto rec = decodeOpLog({buf.data(), buf.size()});
        if (rec.has_value())
            out.push_back(std::move(*rec));
    }
    return out;
}

uint64_t
BackendNode::opWindowSize(uint32_t slot) const
{
    std::lock_guard lock(mu_);
    return op_window_[slot].size();
}

void
BackendNode::releaseStaleLocks(uint32_t slot)
{
    std::lock_guard lock(mu_);
    // The lock-ahead word is written one-sided by front-ends; NVM is the
    // authoritative copy.
    const uint64_t lock_ahead = device_->read64(
        layout_.logControlOff(slot) + offsetof(LogControl, lock_ahead));
    if (lock_ahead == 0)
        return;
    const DsId ds = static_cast<DsId>(lock_ahead - 1);
    if (ds < names_.size()) {
        const uint64_t lock_off =
            layout_.namingEntryOff(ds) + naming_field::kWriterLock;
        const uint64_t holder = device_->read64(lock_off);
        if (holder == static_cast<uint64_t>(slot) + 1) {
            names_[ds].writer_lock = 0;
            writeLocal64(lock_off, 0);
        }
    }
    controls_[slot].lock_ahead = 0;
    writeLocal64(layout_.logControlOff(slot) +
                     offsetof(LogControl, lock_ahead),
                 0);
    flushReplicationLocked(0);
}

void
BackendNode::processGc(uint64_t now_ns, bool force)
{
    std::lock_guard lock(mu_);
    processGcLocked(now_ns, force);
    flushReplicationLocked(now_ns);
}

void
BackendNode::processGcLocked(uint64_t now_ns, bool force)
{
    // Doorbell-batched log appends arrive with one shared timestamp; a
    // rescan at an unchanged virtual time can only find work if the queue
    // front is actually due (retire delays may be zero in tests).
    if (!force && now_ns == last_gc_scan_ns_ &&
        (gc_queue_.empty() || gc_queue_.front().reclaim_at_ns > now_ns))
        return;
    last_gc_scan_ns_ = now_ns;
    bool bumped[64] = {};
    bool any = false;
    while (!gc_queue_.empty() &&
           (force || gc_queue_.front().reclaim_at_ns <= now_ns)) {
        const GcItem item = gc_queue_.front();
        gc_queue_.pop_front();
        if (item.ds < 64 && !bumped[item.ds]) {
            bumped[item.ds] = true;
            any = true;
        }
    }
    if (!any)
        return;
    // Reclaimed memory may now be reused: bump gc_epoch so that front-end
    // caches holding nodes of the retired versions invalidate themselves.
    for (DsId ds = 0; ds < 64 && ds < names_.size(); ++ds) {
        if (!bumped[ds])
            continue;
        names_[ds].gc_epoch += 1;
        writeLocal64(layout_.namingEntryOff(ds) + naming_field::kGcEpoch,
                     names_[ds].gc_epoch);
    }
}

NamingEntry
BackendNode::namingEntry(DsId id) const
{
    // Read from NVM: fields like the writer lock are updated one-sided
    // by front-ends, so the volatile shadow may be stale for them.
    NamingEntry e;
    device_->read(layout_.namingEntryOff(id), &e, sizeof(e));
    return e;
}

uint32_t
BackendNode::nameCount() const
{
    std::lock_guard lock(mu_);
    uint32_t n = 0;
    for (const NamingEntry &e : names_)
        n += e.name_hash != 0;
    return n;
}

uint64_t
BackendNode::gcPending() const
{
    std::lock_guard lock(mu_);
    return gc_queue_.size();
}

void
BackendNode::resetStats()
{
    busy_ns_.reset();
    replayed_txs_.reset();
    replayed_entries_.reset();
    rpc_calls_.reset();
    nic_.resetStats();
    repl_stats_ = ReplicationStats{};
    repl_hist_ = Histogram{};
}

} // namespace asymnvm
