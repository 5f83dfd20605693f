#include "check/invariant_checker.h"

#include <algorithm>
#include <sstream>

namespace asymnvm {

namespace {

/** Walk-length cap: detects linkage cycles in a corrupt list image. */
constexpr uint64_t kMaxWalk = 1u << 20;
constexpr uint32_t kMaxLevel = 16;

std::string
fmt(const char *what, DsId ds, const std::string &detail)
{
    std::ostringstream os;
    os << what << " (ds " << ds << "): " << detail;
    return os.str();
}

} // namespace

// The image structs must mirror the DS-private node layouts exactly; the
// DS headers static_assert the same sizes.
static_assert(sizeof(Value) == 64);

std::string
AuditReport::str() const
{
    std::ostringstream os;
    for (const auto &v : violations)
        os << "  - " << v << "\n";
    return os.str();
}

const char *
InvariantChecker::badRange(uint64_t off, uint64_t size) const
{
    const Layout &lay = node_->layout();
    if (size == 0 || off < lay.dataOff() || off > lay.dataEnd() ||
        size > lay.dataEnd() - off)
        return "outside the data area";
    // Blocks are aligned relative to dataOff() (itself only 256-aligned),
    // so derive block indices from data-area-relative offsets.
    const uint64_t bs = lay.super.block_size;
    const uint64_t last = (off + size - 1 - lay.dataOff()) / bs;
    for (uint64_t b = (off - lay.dataOff()) / bs; b <= last; ++b)
        if (!node_->allocator().isAllocated(lay.dataOff() + b * bs))
            return "in an unallocated block";
    return nullptr;
}

bool
InvariantChecker::readNodeImage(uint64_t raw, void *image, size_t size,
                                const char *what, AuditReport *rep)
{
    const RemotePtr p = RemotePtr::fromRaw(raw);
    const char *why = p.backend != node_->id()
                          ? "points at a foreign back-end"
                          : badRange(p.offset, size);
    if (why != nullptr) {
        std::ostringstream at;
        at << what << " @ 0x" << std::hex << raw << ": reachable node "
           << why;
        rep->add(at.str());
        return false;
    }
    node_->nvm().read(p.offset, image, size);
    return true;
}

void
InvariantChecker::checkQuiescent(DsId ds, AuditReport *rep)
{
    const uint64_t entry_off = node_->layout().namingEntryOff(ds);
    const uint64_t lock =
        node_->nvm().read64(entry_off + naming_field::kWriterLock);
    if (lock != 0)
        rep->add(fmt("quiescence", ds,
                     "writer lock still held by slot " +
                         std::to_string(lock - 1) + " after recovery"));
    const uint64_t sn =
        node_->nvm().read64(entry_off + naming_field::kSeqNum);
    if (sn % 2 != 0)
        rep->add(fmt("quiescence", ds,
                     "seqlock SN " + std::to_string(sn) +
                         " is odd (writer died in a critical section)"));
}

void
InvariantChecker::checkLogControl(uint32_t slot, AuditReport *rep)
{
    const LogControl ctl = node_->readControl(slot);
    const SuperBlock &sb = node_->layout().super;
    auto bad = [&](const std::string &d) {
        rep->add("log control (slot " + std::to_string(slot) + "): " + d);
    };
    if (ctl.covered_opn > ctl.opn)
        bad("covered_opn " + std::to_string(ctl.covered_opn) +
            " exceeds opn " + std::to_string(ctl.opn));
    if (ctl.memlog_applied > ctl.memlog_head)
        bad("memlog_applied ahead of memlog_head");
    if (ctl.oplog_tail > ctl.oplog_head)
        bad("oplog_tail ahead of oplog_head");
    if (ctl.oplog_head - ctl.oplog_tail > sb.oplog_ring_size)
        bad("uncovered op window wider than the op-log ring");
    if (ctl.lock_ahead != 0)
        bad("lock-ahead record not cleared by recovery");
    // Every record recovery would replay must decode; uncoveredOps()
    // silently skips undecodable ones, so a count mismatch means a
    // corrupt record sits inside the recovery window.
    const uint64_t window = node_->opWindowSize(slot);
    const size_t decodable = node_->uncoveredOps(slot).size();
    if (decodable != window)
        bad(std::to_string(window - decodable) +
            " op-window record(s) do not decode");
}

std::optional<Model>
InvariantChecker::contents(DsId ds, AuditReport *rep)
{
    // Read the authoritative NVM copy, not the back-end's volatile shadow:
    // front-ends update naming fields one-sided.
    NamingEntry e;
    node_->nvm().read(node_->layout().namingEntryOff(ds), &e, sizeof(e));
    if (e.name_hash == 0) {
        rep->add(fmt("heap audit", ds, "naming entry is free"));
        return std::nullopt;
    }
    switch (static_cast<DsType>(e.type)) {
    case DsType::Stack:
    case DsType::Queue:
        return listContents(ds, e, rep);
    case DsType::HashTable:
        return hashContents(ds, e, rep);
    case DsType::SkipList:
        return skipContents(ds, e, rep);
    default:
        rep->add(fmt("heap audit", ds,
                     "naming entry type " + std::to_string(e.type) +
                         ": unsupported structure type"));
        return std::nullopt;
    }
}

std::optional<Model>
InvariantChecker::listContents(DsId ds, const NamingEntry &e,
                               AuditReport *rep)
{
    // Both chains start at aux0: a stack's at its top, a queue's at its
    // oldest element. A queue keeps its tail in aux1, its count in aux2.
    const bool queue = e.type == static_cast<uint32_t>(DsType::Queue);
    const char *what = queue ? "queue" : "stack";
    Model m;
    uint64_t last = 0;
    for (uint64_t cur = e.aux[0]; cur != 0;) {
        if (m.list.size() >= kMaxWalk) {
            rep->add(fmt(what, ds, "cycle in the node chain"));
            return std::nullopt;
        }
        ListNodeImage n;
        if (!readNodeImage(cur, &n, sizeof(n), what, rep))
            return std::nullopt;
        m.list.push_back(n.value.asU64());
        last = cur;
        cur = n.next_raw;
    }
    if (!queue)
        std::reverse(m.list.begin(), m.list.end()); // bottom first
    if (!strict_)
        return m;
    const uint64_t count = e.aux[queue ? 2 : 1];
    if (m.list.size() != count)
        rep->add(fmt(what, ds,
                     "chain length " + std::to_string(m.list.size()) +
                         " != persisted count " + std::to_string(count)));
    if (queue && e.aux[1] != last)
        rep->add(fmt(what, ds,
                     last == 0 ? "empty queue with a stale tail"
                               : "tail pointer does not reach the last node"));
    return m;
}

std::optional<Model>
InvariantChecker::hashContents(DsId ds, const NamingEntry &e,
                               AuditReport *rep)
{
    const uint64_t array_off = e.aux[0];
    const uint64_t nbuckets = e.aux[1];
    if (nbuckets == 0 || (nbuckets & (nbuckets - 1)) != 0) {
        rep->add(fmt("hash table", ds, "bucket count is not a power of 2"));
        return std::nullopt;
    }
    if (const char *why = badRange(array_off, nbuckets * 8)) {
        rep->add(fmt("hash table", ds, std::string("bucket array ") + why));
        return std::nullopt;
    }
    // A cycle revisits a node and so its key: the duplicate-key check
    // bounds every bucket walk.
    Model m;
    for (uint64_t b = 0; b < nbuckets; ++b) {
        uint64_t cur = node_->nvm().read64(array_off + b * 8);
        while (cur != 0) {
            HashNodeImage n;
            if (!readNodeImage(cur, &n, sizeof(n), "hash node", rep))
                return std::nullopt;
            if (!m.map.emplace(n.key, n.value.asU64()).second) {
                rep->add(fmt("hash table", ds,
                             "duplicate key " + std::to_string(n.key)));
                return std::nullopt;
            }
            cur = n.next_raw;
        }
    }
    if (strict_ && m.map.size() != e.aux[2])
        rep->add(fmt("hash table", ds,
                     "reachable entries " + std::to_string(m.map.size()) +
                         " != persisted count " + std::to_string(e.aux[2])));
    return m;
}

std::optional<Model>
InvariantChecker::skipContents(DsId ds, const NamingEntry &e,
                               AuditReport *rep)
{
    SkipNodeImage sentinel;
    if (!readNodeImage(e.aux[0], &sentinel, sizeof(sentinel),
                       "skiplist sentinel", rep))
        return std::nullopt;
    if (sentinel.level != kMaxLevel) {
        rep->add(fmt("skiplist", ds, "sentinel tower height corrupt"));
        return std::nullopt;
    }
    // Every level must be strictly ascending, which also bounds its walk
    // (a cycle revisits a key). The bottom level is the authoritative
    // chain; in strict (logged) mode every node in an express lane must
    // also be on it with a tall-enough tower. Naive mode can legally
    // crash half way through linking or unlinking a tower, so above the
    // bottom level only allocation and ordering are required.
    Model m;
    std::map<uint64_t, uint32_t> level0; // node raw -> tower height
    for (uint32_t l = 0; l < kMaxLevel; ++l) {
        bool have_prev = false;
        Key prev = 0;
        for (uint64_t cur = sentinel.next[l]; cur != 0;) {
            SkipNodeImage n;
            if (!readNodeImage(cur, &n, sizeof(n), "skiplist node", rep))
                return std::nullopt;
            if (have_prev && n.key <= prev) {
                rep->add(fmt("skiplist", ds,
                             (l == 0 ? std::string("bottom chain")
                                     : "level " + std::to_string(l)) +
                                 " keys not ascending"));
                return std::nullopt;
            }
            prev = n.key;
            have_prev = true;
            if (l == 0) {
                if (n.level < 1 || n.level > kMaxLevel) {
                    rep->add(fmt("skiplist", ds,
                                 "node tower height " +
                                     std::to_string(n.level) +
                                     " out of range"));
                    return std::nullopt;
                }
                m.map.emplace(n.key, n.value.asU64());
                level0.emplace(cur, n.level);
            } else if (strict_) {
                auto it = level0.find(cur);
                if (it == level0.end())
                    rep->add(fmt("skiplist", ds,
                                 "level " + std::to_string(l) +
                                     " links a node missing from the "
                                     "bottom chain"));
                else if (it->second <= l)
                    rep->add(fmt("skiplist", ds,
                                 "node linked above its tower height"));
            }
            cur = n.next[l];
        }
        if (l == 0 && strict_ && m.map.size() != e.aux[1])
            rep->add(fmt("skiplist", ds,
                         "bottom-chain length " +
                             std::to_string(m.map.size()) +
                             " != persisted count " +
                             std::to_string(e.aux[1])));
    }
    return m;
}

} // namespace asymnvm
