#include "ds/bptree.h"

#include <iterator>
#include <type_traits>

#include "ds/mv_common.h"

namespace asymnvm {

// ---------------------------------------------------------------------
// BpNode: the in-DRAM node edits both trees share
// ---------------------------------------------------------------------

BpNode
BpNode::firstLeaf(Key key, uint64_t cell_raw)
{
    BpNode leaf{};
    leaf.is_leaf = 1;
    leaf.count = 1;
    leaf.keys[0] = key;
    leaf.children[0] = cell_raw;
    return leaf;
}

BpNode
BpNode::grownRoot(uint64_t left_raw, Key sep, uint64_t right_raw)
{
    BpNode root{};
    root.is_leaf = 0;
    root.count = 2;
    root.keys[0] = 0;
    root.children[0] = left_raw;
    root.keys[1] = sep;
    root.children[1] = right_raw;
    return root;
}

uint32_t
BpNode::routeIndex(Key key) const
{
    // Largest i with keys[i] <= key; index 0 catches everything smaller.
    uint32_t lo = 0;
    for (uint32_t i = 1; i < count; ++i) {
        if (keys[i] <= key)
            lo = i;
        else
            break;
    }
    return lo;
}

void
BpNode::insertSorted(Key key, uint64_t child)
{
    uint32_t pos = 0;
    while (pos < count && keys[pos] < key)
        ++pos;
    for (uint32_t i = count; i > pos; --i) {
        keys[i] = keys[i - 1];
        children[i] = children[i - 1];
    }
    keys[pos] = key;
    children[pos] = child;
    ++count;
}

void
BpNode::eraseAt(uint32_t i)
{
    for (uint32_t j = i + 1; j < count; ++j) {
        keys[j - 1] = keys[j];
        children[j - 1] = children[j];
    }
    --count;
}

BpNode
BpNode::splitInsert(Key key, uint64_t child)
{
    BpNode right{};
    right.is_leaf = is_leaf;
    right.count = kFanout / 2;
    for (uint32_t i = 0; i < kFanout / 2; ++i) {
        right.keys[i] = keys[kFanout / 2 + i];
        right.children[i] = children[kFanout / 2 + i];
    }
    if (is_leaf)
        right.next_raw = next_raw;
    count = kFanout / 2;
    (key >= right.keys[0] ? right : *this).insertSorted(key, child);
    return right;
}

size_t
BpNode::neighbors(uint32_t r, uint32_t len, PrefetchCandidate *out,
                  size_t cap) const
{
    size_t n = 0;
    for (uint32_t dist = 1; dist < count && n < cap; ++dist) {
        if (r + dist < count)
            out[n++] = PrefetchCandidate{children[r + dist], len};
        if (dist <= r && n < cap)
            out[n++] = PrefetchCandidate{children[r - dist], len};
    }
    return n;
}

// ---------------------------------------------------------------------
// BpTreeCore: the one lookup
// ---------------------------------------------------------------------

template <typename Base>
OpTask
BpTreeCore<Base>::findAsync(Key key, Value *out)
{
    // The MV tree orders all its writers on one gate (key 0), and its
    // readers walk an immutable snapshot, where a malformed node is
    // corruption rather than a torn view for the seqlock to retry.
    constexpr bool kMv = std::is_base_of_v<MvBase, Base>;
    constexpr Status kTorn = kMv ? Status::Corruption : Status::Conflict;
    FrontendSession *const s = this->s_;

    // Read-your-writes: a write admitted earlier in this window holds
    // its gate until its local effects (overlay writes, the staged MV
    // root) land; wait it out so this lookup observes them. Readers
    // hold nothing, so concurrent lookups never serialize on each other.
    while (s->pipelineGateHeld(this->id_, kMv ? 0 : key))
        co_await s->pipelineYield();
    uint64_t cur_raw = 0;
    if constexpr (kMv) {
        const Status st = this->readerRoot(&cur_raw);
        if (!ok(st))
            co_return st;
    } else {
        const Status st = co_await this->readRootAsync(&cur_raw);
        if (!ok(st))
            co_return st;
    }
    if (cur_raw == 0)
        co_return Status::NotFound;

    // Every remote read is co_awaited, so inside a pipelined window a
    // cache miss suspends the traversal and the session reactor batches
    // it with the other in-flight lookups' misses. The candidate arrays
    // live in the coroutine frame, so the hint spans stay valid across
    // suspension.
    uint32_t d = 0;
    Node node;
    PrefetchCandidate neigh[8];
    size_t nn = 0;
    while (true) {
        if (d > kMaxHeight)
            co_return kTorn;
        const Status st = co_await this->readNodeAsync(
            RemotePtr::fromRaw(cur_raw), &node, d, true, false,
            std::span<const PrefetchCandidate>(neigh, nn));
        if (!ok(st))
            co_return st;
        if (node.count > kFanout)
            co_return kTorn;
        if (node.is_leaf)
            break;
        if (node.count == 0)
            co_return kTorn;
        const uint32_t r = node.routeIndex(key);
        cur_raw = node.children[r];
        nn = node.neighbors(r, sizeof(Node), neigh, std::size(neigh));
        ++d;
    }
    for (uint32_t i = 0; i < node.count; ++i) {
        if (node.keys[i] != key)
            continue;
        PrefetchCandidate cells[4];
        const size_t nc =
            node.neighbors(i, Value::kSize, cells, std::size(cells));
        ReadHint hint;
        hint.ds = this->id_;
        hint.cacheable = true;
        hint.level = d + 1;
        hint.admission = &this->admission_;
        hint.neighbors = std::span<const PrefetchCandidate>(cells, nc);
        co_return co_await s->asyncRead(
            RemotePtr::fromRaw(node.children[i]), out, Value::kSize, hint);
    }
    co_return Status::NotFound;
}

template class BpTreeCore<DsBase>;
template class BpTreeCore<MvBase>;

// ---------------------------------------------------------------------
// BpTree: in-place write-out
// ---------------------------------------------------------------------

Status
BpTree::reload()
{
    const Status st = loadRoot();
    if (!ok(st))
        return st;
    return s_->readAux(id_, backend_, 1, &count_);
}

Status
BpTree::insertWriteout(std::span<PathEnt> path, Key key, const Value &v,
                       bool *added)
{
    // Runs against the node copies captured by the validated descent:
    // leaf step first (existing-key overwrite or fresh cell), then the
    // bottom-up unwind where each level either absorbs the pending
    // separator or splits and propagates it, stopping at the first
    // absorption.
    Node &leaf = path.back().node;
    for (uint32_t i = 0; i < leaf.count; ++i) {
        if (leaf.keys[i] == key) {
            return s_->logWriteFromOp(id_,
                                      RemotePtr::fromRaw(leaf.children[i]),
                                      v.bytes.data(), Value::kSize);
        }
    }
    RemotePtr cell;
    Status st = newCell(v, &cell);
    if (!ok(st))
        return st;
    *added = true;

    Key ins_key = key;
    uint64_t ins_child = cell.raw();
    for (size_t lvl = path.size(); lvl-- > 0;) {
        Node &node = path[lvl].node;
        const RemotePtr node_ptr = RemotePtr::fromRaw(path[lvl].raw);
        if (node.count < kFanout) {
            node.insertSorted(ins_key, ins_child);
            return writeNode(node_ptr, node); // absorbed: unwind stops here
        }
        const Node right = node.splitInsert(ins_key, ins_child);
        RemotePtr right_ptr;
        st = s_->alloc(backend_, sizeof(Node), &right_ptr);
        if (!ok(st))
            return st;
        if (node.is_leaf)
            node.next_raw = right_ptr.raw();
        st = writeNode(right_ptr, right);
        if (!ok(st))
            return st;
        st = writeNode(node_ptr, node);
        if (!ok(st))
            return st;
        ins_key = right.keys[0];
        ins_child = right_ptr.raw(); // propagate the split upward
    }
    // The split propagated past the root: grow the tree.
    RemotePtr root_ptr;
    st = allocNode(Node::grownRoot(path[0].raw, ins_key, ins_child),
                   &root_ptr);
    if (!ok(st))
        return st;
    return writeRoot(root_ptr.raw());
}

Status
BpTree::insert(Key key, const Value &v)
{
    return s_->runInline(insertAsync(key, v));
}

OpTask
BpTree::insertAsync(Key key, Value v, bool pin)
{
    // Same-key ordering: a later op on this key parks until the earlier
    // one's local effects (overlay writes) have landed.
    WriteOp w(this, key);
    while (!w.admitted())
        co_await s_->pipelineYield();
    Status st = w.begin(OpType::Insert, key, v.bytes.data(), Value::kSize);
    if (!ok(st))
        co_return st;

    FrameVec<PathEnt, 8> path_buf;
    std::pmr::vector<PathEnt> &path = path_buf.v;
    std::vector<FrontendSession::ReadStamp> stamps;
    stamps.reserve(16);
    uint64_t root_raw = 0;
    while (true) {
        // Phase A: suspendable descent, reads only. Every read is
        // stamped with the write sequence it observed so the set can be
        // validated against sibling window writes before we mutate.
        path.clear();
        stamps.clear();
        root_raw = 0;
        {
            auto aw = readRootAsync(&root_raw, pin);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({aw.addr.raw(), aw.served_seq});
        }
        if (root_raw != 0) {
            uint64_t cur_raw = root_raw;
            uint32_t d = 0;
            while (true) {
                if (d > kMaxHeight)
                    co_return Status::Conflict;
                // Read straight into the path slot: copying a frame-local
                // node into the path costs more host time than the read.
                PathEnt &ent = path.emplace_back();
                ent.raw = cur_raw;
                Node &node = ent.node;
                auto aw = readNodeAsync(RemotePtr::fromRaw(cur_raw),
                                        &node, d, true, pin);
                const Status rst = co_await aw;
                if (!ok(rst))
                    co_return rst;
                stamps.push_back({cur_raw, aw.served_seq});
                if (node.count > kFanout)
                    co_return Status::Corruption;
                if (node.is_leaf)
                    break;
                cur_raw = node.children[node.routeIndex(key)];
                ++d;
            }
        }
        if (s_->pipelineReadSetClean(stamps))
            break;
        // A sibling wrote under us while suspended; the descent re-runs
        // against the local tiers (its nodes are now overlay/cache-hot).
        s_->notePipelineRestart();
    }

    // Phase B: inline write-out — atomic with respect to sibling ops.
    w.writeOut();
    bool added = false;
    if (root_raw == 0) {
        RemotePtr cell;
        st = newCell(v, &cell);
        if (!ok(st))
            co_return st;
        RemotePtr leaf_ptr;
        st = allocNode(Node::firstLeaf(key, cell.raw()), &leaf_ptr);
        if (!ok(st))
            co_return st;
        st = writeRoot(leaf_ptr.raw());
        if (!ok(st))
            co_return st;
        added = true;
    } else {
        st = insertWriteout(path, key, v, &added);
        if (!ok(st))
            co_return st;
    }
    if (added) {
        ++count_;
        st = s_->writeAux(id_, backend_, 1, count_);
        if (!ok(st))
            co_return st;
    }
    co_return s_->opEnd();
}

Status
BpTree::insertMany(std::span<const std::pair<Key, Value>> kvs,
                   Status *results)
{
    return runMany(
        kvs.size(), results, pipelineEligible(),
        [&](size_t i) { return insert(kvs[i].first, kvs[i].second); },
        [&](size_t i) { return insertAsync(kvs[i].first, kvs[i].second); });
}

Status
BpTree::insertBatch(std::span<const std::pair<Key, Value>> kvs)
{
    return vectorInsert(kvs, [&](Key key, const Value &v) {
        return s_->runInline(insertAsync(key, v, /*pin=*/true));
    });
}

Status
BpTree::findLeaf(Key key, uint64_t *leaf_raw, Node *leaf, uint32_t *depth)
{
    uint64_t cur_raw = 0;
    Status st = readRoot(&cur_raw);
    if (!ok(st))
        return st;
    if (cur_raw == 0)
        return Status::NotFound;
    uint32_t d = 0;
    PrefetchCandidate neigh[8];
    size_t nn = 0;
    while (true) {
        if (d > kMaxHeight)
            return Status::Conflict;
        Node node;
        st = readNode(RemotePtr::fromRaw(cur_raw), &node, d, true, false,
                      std::span<const PrefetchCandidate>(neigh, nn));
        if (!ok(st))
            return st;
        if (node.count > kFanout)
            return Status::Conflict; // torn view
        if (node.is_leaf) {
            *leaf_raw = cur_raw;
            *leaf = node;
            *depth = d;
            return Status::Ok;
        }
        if (node.count == 0)
            return Status::Conflict;
        const uint32_t r = node.routeIndex(key);
        cur_raw = node.children[r];
        // Nearest-first siblings of the child we descend into: range-
        // local workloads make them the likeliest next miss, and their
        // addresses are known before the child read — so they can ride
        // its doorbell.
        nn = node.neighbors(r, sizeof(Node), neigh, std::size(neigh));
        ++d;
    }
}

Status
BpTree::find(Key key, Value *out)
{
    return optimisticRead(
        [&] { return s_->runInline(findAsync(key, out)); });
}

Status
BpTree::findMany(std::span<const Key> keys, Value *vals, Status *results)
{
    return runMany(
        keys.size(), results, pipelineEligible(),
        [&](size_t i) { return find(keys[i], &vals[i]); },
        [&](size_t i) { return findAsync(keys[i], &vals[i]); });
}

Status
BpTree::scan(Key from, uint32_t limit,
             std::vector<std::pair<Key, Value>> *out)
{
    return optimisticRead([&]() -> Status {
        out->clear();
        uint64_t leaf_raw = 0;
        Node leaf;
        uint32_t depth = 0;
        Status st = findLeaf(from, &leaf_raw, &leaf, &depth);
        if (st == Status::NotFound)
            return Status::Ok; // empty tree
        if (!ok(st))
            return st;
        // Leaf-chain hops are labeled with the scan's anchor leaf so
        // repeated scans of the same range learn the chain as a run.
        const uint64_t scan_stream = leaf_raw;
        uint32_t laps = 0;
        while (out->size() < limit) {
            for (uint32_t i = 0; i < leaf.count && out->size() < limit;
                 ++i) {
                if (leaf.keys[i] < from)
                    continue;
                Value v;
                // The cells still ahead in this leaf are certain to be
                // demanded next: gather a few with the current one.
                PrefetchCandidate cells[4];
                size_t nc = 0;
                for (uint32_t j = i + 1;
                     j < leaf.count && nc < std::size(cells); ++j)
                    cells[nc++] = PrefetchCandidate{
                        leaf.children[j],
                        static_cast<uint32_t>(Value::kSize)};
                ReadHint hint;
                hint.ds = id_;
                hint.cacheable = true;
                hint.level = depth + 1;
                hint.neighbors =
                    std::span<const PrefetchCandidate>(cells, nc);
                st = s_->read(RemotePtr::fromRaw(leaf.children[i]), &v,
                              Value::kSize, hint);
                if (!ok(st))
                    return st;
                out->emplace_back(leaf.keys[i], v);
            }
            if (leaf.next_raw == 0)
                break;
            if (++laps > (1u << 20))
                return Status::Conflict;
            st = readNode(RemotePtr::fromRaw(leaf.next_raw), &leaf,
                          depth, true, false, {}, scan_stream);
            if (!ok(st))
                return st;
        }
        return Status::Ok;
    });
}

bool
BpTree::contains(Key key)
{
    Value v;
    return find(key, &v) == Status::Ok;
}

Status
BpTree::erase(Key key)
{
    return s_->runInline(eraseAsync(key));
}

OpTask
BpTree::eraseAsync(Key key)
{
    WriteOp w(this, key);
    while (!w.admitted())
        co_await s_->pipelineYield();
    Status st = w.begin(OpType::Erase, key, nullptr, 0);
    if (!ok(st))
        co_return st;

    // Phase A: descent to the leaf (no prefetch — write path), with
    // every read stamped for validation. `desc_st` carries the verdict
    // (NotFound on empty tree, Conflict on a torn view).
    uint64_t leaf_raw = 0;
    Node leaf{};
    Status desc_st = Status::Ok;
    std::vector<FrontendSession::ReadStamp> stamps;
    stamps.reserve(16);
    while (true) {
        stamps.clear();
        desc_st = Status::Ok;
        uint64_t cur_raw = 0;
        {
            auto aw = readRootAsync(&cur_raw);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({aw.addr.raw(), aw.served_seq});
        }
        if (cur_raw == 0) {
            desc_st = Status::NotFound;
        } else {
            uint32_t d = 0;
            while (true) {
                if (d > kMaxHeight) {
                    desc_st = Status::Conflict;
                    break;
                }
                Node node;
                auto aw = readNodeAsync(RemotePtr::fromRaw(cur_raw),
                                        &node, d, true, false);
                const Status rst = co_await aw;
                if (!ok(rst))
                    co_return rst;
                stamps.push_back({cur_raw, aw.served_seq});
                if (node.count > kFanout) {
                    desc_st = Status::Conflict; // torn view
                    break;
                }
                if (node.is_leaf) {
                    leaf_raw = cur_raw;
                    leaf = node;
                    break;
                }
                if (node.count == 0) {
                    desc_st = Status::Conflict;
                    break;
                }
                cur_raw = node.children[node.routeIndex(key)];
                ++d;
            }
        }
        if (s_->pipelineReadSetClean(stamps))
            break;
        s_->notePipelineRestart();
    }
    if (desc_st == Status::NotFound) {
        st = s_->opEnd();
        co_return ok(st) ? Status::NotFound : st;
    }
    if (!ok(desc_st))
        co_return desc_st;

    // Phase B: leaf compaction (lazy deletion — leaves never merge),
    // inline.
    w.writeOut();
    for (uint32_t i = 0; i < leaf.count; ++i) {
        if (leaf.keys[i] != key)
            continue;
        const RemotePtr cell = RemotePtr::fromRaw(leaf.children[i]);
        leaf.eraseAt(i);
        st = writeNode(RemotePtr::fromRaw(leaf_raw), leaf);
        if (!ok(st))
            co_return st;
        if (opt_.shared)
            s_->retire(id_, cell, Value::kSize);
        else {
            st = s_->free(cell, Value::kSize);
            if (!ok(st))
                co_return st;
        }
        --count_;
        st = s_->writeAux(id_, backend_, 1, count_);
        if (!ok(st))
            co_return st;
        co_return s_->opEnd();
    }
    st = s_->opEnd();
    co_return ok(st) ? Status::NotFound : st;
}

Status
BpTree::eraseMany(std::span<const Key> keys, Status *results)
{
    return runMany(
        keys.size(), results, pipelineEligible(),
        [&](size_t i) { return erase(keys[i]); },
        [&](size_t i) { return eraseAsync(keys[i]); });
}

} // namespace asymnvm
