#include "ds/bptree.h"

#include <algorithm>

namespace asymnvm {

namespace {
constexpr uint32_t kMaxHeight = 64;
} // namespace

Status
BpTree::reload()
{
    return s_->readAux(id_, backend_, 1, &count_);
}

Status
BpTree::readRoot(uint64_t *root_raw)
{
    ReadHint hint;
    hint.ds = id_;
    hint.cacheable = true;
    hint.level = 0;
    return s_->read(s_->namingField(id_, backend_, naming_field::kRoot),
                    root_raw, 8, hint);
}

Status
BpTree::writeRoot(uint64_t root_raw)
{
    return s_->logWrite(id_,
                        s_->namingField(id_, backend_, naming_field::kRoot),
                        &root_raw, 8);
}

uint32_t
BpTree::routeIndex(const Node &n, Key key)
{
    // Largest i with keys[i] <= key; index 0 catches everything smaller.
    uint32_t lo = 0;
    for (uint32_t i = 1; i < n.count; ++i) {
        if (n.keys[i] <= key)
            lo = i;
        else
            break;
    }
    return lo;
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
    Status st = s_->alloc(backend_, Value::kSize, &cell);
    if (!ok(st))
        return st;
    st = s_->logWriteFromOp(id_, cell, v.bytes.data(), Value::kSize);
    if (!ok(st))
        return st;
    *added = true;

    Key ins_key = key;
    uint64_t ins_child = cell.raw();
    for (size_t lvl = path.size(); lvl-- > 0;) {
        Node &node = path[lvl].node;
        const RemotePtr node_ptr = RemotePtr::fromRaw(path[lvl].raw);
        if (node.count == kFanout) {
            Node right{};
            right.is_leaf = node.is_leaf;
            right.count = kFanout / 2;
            for (uint32_t i = 0; i < kFanout / 2; ++i) {
                right.keys[i] = node.keys[kFanout / 2 + i];
                right.children[i] = node.children[kFanout / 2 + i];
            }
            if (node.is_leaf)
                right.next_raw = node.next_raw;
            RemotePtr right_ptr;
            st = s_->alloc(backend_, sizeof(Node), &right_ptr);
            if (!ok(st))
                return st;
            node.count = kFanout / 2;
            if (node.is_leaf)
                node.next_raw = right_ptr.raw();

            Node *target = ins_key >= right.keys[0] ? &right : &node;
            uint32_t pos = 0;
            while (pos < target->count && target->keys[pos] < ins_key)
                ++pos;
            for (uint32_t i = target->count; i > pos; --i) {
                target->keys[i] = target->keys[i - 1];
                target->children[i] = target->children[i - 1];
            }
            target->keys[pos] = ins_key;
            target->children[pos] = ins_child;
            ++target->count;

            st = writeNode(right_ptr, right);
            if (!ok(st))
                return st;
            st = writeNode(node_ptr, node);
            if (!ok(st))
                return st;
            ins_key = right.keys[0];
            ins_child = right_ptr.raw();
            continue; // propagate the split upward
        }
        uint32_t pos = 0;
        while (pos < node.count && node.keys[pos] < ins_key)
            ++pos;
        for (uint32_t i = node.count; i > pos; --i) {
            node.keys[i] = node.keys[i - 1];
            node.children[i] = node.children[i - 1];
        }
        node.keys[pos] = ins_key;
        node.children[pos] = ins_child;
        ++node.count;
        return writeNode(node_ptr, node); // absorbed: unwind stops here
    }
    // The split propagated past the root: grow the tree. Entry 0's key
    // is a low sentinel (never compared at index 0).
    Node new_root{};
    new_root.is_leaf = 0;
    new_root.count = 2;
    new_root.keys[0] = 0;
    new_root.children[0] = path[0].raw;
    new_root.keys[1] = ins_key;
    new_root.children[1] = ins_child;
    RemotePtr root_ptr;
    st = allocNode(new_root, &root_ptr);
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
    const bool held = s_->holdsWriterLock(id_, backend_);
    Status st = lockForWrite();
    if (!ok(st))
        co_return st;
    if (opt_.shared && !held) {
        st = s_->readAux(id_, backend_, 1, &count_);
        if (!ok(st))
            co_return st;
    }
    // Same-key ordering: a later op on this key parks until the earlier
    // one's local effects (overlay writes) have landed.
    FrontendSession::WindowGate gate(s_, id_, key);
    while (!gate.tryAcquire())
        co_await s_->pipelineYield();
    st = s_->opBegin(id_, backend_, OpType::Insert, key, v.bytes.data(),
                     Value::kSize);
    if (!ok(st))
        co_return st;
    // Sibling ops may opBegin while this descent is suspended; remember
    // our own op-log record so phase B's memory logs reference it.
    const FrontendSession::OpRef opref = s_->currentOpRef(backend_);

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
            ReadHint hint;
            hint.ds = id_;
            hint.cacheable = true;
            hint.level = 0;
            hint.pin = pin;
            const RemotePtr rp =
                s_->namingField(id_, backend_, naming_field::kRoot);
            auto aw = s_->asyncRead(rp, &root_raw, 8, hint);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({rp.raw(), aw.served_seq});
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
                cur_raw = node.children[routeIndex(node, key)];
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
    s_->restoreOpRef(backend_, opref);
    bool added = false;
    if (root_raw == 0) {
        RemotePtr cell;
        st = s_->alloc(backend_, Value::kSize, &cell);
        if (!ok(st))
            co_return st;
        st = s_->logWriteFromOp(id_, cell, v.bytes.data(), Value::kSize);
        if (!ok(st))
            co_return st;
        Node leaf{};
        leaf.is_leaf = 1;
        leaf.count = 1;
        leaf.keys[0] = key;
        leaf.children[0] = cell.raw();
        RemotePtr leaf_ptr;
        st = allocNode(leaf, &leaf_ptr);
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
    Status st = lockForWrite();
    if (!ok(st))
        return st;
    std::vector<std::pair<Key, Value>> sorted(kvs.begin(), kvs.end());
    std::sort(sorted.begin(), sorted.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });
    for (const auto &[key, value] : sorted) {
        st = s_->runInline(insertAsync(key, value, /*pin=*/true));
        if (!ok(st))
            return st;
    }
    return Status::Ok;
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
        const uint32_t r = routeIndex(node, key);
        cur_raw = node.children[r];
        // Nearest-first siblings of the child we descend into: range-
        // local workloads make them the likeliest next miss, and their
        // addresses are known before the child read — so they can ride
        // its doorbell.
        nn = 0;
        for (uint32_t dist = 1;
             dist < node.count && nn < std::size(neigh); ++dist) {
            if (r + dist < node.count)
                neigh[nn++] = PrefetchCandidate{
                    node.children[r + dist],
                    static_cast<uint32_t>(sizeof(Node))};
            if (dist <= r && nn < std::size(neigh))
                neigh[nn++] = PrefetchCandidate{
                    node.children[r - dist],
                    static_cast<uint32_t>(sizeof(Node))};
        }
        ++d;
    }
}

Status
BpTree::find(Key key, Value *out)
{
    return optimisticRead(
        [&] { return s_->runInline(findAsync(key, out)); });
}

OpTask
BpTree::findAsync(Key key, Value *out)
{
    // Every remote read is co_awaited, so inside a pipelined window a
    // cache miss suspends the traversal and the session reactor batches
    // it with the other in-flight lookups' misses. The candidate arrays
    // live in the coroutine frame, so the hint spans stay valid across
    // suspension. Each child read gathers the nearest siblings around the
    // taken route, as in findLeaf.
    //
    // Read-your-writes: a same-key write admitted earlier in this
    // window holds the (ds, key) gate until its local effects land;
    // wait it out so this lookup observes them. Readers hold nothing,
    // so concurrent lookups never serialize on each other.
    while (s_->pipelineGateHeld(id_, key))
        co_await s_->pipelineYield();
    uint64_t cur_raw = 0;
    {
        ReadHint hint;
        hint.ds = id_;
        hint.cacheable = true;
        hint.level = 0;
        const Status st = co_await s_->asyncRead(
            s_->namingField(id_, backend_, naming_field::kRoot), &cur_raw,
            8, hint);
        if (!ok(st))
            co_return st;
    }
    if (cur_raw == 0)
        co_return Status::NotFound;
    uint32_t d = 0;
    Node node;
    PrefetchCandidate neigh[8];
    size_t nn = 0;
    while (true) {
        if (d > kMaxHeight)
            co_return Status::Conflict;
        const Status st = co_await readNodeAsync(
            RemotePtr::fromRaw(cur_raw), &node, d, true, false,
            std::span<const PrefetchCandidate>(neigh, nn));
        if (!ok(st))
            co_return st;
        if (node.count > kFanout)
            co_return Status::Conflict; // torn view
        if (node.is_leaf)
            break;
        if (node.count == 0)
            co_return Status::Conflict;
        const uint32_t r = routeIndex(node, key);
        cur_raw = node.children[r];
        nn = 0;
        for (uint32_t dist = 1;
             dist < node.count && nn < std::size(neigh); ++dist) {
            if (r + dist < node.count)
                neigh[nn++] = PrefetchCandidate{
                    node.children[r + dist],
                    static_cast<uint32_t>(sizeof(Node))};
            if (dist <= r && nn < std::size(neigh))
                neigh[nn++] = PrefetchCandidate{
                    node.children[r - dist],
                    static_cast<uint32_t>(sizeof(Node))};
        }
        ++d;
    }
    for (uint32_t i = 0; i < node.count; ++i) {
        if (node.keys[i] != key)
            continue;
        PrefetchCandidate cells[4];
        size_t nc = 0;
        for (uint32_t dist = 1;
             dist < node.count && nc < std::size(cells); ++dist) {
            if (i + dist < node.count)
                cells[nc++] = PrefetchCandidate{
                    node.children[i + dist],
                    static_cast<uint32_t>(Value::kSize)};
            if (dist <= i && nc < std::size(cells))
                cells[nc++] = PrefetchCandidate{
                    node.children[i - dist],
                    static_cast<uint32_t>(Value::kSize)};
        }
        ReadHint hint;
        hint.ds = id_;
        hint.cacheable = true;
        hint.level = d + 1;
        hint.admission = &admission_;
        hint.neighbors = std::span<const PrefetchCandidate>(cells, nc);
        co_return co_await s_->asyncRead(
            RemotePtr::fromRaw(node.children[i]), out, Value::kSize, hint);
    }
    co_return Status::NotFound;
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
    const bool held = s_->holdsWriterLock(id_, backend_);
    Status st = lockForWrite();
    if (!ok(st))
        co_return st;
    if (opt_.shared && !held) {
        st = s_->readAux(id_, backend_, 1, &count_);
        if (!ok(st))
            co_return st;
    }
    FrontendSession::WindowGate gate(s_, id_, key);
    while (!gate.tryAcquire())
        co_await s_->pipelineYield();
    st = s_->opBegin(id_, backend_, OpType::Erase, key, nullptr, 0);
    if (!ok(st))
        co_return st;
    const FrontendSession::OpRef opref = s_->currentOpRef(backend_);

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
            ReadHint hint;
            hint.ds = id_;
            hint.cacheable = true;
            hint.level = 0;
            const RemotePtr rp =
                s_->namingField(id_, backend_, naming_field::kRoot);
            auto aw = s_->asyncRead(rp, &cur_raw, 8, hint);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({rp.raw(), aw.served_seq});
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
                cur_raw = node.children[routeIndex(node, key)];
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
    s_->restoreOpRef(backend_, opref);
    for (uint32_t i = 0; i < leaf.count; ++i) {
        if (leaf.keys[i] != key)
            continue;
        const RemotePtr cell = RemotePtr::fromRaw(leaf.children[i]);
        for (uint32_t j = i + 1; j < leaf.count; ++j) {
            leaf.keys[j - 1] = leaf.keys[j];
            leaf.children[j - 1] = leaf.children[j];
        }
        --leaf.count;
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
