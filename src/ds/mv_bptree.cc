#include "ds/mv_bptree.h"

#include <algorithm>

namespace asymnvm {

namespace {
constexpr uint32_t kMaxHeight = 64;
} // namespace

uint32_t
MvBpTree::routeIndex(const Node &n, Key key)
{
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
MvBpTree::insert(Key key, const Value &v)
{
    return s_->runInline(insertAsync(key, v));
}

OpTask
MvBpTree::insertAsync(Key key, Value v, bool pin)
{
    Status st = lockForWrite();
    if (!ok(st))
        co_return st;
    // Per-structure gate (key 0): every MV write replaces the root path,
    // so two window writes to the same tree always collide — order them
    // outright instead of letting validation restart-thrash. The gate is
    // taken before workingRoot() so each op extends its predecessor's
    // staged version (read-your-writes across the window).
    FrontendSession::WindowGate gate(s_, id_, 0);
    while (!gate.tryAcquire())
        co_await s_->pipelineYield();
    st = s_->opBegin(id_, backend_, OpType::Insert, key, v.bytes.data(),
                     Value::kSize);
    if (!ok(st))
        co_return st;
    const FrontendSession::OpRef opref = s_->currentOpRef(backend_);
    const uint64_t root_raw = workingRoot();

    // Phase A: suspendable descent, reads only; the per-node retire()
    // calls wait for phase B so a validation restart cannot retire the
    // same node twice.
    FrameVec<PathEnt, 8> path_buf;
    std::pmr::vector<PathEnt> &path = path_buf.v;
    std::vector<FrontendSession::ReadStamp> stamps;
    stamps.reserve(16);
    if (root_raw != 0) {
        while (true) {
            path.clear();
            stamps.clear();
            uint64_t cur_raw = root_raw;
            uint32_t depth = 0;
            bool bad = false;
            while (true) {
                if (depth > kMaxHeight) {
                    bad = true;
                    break;
                }
                // Read straight into the path slot (no node copy).
                PathEnt &ent = path.emplace_back();
                ent.raw = cur_raw;
                auto aw = readNodeAsync(RemotePtr::fromRaw(cur_raw),
                                        &ent.node, depth, true, pin);
                const Status rst = co_await aw;
                if (!ok(rst))
                    co_return rst;
                stamps.push_back({cur_raw, aw.served_seq});
                if (ent.node.count > kFanout) {
                    bad = true;
                    break;
                }
                if (ent.node.is_leaf)
                    break;
                ent.idx = routeIndex(ent.node, key);
                cur_raw = ent.node.children[ent.idx];
                ++depth;
            }
            if (s_->pipelineReadSetClean(stamps)) {
                if (bad)
                    co_return Status::Corruption;
                break;
            }
            s_->notePipelineRestart();
        }
    }

    // Phase B: the path-copying write-out, inline and unsuspended.
    s_->restoreOpRef(backend_, opref);
    bool added = false;
    uint64_t new_root_raw = 0;
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
        RemotePtr p;
        st = allocNode(leaf, &p);
        if (!ok(st))
            co_return st;
        new_root_raw = p.raw();
        added = true;
    } else {
        // Every path node is superseded by this version.
        for (const PathEnt &ent : path)
            s_->retire(id_, RemotePtr::fromRaw(ent.raw), sizeof(Node));

        // Leaf step.
        Node &leaf = path.back().node;
        uint64_t new_child = 0;
        Split split;
        bool updated = false;
        for (uint32_t i = 0; i < leaf.count; ++i) {
            if (leaf.keys[i] != key)
                continue;
            RemotePtr cell;
            st = s_->alloc(backend_, Value::kSize, &cell);
            if (!ok(st))
                co_return st;
            st = s_->logWriteFromOp(id_, cell, v.bytes.data(),
                                    Value::kSize);
            if (!ok(st))
                co_return st;
            s_->retire(id_, RemotePtr::fromRaw(leaf.children[i]),
                       Value::kSize);
            leaf.children[i] = cell.raw();
            RemotePtr p;
            st = allocNode(leaf, &p);
            if (!ok(st))
                co_return st;
            new_child = p.raw();
            updated = true;
            break;
        }
        if (!updated) {
            RemotePtr cell;
            st = s_->alloc(backend_, Value::kSize, &cell);
            if (!ok(st))
                co_return st;
            st = s_->logWriteFromOp(id_, cell, v.bytes.data(),
                                    Value::kSize);
            if (!ok(st))
                co_return st;
            added = true;
            if (leaf.count == kFanout) {
                Node right{};
                right.is_leaf = 1;
                right.count = kFanout / 2;
                for (uint32_t i = 0; i < kFanout / 2; ++i) {
                    right.keys[i] = leaf.keys[kFanout / 2 + i];
                    right.children[i] = leaf.children[kFanout / 2 + i];
                }
                leaf.count = kFanout / 2;
                Node *target = key >= right.keys[0] ? &right : &leaf;
                uint32_t pos = 0;
                while (pos < target->count && target->keys[pos] < key)
                    ++pos;
                for (uint32_t i = target->count; i > pos; --i) {
                    target->keys[i] = target->keys[i - 1];
                    target->children[i] = target->children[i - 1];
                }
                target->keys[pos] = key;
                target->children[pos] = cell.raw();
                ++target->count;

                RemotePtr left_ptr, right_ptr;
                st = allocNode(leaf, &left_ptr);
                if (!ok(st))
                    co_return st;
                st = allocNode(right, &right_ptr);
                if (!ok(st))
                    co_return st;
                new_child = left_ptr.raw();
                split.happened = true;
                split.sep_key = right.keys[0];
                split.right_raw = right_ptr.raw();
            } else {
                uint32_t pos = 0;
                while (pos < leaf.count && leaf.keys[pos] < key)
                    ++pos;
                for (uint32_t i = leaf.count; i > pos; --i) {
                    leaf.keys[i] = leaf.keys[i - 1];
                    leaf.children[i] = leaf.children[i - 1];
                }
                leaf.keys[pos] = key;
                leaf.children[pos] = cell.raw();
                ++leaf.count;
                RemotePtr p;
                st = allocNode(leaf, &p);
                if (!ok(st))
                    co_return st;
                new_child = p.raw();
            }
        }

        // Unwind: each ancestor re-points at its copied child and
        // absorbs a pending split, or splits and propagates it.
        for (size_t lvl = path.size() - 1; lvl-- > 0;) {
            Node &node = path[lvl].node;
            node.children[path[lvl].idx] = new_child;
            if (split.happened) {
                if (node.count == kFanout) {
                    Node right{};
                    right.is_leaf = 0;
                    right.count = kFanout / 2;
                    for (uint32_t i = 0; i < kFanout / 2; ++i) {
                        right.keys[i] = node.keys[kFanout / 2 + i];
                        right.children[i] = node.children[kFanout / 2 + i];
                    }
                    node.count = kFanout / 2;
                    Node *target =
                        split.sep_key >= right.keys[0] ? &right : &node;
                    uint32_t pos = 0;
                    while (pos < target->count &&
                           target->keys[pos] < split.sep_key)
                        ++pos;
                    for (uint32_t i = target->count; i > pos; --i) {
                        target->keys[i] = target->keys[i - 1];
                        target->children[i] = target->children[i - 1];
                    }
                    target->keys[pos] = split.sep_key;
                    target->children[pos] = split.right_raw;
                    ++target->count;

                    RemotePtr left_ptr, right_ptr;
                    st = allocNode(node, &left_ptr);
                    if (!ok(st))
                        co_return st;
                    st = allocNode(right, &right_ptr);
                    if (!ok(st))
                        co_return st;
                    new_child = left_ptr.raw();
                    split.sep_key = right.keys[0];
                    split.right_raw = right_ptr.raw();
                    continue; // split keeps propagating
                }
                uint32_t pos = 0;
                while (pos < node.count && node.keys[pos] < split.sep_key)
                    ++pos;
                for (uint32_t i = node.count; i > pos; --i) {
                    node.keys[i] = node.keys[i - 1];
                    node.children[i] = node.children[i - 1];
                }
                node.keys[pos] = split.sep_key;
                node.children[pos] = split.right_raw;
                ++node.count;
                split.happened = false;
            }
            RemotePtr p;
            st = allocNode(node, &p);
            if (!ok(st))
                co_return st;
            new_child = p.raw();
        }
        new_root_raw = new_child;
        if (split.happened) {
            Node new_root{};
            new_root.is_leaf = 0;
            new_root.count = 2;
            new_root.keys[0] = 0;
            new_root.children[0] = new_root_raw;
            new_root.keys[1] = split.sep_key;
            new_root.children[1] = split.right_raw;
            RemotePtr p;
            st = allocNode(new_root, &p);
            if (!ok(st))
                co_return st;
            new_root_raw = p.raw();
        }
    }
    stageRoot(new_root_raw);
    if (added) {
        ++count_;
        st = s_->writeAux(id_, backend_, 1, count_);
        if (!ok(st))
            co_return st;
    }
    co_return s_->opEnd();
}

Status
MvBpTree::insertMany(std::span<const std::pair<Key, Value>> kvs,
                     Status *results)
{
    return runMany(
        kvs.size(), results, pipelineEligible(),
        [&](size_t i) { return insert(kvs[i].first, kvs[i].second); },
        [&](size_t i) { return insertAsync(kvs[i].first, kvs[i].second); });
}

Status
MvBpTree::insertBatch(std::span<const std::pair<Key, Value>> kvs)
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
MvBpTree::find(Key key, Value *out)
{
    // Readers traverse a snapshot and need no reader protocol.
    return s_->runInline(findAsync(key, out));
}

OpTask
MvBpTree::findAsync(Key key, Value *out)
{
    // Every node read is co_awaited. The multi-version snapshot guarantee
    // holds across suspension: this op's descent uses the root it
    // fetched here, whatever the other in-flight ops do. Child reads
    // gather the nearest siblings around the taken route (read path
    // only; writers never speculate).
    //
    // Read-your-writes: MV writers gate the whole structure (key 0);
    // wait out any writer admitted earlier in this window so the root
    // fetched below includes its published version. Readers hold
    // nothing, so snapshot reads still pipeline freely against each
    // other.
    while (s_->pipelineGateHeld(id_, 0))
        co_await s_->pipelineYield();
    uint64_t cur_raw = 0;
    Status st = readerRoot(&cur_raw);
    if (!ok(st))
        co_return st;
    if (cur_raw == 0)
        co_return Status::NotFound;
    uint32_t depth = 0;
    Node node;
    PrefetchCandidate neigh[8];
    size_t nn = 0;
    while (true) {
        if (depth > kMaxHeight)
            co_return Status::Corruption;
        st = co_await readNodeAsync(
            RemotePtr::fromRaw(cur_raw), &node, depth, true, false,
            std::span<const PrefetchCandidate>(neigh, nn));
        if (!ok(st))
            co_return st;
        if (node.count > kFanout)
            co_return Status::Corruption;
        if (node.is_leaf)
            break;
        if (node.count == 0)
            co_return Status::Corruption;
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
        ++depth;
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
        hint.level = depth + 1;
        hint.admission = &admission_;
        hint.neighbors = std::span<const PrefetchCandidate>(cells, nc);
        co_return co_await s_->asyncRead(
            RemotePtr::fromRaw(node.children[i]), out, Value::kSize, hint);
    }
    co_return Status::NotFound;
}

Status
MvBpTree::findMany(std::span<const Key> keys, Value *vals, Status *results)
{
    // MV readers are lock-free (snapshot per op): no seqlock fallback is
    // needed, any handle may pipeline.
    return runMany(
        keys.size(), results, /*eligible=*/true,
        [&](size_t i) { return find(keys[i], &vals[i]); },
        [&](size_t i) { return findAsync(keys[i], &vals[i]); });
}

bool
MvBpTree::contains(Key key)
{
    Value v;
    return find(key, &v) == Status::Ok;
}

Status
MvBpTree::erase(Key key)
{
    return s_->runInline(eraseAsync(key));
}

OpTask
MvBpTree::eraseAsync(Key key)
{
    Status st = lockForWrite();
    if (!ok(st))
        co_return st;
    // Per-structure write ordering; see insertAsync.
    FrontendSession::WindowGate gate(s_, id_, 0);
    while (!gate.tryAcquire())
        co_await s_->pipelineYield();
    st = s_->opBegin(id_, backend_, OpType::Erase, key, nullptr, 0);
    if (!ok(st))
        co_return st;
    const FrontendSession::OpRef opref = s_->currentOpRef(backend_);
    const uint64_t root_raw = workingRoot();
    if (root_raw == 0) {
        st = s_->opEnd();
        co_return ok(st) ? Status::NotFound : st;
    }

    // Phase A: the descent (reads only; retires wait for phase B),
    // stamped for validation.
    FrameVec<PathEnt, 8> path_buf;
    std::pmr::vector<PathEnt> &path = path_buf.v;
    std::vector<FrontendSession::ReadStamp> stamps;
    stamps.reserve(16);
    while (true) {
        path.clear();
        stamps.clear();
        uint64_t cur_raw = root_raw;
        uint32_t depth = 0;
        bool bad = false;
        while (true) {
            if (depth > kMaxHeight) {
                bad = true;
                break;
            }
            PathEnt &ent = path.emplace_back();
            ent.raw = cur_raw;
            auto aw = readNodeAsync(RemotePtr::fromRaw(cur_raw), &ent.node,
                                    depth, true, false);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({cur_raw, aw.served_seq});
            if (ent.node.is_leaf)
                break;
            ent.idx = routeIndex(ent.node, key);
            cur_raw = ent.node.children[ent.idx];
            ++depth;
        }
        if (s_->pipelineReadSetClean(stamps)) {
            if (bad)
                co_return Status::Corruption;
            break;
        }
        s_->notePipelineRestart();
    }

    Node &leaf = path.back().node;
    uint32_t match = leaf.count;
    for (uint32_t i = 0; i < leaf.count; ++i) {
        if (leaf.keys[i] == key) {
            match = i;
            break;
        }
    }
    if (match == leaf.count) {
        st = s_->opEnd();
        co_return ok(st) ? Status::NotFound : st;
    }

    // Phase B: path-copy the leaf and its ancestors, inline.
    s_->restoreOpRef(backend_, opref);
    s_->retire(id_, RemotePtr::fromRaw(leaf.children[match]),
               Value::kSize);
    for (uint32_t j = match + 1; j < leaf.count; ++j) {
        leaf.keys[j - 1] = leaf.keys[j];
        leaf.children[j - 1] = leaf.children[j];
    }
    --leaf.count;
    s_->retire(id_, RemotePtr::fromRaw(path.back().raw), sizeof(Node));
    RemotePtr p;
    st = allocNode(leaf, &p);
    if (!ok(st))
        co_return st;
    uint64_t new_child = p.raw();
    for (size_t lvl = path.size() - 1; lvl-- > 0;) {
        Node &node = path[lvl].node;
        s_->retire(id_, RemotePtr::fromRaw(path[lvl].raw), sizeof(Node));
        node.children[path[lvl].idx] = new_child;
        RemotePtr np;
        st = allocNode(node, &np);
        if (!ok(st))
            co_return st;
        new_child = np.raw();
    }
    stageRoot(new_child);
    --count_;
    st = s_->writeAux(id_, backend_, 1, count_);
    if (!ok(st))
        co_return st;
    co_return s_->opEnd();
}

Status
MvBpTree::eraseMany(std::span<const Key> keys, Status *results)
{
    return runMany(
        keys.size(), results, pipelineEligible(),
        [&](size_t i) { return erase(keys[i]); },
        [&](size_t i) { return eraseAsync(keys[i]); });
}

} // namespace asymnvm
