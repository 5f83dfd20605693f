#include "ds/mv_bptree.h"

namespace asymnvm {

Status
MvBpTree::insert(Key key, const Value &v)
{
    return s_->runInline(insertAsync(key, v));
}

Status
MvBpTree::insertWriteout(std::span<PathEnt> path, Key key, const Value &v,
                         bool *added, uint64_t *new_root_raw)
{
    // Every path node is superseded by this version.
    for (const PathEnt &ent : path)
        s_->retire(id_, RemotePtr::fromRaw(ent.raw), sizeof(Node));

    // Leaf step: cells are immutable, so an update re-points the key's
    // entry at a fresh cell; an insert leaves (key, cell) pending.
    RemotePtr cell;
    Status st = newCell(v, &cell);
    if (!ok(st))
        return st;
    Node &leaf = path.back().node;
    bool pending = true;
    for (uint32_t i = 0; i < leaf.count; ++i) {
        if (leaf.keys[i] != key)
            continue;
        s_->retire(id_, RemotePtr::fromRaw(leaf.children[i]),
                   Value::kSize);
        leaf.children[i] = cell.raw();
        pending = false;
        break;
    }
    *added = pending;

    // Unwind: each level re-points at its copied child, absorbs the
    // pending entry or splits and propagates the separator, and is
    // written to a fresh node.
    Key ins_key = key;
    uint64_t ins_child = cell.raw();
    uint64_t new_child = 0;
    for (size_t lvl = path.size(); lvl-- > 0;) {
        Node &node = path[lvl].node;
        if (lvl + 1 < path.size())
            node.children[path[lvl].idx] = new_child;
        if (pending && node.count == kFanout) {
            const Node right = node.splitInsert(ins_key, ins_child);
            RemotePtr left_ptr, right_ptr;
            st = allocNode(node, &left_ptr);
            if (!ok(st))
                return st;
            st = allocNode(right, &right_ptr);
            if (!ok(st))
                return st;
            new_child = left_ptr.raw();
            ins_key = right.keys[0];
            ins_child = right_ptr.raw();
            continue; // the split keeps propagating
        }
        if (pending) {
            node.insertSorted(ins_key, ins_child);
            pending = false;
        }
        RemotePtr p;
        st = allocNode(node, &p);
        if (!ok(st))
            return st;
        new_child = p.raw();
    }
    if (pending) {
        // The split propagated past the root: grow the tree.
        RemotePtr p;
        st = allocNode(Node::grownRoot(new_child, ins_key, ins_child), &p);
        if (!ok(st))
            return st;
        new_child = p.raw();
    }
    *new_root_raw = new_child;
    return Status::Ok;
}

OpTask
MvBpTree::insertAsync(Key key, Value v, bool pin)
{
    // Per-structure gate (key 0): every MV write replaces the root path,
    // so two window writes to the same tree always collide — order them
    // outright instead of letting validation restart-thrash. The gate is
    // taken before workingRoot() so each op extends its predecessor's
    // staged version (read-your-writes across the window).
    WriteOp w(this, 0);
    while (!w.admitted())
        co_await s_->pipelineYield();
    Status st = w.begin(OpType::Insert, key, v.bytes.data(), Value::kSize);
    if (!ok(st))
        co_return st;
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
                ent.idx = ent.node.routeIndex(key);
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
    w.writeOut();
    bool added = false;
    uint64_t new_root_raw = 0;
    if (root_raw == 0) {
        RemotePtr cell;
        st = newCell(v, &cell);
        if (!ok(st))
            co_return st;
        RemotePtr p;
        st = allocNode(Node::firstLeaf(key, cell.raw()), &p);
        if (!ok(st))
            co_return st;
        new_root_raw = p.raw();
        added = true;
    } else {
        st = insertWriteout(path, key, v, &added, &new_root_raw);
        if (!ok(st))
            co_return st;
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
    return vectorInsert(kvs, [&](Key key, const Value &v) {
        return s_->runInline(insertAsync(key, v, /*pin=*/true));
    });
}

Status
MvBpTree::find(Key key, Value *out)
{
    return s_->runInline(findAsync(key, out));
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
    // Per-structure write ordering; see insertAsync.
    WriteOp w(this, 0);
    while (!w.admitted())
        co_await s_->pipelineYield();
    Status st = w.begin(OpType::Erase, key, nullptr, 0);
    if (!ok(st))
        co_return st;
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
            ent.idx = ent.node.routeIndex(key);
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

    // Phase B: path-copy the leaf and its ancestors, bottom-up, inline.
    w.writeOut();
    s_->retire(id_, RemotePtr::fromRaw(leaf.children[match]),
               Value::kSize);
    leaf.eraseAt(match);
    uint64_t new_child = 0;
    for (size_t lvl = path.size(); lvl-- > 0;) {
        Node &node = path[lvl].node;
        s_->retire(id_, RemotePtr::fromRaw(path[lvl].raw), sizeof(Node));
        if (lvl + 1 < path.size())
            node.children[path[lvl].idx] = new_child;
        RemotePtr p;
        st = allocNode(node, &p);
        if (!ok(st))
            co_return st;
        new_child = p.raw();
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
