#include "ds/mv_bst.h"

namespace asymnvm {

Status
MvBst::copyPathUp(const std::vector<PathElem> &path,
                  uint64_t new_child_raw, uint64_t *new_root_raw)
{
    uint64_t child = new_child_raw;
    for (auto it = path.rbegin(); it != path.rend(); ++it) {
        Node copy = it->node;
        if (it->went_left)
            copy.left_raw = child;
        else
            copy.right_raw = child;
        RemotePtr p;
        const Status st = allocNode(copy, &p);
        if (!ok(st))
            return st;
        // The original of this path node is superseded.
        s_->retire(id_, RemotePtr::fromRaw(it->raw), sizeof(Node));
        child = p.raw();
    }
    *new_root_raw = child;
    return Status::Ok;
}

Status
MvBst::insertOne(Key key, const Value &v, bool pin)
{
    Status st = s_->opBegin(id_, backend_, OpType::Insert, key,
                            v.bytes.data(), Value::kSize);
    if (!ok(st))
        return st;

    std::vector<PathElem> path;
    uint64_t cur_raw = workingRoot();
    bool found = false;
    Node found_node{};
    uint64_t found_raw = 0;
    uint32_t depth = 0;
    while (cur_raw != 0) {
        if (++depth > kMaxDepth)
            return Status::Conflict;
        Node node;
        st = readNode(RemotePtr::fromRaw(cur_raw), &node, depth - 1, true,
                      pin);
        if (!ok(st))
            return st;
        if (node.key == key) {
            found = true;
            found_node = node;
            found_raw = cur_raw;
            break;
        }
        path.push_back({cur_raw, node, key < node.key});
        cur_raw = key < node.key ? node.left_raw : node.right_raw;
    }

    uint64_t new_child_raw = 0;
    if (found) {
        // Copy-on-write update: a fresh node with the new value keeps
        // the old subtrees.
        Node copy = found_node;
        copy.value = v;
        RemotePtr p;
        st = allocNode(copy, &p);
        if (!ok(st))
            return st;
        s_->retire(id_, RemotePtr::fromRaw(found_raw), sizeof(Node));
        new_child_raw = p.raw();
    } else {
        Node fresh{};
        fresh.key = key;
        fresh.value = v;
        RemotePtr p;
        st = allocNode(fresh, &p);
        if (!ok(st))
            return st;
        new_child_raw = p.raw();
        ++count_;
        st = s_->writeAux(id_, backend_, 1, count_);
        if (!ok(st))
            return st;
    }
    uint64_t new_root_raw = 0;
    st = copyPathUp(path, new_child_raw, &new_root_raw);
    if (!ok(st))
        return st;
    stageRoot(new_root_raw);
    return s_->opEnd();
}

Status
MvBst::insert(Key key, const Value &v)
{
    Status st = lockForWrite();
    if (!ok(st))
        return st;
    return insertOne(key, v, /*pin=*/false);
}

Status
MvBst::insertBatch(std::span<const std::pair<Key, Value>> kvs)
{
    return vectorInsert(kvs, [&](Key key, const Value &v) {
        return insertOne(key, v, /*pin=*/true);
    });
}

Status
MvBst::find(Key key, Value *out)
{
    return lookup(key, out);
}

bool
MvBst::contains(Key key)
{
    Value v;
    return find(key, &v) == Status::Ok;
}

Status
MvBst::erase(Key key)
{
    Status st = lockForWrite();
    if (!ok(st))
        return st;
    st = s_->opBegin(id_, backend_, OpType::Erase, key, nullptr, 0);
    if (!ok(st))
        return st;

    std::vector<PathElem> path;
    uint64_t cur_raw = workingRoot();
    Node victim{};
    uint64_t victim_raw = 0;
    uint32_t depth = 0;
    while (cur_raw != 0) {
        if (++depth > kMaxDepth)
            return Status::Conflict;
        Node node;
        st = readNode(RemotePtr::fromRaw(cur_raw), &node, depth - 1);
        if (!ok(st))
            return st;
        if (node.key == key) {
            victim = node;
            victim_raw = cur_raw;
            break;
        }
        path.push_back({cur_raw, node, key < node.key});
        cur_raw = key < node.key ? node.left_raw : node.right_raw;
    }
    if (victim_raw == 0) {
        st = s_->opEnd();
        return ok(st) ? Status::NotFound : st;
    }

    uint64_t replacement_raw = 0;
    if (victim.left_raw == 0 || victim.right_raw == 0) {
        replacement_raw =
            victim.left_raw != 0 ? victim.left_raw : victim.right_raw;
    } else {
        // Two children: rebuild the right subtree along the successor's
        // path with the successor spliced out, then make a fresh node
        // carrying the successor's payload.
        std::vector<PathElem> succ_path;
        uint64_t succ_raw = victim.right_raw;
        Node succ;
        st = readNode(RemotePtr::fromRaw(succ_raw), &succ, depth);
        if (!ok(st))
            return st;
        uint32_t hops = 0;
        while (succ.left_raw != 0) {
            if (++hops > kMaxDepth)
                return Status::Conflict;
            succ_path.push_back({succ_raw, succ, /*went_left=*/true});
            succ_raw = succ.left_raw;
            st = readNode(RemotePtr::fromRaw(succ_raw), &succ, depth);
            if (!ok(st))
                return st;
        }
        uint64_t new_right_raw = succ.right_raw;
        // Rebuild the successor path (all copies) bottom-up.
        for (auto it = succ_path.rbegin(); it != succ_path.rend(); ++it) {
            Node copy = it->node;
            copy.left_raw = new_right_raw;
            RemotePtr p;
            st = allocNode(copy, &p);
            if (!ok(st))
                return st;
            s_->retire(id_, RemotePtr::fromRaw(it->raw), sizeof(Node));
            new_right_raw = p.raw();
        }
        Node carrier{};
        carrier.key = succ.key;
        carrier.value = succ.value;
        carrier.left_raw = victim.left_raw;
        carrier.right_raw = new_right_raw;
        RemotePtr p;
        st = allocNode(carrier, &p);
        if (!ok(st))
            return st;
        s_->retire(id_, RemotePtr::fromRaw(succ_raw), sizeof(Node));
        replacement_raw = p.raw();
    }
    s_->retire(id_, RemotePtr::fromRaw(victim_raw), sizeof(Node));

    uint64_t new_root_raw = 0;
    st = copyPathUp(path, replacement_raw, &new_root_raw);
    if (!ok(st))
        return st;
    stageRoot(new_root_raw);
    --count_;
    st = s_->writeAux(id_, backend_, 1, count_);
    if (!ok(st))
        return st;
    return s_->opEnd();
}

} // namespace asymnvm
