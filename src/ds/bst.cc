#include "ds/bst.h"

#include <type_traits>

#include "ds/mv_common.h"

namespace asymnvm {

template <typename Base>
Status
BstCore<Base>::lookup(Key key, Value *out)
{
    constexpr bool kMv = std::is_base_of_v<MvBase, Base>;
    uint64_t cur_raw = 0;
    Status st = Status::Ok;
    if constexpr (kMv)
        st = this->readerRoot(&cur_raw);
    else
        st = this->readRoot(&cur_raw);
    if (!ok(st))
        return st;
    uint32_t depth = 0;
    while (cur_raw != 0) {
        if (++depth > kMaxDepth)
            return kMv ? Status::Corruption : Status::Conflict;
        Node node;
        st = this->readNode(RemotePtr::fromRaw(cur_raw), &node, depth - 1);
        if (!ok(st))
            return st;
        if (node.key == key) {
            *out = node.value;
            return Status::Ok;
        }
        cur_raw = key < node.key ? node.left_raw : node.right_raw;
    }
    return Status::NotFound;
}

template class BstCore<DsBase>;
template class BstCore<MvBase>;

Status
Bst::reload()
{
    const Status st = loadRoot();
    if (!ok(st))
        return st;
    return s_->readAux(id_, backend_, 1, &count_);
}

Status
Bst::insertOne(Key key, const Value &v, bool pin)
{
    Status st = s_->opBegin(id_, backend_, OpType::Insert, key,
                            v.bytes.data(), Value::kSize);
    if (!ok(st))
        return st;
    uint64_t root_raw = 0;
    st = readRoot(&root_raw, pin);
    if (!ok(st))
        return st;

    uint64_t cur_raw = root_raw;
    uint64_t parent_raw = 0;
    Node parent{};
    bool go_left = false;
    uint32_t depth = 0;
    while (cur_raw != 0) {
        if (++depth > kMaxDepth)
            return Status::Conflict;
        const RemotePtr cur = RemotePtr::fromRaw(cur_raw);
        Node node;
        st = readNode(cur, &node, depth - 1, /*use_admission=*/true, pin);
        if (!ok(st))
            return st;
        if (node.key == key) {
            node.value = v;
            st = writeNode(cur, node);
            if (!ok(st))
                return st;
            return s_->opEnd();
        }
        parent_raw = cur_raw;
        parent = node;
        go_left = key < node.key;
        cur_raw = go_left ? node.left_raw : node.right_raw;
    }

    Node fresh{};
    fresh.key = key;
    fresh.value = v;
    RemotePtr p;
    st = allocNode(fresh, &p);
    if (!ok(st))
        return st;
    if (parent_raw == 0) {
        st = writeRoot(p.raw());
    } else {
        if (go_left)
            parent.left_raw = p.raw();
        else
            parent.right_raw = p.raw();
        st = writeNode(RemotePtr::fromRaw(parent_raw), parent);
    }
    if (!ok(st))
        return st;
    ++count_;
    st = s_->writeAux(id_, backend_, 1, count_);
    if (!ok(st))
        return st;
    return s_->opEnd();
}

Status
Bst::insert(Key key, const Value &v)
{
    const Status st = lockForWrite();
    if (!ok(st))
        return st;
    return insertOne(key, v, /*pin=*/false);
}

Status
Bst::insertBatch(std::span<const std::pair<Key, Value>> kvs)
{
    return vectorInsert(kvs, [&](Key key, const Value &v) {
        return insertOne(key, v, /*pin=*/true);
    });
}

Status
Bst::find(Key key, Value *out)
{
    return optimisticRead([&] { return lookup(key, out); });
}

bool
Bst::contains(Key key)
{
    Value v;
    return find(key, &v) == Status::Ok;
}

Status
Bst::eraseLocked(Key key)
{
    Status st = s_->opBegin(id_, backend_, OpType::Erase, key, nullptr, 0);
    if (!ok(st))
        return st;
    uint64_t root_raw = 0;
    st = readRoot(&root_raw);
    if (!ok(st))
        return st;

    // Find the victim and its parent.
    uint64_t cur_raw = root_raw;
    uint64_t parent_raw = 0;
    Node parent{}, cur{};
    bool go_left = false;
    uint32_t depth = 0;
    while (cur_raw != 0) {
        if (++depth > kMaxDepth)
            return Status::Conflict;
        st = readNode(RemotePtr::fromRaw(cur_raw), &cur, depth - 1);
        if (!ok(st))
            return st;
        if (cur.key == key)
            break;
        parent_raw = cur_raw;
        parent = cur;
        go_left = key < cur.key;
        cur_raw = go_left ? cur.left_raw : cur.right_raw;
    }
    if (cur_raw == 0) {
        st = s_->opEnd();
        return ok(st) ? Status::NotFound : st;
    }

    auto replace_child = [&](uint64_t child_raw) -> Status {
        if (parent_raw == 0)
            return writeRoot(child_raw);
        if (go_left)
            parent.left_raw = child_raw;
        else
            parent.right_raw = child_raw;
        return writeNode(RemotePtr::fromRaw(parent_raw), parent);
    };

    if (cur.left_raw != 0 && cur.right_raw != 0) {
        // Two children: splice the successor (leftmost of the right
        // subtree) into the victim's position.
        uint64_t succ_parent_raw = cur_raw;
        Node succ_parent = cur;
        uint64_t succ_raw = cur.right_raw;
        Node succ;
        st = readNode(RemotePtr::fromRaw(succ_raw), &succ, depth);
        if (!ok(st))
            return st;
        uint32_t hops = 0;
        while (succ.left_raw != 0) {
            if (++hops > kMaxDepth)
                return Status::Conflict;
            succ_parent_raw = succ_raw;
            succ_parent = succ;
            succ_raw = succ.left_raw;
            st = readNode(RemotePtr::fromRaw(succ_raw), &succ, depth);
            if (!ok(st))
                return st;
        }
        // Move the successor's payload into the victim node.
        cur.key = succ.key;
        cur.value = succ.value;
        st = writeNode(RemotePtr::fromRaw(cur_raw), cur);
        if (!ok(st))
            return st;
        // Unlink the successor (it has no left child).
        if (succ_parent_raw == cur_raw) {
            cur.right_raw = succ.right_raw;
            st = writeNode(RemotePtr::fromRaw(cur_raw), cur);
        } else {
            succ_parent.left_raw = succ.right_raw;
            st = writeNode(RemotePtr::fromRaw(succ_parent_raw),
                           succ_parent);
        }
        if (!ok(st))
            return st;
        cur_raw = succ_raw; // the physically removed node
    } else {
        const uint64_t child =
            cur.left_raw != 0 ? cur.left_raw : cur.right_raw;
        st = replace_child(child);
        if (!ok(st))
            return st;
    }

    const RemotePtr victim = RemotePtr::fromRaw(cur_raw);
    if (opt_.shared)
        s_->retire(id_, victim, sizeof(Node));
    else {
        st = s_->free(victim, sizeof(Node));
        if (!ok(st))
            return st;
    }
    --count_;
    st = s_->writeAux(id_, backend_, 1, count_);
    if (!ok(st))
        return st;
    return s_->opEnd();
}

Status
Bst::erase(Key key)
{
    const Status st = lockForWrite();
    if (!ok(st))
        return st;
    return eraseLocked(key);
}

} // namespace asymnvm
