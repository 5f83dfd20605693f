#include "ds/skiplist.h"

#include <algorithm>
#include <unordered_map>

namespace asymnvm {

namespace {
constexpr uint32_t kMaxHops = 1u << 20;
} // namespace

Status
SkipList::reload()
{
    const Status st = s_->readAux(id_, backend_, 0, &head_raw_);
    if (!ok(st))
        return st;
    return s_->readAux(id_, backend_, 1, &count_);
}

Status
SkipList::initSentinel()
{
    Node sentinel{};
    sentinel.key = 0;
    sentinel.level = kMaxLevel;
    RemotePtr p;
    Status st = allocNode(sentinel, &p);
    if (!ok(st))
        return st;
    head_raw_ = p.raw();
    st = s_->writeAux(id_, backend_, 0, head_raw_);
    if (!ok(st))
        return st;
    st = s_->writeAux(id_, backend_, 1, 0);
    if (!ok(st))
        return st;
    return s_->flushAll();
}

uint32_t
SkipList::randomLevel()
{
    uint32_t level = 1;
    while (level < kMaxLevel && level_rng_.nextBool(0.5))
        ++level;
    return level;
}

Status
SkipList::findFirst(Key key, uint64_t *first_raw)
{
    Node cur;
    // The sentinel is the hottest node of all.
    Status st = readNode(RemotePtr::fromRaw(head_raw_), &cur, 0);
    if (!ok(st))
        return st;
    uint32_t hops = 0;
    for (int lvl = kMaxLevel - 1; lvl >= 0; --lvl) {
        while (cur.next[lvl] != 0) {
            if (++hops > kMaxHops)
                return Status::Conflict; // torn view; retry
            Node next;
            // The current node's lower-level successors are the nodes
            // this walk reads next if the horizontal step overshoots and
            // the search descends — gather a few with this read.
            PrefetchCandidate neigh[6];
            size_t nn = 0;
            for (int l = lvl - 1; l >= 0 && nn < std::size(neigh); --l) {
                const uint64_t nxt = cur.next[l];
                if (nxt == 0 || nxt == cur.next[lvl])
                    continue;
                bool dup = false;
                for (size_t j = 0; j < nn; ++j)
                    if (neigh[j].addr_raw == nxt)
                        dup = true;
                if (!dup)
                    neigh[nn++] = PrefetchCandidate{
                        nxt, static_cast<uint32_t>(sizeof(Node))};
            }
            // Tower height correlates with traversal level: high levels
            // are hot, low levels cold (Section 8.4 caching rule).
            st = readNode(RemotePtr::fromRaw(cur.next[lvl]), &next,
                          kMaxLevel - 1 - lvl, true, false,
                          std::span<const PrefetchCandidate>(neigh, nn));
            if (!ok(st))
                return st;
            if (next.key >= key || next.level == 0 ||
                next.level > kMaxLevel)
                break;
            cur = next;
        }
    }
    *first_raw = cur.next[0];
    return Status::Ok;
}

Status
SkipList::insert(Key key, const Value &v)
{
    return s_->runInline(insertAsync(key, v));
}

Status
SkipList::insertBatch(std::span<const std::pair<Key, Value>> kvs)
{
    return vectorInsert(kvs, [&](Key key, const Value &v) {
        return s_->runInline(insertAsync(key, v, /*pin=*/true));
    });
}

OpTask
SkipList::insertAsync(Key key, Value v, bool pin)
{
    // Same-key ordering: a later op on this key parks until the earlier
    // one's local effects (overlay writes) have landed.
    WriteOp w(this, key);
    while (!w.admitted())
        co_await s_->pipelineYield();
    Status st = w.begin(OpType::Insert, key, v.bytes.data(), Value::kSize);
    if (!ok(st))
        co_return st;

    // Phase A: the predecessor walk (Figure 2 lines 2-13; write path,
    // so no prefetch), every read stamped for validation against sibling
    // window writes. A dirty set means a sibling relinked under us —
    // re-walk against the now-hot local tiers.
    uint64_t preds[kMaxLevel], succs[kMaxLevel];
    bool found = false;
    Node walk[2]; // current and next node; swapped, never copied
    std::vector<FrontendSession::ReadStamp> stamps;
    stamps.reserve(64);
    while (true) {
        stamps.clear();
        found = false;
        uint64_t cur_raw = head_raw_;
        Node *cur = &walk[0], *next = &walk[1];
        {
            // The sentinel is the hottest node of all.
            auto aw = readNodeAsync(RemotePtr::fromRaw(cur_raw), cur, 0,
                                    true, pin);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({cur_raw, aw.served_seq});
        }
        uint32_t hops = 0;
        bool torn = false;
        for (int lvl = kMaxLevel - 1; lvl >= 0 && !torn; --lvl) {
            while (cur->next[lvl] != 0) {
                if (++hops > kMaxHops) {
                    torn = true;
                    break;
                }
                auto aw = readNodeAsync(RemotePtr::fromRaw(cur->next[lvl]),
                                        next, kMaxLevel - 1 - lvl, true,
                                        pin);
                const Status rst = co_await aw;
                if (!ok(rst))
                    co_return rst;
                stamps.push_back({cur->next[lvl], aw.served_seq});
                if (next->key >= key || next->level == 0 ||
                    next->level > kMaxLevel) {
                    if (next->key == key && next->level >= 1 &&
                        next->level <= kMaxLevel)
                        found = true;
                    break;
                }
                cur_raw = cur->next[lvl];
                std::swap(cur, next);
            }
            if (torn)
                break;
            preds[lvl] = cur_raw;
            succs[lvl] = cur->next[lvl];
        }
        if (s_->pipelineReadSetClean(stamps)) {
            if (torn)
                co_return Status::Conflict; // genuine torn view
            break;
        }
        s_->notePipelineRestart();
    }

    // Phase B: update in place, or Figure 2 lines 14-19 — allocate the
    // fully initialized node, then link predecessors bottom-up. Inline
    // and unsuspended (its reads run synchronously — they are local
    // after the walk), so the whole write-out is atomic with respect to
    // sibling ops.
    w.writeOut();
    if (found) {
        const RemotePtr target = RemotePtr::fromRaw(succs[0]);
        Node node;
        st = readNode(target, &node, kMaxLevel - 1);
        if (!ok(st))
            co_return st;
        node.value = v;
        st = writeNode(target, node);
        if (!ok(st))
            co_return st;
        co_return s_->opEnd();
    }
    const uint32_t level = randomLevel();
    Node fresh{};
    fresh.key = key;
    fresh.level = level;
    fresh.value = v;
    for (uint32_t l = 0; l < level; ++l)
        fresh.next[l] = succs[l];
    RemotePtr p;
    st = allocNode(fresh, &p);
    if (!ok(st))
        co_return st;
    // Distinct predecessors may repeat across levels; keep one evolving
    // copy per node so whole-node rewrites stay consistent.
    std::unordered_map<uint64_t, Node> pred_copies;
    for (uint32_t l = 0; l < level; ++l) {
        auto it = pred_copies.find(preds[l]);
        if (it == pred_copies.end()) {
            Node copy;
            st = readNode(RemotePtr::fromRaw(preds[l]), &copy,
                          kMaxLevel - 1 - l, true, pin);
            if (!ok(st))
                co_return st;
            it = pred_copies.emplace(preds[l], copy).first;
        }
        it->second.next[l] = p.raw();
        st = writeNode(RemotePtr::fromRaw(preds[l]), it->second);
        if (!ok(st))
            co_return st;
    }
    ++count_;
    st = s_->writeAux(id_, backend_, 1, count_);
    if (!ok(st))
        co_return st;
    co_return s_->opEnd();
}

Status
SkipList::insertMany(std::span<const std::pair<Key, Value>> kvs,
                     Status *results)
{
    return runMany(
        kvs.size(), results, pipelineEligible(),
        [&](size_t i) { return insert(kvs[i].first, kvs[i].second); },
        [&](size_t i) { return insertAsync(kvs[i].first, kvs[i].second); });
}

Status
SkipList::find(Key key, Value *out)
{
    return optimisticRead(
        [&] { return s_->runInline(findAsync(key, out)); });
}

OpTask
SkipList::findAsync(Key key, Value *out)
{
    // The tower walk with every read co_awaited: inside a pipelined
    // window a cache miss suspends the walk and the session reactor
    // gathers it with the other in-flight lookups' misses. Each
    // horizontal step gathers the current node's lower-level successors
    // (as findFirst does); the candidate array lives in the coroutine
    // frame, valid across suspension.
    //
    // Read-your-writes: wait out a same-key write admitted earlier in
    // this window (it holds the (ds, key) gate until its local effects
    // land); readers hold nothing and never serialize on each other.
    while (s_->pipelineGateHeld(id_, key))
        co_await s_->pipelineYield();
    Node walk[2]; // current and next node; swapped, never copied
    Node *cur = &walk[0], *next = &walk[1];
    Status st = co_await readNodeAsync(RemotePtr::fromRaw(head_raw_), cur,
                                       0, true, false);
    if (!ok(st))
        co_return st;
    bool found = false;
    uint32_t hops = 0;
    PrefetchCandidate neigh[6];
    for (int lvl = kMaxLevel - 1; lvl >= 0; --lvl) {
        while (cur->next[lvl] != 0) {
            if (++hops > kMaxHops)
                co_return Status::Conflict; // torn view; retry
            size_t nn = 0;
            for (int l = lvl - 1; l >= 0 && nn < std::size(neigh); --l) {
                const uint64_t nxt = cur->next[l];
                if (nxt == 0 || nxt == cur->next[lvl])
                    continue;
                bool dup = false;
                for (size_t j = 0; j < nn; ++j)
                    if (neigh[j].addr_raw == nxt)
                        dup = true;
                if (!dup)
                    neigh[nn++] = PrefetchCandidate{
                        nxt, static_cast<uint32_t>(sizeof(Node))};
            }
            st = co_await readNodeAsync(
                RemotePtr::fromRaw(cur->next[lvl]), next,
                kMaxLevel - 1 - lvl, true, false,
                std::span<const PrefetchCandidate>(neigh, nn));
            if (!ok(st))
                co_return st;
            if (next->key >= key || next->level == 0 ||
                next->level > kMaxLevel) {
                if (next->key == key && next->level >= 1 &&
                    next->level <= kMaxLevel)
                    found = true;
                break;
            }
            std::swap(cur, next);
        }
    }
    const uint64_t succ0 = cur->next[0];
    if (!found)
        co_return Status::NotFound;
    Node node;
    st = co_await readNodeAsync(RemotePtr::fromRaw(succ0), &node,
                                kMaxLevel - 1);
    if (!ok(st))
        co_return st;
    *out = node.value;
    co_return Status::Ok;
}

Status
SkipList::findMany(std::span<const Key> keys, Value *vals, Status *results)
{
    return runMany(
        keys.size(), results, pipelineEligible(),
        [&](size_t i) { return find(keys[i], &vals[i]); },
        [&](size_t i) { return findAsync(keys[i], &vals[i]); });
}

Status
SkipList::scan(Key from, uint32_t limit,
               std::vector<std::pair<Key, Value>> *out)
{
    return optimisticRead([&]() -> Status {
        out->clear();
        uint64_t first_raw = 0;
        Status st = findFirst(from, &first_raw);
        if (!ok(st))
            return st;
        // The bottom level is a sorted linked list; walk it forward.
        // Labeling the hops with the run's anchor lets repeated scans of
        // the same range learn and gather the whole bottom-level run.
        const uint64_t scan_stream = first_raw;
        uint64_t cur_raw = first_raw;
        uint32_t hops = 0;
        while (cur_raw != 0 && out->size() < limit) {
            if (++hops > kMaxHops)
                return Status::Conflict;
            Node node;
            st = readNode(RemotePtr::fromRaw(cur_raw), &node,
                          kMaxLevel - 1, true, false, {}, scan_stream);
            if (!ok(st))
                return st;
            if (node.level == 0 || node.level > kMaxLevel)
                return Status::Conflict; // torn view
            if (node.key >= from)
                out->emplace_back(node.key, node.value);
            cur_raw = node.next[0];
        }
        return Status::Ok;
    });
}

bool
SkipList::contains(Key key)
{
    Value v;
    return find(key, &v) == Status::Ok;
}

Status
SkipList::erase(Key key)
{
    return s_->runInline(eraseAsync(key));
}

OpTask
SkipList::eraseAsync(Key key)
{
    WriteOp w(this, key);
    while (!w.admitted())
        co_await s_->pipelineYield();
    Status st = w.begin(OpType::Erase, key, nullptr, 0);
    if (!ok(st))
        co_return st;

    // Phase A: suspendable predecessor walk, stamped (see insertAsync).
    uint64_t preds[kMaxLevel], succs[kMaxLevel];
    bool found = false;
    Node walk[2];
    std::vector<FrontendSession::ReadStamp> stamps;
    stamps.reserve(64);
    while (true) {
        stamps.clear();
        found = false;
        uint64_t cur_raw = head_raw_;
        Node *cur = &walk[0], *next = &walk[1];
        {
            auto aw = readNodeAsync(RemotePtr::fromRaw(cur_raw), cur, 0,
                                    true, false);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({cur_raw, aw.served_seq});
        }
        uint32_t hops = 0;
        bool torn = false;
        for (int lvl = kMaxLevel - 1; lvl >= 0 && !torn; --lvl) {
            while (cur->next[lvl] != 0) {
                if (++hops > kMaxHops) {
                    torn = true;
                    break;
                }
                auto aw = readNodeAsync(RemotePtr::fromRaw(cur->next[lvl]),
                                        next, kMaxLevel - 1 - lvl, true,
                                        false);
                const Status rst = co_await aw;
                if (!ok(rst))
                    co_return rst;
                stamps.push_back({cur->next[lvl], aw.served_seq});
                if (next->key >= key || next->level == 0 ||
                    next->level > kMaxLevel) {
                    if (next->key == key && next->level >= 1 &&
                        next->level <= kMaxLevel)
                        found = true;
                    break;
                }
                cur_raw = cur->next[lvl];
                std::swap(cur, next);
            }
            if (torn)
                break;
            preds[lvl] = cur_raw;
            succs[lvl] = cur->next[lvl];
        }
        if (s_->pipelineReadSetClean(stamps)) {
            if (torn)
                co_return Status::Conflict;
            break;
        }
        s_->notePipelineRestart();
    }
    if (!found) {
        st = s_->opEnd();
        co_return ok(st) ? Status::NotFound : st;
    }

    // Phase B: victim read, top-down unlink, free/retire — inline and
    // unsuspended. Unlinking top-down means a crash mid-erase leaves the
    // victim still a member of the bottom list (a benign shorter-tower
    // state). The reverse order would strand upper-level links routing
    // through a node already gone from level 0, silently swallowing any
    // later insert whose level-0 predecessor resolves to the dead node.
    w.writeOut();
    const RemotePtr target = RemotePtr::fromRaw(succs[0]);
    Node victim;
    st = readNode(target, &victim, kMaxLevel - 1);
    if (!ok(st))
        co_return st;
    std::unordered_map<uint64_t, Node> pred_copies;
    for (uint32_t l = victim.level; l-- > 0;) {
        if (succs[l] != target.raw())
            continue;
        auto it = pred_copies.find(preds[l]);
        if (it == pred_copies.end()) {
            Node copy;
            st = readNode(RemotePtr::fromRaw(preds[l]), &copy,
                          kMaxLevel - 1 - l);
            if (!ok(st))
                co_return st;
            it = pred_copies.emplace(preds[l], copy).first;
        }
        it->second.next[l] = victim.next[l];
        st = writeNode(RemotePtr::fromRaw(preds[l]), it->second);
        if (!ok(st))
            co_return st;
    }
    if (opt_.shared)
        s_->retire(id_, target, sizeof(Node)); // readers may still visit
    else {
        st = s_->free(target, sizeof(Node));
        if (!ok(st))
            co_return st;
    }
    --count_;
    st = s_->writeAux(id_, backend_, 1, count_);
    if (!ok(st))
        co_return st;
    co_return s_->opEnd();
}

Status
SkipList::eraseMany(std::span<const Key> keys, Status *results)
{
    return runMany(
        keys.size(), results, pipelineEligible(),
        [&](size_t i) { return erase(keys[i]); },
        [&](size_t i) { return eraseAsync(keys[i]); });
}

} // namespace asymnvm
