#include "ds/hash_table.h"

#include <algorithm>
#include <vector>

#include "common/hash.h"

namespace asymnvm {

namespace {

uint64_t
roundPow2(uint64_t v)
{
    uint64_t p = 1;
    while (p < v)
        p <<= 1;
    return p;
}

constexpr uint32_t kMaxChainHops = 4096;

} // namespace

Status
HashTable::create(FrontendSession &s, NodeId backend,
                  std::string_view name, uint64_t nbuckets, HashTable *out,
                  const DsOptions &opt)
{
    if (nbuckets == 0)
        return Status::InvalidArgument;
    return createHandle(s, backend, name, out, opt, [&](HashTable &t) {
        return t.initBuckets(roundPow2(nbuckets));
    });
}

Status
HashTable::initBuckets(uint64_t nbuckets)
{
    nbuckets_ = nbuckets;
    RemotePtr array;
    Status st = s_->alloc(backend_, nbuckets_ * 8, &array);
    if (!ok(st))
        return st;
    array_off_ = array.offset;

    // Blocks can be recycled: zero the bucket array explicitly.
    std::vector<uint8_t> zeros(4096, 0);
    for (uint64_t off = 0; off < nbuckets_ * 8; off += zeros.size()) {
        const uint32_t n = static_cast<uint32_t>(
            std::min<uint64_t>(zeros.size(), nbuckets_ * 8 - off));
        st = s_->logWrite(id_, array + off, zeros.data(), n);
        if (!ok(st))
            return st;
    }
    st = s_->writeAux(id_, backend_, 0, array_off_);
    if (!ok(st))
        return st;
    st = s_->writeAux(id_, backend_, 1, nbuckets_);
    if (!ok(st))
        return st;
    st = s_->writeAux(id_, backend_, 2, 0);
    if (!ok(st))
        return st;
    return s_->flushAll();
}

Status
HashTable::reload()
{
    Status st = s_->readAux(id_, backend_, 0, &array_off_);
    if (!ok(st))
        return st;
    st = s_->readAux(id_, backend_, 1, &nbuckets_);
    if (!ok(st))
        return st;
    return s_->readAux(id_, backend_, 2, &count_);
}

RemotePtr
HashTable::bucketPtr(Key key) const
{
    const uint64_t idx = mix64(key) & (nbuckets_ - 1);
    return RemotePtr(backend_, array_off_ + idx * 8);
}

Status
HashTable::put(Key key, const Value &v)
{
    return s_->runInline(putAsync(key, v));
}

OpTask
HashTable::putAsync(Key key, Value v)
{
    // Same-key ordering: a later op on this key parks until the earlier
    // one's local effects (overlay writes) have landed.
    WriteOp w(this, key);
    while (!w.admitted())
        co_await s_->pipelineYield();
    Status st = w.begin(OpType::Insert, key, v.bytes.data(), Value::kSize);
    if (!ok(st))
        co_return st;

    // Phase A: the chain walk, every read stamped so the set can be
    // validated against sibling window writes before we mutate.
    uint64_t head_raw = 0;
    uint64_t match_raw = 0;
    Node match{};
    std::vector<FrontendSession::ReadStamp> stamps;
    stamps.reserve(16);
    while (true) {
        stamps.clear();
        match_raw = 0;
        {
            ReadHint hint;
            hint.ds = id_;
            hint.cacheable = true; // hot buckets stay in front-end DRAM
            auto aw = s_->asyncRead(bucketPtr(key), &head_raw, 8, hint);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({bucketPtr(key).raw(), aw.served_seq});
        }
        uint64_t cur_raw = head_raw;
        uint32_t hops = 0;
        while (cur_raw != 0 && hops++ < kMaxChainHops) {
            Node node;
            auto aw = readNodeAsync(RemotePtr::fromRaw(cur_raw), &node, 0,
                                    false, false);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({cur_raw, aw.served_seq});
            if (node.key == key) {
                match_raw = cur_raw;
                match = node;
                break;
            }
            cur_raw = node.next_raw;
        }
        if (s_->pipelineReadSetClean(stamps))
            break;
        // A sibling relinked this chain while we were suspended; re-walk
        // against the now-hot local tiers.
        s_->notePipelineRestart();
    }

    // Phase B: in-place rewrite, or fresh node + bucket-head relink —
    // inline and unsuspended.
    w.writeOut();
    if (match_raw != 0) {
        match.value = v; // update in place (whole-node rewrite)
        st = writeNode(RemotePtr::fromRaw(match_raw), match);
        if (!ok(st))
            co_return st;
        co_return s_->opEnd();
    }
    Node fresh{};
    fresh.key = key;
    fresh.next_raw = head_raw;
    fresh.value = v;
    RemotePtr p;
    st = allocNode(fresh, &p);
    if (!ok(st))
        co_return st;
    const uint64_t new_head = p.raw();
    st = s_->logWrite(id_, bucketPtr(key), &new_head, 8);
    if (!ok(st))
        co_return st;
    ++count_;
    st = s_->writeAux(id_, backend_, 2, count_);
    if (!ok(st))
        co_return st;
    co_return s_->opEnd();
}

Status
HashTable::putMany(std::span<const std::pair<Key, Value>> kvs,
                   Status *results)
{
    return runMany(
        kvs.size(), results, pipelineEligible(),
        [&](size_t i) { return put(kvs[i].first, kvs[i].second); },
        [&](size_t i) { return putAsync(kvs[i].first, kvs[i].second); });
}

Status
HashTable::get(Key key, Value *out)
{
    return optimisticRead([&] { return s_->runInline(getAsync(key, out)); });
}

OpTask
HashTable::getAsync(Key key, Value *out)
{
    // Every remote read is co_awaited: inside a pipelined window a cache
    // miss suspends the walk and the session reactor gathers it with
    // the other in-flight lookups' misses.
    //
    // Read-your-writes: wait out a same-key write admitted earlier in
    // this window (it holds the (ds, key) gate until its local effects
    // land); readers hold nothing and never serialize on each other.
    while (s_->pipelineGateHeld(id_, key))
        co_await s_->pipelineYield();
    uint64_t cur_raw = 0;
    {
        ReadHint hint;
        hint.ds = id_;
        hint.cacheable = true; // hot buckets stay in front-end DRAM
        const Status st =
            co_await s_->asyncRead(bucketPtr(key), &cur_raw, 8, hint);
        if (!ok(st))
            co_return st;
    }
    // Chain nodes form a stable run behind their bucket: labeling the
    // walk with the bucket address lets a repeated lookup gather the
    // whole chain in one doorbell.
    const uint64_t chain_stream = bucketPtr(key).raw();
    uint32_t hops = 0;
    while (cur_raw != 0 && hops++ < kMaxChainHops) {
        Node node;
        const Status st = co_await readNodeAsync(
            RemotePtr::fromRaw(cur_raw), &node, 0, false, false, {},
            chain_stream);
        if (!ok(st))
            co_return st;
        if (node.key == key) {
            *out = node.value;
            co_return Status::Ok;
        }
        cur_raw = node.next_raw;
    }
    co_return hops >= kMaxChainHops ? Status::Conflict : Status::NotFound;
}

Status
HashTable::getMany(std::span<const Key> keys, Value *vals, Status *results)
{
    return runMany(
        keys.size(), results, pipelineEligible(),
        [&](size_t i) { return get(keys[i], &vals[i]); },
        [&](size_t i) { return getAsync(keys[i], &vals[i]); });
}

bool
HashTable::contains(Key key)
{
    Value v;
    return get(key, &v) == Status::Ok;
}

Status
HashTable::erase(Key key)
{
    return s_->runInline(eraseAsync(key));
}

OpTask
HashTable::eraseAsync(Key key)
{
    WriteOp w(this, key);
    while (!w.admitted())
        co_await s_->pipelineYield();
    Status st = w.begin(OpType::Erase, key, nullptr, 0);
    if (!ok(st))
        co_return st;

    // Phase A: the chain walk (tracking the predecessor copy), stamped
    // for validation.
    uint64_t match_raw = 0;
    Node match{};
    uint64_t prev_raw = 0;
    Node prev{};
    std::vector<FrontendSession::ReadStamp> stamps;
    stamps.reserve(16);
    while (true) {
        stamps.clear();
        match_raw = 0;
        prev_raw = 0;
        uint64_t head_raw = 0;
        {
            ReadHint hint;
            hint.ds = id_;
            hint.cacheable = true;
            auto aw = s_->asyncRead(bucketPtr(key), &head_raw, 8, hint);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({bucketPtr(key).raw(), aw.served_seq});
        }
        uint64_t cur_raw = head_raw;
        uint32_t hops = 0;
        while (cur_raw != 0 && hops++ < kMaxChainHops) {
            Node node;
            auto aw = readNodeAsync(RemotePtr::fromRaw(cur_raw), &node, 0,
                                    false, false);
            const Status rst = co_await aw;
            if (!ok(rst))
                co_return rst;
            stamps.push_back({cur_raw, aw.served_seq});
            if (node.key == key) {
                match_raw = cur_raw;
                match = node;
                break;
            }
            prev_raw = cur_raw;
            prev = node;
            cur_raw = node.next_raw;
        }
        if (s_->pipelineReadSetClean(stamps))
            break;
        s_->notePipelineRestart();
    }
    if (match_raw == 0) {
        st = s_->opEnd();
        co_return ok(st) ? Status::NotFound : st;
    }

    // Phase B: unlink, free/retire, count update — inline.
    w.writeOut();
    const RemotePtr cur = RemotePtr::fromRaw(match_raw);
    if (prev_raw == 0) {
        st = s_->logWrite(id_, bucketPtr(key), &match.next_raw, 8);
    } else {
        prev.next_raw = match.next_raw;
        st = writeNode(RemotePtr::fromRaw(prev_raw), prev);
    }
    if (!ok(st))
        co_return st;
    if (opt_.shared) {
        // Readers may still traverse the node: defer the reuse past the
        // lazy-GC window (Section 6.2).
        s_->retire(id_, cur, sizeof(Node));
    } else {
        st = s_->free(cur, sizeof(Node));
        if (!ok(st))
            co_return st;
    }
    --count_;
    st = s_->writeAux(id_, backend_, 2, count_);
    if (!ok(st))
        co_return st;
    co_return s_->opEnd();
}

Status
HashTable::eraseMany(std::span<const Key> keys, Status *results)
{
    return runMany(
        keys.size(), results, pipelineEligible(),
        [&](size_t i) { return erase(keys[i]); },
        [&](size_t i) { return eraseAsync(keys[i]); });
}

} // namespace asymnvm
