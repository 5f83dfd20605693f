/**
 * @file
 * Coroutine-pipelined session operations (DESIGN.md §11): correctness of
 * out-of-order completion, the depth-1 bit-identity guarantee, round-trip
 * overlap at depth > 1, commit coalescing at window drain, and crash
 * recovery with a pipeline in flight.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <span>
#include <type_traits>
#include <typeinfo>
#include <vector>

#include "backend/backend_node.h"
#include "cluster/cluster.h"
#include "common/rand.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "ds/mv_bptree.h"
#include "ds/queue.h"
#include "ds/skiplist.h"
#include "ds/stack.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

BackendConfig
testConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 64ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 8;
    cfg.memlog_ring_size = 1ull << 20;
    cfg.oplog_ring_size = 512ull << 10;
    return cfg;
}

/** One back-end + one RC session with a given pipeline depth. */
struct PipeRig
{
    std::unique_ptr<BackendNode> be;
    std::unique_ptr<FrontendSession> s;

    PipeRig(uint64_t id, uint32_t depth, uint64_t cache_bytes = 256 << 10)
    {
        be = std::make_unique<BackendNode>(1, testConfig());
        SessionConfig cfg = SessionConfig::rc(id, cache_bytes);
        cfg.pipeline_depth = depth;
        s = std::make_unique<FrontendSession>(cfg);
        EXPECT_EQ(s->connect(be.get()), Status::Ok);
    }
};

template <typename DS>
void
preload(DS &ds, uint64_t nkeys)
{
    Value v{};
    for (uint64_t k = 1; k <= nkeys; ++k) {
        v = Value::ofU64(k * 31);
        ASSERT_EQ(ds.insert(k, v), Status::Ok);
    }
    ASSERT_EQ(ds.session().flushAll(), Status::Ok);
    ds.session().cache().clear();
    ds.session().resetStats();
}

// ---------------------------------------------------------------------
// Correctness: pipelined lookups return the same results as serial ones,
// with out-of-order completion landing each status in its own slot.
// ---------------------------------------------------------------------

TEST(PipelineTest, BpTreeFindManyMatchesSerial)
{
    constexpr uint64_t kKeys = 2000;
    PipeRig rig(11, /*depth=*/8);
    BpTree ds;
    ASSERT_EQ(BpTree::create(*rig.s, 1, "t", &ds), Status::Ok);
    preload(ds, kKeys);

    // Shuffled present keys plus interleaved absent ones: ops traverse
    // different depths and complete out of issue order, but results[i]
    // must still describe keys[i].
    std::vector<Key> keys;
    Rng rng(7);
    for (uint64_t i = 0; i < 64; ++i)
        keys.push_back(1 + rng.nextBounded(kKeys));
    keys.push_back(kKeys + 100); // absent
    keys.insert(keys.begin() + 10, kKeys + 200); // absent, mid-window
    std::vector<Value> vals(keys.size());
    std::vector<Status> sts(keys.size());
    ASSERT_EQ(ds.findMany(keys, vals.data(), sts.data()), Status::Ok);
    for (size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] > kKeys) {
            EXPECT_EQ(sts[i], Status::NotFound) << "slot " << i;
        } else {
            ASSERT_EQ(sts[i], Status::Ok) << "slot " << i;
            EXPECT_EQ(vals[i].asU64(), keys[i] * 31) << "slot " << i;
        }
    }
    const SessionStats st = rig.s->stats();
    EXPECT_EQ(st.pipeline.depth, 8u);
    EXPECT_EQ(st.pipeline.runs, 1u);
    EXPECT_EQ(st.pipeline.ops, keys.size());
    EXPECT_GT(st.pipeline.max_in_flight, 1u);
    // Overlap is the point: rounds serve several ops' reads at once.
    EXPECT_GT(st.pipeline.overlap(), 1.5);
    // The NIC observed multi-op gather arrivals.
    EXPECT_GT(rig.be->nic().multiOpBatches(), 0u);
}

TEST(PipelineTest, HashTableGetManyOutOfOrderSlots)
{
    PipeRig rig(12, /*depth=*/6);
    HashTable ds;
    ASSERT_EQ(HashTable::create(*rig.s, 1, "h", 64, &ds), Status::Ok);
    Value v{};
    for (uint64_t k = 1; k <= 300; ++k) {
        v = Value::ofU64(k ^ 0xabcd);
        ASSERT_EQ(ds.put(k, v), Status::Ok);
    }
    ASSERT_EQ(rig.s->flushAll(), Status::Ok);
    rig.s->cache().clear();
    rig.s->resetStats();

    // Warm one key so its op completes on round one while the rest are
    // still suspended — maximal completion-order skew.
    ASSERT_EQ(ds.get(7, &v), Status::Ok);

    std::vector<Key> keys = {3, 7, 999, 150, 7, 42, 1000, 280, 1};
    std::vector<Value> vals(keys.size());
    std::vector<Status> sts(keys.size());
    ASSERT_EQ(ds.getMany(keys, vals.data(), sts.data()), Status::Ok);
    for (size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] > 300) {
            EXPECT_EQ(sts[i], Status::NotFound) << "slot " << i;
        } else {
            ASSERT_EQ(sts[i], Status::Ok) << "slot " << i;
            EXPECT_EQ(vals[i].asU64(), keys[i] ^ 0xabcd) << "slot " << i;
        }
    }
}

TEST(PipelineTest, SkipListAndMvBpTreeFindMany)
{
    PipeRig rig(13, /*depth=*/4);
    SkipList sl;
    ASSERT_EQ(SkipList::create(*rig.s, 1, "sl", &sl), Status::Ok);
    preload(sl, 400);
    std::vector<Key> keys = {5, 399, 77, 401, 200};
    std::vector<Value> vals(keys.size());
    std::vector<Status> sts(keys.size());
    ASSERT_EQ(sl.findMany(keys, vals.data(), sts.data()), Status::Ok);
    for (size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] > 400) {
            EXPECT_EQ(sts[i], Status::NotFound);
        } else {
            ASSERT_EQ(sts[i], Status::Ok) << "slot " << i;
            EXPECT_EQ(vals[i].asU64(), keys[i] * 31);
        }
    }

    MvBpTree mv;
    ASSERT_EQ(MvBpTree::create(*rig.s, 1, "mv", &mv), Status::Ok);
    preload(mv, 400);
    ASSERT_EQ(mv.findMany(keys, vals.data(), sts.data()), Status::Ok);
    for (size_t i = 0; i < keys.size(); ++i) {
        if (keys[i] > 400) {
            EXPECT_EQ(sts[i], Status::NotFound);
        } else {
            ASSERT_EQ(sts[i], Status::Ok) << "slot " << i;
            EXPECT_EQ(vals[i].asU64(), keys[i] * 31);
        }
    }
}

// ---------------------------------------------------------------------
// Depth 1 is the ablation baseline: executePipelined must be
// bit-identical to the serial loop — same verbs, same bytes, same clock.
// ---------------------------------------------------------------------

TEST(PipelineTest, DepthOneIsBitIdenticalToSerialFinds)
{
    constexpr uint64_t kKeys = 1200;
    PipeRig piped(14, /*depth=*/1);
    PipeRig serial(15, /*depth=*/1);
    BpTree dp, ds;
    ASSERT_EQ(BpTree::create(*piped.s, 1, "t", &dp), Status::Ok);
    ASSERT_EQ(BpTree::create(*serial.s, 1, "t", &ds), Status::Ok);
    preload(dp, kKeys);
    preload(ds, kKeys);

    std::vector<Key> keys;
    Rng rng(21);
    for (uint64_t i = 0; i < 48; ++i)
        keys.push_back(1 + rng.nextBounded(kKeys));

    const uint64_t p0 = piped.s->clock().now();
    std::vector<Value> vals(keys.size());
    std::vector<Status> sts(keys.size());
    ASSERT_EQ(dp.findMany(keys, vals.data(), sts.data()), Status::Ok);
    const uint64_t piped_ns = piped.s->clock().now() - p0;

    const uint64_t s0 = serial.s->clock().now();
    for (size_t i = 0; i < keys.size(); ++i) {
        Value v;
        ASSERT_EQ(ds.find(keys[i], &v), Status::Ok);
        EXPECT_EQ(v.asU64(), vals[i].asU64());
    }
    const uint64_t serial_ns = serial.s->clock().now() - s0;

    EXPECT_EQ(piped_ns, serial_ns);
    const VerbCounters a = piped.s->verbs().counters();
    const VerbCounters b = serial.s->verbs().counters();
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.posted, b.posted);
    EXPECT_EQ(a.read_gathers, b.read_gathers);
    EXPECT_EQ(a.doorbells, b.doorbells);
    EXPECT_EQ(a.atomics, b.atomics);
    EXPECT_EQ(a.read_bytes, b.read_bytes);
    EXPECT_EQ(piped.s->verbs().verbsIssued(), serial.s->verbs().verbsIssued());
    EXPECT_EQ(piped.s->verbs().counters().totalBytes(),
              serial.s->verbs().counters().totalBytes());
    // And no reactor involvement at all.
    EXPECT_EQ(piped.s->stats().pipeline.runs, 0u);
    EXPECT_EQ(piped.s->stats().pipeline.rounds, 0u);
}

// ---------------------------------------------------------------------
// The perf claim: depth 8 overlaps cold-cache traversals' round trips.
// ---------------------------------------------------------------------

TEST(PipelineTest, DepthEightOverlapsColdLookupRtts)
{
    constexpr uint64_t kKeys = 3000;
    PipeRig deep(16, /*depth=*/8, 64 << 10);
    PipeRig flat(17, /*depth=*/1, 64 << 10);
    BpTree dd, df;
    ASSERT_EQ(BpTree::create(*deep.s, 1, "t", &dd), Status::Ok);
    ASSERT_EQ(BpTree::create(*flat.s, 1, "t", &df), Status::Ok);
    preload(dd, kKeys);
    preload(df, kKeys);

    std::vector<Key> keys;
    Rng rng(33);
    for (uint64_t i = 0; i < 96; ++i)
        keys.push_back(1 + rng.nextBounded(kKeys));
    std::vector<Value> vals(keys.size());
    std::vector<Status> sts(keys.size());

    const uint64_t d0 = deep.s->clock().now();
    ASSERT_EQ(dd.findMany(keys, vals.data(), sts.data()), Status::Ok);
    const uint64_t deep_ns = deep.s->clock().now() - d0;
    const uint64_t f0 = flat.s->clock().now();
    ASSERT_EQ(df.findMany(keys, vals.data(), sts.data()), Status::Ok);
    const uint64_t flat_ns = flat.s->clock().now() - f0;
    for (const Status st : sts)
        ASSERT_EQ(st, Status::Ok);

    // Acceptance bar: >= 1.5x cold-cache lookup throughput at depth 8.
    EXPECT_GE(static_cast<double>(flat_ns),
              1.5 * static_cast<double>(deep_ns))
        << "depth-8 " << deep_ns << " ns vs depth-1 " << flat_ns << " ns";
}

// ---------------------------------------------------------------------
// Commit coalescing: write ops inside a pipeline window defer their
// group-commit fence to window drain, and the drain makes them durable.
// ---------------------------------------------------------------------

TEST(PipelineTest, PipelinedWritesCoalesceCommitToDrain)
{
    PipeRig rig(18, /*depth=*/4);
    BpTree ds;
    ASSERT_EQ(BpTree::create(*rig.s, 1, "t", &ds), Status::Ok);
    Value v{};
    for (uint64_t k = 1; k <= 200; ++k)
        ASSERT_EQ(ds.insert(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(rig.s->flushAll(), Status::Ok);
    rig.s->resetStats();

    // Insert wrappers: the writes themselves run synchronously inside
    // their coroutines; what the pipeline adds is the commit path — each
    // opEnd defers its fence, one flushAll covers the window.
    std::vector<OpTask> ops;
    auto wrap = [&](Key k) -> OpTask {
        co_return ds.insert(k, Value::ofU64(k * 7));
    };
    for (uint64_t k = 500; k < 516; ++k)
        ops.push_back(wrap(k));
    std::vector<Status> sts(ops.size());
    rig.s->executePipelined(ops, sts);
    for (const Status st : sts)
        ASSERT_EQ(st, Status::Ok);
    const SessionStats st = rig.s->stats();
    EXPECT_EQ(st.pipeline.deferred_commits, 1u);
    EXPECT_EQ(rig.s->opsInBatch(), 0u); // drained: nothing left open

    // Durable at drain: a front-end reboot plus recovery loses nothing.
    rig.s->simulateCrash();
    ASSERT_EQ(rig.s->recover(), Status::Ok);
    BpTree audit;
    ASSERT_EQ(BpTree::open(*rig.s, 1, "t", &audit), Status::Ok);
    for (uint64_t k = 500; k < 516; ++k) {
        ASSERT_EQ(audit.find(k, &v), Status::Ok) << "key " << k;
        EXPECT_EQ(v.asU64(), k * 7);
    }
}

// ---------------------------------------------------------------------
// Crash with a pipeline in flight: whatever survives is value-correct,
// and every op from windows acknowledged at drain is present.
// ---------------------------------------------------------------------

TEST(PipelineTest, CrashMidPipelineRecoversCommittedWindows)
{
    ClusterConfig ccfg;
    ccfg.num_backends = 1;
    ccfg.mirrors_per_backend = 1;
    ccfg.backend = testConfig();
    Cluster cluster(ccfg);
    SessionConfig scfg = SessionConfig::rc(19, 256 << 10);
    scfg.pipeline_depth = 4;
    auto s = cluster.makeSession(scfg);
    ASSERT_NE(s, nullptr);
    BpTree ds;
    ASSERT_EQ(BpTree::create(*s, 1, "t", &ds), Status::Ok);
    Value v{};
    for (uint64_t k = 1; k <= 100; ++k)
        ASSERT_EQ(ds.insert(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);

    // Pipelined insert windows until the armed crash fires mid-window.
    cluster.backend(1)->failure().armCrashAfterVerbs(400, /*seed=*/5);
    std::map<Key, uint64_t> committed; // windows whose drain returned Ok
    bool crashed = false;
    for (uint64_t w = 0; w < 64 && !crashed; ++w) {
        std::vector<OpTask> ops;
        std::vector<Key> keys;
        auto wrap = [&](Key k) -> OpTask {
            co_return ds.insert(k, Value::ofU64(k * 3));
        };
        for (uint64_t i = 0; i < 8; ++i) {
            const Key k = 1000 + w * 8 + i;
            keys.push_back(k);
            ops.push_back(wrap(k));
        }
        std::vector<Status> sts(ops.size());
        s->executePipelined(ops, sts);
        bool window_ok = true;
        for (const Status st : sts)
            window_ok = window_ok && ok(st);
        // The drain's flushAll is the durability point of the window; a
        // failed flush surfaces in the NEXT op's status, so confirm with
        // an explicit fence before counting the window as committed.
        if (window_ok && ok(s->flushAll())) {
            for (const Key k : keys)
                committed[k] = k * 3;
        } else {
            crashed = true;
        }
    }
    ASSERT_TRUE(crashed) << "crash never fired; raise the verb budget";

    cluster.backend(1)->nvm().crash();
    ASSERT_EQ(cluster.restartBackend(1), Status::Ok);
    s->simulateCrash();
    ASSERT_EQ(s->failover(1, cluster.backend(1)), Status::Ok);
    BpTree reopened;
    ASSERT_EQ(BpTree::open(*s, 1, "t", &reopened), Status::Ok);
    ASSERT_EQ(s->recover(), Status::Ok);

    BpTree audit;
    ASSERT_EQ(BpTree::open(*s, 1, "t", &audit), Status::Ok);
    // Every acknowledged window survives in full.
    for (const auto &[k, val] : committed) {
        ASSERT_EQ(audit.find(k, &v), Status::Ok)
            << "committed key " << k << " lost";
        EXPECT_EQ(v.asU64(), val) << "committed key " << k << " torn";
    }
    // Unacknowledged keys may or may not survive (their op logs may have
    // persisted), but anything present must be whole and value-correct.
    for (uint64_t k = 1000; k < 1000 + 64 * 8; ++k) {
        if (committed.count(k) != 0)
            continue;
        const Status got = audit.find(k, &v);
        if (got == Status::Ok)
            EXPECT_EQ(v.asU64(), k * 3) << "in-flight key " << k << " torn";
        else
            EXPECT_EQ(got, Status::NotFound);
    }
    // The structure stays usable.
    ASSERT_EQ(audit.insert(9999, Value::ofU64(42)), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    ASSERT_EQ(audit.find(9999, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), 42u);
}

// ---------------------------------------------------------------------
// Reactor edge cases.
// ---------------------------------------------------------------------

TEST(PipelineTest, EmptyAndSingleOpWindows)
{
    PipeRig rig(20, /*depth=*/8);
    BpTree ds;
    ASSERT_EQ(BpTree::create(*rig.s, 1, "t", &ds), Status::Ok);
    preload(ds, 100);

    std::vector<Key> none;
    ASSERT_EQ(ds.findMany(none, nullptr, nullptr), Status::Ok);

    Key one = 50;
    Value v{};
    Status st = Status::Ok;
    ASSERT_EQ(ds.findMany(std::span<const Key>(&one, 1), &v, &st),
              Status::Ok);
    EXPECT_EQ(st, Status::Ok);
    EXPECT_EQ(v.asU64(), 50u * 31);
    // A single op never enters the reactor — serial fall-through.
    EXPECT_EQ(rig.s->stats().pipeline.runs, 0u);
}

// ---------------------------------------------------------------------
// runMany's serial branch: a second session's shared handle, without the
// writer lock, runs every keyed *Many entry point one op at a time, with
// the per-key statuses and values of the single-op calls.
// ---------------------------------------------------------------------

/** One spelling of a keyed structure's write and lookup entry points. */
template <typename DS>
struct KeyedOps
{
    static Status create(FrontendSession &s, const char *name, DS *out,
                         const DsOptions &opt)
    {
        return DS::create(s, 1, name, out, opt);
    }
    static Status put(DS &d, Key k, const Value &v) { return d.insert(k, v); }
    static Status get(DS &d, Key k, Value *v) { return d.find(k, v); }
    static Status putMany(DS &d, std::span<const std::pair<Key, Value>> kvs,
                          Status *r)
    {
        return d.insertMany(kvs, r);
    }
    static Status getMany(DS &d, std::span<const Key> keys, Value *v,
                          Status *r)
    {
        return d.findMany(keys, v, r);
    }
};

template <>
struct KeyedOps<HashTable>
{
    static Status create(FrontendSession &s, const char *name,
                         HashTable *out, const DsOptions &opt)
    {
        return HashTable::create(s, 1, name, 64, out, opt);
    }
    static Status put(HashTable &d, Key k, const Value &v)
    {
        return d.put(k, v);
    }
    static Status get(HashTable &d, Key k, Value *v) { return d.get(k, v); }
    static Status putMany(HashTable &d,
                          std::span<const std::pair<Key, Value>> kvs,
                          Status *r)
    {
        return d.putMany(kvs, r);
    }
    static Status getMany(HashTable &d, std::span<const Key> keys, Value *v,
                          Status *r)
    {
        return d.getMany(keys, v, r);
    }
};

template <typename DS>
class UnlockedSharedManyTest : public ::testing::Test
{};
using KeyedStructures = ::testing::Types<BpTree, HashTable, SkipList, MvBpTree>;
TYPED_TEST_SUITE(UnlockedSharedManyTest, KeyedStructures);

TYPED_TEST(UnlockedSharedManyTest, ManyCallsMatchSingleOpCalls)
{
    using DS = TypeParam;
    using Ops = KeyedOps<DS>;
    auto be = std::make_unique<BackendNode>(1, testConfig());
    FrontendSession owner(SessionConfig::rc(41, 256 << 10));
    SessionConfig cfg = SessionConfig::rc(42, 256 << 10);
    cfg.pipeline_depth = 8;
    FrontendSession second(cfg);
    ASSERT_EQ(owner.connect(be.get()), Status::Ok);
    ASSERT_EQ(second.connect(be.get()), Status::Ok);
    DsOptions opt;
    opt.shared = true;
    // Two equal structures: "many" takes the *Many calls, "one" the
    // single-op calls. The owner's handles live as long as its session,
    // whose flush hooks point at them.
    DS made[2];
    const char *names[2] = {"many", "one"};
    for (int i = 0; i < 2; ++i) {
        ASSERT_EQ(Ops::create(owner, names[i], &made[i], opt), Status::Ok);
        for (Key k = 2; k <= 40; k += 2)
            ASSERT_EQ(Ops::put(made[i], k, Value::ofU64(k)), Status::Ok);
    }
    ASSERT_EQ(owner.flushAll(), Status::Ok); // releases the writer locks
    DS many, one;
    ASSERT_EQ(DS::open(second, 1, "many", &many, opt), Status::Ok);
    ASSERT_EQ(DS::open(second, 1, "one", &one, opt), Status::Ok);
    const uint64_t runs = second.stats().pipeline.runs;

    // Overwrites, fresh keys and a repeated key.
    std::vector<std::pair<Key, Value>> kvs;
    for (const Key k : {4, 5, 40, 41, 5, 17})
        kvs.emplace_back(k, Value::ofU64(k * 3 + kvs.size()));
    std::vector<Status> ms(kvs.size()), os(kvs.size());
    ASSERT_EQ(Ops::putMany(many, kvs, ms.data()), Status::Ok);
    for (size_t i = 0; i < kvs.size(); ++i)
        os[i] = Ops::put(one, kvs[i].first, kvs[i].second);
    EXPECT_EQ(ms, os);
    ASSERT_EQ(second.flushAll(), Status::Ok);

    // Present, absent and twice-erased keys.
    const std::vector<Key> gone = {2, 3, 5, 17, 18, 41, 99, 5};
    ms.assign(gone.size(), Status::Ok);
    os.assign(gone.size(), Status::Ok);
    ASSERT_EQ(many.eraseMany(gone, ms.data()), Status::Ok);
    for (size_t i = 0; i < gone.size(); ++i)
        os[i] = one.erase(gone[i]);
    EXPECT_EQ(ms, os);
    EXPECT_EQ(std::count(os.begin(), os.end(), Status::NotFound), 3);
    ASSERT_EQ(second.flushAll(), Status::Ok);
    EXPECT_EQ(second.stats().pipeline.runs, runs)
        << "an unlocked shared writer opened a window";

    std::vector<Key> keys;
    for (Key k = 1; k <= 42; ++k)
        keys.push_back(k);
    std::vector<Value> mv(keys.size()), ov(keys.size());
    ms.assign(keys.size(), Status::Ok);
    os.assign(keys.size(), Status::Ok);
    ASSERT_EQ(Ops::getMany(many, keys, mv.data(), ms.data()), Status::Ok);
    for (size_t i = 0; i < keys.size(); ++i) {
        os[i] = Ops::get(one, keys[i], &ov[i]);
        if (ok(os[i])) {
            EXPECT_EQ(mv[i].asU64(), ov[i].asU64()) << "key " << keys[i];
        }
    }
    EXPECT_EQ(ms, os);
    // MV readers walk a snapshot and always pipeline, which also shows
    // the counter above is live.
    if constexpr (std::is_same_v<DS, MvBpTree>)
        EXPECT_GT(second.stats().pipeline.runs, runs);
    else
        EXPECT_EQ(second.stats().pipeline.runs, runs);
}

TEST(PipelineTest, SharedHandleFallsBackToSerialProtocol)
{
    auto be = std::make_unique<BackendNode>(1, testConfig());
    FrontendSession writer(SessionConfig::rc(21, 256 << 10));
    SessionConfig rcfg = SessionConfig::rc(22, 256 << 10);
    rcfg.pipeline_depth = 8;
    FrontendSession reader(rcfg);
    ASSERT_EQ(writer.connect(be.get()), Status::Ok);
    ASSERT_EQ(reader.connect(be.get()), Status::Ok);
    DsOptions opt;
    opt.shared = true;
    BpTree wds;
    ASSERT_EQ(BpTree::create(writer, 1, "t", &wds, opt), Status::Ok);
    Value v{};
    for (uint64_t k = 1; k <= 200; ++k)
        ASSERT_EQ(wds.insert(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(writer.flushAll(), Status::Ok);

    BpTree rds;
    ASSERT_EQ(BpTree::open(reader, 1, "t", &rds, opt), Status::Ok);
    reader.resetStats();
    std::vector<Key> keys = {3, 50, 199, 250};
    std::vector<Value> vals(keys.size());
    std::vector<Status> sts(keys.size());
    ASSERT_EQ(rds.findMany(keys, vals.data(), sts.data()), Status::Ok);
    EXPECT_EQ(sts[0], Status::Ok);
    EXPECT_EQ(vals[0].asU64(), 3u);
    EXPECT_EQ(sts[3], Status::NotFound);
    // Seqlock-protected reads never pipeline: the session-global read
    // tracking would be trampled by interleaved coroutines.
    EXPECT_EQ(reader.stats().pipeline.runs, 0u);
    EXPECT_EQ(reader.stats().pipeline.ops, 0u);
}

// ---------------------------------------------------------------------
// Write pipelining (DESIGN.md §14): a depth-1 window must cost exactly
// what the same ops called one by one cost — same virtual clock, same
// per-field verb counters, no reactor involvement.
// ---------------------------------------------------------------------

/** Compare clock delta and cumulative verb counters of two rigs. */
void
expectRigsIdentical(PipeRig &piped, PipeRig &serial, uint64_t piped_ns,
                    uint64_t serial_ns, const char *tag)
{
    EXPECT_EQ(piped_ns, serial_ns) << tag;
    const VerbCounters a = piped.s->verbs().counters();
    const VerbCounters b = serial.s->verbs().counters();
    EXPECT_EQ(a.reads, b.reads) << tag;
    EXPECT_EQ(a.writes, b.writes) << tag;
    EXPECT_EQ(a.posted, b.posted) << tag;
    EXPECT_EQ(a.read_gathers, b.read_gathers) << tag;
    EXPECT_EQ(a.doorbells, b.doorbells) << tag;
    EXPECT_EQ(a.atomics, b.atomics) << tag;
    EXPECT_EQ(a.read_bytes, b.read_bytes) << tag;
    EXPECT_EQ(a.write_bytes, b.write_bytes) << tag;
    EXPECT_EQ(a.wqes, b.wqes) << tag;
    EXPECT_EQ(piped.s->verbs().verbsIssued(),
              serial.s->verbs().verbsIssued())
        << tag;
    EXPECT_EQ(piped.s->verbs().counters().totalBytes(),
              serial.s->verbs().counters().totalBytes())
        << tag;
}

TEST(PipelineTest, DepthOneWritePipelineBitIdenticalToSerial)
{
    constexpr uint64_t kKeys = 800;
    PipeRig piped(30, /*depth=*/1);
    PipeRig serial(31, /*depth=*/1);
    BpTree dp, ds;
    ASSERT_EQ(BpTree::create(*piped.s, 1, "t", &dp), Status::Ok);
    ASSERT_EQ(BpTree::create(*serial.s, 1, "t", &ds), Status::Ok);
    preload(dp, kKeys);
    preload(ds, kKeys);

    // Mixed batch: updates of cold existing keys plus fresh inserts,
    // split-triggering runs included.
    std::vector<std::pair<Key, Value>> kvs;
    Rng rng(5);
    for (uint64_t i = 0; i < 24; ++i) {
        const Key k = 1 + rng.nextBounded(2 * kKeys);
        kvs.emplace_back(k, Value::ofU64(k * 13));
    }
    std::vector<Status> psts(kvs.size()), ssts(kvs.size());
    uint64_t p0 = piped.s->clock().now();
    ASSERT_EQ(dp.insertMany(kvs, psts.data()), Status::Ok);
    const uint64_t piped_ins = piped.s->clock().now() - p0;
    uint64_t s0 = serial.s->clock().now();
    for (size_t i = 0; i < kvs.size(); ++i)
        ssts[i] = ds.insert(kvs[i].first, kvs[i].second);
    const uint64_t serial_ins = serial.s->clock().now() - s0;
    for (size_t i = 0; i < kvs.size(); ++i)
        EXPECT_EQ(psts[i], ssts[i]) << "slot " << i;
    expectRigsIdentical(piped, serial, piped_ins, serial_ins, "insert");

    // Erase a present/absent mix through the same comparison.
    std::vector<Key> dead;
    for (uint64_t i = 0; i < 16; ++i)
        dead.push_back(1 + rng.nextBounded(3 * kKeys));
    p0 = piped.s->clock().now();
    ASSERT_EQ(dp.eraseMany(dead, psts.data()), Status::Ok);
    const uint64_t piped_del = piped.s->clock().now() - p0;
    s0 = serial.s->clock().now();
    for (size_t i = 0; i < dead.size(); ++i)
        ssts[i] = ds.erase(dead[i]);
    const uint64_t serial_del = serial.s->clock().now() - s0;
    for (size_t i = 0; i < dead.size(); ++i)
        EXPECT_EQ(psts[i], ssts[i]) << "slot " << i;
    expectRigsIdentical(piped, serial, piped_del, serial_del, "erase");

    // No reactor, no write-window machinery at depth 1.
    const PipelineStats p = piped.s->stats().pipeline;
    EXPECT_EQ(p.runs, 0u);
    EXPECT_EQ(p.rounds, 0u);
    EXPECT_EQ(p.deferred_commits, 0u);
    EXPECT_EQ(p.batched_appends, 0u);
    EXPECT_EQ(p.coalesced_fences, 0u);
    EXPECT_EQ(p.dep_stalls, 0u);
}

TEST(PipelineTest, DepthOneWritesBitIdenticalAcrossStructures)
{
    PipeRig piped(32, /*depth=*/1);
    PipeRig serial(33, /*depth=*/1);

    SkipList sp, ss;
    ASSERT_EQ(SkipList::create(*piped.s, 1, "sl", &sp), Status::Ok);
    ASSERT_EQ(SkipList::create(*serial.s, 1, "sl", &ss), Status::Ok);
    preload(sp, 300);
    preload(ss, 300);
    std::vector<std::pair<Key, Value>> kvs;
    Rng rng(9);
    for (uint64_t i = 0; i < 12; ++i) {
        const Key k = 1 + rng.nextBounded(600);
        kvs.emplace_back(k, Value::ofU64(k * 17));
    }
    std::vector<Status> psts(16), ssts(16);
    uint64_t p0 = piped.s->clock().now();
    ASSERT_EQ(sp.insertMany(kvs, psts.data()), Status::Ok);
    uint64_t s0 = serial.s->clock().now();
    for (size_t i = 0; i < kvs.size(); ++i)
        ssts[i] = ss.insert(kvs[i].first, kvs[i].second);
    expectRigsIdentical(piped, serial, piped.s->clock().now() - p0,
                        serial.s->clock().now() - s0, "skiplist insert");
    std::vector<Key> dead = {3, 299, 550, 1000};
    p0 = piped.s->clock().now();
    ASSERT_EQ(sp.eraseMany(dead, psts.data()), Status::Ok);
    s0 = serial.s->clock().now();
    for (size_t i = 0; i < dead.size(); ++i)
        ssts[i] = ss.erase(dead[i]);
    expectRigsIdentical(piped, serial, piped.s->clock().now() - p0,
                        serial.s->clock().now() - s0, "skiplist erase");

    HashTable hp, hs;
    ASSERT_EQ(HashTable::create(*piped.s, 1, "h", 64, &hp), Status::Ok);
    ASSERT_EQ(HashTable::create(*serial.s, 1, "h", 64, &hs), Status::Ok);
    for (uint64_t k = 1; k <= 200; ++k) {
        ASSERT_EQ(hp.put(k, Value::ofU64(k)), Status::Ok);
        ASSERT_EQ(hs.put(k, Value::ofU64(k)), Status::Ok);
    }
    ASSERT_EQ(piped.s->flushAll(), Status::Ok);
    ASSERT_EQ(serial.s->flushAll(), Status::Ok);
    piped.s->cache().clear();
    serial.s->cache().clear();
    p0 = piped.s->clock().now();
    ASSERT_EQ(hp.putMany(kvs, psts.data()), Status::Ok);
    s0 = serial.s->clock().now();
    for (size_t i = 0; i < kvs.size(); ++i)
        ssts[i] = hs.put(kvs[i].first, kvs[i].second);
    expectRigsIdentical(piped, serial, piped.s->clock().now() - p0,
                        serial.s->clock().now() - s0, "hash put");
    p0 = piped.s->clock().now();
    ASSERT_EQ(hp.eraseMany(dead, psts.data()), Status::Ok);
    s0 = serial.s->clock().now();
    for (size_t i = 0; i < dead.size(); ++i)
        ssts[i] = hs.erase(dead[i]);
    expectRigsIdentical(piped, serial, piped.s->clock().now() - p0,
                        serial.s->clock().now() - s0, "hash erase");

    MvBpTree mp, ms;
    ASSERT_EQ(MvBpTree::create(*piped.s, 1, "mv", &mp), Status::Ok);
    ASSERT_EQ(MvBpTree::create(*serial.s, 1, "mv", &ms), Status::Ok);
    preload(mp, 300);
    preload(ms, 300);
    p0 = piped.s->clock().now();
    ASSERT_EQ(mp.insertMany(kvs, psts.data()), Status::Ok);
    s0 = serial.s->clock().now();
    for (size_t i = 0; i < kvs.size(); ++i)
        ssts[i] = ms.insert(kvs[i].first, kvs[i].second);
    expectRigsIdentical(piped, serial, piped.s->clock().now() - p0,
                        serial.s->clock().now() - s0, "mv insert");
    p0 = piped.s->clock().now();
    ASSERT_EQ(mp.eraseMany(dead, psts.data()), Status::Ok);
    s0 = serial.s->clock().now();
    for (size_t i = 0; i < dead.size(); ++i)
        ssts[i] = ms.erase(dead[i]);
    expectRigsIdentical(piped, serial, piped.s->clock().now() - p0,
                        serial.s->clock().now() - s0, "mv erase");
}

// ---------------------------------------------------------------------
// Read-your-writes inside one window (satellite 1): a read admitted
// after a same-key write must observe that write even when both parked
// on the same cold leaf in the same service round.
// ---------------------------------------------------------------------

TEST(PipelineTest, ReadYourWritesWithinPipelinedWindow)
{
    constexpr uint64_t kKeys = 2000;
    PipeRig rig(34, /*depth=*/8, 64 << 10);
    BpTree ds;
    ASSERT_EQ(BpTree::create(*rig.s, 1, "t", &ds), Status::Ok);
    preload(ds, kKeys);

    // Updates of cold existing keys and brand-new inserts, each chased
    // by a findAsync of the same key in the same window; plus erases
    // chased by a find that must miss.
    std::vector<Key> upd = {17, 911, 1500, 333};
    std::vector<Key> fresh = {kKeys + 5, kKeys + 60, kKeys + 7};
    std::vector<Key> gone = {250, 1999};
    std::vector<OpTask> ops;
    std::vector<Value> got(upd.size() + fresh.size());
    std::vector<Value> miss(gone.size());
    size_t slot = 0;
    for (const Key k : upd) {
        ops.push_back(ds.insertAsync(k, Value::ofU64(k * 1000 + 1)));
        ops.push_back(ds.findAsync(k, &got[slot++]));
    }
    for (const Key k : fresh) {
        ops.push_back(ds.insertAsync(k, Value::ofU64(k * 1000 + 2)));
        ops.push_back(ds.findAsync(k, &got[slot++]));
    }
    for (size_t i = 0; i < gone.size(); ++i) {
        ops.push_back(ds.eraseAsync(gone[i]));
        ops.push_back(ds.findAsync(gone[i], &miss[i]));
    }
    std::vector<Status> sts(ops.size());
    rig.s->executePipelined(ops, sts);

    size_t at = 0;
    for (const Key k : upd) {
        ASSERT_EQ(sts[2 * at], Status::Ok) << "write of key " << k;
        ASSERT_EQ(sts[2 * at + 1], Status::Ok) << "read of key " << k;
        EXPECT_EQ(got[at].asU64(), k * 1000 + 1)
            << "stale read-after-update of key " << k;
        ++at;
    }
    for (const Key k : fresh) {
        ASSERT_EQ(sts[2 * at], Status::Ok) << "write of key " << k;
        ASSERT_EQ(sts[2 * at + 1], Status::Ok) << "read of key " << k;
        EXPECT_EQ(got[at].asU64(), k * 1000 + 2)
            << "stale read-after-insert of key " << k;
        ++at;
    }
    for (size_t i = 0; i < gone.size(); ++i) {
        ASSERT_EQ(sts[2 * (at + i)], Status::Ok) << "erase " << gone[i];
        EXPECT_EQ(sts[2 * (at + i) + 1], Status::NotFound)
            << "read-after-erase of key " << gone[i] << " saw a ghost";
    }
    EXPECT_EQ(rig.s->stats().pipeline.runs, 1u);

    // The window's effects are the ones a serial replay would leave.
    Value v;
    for (const Key k : upd) {
        ASSERT_EQ(ds.find(k, &v), Status::Ok);
        EXPECT_EQ(v.asU64(), k * 1000 + 1);
    }
    for (const Key k : gone)
        EXPECT_EQ(ds.find(k, &v), Status::NotFound);
}

TEST(PipelineTest, FillAfterAWindowWriteDoesNotResurrectTheOldValue)
{
    PipeRig rig(36, /*depth=*/2);
    BpTree ds;
    ASSERT_EQ(BpTree::create(*rig.s, 1, "t", &ds), Status::Ok);
    preload(ds, 100);
    // Warm key 60's leaf, but not its value cell.
    Value v;
    ASSERT_EQ(ds.find(51, &v), Status::Ok);

    // The find parks on the value cell and its flight launches; the put
    // then writes the cell while that read is on the wire. The landing
    // must not cache the bytes the read fetched: once the flush empties
    // the overlay that hides them, they would be the cell's value.
    Value got;
    std::vector<OpTask> ops;
    ops.push_back(ds.findAsync(60, &got));
    ops.push_back(ds.insertAsync(60, Value::ofU64(5000)));
    std::vector<Status> sts(ops.size());
    rig.s->executePipelined(ops, sts);
    ASSERT_EQ(sts[0], Status::Ok);
    ASSERT_EQ(sts[1], Status::Ok);
    EXPECT_TRUE(got.asU64() == 60 * 31 || got.asU64() == 5000)
        << got.asU64();

    ASSERT_EQ(rig.s->flushAll(), Status::Ok);
    ASSERT_EQ(ds.find(60, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), 5000u) << "a stale fill outlived the overlay";
}

// ---------------------------------------------------------------------
// Window fence accounting (satellites 2 and 6): one deferred commit per
// drained window — never double-charged by the per-op serial fallback —
// with every op's append batched and every fence coalesced.
// ---------------------------------------------------------------------

TEST(PipelineTest, WriteWindowCoalescesFencesWithoutDoubleCharge)
{
    PipeRig rig(35, /*depth=*/4);
    BpTree ds;
    ASSERT_EQ(BpTree::create(*rig.s, 1, "t", &ds), Status::Ok);
    preload(ds, 300);

    std::vector<std::pair<Key, Value>> kvs;
    for (uint64_t i = 0; i < 12; ++i)
        kvs.emplace_back(900 + i, Value::ofU64(i));
    std::vector<Status> sts(kvs.size());
    ASSERT_EQ(ds.insertMany(kvs, sts.data()), Status::Ok);
    for (const Status st : sts)
        ASSERT_EQ(st, Status::Ok);
    const PipelineStats p = rig.s->stats().pipeline;
    // Exactly ONE group commit fenced the whole window at drain; the
    // twelve per-op fences were absorbed, twelve op-log appends rode
    // posted WQE chains instead of solo fenced writes.
    EXPECT_EQ(p.deferred_commits, 1u);
    EXPECT_EQ(p.coalesced_fences, kvs.size());
    EXPECT_EQ(p.batched_appends, kvs.size());
    EXPECT_EQ(rig.s->opsInBatch(), 0u) << "window left ops uncommitted";

    // The per-op serial fallback (depth 1) must not touch any window
    // counter — especially not deferred_commits, which would mean a
    // second commit charge on top of the op's own serial fence.
    PipeRig flat(36, /*depth=*/1);
    BpTree fds;
    ASSERT_EQ(BpTree::create(*flat.s, 1, "t", &fds), Status::Ok);
    preload(fds, 300);
    ASSERT_EQ(fds.insertMany(kvs, sts.data()), Status::Ok);
    const PipelineStats f = flat.s->stats().pipeline;
    EXPECT_EQ(f.deferred_commits, 0u);
    EXPECT_EQ(f.coalesced_fences, 0u);
    EXPECT_EQ(f.batched_appends, 0u);
    EXPECT_EQ(f.runs, 0u);
    EXPECT_EQ(flat.s->opsInBatch(), 0u);
}

// ---------------------------------------------------------------------
// Mixed read/write windows (satellite 3): shuffled inserts, erases and
// finds over disjoint key sets complete out of order into the right
// slots, and the drained image equals a serial replay's.
// ---------------------------------------------------------------------

TEST(PipelineTest, MixedReadWriteWindowOutOfOrderSlots)
{
    constexpr uint64_t kKeys = 3000;
    PipeRig rig(37, /*depth=*/8, 64 << 10);
    BpTree ds;
    ASSERT_EQ(BpTree::create(*rig.s, 1, "t", &ds), Status::Ok);
    preload(ds, kKeys);

    enum class K
    {
        Ins,
        Del,
        Get
    };
    struct Slot
    {
        K kind;
        Key key;
    };
    std::vector<Slot> plan;
    Rng rng(77);
    for (uint64_t i = 0; i < 48; ++i) {
        switch (i % 3) {
          case 0: // fresh insert
            plan.push_back({K::Ins, kKeys + 1 + i});
            break;
          case 1: // erase an existing key (disjoint from the gets)
            plan.push_back({K::Del, 1 + 2 * (i / 3)});
            break;
          default: // read an untouched existing key
            plan.push_back({K::Get, 100 + 2 * (i / 3) + 1});
            break;
        }
    }
    std::shuffle(plan.begin(), plan.end(),
                 std::mt19937_64(rng.next()));
    std::vector<OpTask> ops;
    std::vector<Value> vals(plan.size());
    for (size_t i = 0; i < plan.size(); ++i) {
        switch (plan[i].kind) {
          case K::Ins:
            ops.push_back(
                ds.insertAsync(plan[i].key, Value::ofU64(plan[i].key * 7)));
            break;
          case K::Del:
            ops.push_back(ds.eraseAsync(plan[i].key));
            break;
          case K::Get:
            ops.push_back(ds.findAsync(plan[i].key, &vals[i]));
            break;
        }
    }
    std::vector<Status> sts(ops.size());
    rig.s->executePipelined(ops, sts);
    for (size_t i = 0; i < plan.size(); ++i) {
        ASSERT_EQ(sts[i], Status::Ok)
            << "slot " << i << " key " << plan[i].key;
        if (plan[i].kind == K::Get) {
            EXPECT_EQ(vals[i].asU64(), plan[i].key * 31)
                << "slot " << i;
        }
    }
    const SessionStats st = rig.s->stats();
    EXPECT_EQ(st.pipeline.ops, plan.size());
    EXPECT_GT(st.pipeline.max_in_flight, 1u);
    EXPECT_GT(rig.be->nic().multiOpBatches(), 0u);

    // Post-drain audit: the image equals a serial replay of the plan.
    Value v;
    for (const Slot &sl : plan) {
        switch (sl.kind) {
          case K::Ins:
            ASSERT_EQ(ds.find(sl.key, &v), Status::Ok) << sl.key;
            EXPECT_EQ(v.asU64(), sl.key * 7);
            break;
          case K::Del:
            EXPECT_EQ(ds.find(sl.key, &v), Status::NotFound) << sl.key;
            break;
          case K::Get:
            break;
        }
    }
}

// ---------------------------------------------------------------------
// Heterogeneous windows: one executePipelined batch spanning four
// structures; per-structure gates never serialize across structures.
// ---------------------------------------------------------------------

TEST(PipelineTest, HeterogeneousStructuresShareOneWindow)
{
    PipeRig rig(38, /*depth=*/8);
    BpTree bt;
    Stack stk;
    Queue q;
    HashTable ht;
    ASSERT_EQ(BpTree::create(*rig.s, 1, "bt", &bt), Status::Ok);
    ASSERT_EQ(Stack::create(*rig.s, 1, "st", &stk), Status::Ok);
    ASSERT_EQ(Queue::create(*rig.s, 1, "q", &q), Status::Ok);
    ASSERT_EQ(HashTable::create(*rig.s, 1, "ht", 64, &ht), Status::Ok);
    preload(bt, 500);
    Value v{};
    for (uint64_t k = 1; k <= 200; ++k)
        ASSERT_EQ(ht.put(k, Value::ofU64(k + 7)), Status::Ok);
    ASSERT_EQ(rig.s->flushAll(), Status::Ok);
    rig.s->cache().clear();
    rig.s->resetStats();

    Value sv{}, qv{}, bv{}, hv{};
    std::vector<OpTask> ops;
    ops.push_back(stk.pushAsync(Value::ofU64(111)));
    ops.push_back(q.enqueueAsync(Value::ofU64(222)));
    ops.push_back(bt.insertAsync(600, Value::ofU64(600 * 9)));
    ops.push_back(ht.putAsync(300, Value::ofU64(300 + 7)));
    ops.push_back(bt.findAsync(42, &bv));
    ops.push_back(ht.getAsync(150, &hv));
    ops.push_back(stk.popAsync(&sv));
    ops.push_back(q.dequeueAsync(&qv));
    std::vector<Status> sts(ops.size());
    rig.s->executePipelined(ops, sts);
    for (size_t i = 0; i < sts.size(); ++i)
        ASSERT_EQ(sts[i], Status::Ok) << "slot " << i;
    EXPECT_EQ(sv.asU64(), 111u) << "stack pop missed its window push";
    EXPECT_EQ(qv.asU64(), 222u) << "queue dequeue missed its enqueue";
    EXPECT_EQ(bv.asU64(), 42u * 31);
    EXPECT_EQ(hv.asU64(), 150u + 7);
    EXPECT_EQ(rig.s->stats().pipeline.ops, ops.size());
    EXPECT_EQ(rig.s->stats().pipeline.runs, 1u);

    // Drained state: the tree and table kept the window's writes, the
    // stack and queue are back to empty (push/pop annulled).
    ASSERT_EQ(bt.find(600, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), 600u * 9);
    ASSERT_EQ(ht.get(300, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), 300u + 7);
    EXPECT_EQ(stk.size(), 0u);
    EXPECT_EQ(q.size(), 0u);
}

// ---------------------------------------------------------------------
// The write-side perf claim: eight dependent pop chains (the Stack RCB
// bench cell) run >= 1.3x faster at depth 8 than depth 1, with fewer
// doorbells — the windows turn eight serial head-read RTTs into one
// gather round each.
// ---------------------------------------------------------------------

TEST(PipelineTest, DepthEightOverlapsStackPopChains)
{
    constexpr size_t kStacks = 8;
    constexpr uint64_t kPer = 40; // pops per stack
    auto runAtDepth = [&](uint64_t id, uint32_t depth, uint64_t *ns,
                          uint64_t *doorbells) {
        PipeRig rig(id, depth, 64 << 10);
        std::vector<Stack> stacks(kStacks);
        char name[16];
        for (size_t i = 0; i < kStacks; ++i) {
            std::snprintf(name, sizeof name, "s%zu", i);
            ASSERT_EQ(Stack::create(*rig.s, 1, name, &stacks[i]),
                      Status::Ok);
            for (uint64_t j = 0; j < kPer; ++j)
                ASSERT_EQ(stacks[i].push(Value::ofU64(j)), Status::Ok);
        }
        ASSERT_EQ(rig.s->flushAll(), Status::Ok);
        rig.s->cache().clear();
        rig.s->resetStats();
        std::vector<Value> outs(kStacks);
        std::vector<Status> sts(kStacks);
        const uint64_t t0 = rig.s->clock().now();
        for (uint64_t round = 0; round < kPer; ++round) {
            std::vector<OpTask> ops;
            ops.reserve(kStacks);
            for (size_t i = 0; i < kStacks; ++i)
                ops.push_back(stacks[i].popAsync(&outs[i]));
            rig.s->executePipelined(ops, sts);
            for (size_t i = 0; i < kStacks; ++i) {
                ASSERT_EQ(sts[i], Status::Ok)
                    << "round " << round << " stack " << i;
                EXPECT_EQ(outs[i].asU64(), kPer - 1 - round)
                    << "round " << round << " stack " << i;
            }
        }
        *ns = rig.s->clock().now() - t0;
        *doorbells = rig.s->verbs().counters().doorbells;
    };
    uint64_t deep_ns = 0, deep_db = 0, flat_ns = 0, flat_db = 0;
    runAtDepth(40, /*depth=*/8, &deep_ns, &deep_db);
    runAtDepth(41, /*depth=*/1, &flat_ns, &flat_db);
    EXPECT_GE(static_cast<double>(flat_ns), 1.3 *
              static_cast<double>(deep_ns))
        << "depth-8 " << deep_ns << " ns vs depth-1 " << flat_ns
        << " ns";
    EXPECT_LT(deep_db, flat_db)
        << "pipelined windows should batch doorbells";
}

// ---------------------------------------------------------------------
// One implementation per operation (DESIGN.md §15): serial entry points
// run the coroutine inline. Inline ops must finish without suspending
// even while a reactor owns the session, and vector insertion must keep
// the descent's reads in the batch-local pin set.
// ---------------------------------------------------------------------

/** A window op that calls a serial insert() mid-body, the way recovery
 *  replay re-executes ops while a window is in flight. */
OpTask
yieldThenInsert(FrontendSession &s, BpTree &dst, Key k)
{
    co_await s.pipelineYield(); // suspends: the reactor owns the session
    EXPECT_TRUE(s.pipelineActive());
    co_return dst.insert(k, Value::ofU64(k * 3));
}

TEST(PipelineTest, InlineOpsCompleteInsideAnActiveWindow)
{
    PipeRig rig(50, /*depth=*/8);
    BpTree src, dst;
    ASSERT_EQ(BpTree::create(*rig.s, 1, "src", &src), Status::Ok);
    ASSERT_EQ(BpTree::create(*rig.s, 1, "dst", &dst), Status::Ok);
    preload(src, 1500);
    preload(dst, 1500); // cold cache: the nested inserts read remotely

    // Cold lookups park reads with the reactor while the nested inserts
    // run; the inserts' own reads must not join those rounds.
    std::vector<OpTask> ops;
    std::vector<Value> vals(16);
    for (uint64_t i = 0; i < 16; ++i) {
        if (i % 2 == 0)
            ops.push_back(src.findAsync(1 + i * 90, &vals[i]));
        else
            ops.push_back(yieldThenInsert(*rig.s, dst, 2000 + i));
    }
    std::vector<Status> sts(ops.size());
    rig.s->executePipelined(ops, sts);
    EXPECT_EQ(rig.s->stats().pipeline.runs, 1u);
    for (uint64_t i = 0; i < 16; ++i) {
        ASSERT_EQ(sts[i], Status::Ok) << "slot " << i;
        if (i % 2 == 0) {
            EXPECT_EQ(vals[i].asU64(), (1 + i * 90) * 31) << "slot " << i;
        }
    }
    for (uint64_t i = 1; i < 16; i += 2) {
        Value v;
        ASSERT_EQ(dst.find(2000 + i, &v), Status::Ok) << "key " << 2000 + i;
        EXPECT_EQ(v.asU64(), (2000 + i) * 3);
    }
}

/** Remote reads of vector vs one-by-one insertion of the same sorted
 *  keys into two identical trees, with the DRAM cache off so batch-local
 *  pins are the only tier that can serve a shared path node. */
template <typename DS>
void
expectVectorInsertUsesPins(uint64_t id)
{
    SessionConfig cfg = SessionConfig::rcb(id, 256 << 10, 1024);
    cfg.use_cache = false;
    BackendNode be_vec(1, testConfig()), be_one(1, testConfig());
    FrontendSession s_vec(cfg), s_one(cfg);
    ASSERT_EQ(s_vec.connect(&be_vec), Status::Ok);
    ASSERT_EQ(s_one.connect(&be_one), Status::Ok);
    DS dv, d1;
    ASSERT_EQ(DS::create(s_vec, 1, "t", &dv), Status::Ok);
    ASSERT_EQ(DS::create(s_one, 1, "t", &d1), Status::Ok);
    preload(dv, 1000);
    preload(d1, 1000);

    std::vector<std::pair<Key, Value>> batch;
    for (uint64_t k = 0; k < 64; ++k)
        batch.emplace_back(2001 + 2 * k, Value::ofU64(k));
    ASSERT_EQ(dv.insertBatch(batch), Status::Ok);
    for (const auto &[key, value] : batch)
        ASSERT_EQ(d1.insert(key, value), Status::Ok);
    const uint64_t vec_reads = s_vec.verbs().counters().reads;
    const uint64_t one_reads = s_one.verbs().counters().reads;
    EXPECT_LT(vec_reads, one_reads)
        << typeid(DS).name() << ": pinned path nodes should be read once";
    for (const auto &[key, value] : batch) {
        Value v;
        ASSERT_EQ(dv.find(key, &v), Status::Ok) << "key " << key;
        EXPECT_EQ(v.asU64(), value.asU64());
    }
}

TEST(PipelineTest, VectorInsertServesSharedPathFromPins)
{
    // MvBpTree is left out: every insert writes a fresh copy of its
    // whole path, so the overlay already serves the next descent.
    expectVectorInsertUsesPins<BpTree>(51);
    expectVectorInsertUsesPins<SkipList>(52);
}

} // namespace
} // namespace asymnvm
