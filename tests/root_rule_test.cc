/**
 * @file
 * The root rule of the in-place trees (DsBase::ownsRoot): a handle no
 * other session can write under — unshared, or shared while its session
 * holds the writer lock — holds the naming entry's root word and reads
 * it for free; a shared reader without the lock reads the field on every
 * op, under its seqlock. A pipelined write's root stamp still orders a
 * sibling's root growth.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "backend/layout.h"
#include "ds/bptree.h"
#include "ds/bst.h"
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

/** Reads the session served, from its local tiers or remotely. */
uint64_t
readsServed(FrontendSession &s)
{
    return s.readLocalHistogram().count() + s.readRemoteHistogram().count();
}

/** The root word as NVM holds it (one verb, outside any handle). */
uint64_t
rootWord(FrontendSession &s, DsId ds)
{
    uint64_t raw = 0;
    EXPECT_EQ(s.readNamingWord(ds, 1, naming_field::kRoot, &raw),
              Status::Ok);
    return raw;
}

/** Nodes on the B+tree path to @p key, walked outside the handle. */
uint64_t
bpPathNodes(FrontendSession &s, DsId ds, Key key)
{
    uint64_t raw = rootWord(s, ds);
    uint64_t n = 0;
    while (raw != 0) {
        BpNode node;
        EXPECT_EQ(s.read(RemotePtr::fromRaw(raw), &node, sizeof(node)),
                  Status::Ok);
        ++n;
        if (node.is_leaf)
            break;
        raw = node.children[node.routeIndex(key)];
    }
    return n;
}

/** Nodes on the BST path to @p key, walked outside the handle. */
uint64_t
bstPathNodes(FrontendSession &s, DsId ds, Key key)
{
    uint64_t raw = rootWord(s, ds);
    uint64_t n = 0;
    while (raw != 0) {
        BstNode node;
        EXPECT_EQ(s.read(RemotePtr::fromRaw(raw), &node, sizeof(node)),
                  Status::Ok);
        ++n;
        if (node.key == key)
            break;
        raw = key < node.key ? node.left_raw : node.right_raw;
    }
    return n;
}

/** A scattered key order, so the BST stays shallow. */
Key
scattered(uint64_t i)
{
    return (i * 2654435761u) % 100003;
}

SessionConfig
coldReadConfig(uint64_t id)
{
    SessionConfig cfg = SessionConfig::rc(id, 16 << 20);
    cfg.read_prefetch = false; // demanded reads only: exact verb counts
    return cfg;
}

/**
 * Cold find on an unshared handle: the reads are the path's nodes (and
 * the B+tree's value cell), each one remote verb; none of them is the
 * 8-byte root field. Warm, every read is a cache hit, and the clock
 * pays exactly one probe + DRAM copy per read — none for the root.
 */
template <typename Ds>
void
expectNoRootRead(Ds &ds, FrontendSession &s, Key key, uint64_t reads,
                 uint64_t read_bytes)
{
    s.cache().clear();
    s.resetStats();
    uint64_t t0 = s.clock().now();
    Value v;
    ASSERT_EQ(ds.find(key, &v), Status::Ok);
    const uint64_t cold_ns = s.clock().now() - t0;
    const VerbCounters vc = s.stats().verbs;
    EXPECT_EQ(readsServed(s), reads);
    EXPECT_EQ(vc.reads, reads);
    EXPECT_EQ(vc.read_bytes, read_bytes);
    EXPECT_EQ(vc.writes, 0u);
    EXPECT_EQ(vc.posted, 0u);
    EXPECT_EQ(vc.atomics, 0u);
    EXPECT_EQ(vc.atomic_bytes, 0u);
    EXPECT_EQ(vc.read_gathers, 0u);
    EXPECT_EQ(vc.doorbells, reads) << "one doorbell per read";

    s.resetStats();
    t0 = s.clock().now();
    ASSERT_EQ(ds.find(key, &v), Status::Ok);
    const uint64_t warm_ns = s.clock().now() - t0;
    EXPECT_EQ(s.stats().verbs.totalVerbs(), 0u) << "warm: all hits";
    EXPECT_EQ(readsServed(s), reads);
    const LatencyModel &lat = s.latency();
    EXPECT_EQ(warm_ns, reads * (lat.cache_probe_ns + lat.dram_access_ns));
    EXPECT_LT(warm_ns, cold_ns);
}

TEST(RootRuleTest, UnsharedBpTreeFindReadsNoRootField)
{
    BackendNode be(1, testConfig());
    FrontendSession s(coldReadConfig(1));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    BpTree t;
    ASSERT_EQ(BpTree::create(s, 1, "t", &t), Status::Ok);
    for (uint64_t k = 1; k <= 2000; ++k)
        ASSERT_EQ(t.insert(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(s.flushAll(), Status::Ok);
    const Key key = 1234;
    const uint64_t nodes = bpPathNodes(s, t.id(), key);
    ASSERT_GE(nodes, 3u) << "root, internal level(s), leaf";
    expectNoRootRead(t, s, key, nodes + 1,
                     nodes * sizeof(BpNode) + Value::kSize);
}

TEST(RootRuleTest, UnsharedBstFindReadsNoRootField)
{
    BackendNode be(1, testConfig());
    FrontendSession s(coldReadConfig(1));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    Bst t;
    ASSERT_EQ(Bst::create(s, 1, "t", &t), Status::Ok);
    for (uint64_t i = 1; i <= 500; ++i)
        ASSERT_EQ(t.insert(scattered(i), Value::ofU64(i)), Status::Ok);
    ASSERT_EQ(s.flushAll(), Status::Ok);
    const Key key = scattered(400);
    const uint64_t nodes = bstPathNodes(s, t.id(), key);
    ASSERT_GE(nodes, 4u);
    expectNoRootRead(t, s, key, nodes, nodes * sizeof(BstNode));
}

/**
 * Shared handles: the writer (lock held) reads its held root, and a
 * reader without the lock reads the field on every op — so a root
 * another session moved is visible to it on its next find.
 */
class SharedRootTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        be = std::make_unique<BackendNode>(1, testConfig());
        w = std::make_unique<FrontendSession>(SessionConfig::rc(1, 1 << 20));
        // Batched, so the reader keeps the writer lock it takes until
        // its next flush.
        r = std::make_unique<FrontendSession>(
            SessionConfig::rcb(2, 1 << 20, 16));
        ASSERT_EQ(w->connect(be.get()), Status::Ok);
        ASSERT_EQ(r->connect(be.get()), Status::Ok);
    }

    /** The reader's find of @p key: status, and reads it served. */
    template <typename Ds>
    std::pair<Status, uint64_t> readerFind(Ds &ds, Key key)
    {
        r->resetStats();
        Value v;
        const Status st = ds.find(key, &v);
        if (ok(st))
            EXPECT_EQ(v.asU64(), key * 3) << "key " << key;
        return {st, readsServed(*r)};
    }

    DsOptions shared()
    {
        DsOptions opt;
        opt.shared = true;
        return opt;
    }

    std::unique_ptr<BackendNode> be;
    std::unique_ptr<FrontendSession> w, r;
};

TEST_F(SharedRootTest, LockFreeBpTreeReaderSeesAnotherSessionsRootSplit)
{
    BpTree wt, rt;
    ASSERT_EQ(BpTree::create(*w, 1, "t", &wt, shared()), Status::Ok);
    for (uint64_t k = 1; k <= BpNode::kFanout; ++k)
        ASSERT_EQ(wt.insert(k, Value::ofU64(k * 3)), Status::Ok);
    ASSERT_EQ(w->flushAll(), Status::Ok);
    ASSERT_EQ(BpTree::open(*r, 1, "t", &rt, shared()), Status::Ok);
    const uint64_t leaf_root = rootWord(*r, rt.id());

    // One leaf: the root field, the leaf, the value cell.
    auto [st, reads] = readerFind(rt, 5);
    ASSERT_EQ(st, Status::Ok);
    EXPECT_EQ(reads, 3u) << "a lock-free reader reads the root field";
    std::tie(st, reads) = readerFind(rt, 5);
    EXPECT_EQ(reads, 3u) << "on every op";

    // The writer's next key splits the root leaf and grows the root.
    const Key grown = BpNode::kFanout + 1;
    ASSERT_EQ(wt.insert(grown, Value::ofU64(grown * 3)), Status::Ok);
    ASSERT_EQ(w->flushAll(), Status::Ok);
    ASSERT_NE(rootWord(*r, rt.id()), leaf_root) << "the root grew";

    std::tie(st, reads) = readerFind(rt, grown);
    EXPECT_EQ(st, Status::Ok) << "the reader follows the new root";
    EXPECT_EQ(reads, 4u) << "root field, new root, right leaf, cell";
    for (Key k = 1; k <= grown; ++k)
        EXPECT_EQ(readerFind(rt, k).first, Status::Ok) << "key " << k;
    EXPECT_EQ(rt.size(), BpNode::kFanout) << "a reader's count is stale";

    // The reader turned writer refreshes its held root (lockForWrite).
    const Key next = grown + 1;
    ASSERT_EQ(rt.insert(next, Value::ofU64(next * 3)), Status::Ok);
    EXPECT_EQ(rt.size(), next);
    r->resetStats();
    Value v;
    ASSERT_EQ(rt.find(next, &v), Status::Ok);
    EXPECT_EQ(readsServed(*r), 3u) << "the lock holder reads no root field";
    ASSERT_EQ(r->flushAll(), Status::Ok);
    EXPECT_EQ(wt.find(next, &v), Status::Ok);
}

TEST_F(SharedRootTest, LockFreeBstReaderSeesAnotherSessionsNewRoot)
{
    Bst wt, rt;
    ASSERT_EQ(Bst::create(*w, 1, "t", &wt, shared()), Status::Ok);
    ASSERT_EQ(Bst::open(*r, 1, "t", &rt, shared()), Status::Ok);
    EXPECT_EQ(readerFind(rt, 7).first, Status::NotFound) << "empty";

    ASSERT_EQ(wt.insert(7, Value::ofU64(21)), Status::Ok);
    ASSERT_EQ(wt.insert(3, Value::ofU64(9)), Status::Ok);
    ASSERT_EQ(w->flushAll(), Status::Ok);
    auto [st, reads] = readerFind(rt, 3);
    EXPECT_EQ(st, Status::Ok) << "the reader sees the first root";
    EXPECT_EQ(reads, 3u) << "root field, root node, its left child";

    // Erasing the root key moves the root to its child.
    ASSERT_EQ(wt.erase(7), Status::Ok);
    ASSERT_EQ(w->flushAll(), Status::Ok);
    std::tie(st, reads) = readerFind(rt, 3);
    EXPECT_EQ(st, Status::Ok);
    EXPECT_EQ(reads, 2u) << "root field, the new root";
    EXPECT_EQ(readerFind(rt, 7).first, Status::NotFound);
}

/**
 * A depth-8 window of inserts into a full root leaf, cache cold: the
 * first op's write-out grows the root while its siblings are suspended
 * on their leaf reads. Their root stamps fail validation and they
 * re-descend from the new root, so the window ends with the contents
 * and count of the same inserts run one at a time.
 */
TEST(RootRuleTest, DepthEightWindowGrowingTheRootMatchesSerial)
{
    struct Run
    {
        std::map<Key, uint64_t> contents;
        uint64_t count = 0;
        uint64_t restarts = 0;
    };
    auto run = [](uint32_t depth) {
        Run out;
        BackendNode be(1, testConfig());
        SessionConfig cfg = SessionConfig::rc(1, 1 << 20);
        cfg.pipeline_depth = depth;
        FrontendSession s(cfg);
        EXPECT_EQ(s.connect(&be), Status::Ok);
        BpTree t;
        EXPECT_EQ(BpTree::create(s, 1, "t", &t), Status::Ok);
        for (uint64_t k = 1; k <= BpNode::kFanout; ++k)
            EXPECT_EQ(t.insert(k * 10, Value::ofU64(k)), Status::Ok);
        EXPECT_EQ(s.flushAll(), Status::Ok);
        s.cache().clear();
        s.resetStats();
        std::vector<std::pair<Key, Value>> kvs;
        for (uint64_t i = 0; i < 8; ++i) {
            const Key k = i % 2 == 0 ? 5 + i * 40 : 335 - i * 40;
            kvs.emplace_back(k, Value::ofU64(1000 + i));
        }
        Status results[8];
        EXPECT_EQ(t.insertMany(kvs, results), Status::Ok);
        for (const Status st : results)
            EXPECT_EQ(st, Status::Ok);
        EXPECT_EQ(s.flushAll(), Status::Ok);
        out.restarts = s.stats().pipeline.dep_stalls;
        out.count = t.size();
        std::vector<std::pair<Key, Value>> all;
        EXPECT_EQ(t.scan(0, 1000, &all), Status::Ok);
        for (const auto &[k, v] : all)
            out.contents[k] = v.asU64();
        // A fresh open reads the durable count and root.
        BpTree reopened;
        EXPECT_EQ(BpTree::open(s, 1, "t", &reopened), Status::Ok);
        EXPECT_EQ(reopened.size(), out.count);
        return out;
    };
    const Run serial = run(1);
    const Run window = run(8);
    EXPECT_EQ(serial.count, BpNode::kFanout + 8);
    EXPECT_EQ(window.count, serial.count);
    EXPECT_EQ(window.contents, serial.contents);
    EXPECT_EQ(window.contents.size(), serial.count);
    EXPECT_GT(window.restarts, 0u) << "siblings re-descended";
}

} // namespace
} // namespace asymnvm
