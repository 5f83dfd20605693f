/**
 * @file
 * Multi-writer handoff tests for the SWMR model: writers from different
 * front-end sessions take turns under the exclusive writer lock
 * (Section 6.1). The correctness hazards are (a) the second writer
 * seeing the first writer's data (its shadows/caches may be stale) and
 * (b) the first writer re-acquiring the lock after the second wrote —
 * the writer-generation word must invalidate its cache and make the
 * handle reload its shadows (element count, MV working root).
 */

#include <gtest/gtest.h>

#include <type_traits>

#include "backend/backend_node.h"
#include "ds/bptree.h"
#include "ds/bst.h"
#include "ds/hash_table.h"
#include "ds/mv_bptree.h"
#include "ds/mv_bst.h"
#include "ds/skiplist.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

BackendConfig
testConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 32ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 16;
    cfg.memlog_ring_size = 1ull << 20;
    cfg.oplog_ring_size = 1ull << 20;
    return cfg;
}

TEST(MultiWriterTest, AlternatingWritersSeeEachOthersData)
{
    BackendNode be(1, testConfig());
    DsOptions shared;
    shared.shared = true;

    FrontendSession sa(SessionConfig::rcb(1, 1 << 20, 8));
    FrontendSession sb(SessionConfig::rcb(2, 1 << 20, 8));
    ASSERT_EQ(sa.connect(&be), Status::Ok);
    ASSERT_EQ(sb.connect(&be), Status::Ok);

    HashTable a;
    ASSERT_EQ(HashTable::create(sa, 1, "turns", 64, &a, shared),
              Status::Ok);
    ASSERT_EQ(sa.flushAll(), Status::Ok);
    HashTable b;
    ASSERT_EQ(HashTable::open(sb, 1, "turns", &b, shared), Status::Ok);

    // Ten rounds of alternating ownership; each writer reads what the
    // other wrote in the previous round, then overwrites it.
    for (uint64_t round = 0; round < 10; ++round) {
        HashTable &writer = round % 2 == 0 ? a : b;
        FrontendSession &session = round % 2 == 0 ? sa : sb;
        if (round > 0) {
            Value v;
            ASSERT_EQ(writer.get(77, &v), Status::Ok);
            EXPECT_EQ(v.asU64(), round - 1)
                << "writer missed the previous owner's update";
        }
        ASSERT_EQ(writer.put(77, Value::ofU64(round)), Status::Ok);
        ASSERT_EQ(session.flushAll(), Status::Ok); // releases the lock
    }
}

TEST(MultiWriterTest, ExWriterReadsSuccessorWriterData)
{
    // A caches the item while it holds the writer lock, then releases
    // it; B changes the item. A's first read afterwards must not trust
    // what it cached as a writer.
    BackendNode be(1, testConfig());
    DsOptions shared;
    shared.shared = true;

    FrontendSession sa(SessionConfig::rcb(1, 1 << 20, 8));
    FrontendSession sb(SessionConfig::rcb(2, 1 << 20, 8));
    ASSERT_EQ(sa.connect(&be), Status::Ok);
    ASSERT_EQ(sb.connect(&be), Status::Ok);

    HashTable a;
    ASSERT_EQ(HashTable::create(sa, 1, "exw", 64, &a, shared), Status::Ok);
    ASSERT_EQ(sa.flushAll(), Status::Ok);
    HashTable b;
    ASSERT_EQ(HashTable::open(sb, 1, "exw", &b, shared), Status::Ok);

    ASSERT_EQ(a.put(77, Value::ofU64(1)), Status::Ok);
    ASSERT_EQ(sa.flushAll(), Status::Ok);
    ASSERT_EQ(a.put(77, Value::ofU64(2)), Status::Ok);
    ASSERT_EQ(sa.flushAll(), Status::Ok);

    ASSERT_EQ(b.put(77, Value::ofU64(3)), Status::Ok);
    ASSERT_EQ(sb.flushAll(), Status::Ok);

    Value v;
    ASSERT_EQ(a.get(77, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), 3u) << "ex-writer served its stale cached copy";
}

TEST(MultiWriterTest, StaleWriterCacheInvalidatedByGeneration)
{
    BackendNode be(1, testConfig());
    DsOptions shared;
    shared.shared = true;

    FrontendSession sa(SessionConfig::rcb(1, 1 << 20, 8));
    FrontendSession sb(SessionConfig::rcb(2, 1 << 20, 8));
    ASSERT_EQ(sa.connect(&be), Status::Ok);
    ASSERT_EQ(sb.connect(&be), Status::Ok);

    BpTree a;
    ASSERT_EQ(BpTree::create(sa, 1, "gen", &a, shared), Status::Ok);
    // A populates and warms its cache with the whole tree.
    for (uint64_t k = 1; k <= 200; ++k)
        ASSERT_EQ(a.insert(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(sa.flushAll(), Status::Ok);
    Value v;
    for (uint64_t k = 1; k <= 200; ++k)
        ASSERT_EQ(a.find(k, &v), Status::Ok);

    // B takes the lock and rewrites everything.
    BpTree b;
    ASSERT_EQ(BpTree::open(sb, 1, "gen", &b, shared), Status::Ok);
    for (uint64_t k = 1; k <= 200; ++k)
        ASSERT_EQ(b.insert(k, Value::ofU64(k + 5000)), Status::Ok);
    ASSERT_EQ(sb.flushAll(), Status::Ok);

    // A becomes the writer again: its warm cache is entirely stale, and
    // the writer-generation check on lock acquisition must flush it.
    ASSERT_EQ(a.insert(1000, Value::ofU64(1)), Status::Ok);
    for (uint64_t k = 1; k <= 200; ++k) {
        ASSERT_EQ(a.find(k, &v), Status::Ok);
        EXPECT_EQ(v.asU64(), k + 5000)
            << "writer A served stale cached data for key " << k;
    }
    ASSERT_EQ(sa.flushAll(), Status::Ok);
}

TEST(MultiWriterTest, CrashedWriterDoesNotBlockSuccessor)
{
    BackendNode be(1, testConfig());
    DsOptions shared;
    shared.shared = true;

    FrontendSession sa(SessionConfig::rcb(1, 1 << 20, 64));
    FrontendSession sb(SessionConfig::rcb(2, 1 << 20, 64));
    ASSERT_EQ(sa.connect(&be), Status::Ok);
    ASSERT_EQ(sb.connect(&be), Status::Ok);

    HashTable a;
    ASSERT_EQ(HashTable::create(sa, 1, "orphan", 64, &a, shared),
              Status::Ok);
    ASSERT_EQ(sa.flushAll(), Status::Ok);
    // A acquires the lock (mid-batch) and dies.
    ASSERT_EQ(a.put(1, Value::ofU64(1)), Status::Ok);
    EXPECT_NE(be.namingEntry(a.id()).writer_lock, 0u);
    sa.simulateCrash();
    // A's recovery (Case 2) releases the orphaned lock...
    HashTable re;
    ASSERT_EQ(HashTable::open(sa, 1, "orphan", &re, shared), Status::Ok);
    ASSERT_EQ(sa.recover(), Status::Ok);
    // ...and B can immediately take over.
    HashTable b;
    ASSERT_EQ(HashTable::open(sb, 1, "orphan", &b, shared), Status::Ok);
    ASSERT_EQ(b.put(2, Value::ofU64(2)), Status::Ok);
    ASSERT_EQ(sb.flushAll(), Status::Ok);
    Value v;
    ASSERT_EQ(b.get(1, &v), Status::Ok)
        << "A's recovered op must be visible to B";
    ASSERT_EQ(b.get(2, &v), Status::Ok);
}

// One spelling of create/upsert/lookup across the keyed structures.
template <typename DS>
Status
createDs(FrontendSession &s, std::string_view name, DS *out,
         const DsOptions &opt)
{
    if constexpr (std::is_same_v<DS, HashTable>)
        return HashTable::create(s, 1, name, 64, out, opt);
    else
        return DS::create(s, 1, name, out, opt);
}

template <typename DS>
Status
upsert(DS &ds, Key key, const Value &v)
{
    if constexpr (std::is_same_v<DS, HashTable>)
        return ds.put(key, v);
    else
        return ds.insert(key, v);
}

template <typename DS>
Status
lookup(DS &ds, Key key, Value *out)
{
    if constexpr (std::is_same_v<DS, HashTable>)
        return ds.get(key, out);
    else
        return ds.find(key, out);
}

template <typename DS>
class HandoffTest : public ::testing::Test
{};

using KeyedTypes =
    ::testing::Types<BpTree, HashTable, SkipList, Bst, MvBpTree, MvBst>;
TYPED_TEST_SUITE(HandoffTest, KeyedTypes);

/**
 * Two sessions take turns as the writer of one shared handle pair, one
 * new key per round; a third session that reopens the structure must
 * see every acknowledged key and the matching count. Each writer, on
 * taking the lock, must extend the successor's state (count, MV working
 * root) instead of its own stale shadow.
 */
TYPED_TEST(HandoffTest, AlternatingWritersKeepEveryKeyAndTheCount)
{
    BackendNode be(1, testConfig());
    DsOptions shared;
    shared.shared = true;
    FrontendSession sa(SessionConfig::rcb(1, 1 << 20, 8));
    FrontendSession sb(SessionConfig::rcb(2, 1 << 20, 8));
    ASSERT_EQ(sa.connect(&be), Status::Ok);
    ASSERT_EQ(sb.connect(&be), Status::Ok);

    TypeParam a;
    ASSERT_EQ(createDs(sa, "handoff", &a, shared), Status::Ok);
    ASSERT_EQ(sa.flushAll(), Status::Ok);
    TypeParam b;
    ASSERT_EQ(TypeParam::open(sb, 1, "handoff", &b, shared), Status::Ok);

    constexpr uint64_t kRounds = 10;
    for (uint64_t round = 0; round < kRounds; ++round) {
        TypeParam &writer = round % 2 == 0 ? a : b;
        FrontendSession &session = round % 2 == 0 ? sa : sb;
        if (round > 0) {
            Value v;
            EXPECT_EQ(lookup(writer, round, &v), Status::Ok)
                << "round " << round << " writer misses the previous key";
            EXPECT_EQ(v.asU64(), round * 100);
        }
        ASSERT_EQ(upsert(writer, round + 1, Value::ofU64((round + 1) * 100)),
                  Status::Ok);
        ASSERT_EQ(session.flushAll(), Status::Ok); // releases the lock
    }

    FrontendSession sc(SessionConfig::rcb(3, 1 << 20, 8));
    ASSERT_EQ(sc.connect(&be), Status::Ok);
    TypeParam c;
    ASSERT_EQ(TypeParam::open(sc, 1, "handoff", &c, shared), Status::Ok);
    EXPECT_EQ(c.size(), kRounds);
    for (uint64_t k = 1; k <= kRounds; ++k) {
        Value v;
        ASSERT_EQ(lookup(c, k, &v), Status::Ok) << "lost key " << k;
        EXPECT_EQ(v.asU64(), k * 100);
    }
}

template <typename DS>
class MvSwapTest : public ::testing::Test
{};

using MvTypes = ::testing::Types<MvBpTree, MvBst>;
TYPED_TEST_SUITE(MvSwapTest, MvTypes);

/**
 * Two unshared handles on two sessions write one MV tree, outside the
 * SWMR discipline: the later writer's root swap loses, and its flushAll
 * must report that (Conflict) instead of acknowledging a write that no
 * published version contains.
 */
TYPED_TEST(MvSwapTest, LostRootSwapFailsTheFlush)
{
    BackendNode be(1, testConfig());
    FrontendSession sa(SessionConfig::rcb(1, 1 << 20, 8));
    FrontendSession sb(SessionConfig::rcb(2, 1 << 20, 8));
    ASSERT_EQ(sa.connect(&be), Status::Ok);
    ASSERT_EQ(sb.connect(&be), Status::Ok);

    TypeParam a;
    ASSERT_EQ(TypeParam::create(sa, 1, "swap", &a), Status::Ok);
    ASSERT_EQ(a.insert(1, Value::ofU64(1)), Status::Ok);
    ASSERT_EQ(sa.flushAll(), Status::Ok);
    TypeParam b;
    ASSERT_EQ(TypeParam::open(sb, 1, "swap", &b), Status::Ok);

    ASSERT_EQ(a.insert(2, Value::ofU64(2)), Status::Ok);
    ASSERT_EQ(sa.flushAll(), Status::Ok);
    ASSERT_EQ(b.insert(3, Value::ofU64(3)), Status::Ok);
    EXPECT_EQ(sb.flushAll(), Status::Conflict);
}

} // namespace
} // namespace asymnvm
