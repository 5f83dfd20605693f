/**
 * @file
 * Correctness tests for Stack, Queue and HashTable across all system
 * modes (Naive, R, RC, RCB, Symmetric): functional behaviour, op-log
 * annulment, read-your-writes inside batches, persistence across
 * re-open, and randomized differential tests against STL models; plus
 * the open() type check of every structure.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>
#include <stack>
#include <type_traits>

#include "backend/backend_node.h"
#include "common/rand.h"
#include "ds/bptree.h"
#include "ds/bst.h"
#include "ds/hash_table.h"
#include "ds/mv_bptree.h"
#include "ds/mv_bst.h"
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
    cfg.nvm_size = 32ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 16;
    cfg.memlog_ring_size = 512ull << 10;
    cfg.oplog_ring_size = 512ull << 10;
    cfg.block_size = 1024;
    return cfg;
}

/** Test across the paper's system configurations. */
struct ModeParam
{
    const char *name;
    SessionConfig (*make)(uint64_t);
};

SessionConfig
makeNaive(uint64_t id)
{
    return SessionConfig::naive(id);
}
SessionConfig
makeR(uint64_t id)
{
    return SessionConfig::r(id);
}
SessionConfig
makeRc(uint64_t id)
{
    return SessionConfig::rc(id, 1 << 20);
}
SessionConfig
makeRcb(uint64_t id)
{
    return SessionConfig::rcb(id, 1 << 20, 32);
}
SessionConfig
makeSym(uint64_t id)
{
    return SessionConfig::symmetricBase(id, false);
}
SessionConfig
makeSymB(uint64_t id)
{
    return SessionConfig::symmetricBase(id, true);
}

class DsModeTest : public ::testing::TestWithParam<ModeParam>
{
  protected:
    DsModeTest() : be(1, testConfig()), session(GetParam().make(77))
    {
        EXPECT_EQ(session.connect(&be), Status::Ok);
    }

    BackendNode be;
    FrontendSession session;
};

TEST_P(DsModeTest, StackLifoSemantics)
{
    Stack stack;
    ASSERT_EQ(Stack::create(session, 1, "s", &stack), Status::Ok);
    for (uint64_t i = 0; i < 100; ++i)
        ASSERT_EQ(stack.push(Value::ofU64(i)), Status::Ok);
    EXPECT_EQ(stack.size(), 100u);
    for (uint64_t i = 100; i-- > 0;) {
        Value v;
        ASSERT_EQ(stack.pop(&v), Status::Ok);
        EXPECT_EQ(v.asU64(), i);
    }
    Value v;
    EXPECT_EQ(stack.pop(&v), Status::NotFound);
    EXPECT_EQ(stack.size(), 0u);
}

TEST_P(DsModeTest, QueueFifoSemantics)
{
    Queue q;
    ASSERT_EQ(Queue::create(session, 1, "q", &q), Status::Ok);
    for (uint64_t i = 0; i < 100; ++i)
        ASSERT_EQ(q.enqueue(Value::ofU64(i)), Status::Ok);
    EXPECT_EQ(q.size(), 100u);
    for (uint64_t i = 0; i < 100; ++i) {
        Value v;
        ASSERT_EQ(q.dequeue(&v), Status::Ok);
        EXPECT_EQ(v.asU64(), i) << "FIFO order broken at " << i;
    }
    Value v;
    EXPECT_EQ(q.dequeue(&v), Status::NotFound);
}

TEST_P(DsModeTest, QueueInterleavedFifoAcrossBatches)
{
    Queue q;
    ASSERT_EQ(Queue::create(session, 1, "q2", &q), Status::Ok);
    std::deque<uint64_t> model;
    Rng rng(11);
    uint64_t next = 0;
    for (int i = 0; i < 500; ++i) {
        if (rng.nextBool(0.6)) {
            ASSERT_EQ(q.enqueue(Value::ofU64(next)), Status::Ok);
            model.push_back(next++);
        } else {
            Value v;
            const Status st = q.dequeue(&v);
            if (model.empty()) {
                EXPECT_EQ(st, Status::NotFound);
            } else {
                ASSERT_EQ(st, Status::Ok);
                EXPECT_EQ(v.asU64(), model.front());
                model.pop_front();
            }
        }
        EXPECT_EQ(q.size(), model.size());
    }
}

TEST_P(DsModeTest, StackRandomizedAgainstModel)
{
    Stack stack;
    ASSERT_EQ(Stack::create(session, 1, "s2", &stack), Status::Ok);
    std::stack<uint64_t> model;
    Rng rng(13);
    for (int i = 0; i < 500; ++i) {
        if (rng.nextBool(0.55)) {
            const uint64_t k = rng.next();
            ASSERT_EQ(stack.push(Value::ofU64(k)), Status::Ok);
            model.push(k);
        } else {
            Value v;
            const Status st = stack.pop(&v);
            if (model.empty()) {
                EXPECT_EQ(st, Status::NotFound);
            } else {
                ASSERT_EQ(st, Status::Ok);
                EXPECT_EQ(v.asU64(), model.top());
                model.pop();
            }
        }
    }
}

TEST_P(DsModeTest, HashTablePutGetErase)
{
    HashTable ht;
    ASSERT_EQ(HashTable::create(session, 1, "h", 256, &ht), Status::Ok);
    for (uint64_t k = 1; k <= 200; ++k)
        ASSERT_EQ(ht.put(k, Value::ofU64(k * 7)), Status::Ok);
    EXPECT_EQ(ht.size(), 200u);
    for (uint64_t k = 1; k <= 200; ++k) {
        Value v;
        ASSERT_EQ(ht.get(k, &v), Status::Ok) << "key " << k;
        EXPECT_EQ(v.asU64(), k * 7);
    }
    Value v;
    EXPECT_EQ(ht.get(9999, &v), Status::NotFound);
    // Update in place.
    ASSERT_EQ(ht.put(5, Value::ofU64(555)), Status::Ok);
    ASSERT_EQ(ht.get(5, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), 555u);
    EXPECT_EQ(ht.size(), 200u);
    // Erase half.
    for (uint64_t k = 1; k <= 200; k += 2)
        ASSERT_EQ(ht.erase(k), Status::Ok);
    EXPECT_EQ(ht.size(), 100u);
    for (uint64_t k = 1; k <= 200; ++k)
        EXPECT_EQ(ht.contains(k), k % 2 == 0) << "key " << k;
    EXPECT_EQ(ht.erase(1), Status::NotFound);
}

TEST_P(DsModeTest, HashTableRandomizedAgainstModel)
{
    HashTable ht;
    ASSERT_EQ(HashTable::create(session, 1, "h2", 64, &ht), Status::Ok);
    std::map<uint64_t, uint64_t> model;
    Rng rng(17);
    for (int i = 0; i < 800; ++i) {
        const uint64_t key = rng.nextBounded(100);
        const double dice = rng.nextDouble();
        if (dice < 0.5) {
            const uint64_t val = rng.next();
            ASSERT_EQ(ht.put(key, Value::ofU64(val)), Status::Ok);
            model[key] = val;
        } else if (dice < 0.75) {
            const Status st = ht.erase(key);
            EXPECT_EQ(st, model.count(key) ? Status::Ok
                                           : Status::NotFound);
            model.erase(key);
        } else {
            Value v;
            const Status st = ht.get(key, &v);
            if (model.count(key)) {
                ASSERT_EQ(st, Status::Ok);
                EXPECT_EQ(v.asU64(), model[key]);
            } else {
                EXPECT_EQ(st, Status::NotFound);
            }
        }
    }
    EXPECT_EQ(ht.size(), model.size());
}

INSTANTIATE_TEST_SUITE_P(
    AllModes, DsModeTest,
    ::testing::Values(ModeParam{"Naive", makeNaive}, ModeParam{"R", makeR},
                      ModeParam{"RC", makeRc}, ModeParam{"RCB", makeRcb},
                      ModeParam{"Symmetric", makeSym},
                      ModeParam{"SymmetricB", makeSymB}),
    [](const auto &info) { return info.param.name; });

// ---------------------------------------------------------------------
// Annulment and persistence specifics (RCB-only behaviours)
// ---------------------------------------------------------------------

class DsBasicTest : public ::testing::Test
{
  protected:
    DsBasicTest() : be(1, testConfig()) {}
    BackendNode be;
};

TEST_F(DsBasicTest, StackAnnulmentAvoidsDataAreaTraffic)
{
    FrontendSession s(SessionConfig::rcb(1, 1 << 20, 1024));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    Stack stack;
    ASSERT_EQ(Stack::create(s, 1, "s", &stack), Status::Ok);
    const uint64_t entries_before = be.replayedEntries();

    // Push/pop pairs inside one batch annul each other completely.
    for (int i = 0; i < 100; ++i) {
        ASSERT_EQ(stack.push(Value::ofU64(i)), Status::Ok);
        Value v;
        ASSERT_EQ(stack.pop(&v), Status::Ok);
        EXPECT_EQ(v.asU64(), static_cast<uint64_t>(i));
    }
    ASSERT_EQ(s.flushAll(), Status::Ok);
    EXPECT_EQ(be.replayedEntries(), entries_before)
        << "annulled pairs must not generate memory logs";
}

TEST_F(DsBasicTest, QueueAnnulmentServesPendingInOrder)
{
    FrontendSession s(SessionConfig::rcb(1, 1 << 20, 1024));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    Queue q;
    ASSERT_EQ(Queue::create(s, 1, "q", &q), Status::Ok);
    ASSERT_EQ(q.enqueue(Value::ofU64(1)), Status::Ok);
    ASSERT_EQ(q.enqueue(Value::ofU64(2)), Status::Ok);
    Value v;
    ASSERT_EQ(q.dequeue(&v), Status::Ok);
    EXPECT_EQ(v.asU64(), 1u) << "annulment must preserve FIFO order";
}

TEST_F(DsBasicTest, StackSurvivesReopenFromAnotherSession)
{
    {
        FrontendSession s(SessionConfig::rcb(1, 1 << 20, 16));
        ASSERT_EQ(s.connect(&be), Status::Ok);
        Stack stack;
        ASSERT_EQ(Stack::create(s, 1, "persist", &stack), Status::Ok);
        for (uint64_t i = 0; i < 50; ++i)
            ASSERT_EQ(stack.push(Value::ofU64(i)), Status::Ok);
        ASSERT_EQ(s.flushAll(), Status::Ok);
        s.disconnect(&be);
    }
    FrontendSession s2(SessionConfig::rcb(2, 1 << 20, 16));
    ASSERT_EQ(s2.connect(&be), Status::Ok);
    Stack stack;
    ASSERT_EQ(Stack::open(s2, 1, "persist", &stack), Status::Ok);
    EXPECT_EQ(stack.size(), 50u);
    for (uint64_t i = 50; i-- > 0;) {
        Value v;
        ASSERT_EQ(stack.pop(&v), Status::Ok);
        EXPECT_EQ(v.asU64(), i);
    }
}

TEST_F(DsBasicTest, HashTableSurvivesReopen)
{
    {
        FrontendSession s(SessionConfig::rcb(1, 1 << 20, 16));
        ASSERT_EQ(s.connect(&be), Status::Ok);
        HashTable ht;
        ASSERT_EQ(HashTable::create(s, 1, "ht", 128, &ht), Status::Ok);
        for (uint64_t k = 0; k < 300; ++k)
            ASSERT_EQ(ht.put(k, Value::ofU64(k * k)), Status::Ok);
        ASSERT_EQ(s.flushAll(), Status::Ok);
        s.disconnect(&be);
    }
    FrontendSession s2(SessionConfig::rc(2, 1 << 20));
    ASSERT_EQ(s2.connect(&be), Status::Ok);
    HashTable ht;
    ASSERT_EQ(HashTable::open(s2, 1, "ht", &ht), Status::Ok);
    EXPECT_EQ(ht.size(), 300u);
    for (uint64_t k = 0; k < 300; ++k) {
        Value v;
        ASSERT_EQ(ht.get(k, &v), Status::Ok);
        EXPECT_EQ(v.asU64(), k * k);
    }
}

/**
 * open() of a name created as another type fails with InvalidArgument,
 * for every structure: the name is created once as another structure
 * (a Stack, or a Queue for Stack itself) and once as a raw entry.
 */
template <typename Ds>
class OpenWrongTypeTest : public DsBasicTest
{};

using AllStructures = ::testing::Types<HashTable, SkipList, BpTree, Bst,
                                       MvBst, MvBpTree, Stack, Queue>;
TYPED_TEST_SUITE(OpenWrongTypeTest, AllStructures);

TYPED_TEST(OpenWrongTypeTest, Rejected)
{
    FrontendSession s(SessionConfig::rcb(1, 1 << 20, 16));
    ASSERT_EQ(s.connect(&this->be), Status::Ok);
    if constexpr (std::is_same_v<TypeParam, Stack>) {
        Queue other;
        ASSERT_EQ(Queue::create(s, 1, "typed", &other), Status::Ok);
    } else {
        Stack other;
        ASSERT_EQ(Stack::create(s, 1, "typed", &other), Status::Ok);
    }
    DsId raw = 0;
    ASSERT_EQ(s.createDs(1, "raw", DsType::Raw, &raw), Status::Ok);
    TypeParam ds;
    EXPECT_EQ(TypeParam::open(s, 1, "typed", &ds), Status::InvalidArgument);
    EXPECT_EQ(TypeParam::open(s, 1, "raw", &ds), Status::InvalidArgument);
}

TEST_F(DsBasicTest, SharedHashTableSeqlockReadersSeeConsistentData)
{
    FrontendSession writer(SessionConfig::rcb(1, 1 << 20, 1));
    ASSERT_EQ(writer.connect(&be), Status::Ok);
    DsOptions shared;
    shared.shared = true;
    HashTable wht;
    ASSERT_EQ(HashTable::create(writer, 1, "sh", 64, &wht, shared),
              Status::Ok);
    for (uint64_t k = 0; k < 64; ++k)
        ASSERT_EQ(wht.put(k, Value::ofU64(k)), Status::Ok);
    ASSERT_EQ(writer.flushAll(), Status::Ok);

    FrontendSession reader(SessionConfig::rc(2, 1 << 20));
    ASSERT_EQ(reader.connect(&be), Status::Ok);
    HashTable rht;
    ASSERT_EQ(HashTable::open(reader, 1, "sh", &rht, shared), Status::Ok);
    for (uint64_t k = 0; k < 64; ++k) {
        Value v;
        ASSERT_EQ(rht.get(k, &v), Status::Ok);
        EXPECT_EQ(v.asU64(), k);
    }
    // The writer updates; the reader (whose cache holds stale copies)
    // must converge to the new values via seqlock invalidation.
    for (uint64_t k = 0; k < 64; ++k)
        ASSERT_EQ(wht.put(k, Value::ofU64(k + 1000)), Status::Ok);
    ASSERT_EQ(writer.flushAll(), Status::Ok);
    for (uint64_t k = 0; k < 64; ++k) {
        Value v;
        ASSERT_EQ(rht.get(k, &v), Status::Ok);
        EXPECT_EQ(v.asU64(), k + 1000) << "stale read for key " << k;
    }
}

TEST_F(DsBasicTest, StackRecoversAfterFrontendCrashMidBatch)
{
    FrontendSession s(SessionConfig::rcb(1, 1 << 20, 1024));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    {
        Stack stack;
        ASSERT_EQ(Stack::create(s, 1, "crashy", &stack), Status::Ok);
        for (uint64_t i = 0; i < 20; ++i)
            ASSERT_EQ(stack.push(Value::ofU64(i)), Status::Ok);
        // Crash with everything still pending (only op logs persisted).
    }
    s.simulateCrash();
    Stack stack;
    ASSERT_EQ(Stack::open(s, 1, "crashy", &stack), Status::Ok);
    ASSERT_EQ(s.recover(), Status::Ok);
    // Re-open to reload the recovered shadows.
    Stack again;
    ASSERT_EQ(Stack::open(s, 1, "crashy", &again), Status::Ok);
    EXPECT_EQ(again.size(), 20u);
    Value v;
    ASSERT_EQ(again.pop(&v), Status::Ok);
    EXPECT_EQ(v.asU64(), 19u);
}

} // namespace
} // namespace asymnvm
