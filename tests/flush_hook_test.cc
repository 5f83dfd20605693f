/**
 * @file
 * Pre-flush hooks report their failures. Stack and queue materialize
 * their deferred pushes/enqueues in a pre-flush hook; when the back-end
 * runs out of NVM part way through, flushAll must return OutOfMemory
 * (not Ok), the handle must count every element once, and every element
 * of a batch that did commit must survive a reopen.
 */

#include <gtest/gtest.h>

#include <string>

#include "ds/queue.h"
#include "ds/stack.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

BackendConfig
smallConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 4ull << 20;
    cfg.max_frontends = 2;
    cfg.max_names = 4;
    cfg.memlog_ring_size = 256ull << 10;
    cfg.oplog_ring_size = 128ull << 10;
    return cfg;
}

struct StackCase
{
    using Handle = Stack;
    static Status add(Stack &s, uint64_t v)
    {
        return s.push(Value::ofU64(v));
    }
    static Status take(Stack &s, Value *v) { return s.pop(v); }
    /** The @p i-th element taken (0-based) of @p n added 1..n. */
    static uint64_t expected(uint64_t i, uint64_t n) { return n - i; }
};

struct QueueCase
{
    using Handle = Queue;
    static Status add(Queue &q, uint64_t v)
    {
        return q.enqueue(Value::ofU64(v));
    }
    static Status take(Queue &q, Value *v) { return q.dequeue(v); }
    static uint64_t expected(uint64_t i, uint64_t) { return i + 1; }
};

template <typename C>
class FlushHookOomTest : public ::testing::Test
{
  protected:
    /**
     * Rounds of 64 adds under batch 64 (the 64th add's opEnd commits)
     * plus an explicit flushAll, until an add or a flush fails.
     */
    void run()
    {
        constexpr uint64_t kRound = 64;
        constexpr int kMaxRounds = 4000;
        BackendNode be(1, smallConfig());
        FrontendSession s(SessionConfig::rcb(1, 1 << 20, kRound));
        ASSERT_EQ(s.connect(&be), Status::Ok);
        typename C::Handle ds;
        ASSERT_EQ(C::Handle::create(s, 1, "ds", &ds), Status::Ok);

        uint64_t committed = 0; // adds of rounds whose commit returned Ok
        uint64_t issued = 0;    // every add that ran, the failing one too
        Status fail = Status::Ok;
        for (int r = 0; r < kMaxRounds && ok(fail); ++r) {
            for (uint64_t i = 0; i < kRound && ok(fail); ++i) {
                fail = C::add(ds, ++issued);
                ASSERT_TRUE(ok(fail) || fail == Status::OutOfMemory)
                    << statusName(fail);
            }
            if (ok(fail))
                fail = s.flushAll();
            if (ok(fail))
                committed = issued;
        }
        ASSERT_EQ(fail, Status::OutOfMemory)
            << "the back-end never ran out, or its failure was dropped";
        EXPECT_GT(committed, 0u);
        // Each add of the failed round is materialized or still pending,
        // never both.
        EXPECT_EQ(ds.size(), issued);
        EXPECT_EQ(s.flushAll(), Status::OutOfMemory)
            << "a retried commit hits the same shortage";
        EXPECT_EQ(ds.size(), issued);

        // A fresh session sees the committed image: every add of every
        // committed round, once, in order.
        FrontendSession s2(SessionConfig::rc(2, 1 << 20));
        ASSERT_EQ(s2.connect(&be), Status::Ok);
        typename C::Handle reopened;
        ASSERT_EQ(C::Handle::open(s2, 1, "ds", &reopened), Status::Ok);
        ASSERT_EQ(reopened.size(), committed);
        for (uint64_t i = 0; i < committed; ++i) {
            Value v;
            ASSERT_EQ(C::take(reopened, &v), Status::Ok) << "element " << i;
            ASSERT_EQ(v.asU64(), C::expected(i, committed))
                << "element " << i;
        }
        Value v;
        EXPECT_EQ(C::take(reopened, &v), Status::NotFound);
    }
};

using FlushHookCases = ::testing::Types<StackCase, QueueCase>;

struct FlushHookCaseNames
{
    template <typename C>
    static std::string GetName(int i)
    {
        return i == 0 ? "Stack" : "Queue";
    }
};

TYPED_TEST_SUITE(FlushHookOomTest, FlushHookCases, FlushHookCaseNames);

TYPED_TEST(FlushHookOomTest, OutOfMemoryStopsTheCommitAndCountsOnce)
{
    this->run();
}

} // namespace
} // namespace asymnvm
