/**
 * @file
 * The oracle can fail: corruption tests for the InvariantChecker.
 *
 * The crash sweep and the chaos soaks prove recovery only as far as the
 * checker they audit with can tell a broken image from a sound one. Each
 * test here builds one structure through a front-end session, persists
 * it, corrupts the raw NVM image by hand (a pointer, a count, a tower
 * height, a lock word, a log control word) and asserts the violation the
 * checker names. Every violation report of the checker is reached.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "backend/backend_node.h"
#include "check/invariant_checker.h"
#include "check/oracle.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "ds/queue.h"
#include "ds/skiplist.h"
#include "ds/stack.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

constexpr uint64_t kBuckets = 16;

/** On-NVM node images (the layouts the structures static_assert). */
struct ListNode
{
    Value value;
    uint64_t next_raw;
    uint64_t pad;
};
struct HashNode
{
    Key key;
    uint64_t next_raw;
    Value value;
};
struct SkipNode
{
    Key key;
    uint32_t level;
    uint32_t pad;
    Value value;
    uint64_t next[16];
};
static_assert(sizeof(ListNode) == 80 && sizeof(HashNode) == 80 &&
              sizeof(SkipNode) == 208);

BackendConfig
oracleConfig()
{
    BackendConfig cfg;
    cfg.nvm_size = 16ull << 20;
    cfg.max_frontends = 2;
    cfg.max_names = 8;
    cfg.memlog_ring_size = 128ull << 10;
    cfg.oplog_ring_size = 64ull << 10;
    return cfg;
}

bool
names(const AuditReport &rep, const std::string &what)
{
    for (const auto &v : rep.violations)
        if (v.find(what) != std::string::npos)
            return true;
    return false;
}

/** One back-end and one logged session on it. */
class OracleTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        be_ = std::make_unique<BackendNode>(1, oracleConfig());
        s_ = std::make_unique<FrontendSession>(SessionConfig::r(1));
        ASSERT_EQ(s_->connect(be_.get()), Status::Ok);
    }

    NvmDevice &nvm() { return be_->nvm(); }

    template <typename T>
    T load(uint64_t off)
    {
        T t;
        nvm().read(off, &t, sizeof(t));
        return t;
    }
    template <typename T>
    void store(uint64_t off, const T &t)
    {
        nvm().write(off, &t, sizeof(t));
        nvm().persist();
    }
    template <typename T>
    T node(uint64_t raw)
    {
        return load<T>(RemotePtr::fromRaw(raw).offset);
    }
    template <typename T>
    void setNode(uint64_t raw, const T &t)
    {
        store(RemotePtr::fromRaw(raw).offset, t);
    }

    uint64_t entryOff(DsId ds) { return be_->layout().namingEntryOff(ds); }
    uint64_t aux(DsId ds, int i)
    {
        return nvm().read64(entryOff(ds) + naming_field::kAux0 + 8 * i);
    }
    void setAux(DsId ds, int i, uint64_t v)
    {
        store(entryOff(ds) + naming_field::kAux0 + 8 * i, v);
    }

    /** The checker's extraction of the structure behind @p h. */
    AuditReport extract(const DsBase &h, bool strict = true)
    {
        InvariantChecker chk(be_.get(), strict);
        AuditReport rep;
        chk.contents(h.id(), &rep);
        return rep;
    }

    Stack makeStack(uint64_t n)
    {
        Stack st;
        EXPECT_EQ(Stack::create(*s_, 1, "stack", &st), Status::Ok);
        for (uint64_t i = 0; i < n; ++i)
            EXPECT_EQ(st.push(Value::ofU64(100 + i)), Status::Ok);
        EXPECT_EQ(s_->persistentFence(), Status::Ok);
        return st;
    }
    Queue makeQueue(uint64_t n)
    {
        Queue q;
        EXPECT_EQ(Queue::create(*s_, 1, "queue", &q), Status::Ok);
        for (uint64_t i = 0; i < n; ++i)
            EXPECT_EQ(q.enqueue(Value::ofU64(100 + i)), Status::Ok);
        EXPECT_EQ(s_->persistentFence(), Status::Ok);
        return q;
    }
    HashTable makeHash(uint64_t n)
    {
        HashTable h;
        EXPECT_EQ(HashTable::create(*s_, 1, "hash", kBuckets, &h),
                  Status::Ok);
        for (uint64_t k = 1; k <= n; ++k)
            EXPECT_EQ(h.put(k, Value::ofU64(k * 7)), Status::Ok);
        EXPECT_EQ(s_->persistentFence(), Status::Ok);
        return h;
    }
    SkipList makeSkip(uint64_t n)
    {
        SkipList sl;
        EXPECT_EQ(SkipList::create(*s_, 1, "skip", &sl), Status::Ok);
        for (uint64_t k = 1; k <= n; ++k)
            EXPECT_EQ(sl.insert(k * 10, Value::ofU64(k)), Status::Ok);
        EXPECT_EQ(s_->persistentFence(), Status::Ok);
        return sl;
    }

    /** Raw pointers of a list chain from its head, in chain order. */
    std::vector<uint64_t> listChain(uint64_t head)
    {
        std::vector<uint64_t> out;
        for (uint64_t cur = head; cur != 0; cur = node<ListNode>(cur).next_raw)
            out.push_back(cur);
        return out;
    }
    /** Raw pointers of skip-list level @p l, in chain order. */
    std::vector<uint64_t> skipLevel(const SkipList &sl, uint32_t l)
    {
        std::vector<uint64_t> out;
        uint64_t cur = node<SkipNode>(aux(sl.id(), 0)).next[l];
        for (; cur != 0; cur = node<SkipNode>(cur).next[l])
            out.push_back(cur);
        return out;
    }
    /** First non-empty hash bucket chain with at least @p len nodes. */
    std::vector<uint64_t> hashChain(const HashTable &h, size_t len)
    {
        for (uint64_t b = 0; b < aux(h.id(), 1); ++b) {
            std::vector<uint64_t> chain;
            uint64_t cur = nvm().read64(aux(h.id(), 0) + b * 8);
            for (; cur != 0; cur = node<HashNode>(cur).next_raw)
                chain.push_back(cur);
            if (chain.size() >= len)
                return chain;
        }
        return {};
    }

    /** Free the allocator block holding data-area offset @p off. */
    void freeBlockOf(uint64_t off)
    {
        const Layout &lay = be_->layout();
        const uint64_t bs = lay.super.block_size;
        const uint64_t block =
            lay.dataOff() + (off - lay.dataOff()) / bs * bs;
        ASSERT_TRUE(be_->allocator().isAllocated(block));
        ASSERT_EQ(be_->allocator().free(block, 1), Status::Ok);
    }

    std::unique_ptr<BackendNode> be_;
    std::unique_ptr<FrontendSession> s_;
};

// ---------------------------------------------------------------------
// Sound images audit clean (so each violation below is the corruption's)
// ---------------------------------------------------------------------

TEST_F(OracleTest, SoundImagesAuditClean)
{
    const Stack st = makeStack(5);
    const Queue q = makeQueue(5);
    const HashTable h = makeHash(40);
    const SkipList sl = makeSkip(40);
    EXPECT_TRUE(extract(st).clean()) << extract(st).str();
    EXPECT_TRUE(extract(q).clean()) << extract(q).str();
    EXPECT_TRUE(extract(h).clean()) << extract(h).str();
    EXPECT_TRUE(extract(sl).clean()) << extract(sl).str();
    InvariantChecker chk(be_.get());
    AuditReport rep;
    for (DsId ds : {st.id(), q.id(), h.id(), sl.id()})
        chk.checkQuiescent(ds, &rep);
    chk.checkLogControl(0, &rep);
    EXPECT_TRUE(rep.clean()) << rep.str();
}

// ---------------------------------------------------------------------
// Naming entry
// ---------------------------------------------------------------------

TEST_F(OracleTest, FreeNamingEntry)
{
    const Stack st = makeStack(3);
    store<uint64_t>(entryOff(st.id()), 0); // name_hash
    EXPECT_TRUE(names(extract(st), "naming entry is free"));
}

TEST_F(OracleTest, NamingEntryOfTheWrongType)
{
    const Stack st = makeStack(3);
    store<uint32_t>(entryOff(st.id()) + offsetof(NamingEntry, type),
                    static_cast<uint32_t>(DsType::BpTree));
    EXPECT_TRUE(names(extract(st), "naming entry type 6"));
}

TEST_F(OracleTest, UnsupportedTypeInHeapAudit)
{
    BpTree t;
    ASSERT_EQ(BpTree::create(*s_, 1, "tree", &t), Status::Ok);
    ASSERT_EQ(t.insert(1, Value::ofU64(1)), Status::Ok);
    ASSERT_EQ(s_->persistentFence(), Status::Ok);
    EXPECT_TRUE(names(extract(t), "unsupported structure type"));
}

// ---------------------------------------------------------------------
// Node pointers: the heap audit (reachable ⊆ allocated data area)
// ---------------------------------------------------------------------

TEST_F(OracleTest, PointerToAForeignBackend)
{
    const Stack st = makeStack(3);
    const RemotePtr head = RemotePtr::fromRaw(aux(st.id(), 0));
    setAux(st.id(), 0, RemotePtr(2, head.offset).raw());
    EXPECT_TRUE(names(extract(st), "points at a foreign back-end"));
}

TEST_F(OracleTest, PointerOutsideTheDataArea)
{
    const Queue q = makeQueue(3);
    const std::vector<uint64_t> chain = listChain(aux(q.id(), 0));
    ListNode n = node<ListNode>(chain[1]);
    n.next_raw = RemotePtr(1, 64).raw(); // inside the superblock
    setNode(chain[1], n);
    EXPECT_TRUE(names(extract(q), "outside the data area"));
}

TEST_F(OracleTest, ReachableNodeInAnUnallocatedBlock)
{
    const Stack st = makeStack(3);
    freeBlockOf(RemotePtr::fromRaw(aux(st.id(), 0)).offset);
    EXPECT_TRUE(
        names(extract(st), "reachable node in an unallocated block"));
}

// ---------------------------------------------------------------------
// Cycles
// ---------------------------------------------------------------------

TEST_F(OracleTest, CycleInAStackChain)
{
    const Stack st = makeStack(4);
    const std::vector<uint64_t> chain = listChain(aux(st.id(), 0));
    ListNode last = node<ListNode>(chain.back());
    last.next_raw = chain.front();
    setNode(chain.back(), last);
    EXPECT_TRUE(names(extract(st), "cycle in the node chain"));
}

TEST_F(OracleTest, CycleInAQueueChain)
{
    const Queue q = makeQueue(4);
    const std::vector<uint64_t> chain = listChain(aux(q.id(), 0));
    ListNode last = node<ListNode>(chain.back());
    last.next_raw = chain[1];
    setNode(chain.back(), last);
    EXPECT_TRUE(names(extract(q), "cycle in the node chain"));
}

TEST_F(OracleTest, CycleInAHashBucketChainRepeatsAKey)
{
    // A cycle revisits a node, so the walk stops at its key's second
    // visit: the duplicate-key report bounds every bucket walk.
    const HashTable h = makeHash(64);
    const std::vector<uint64_t> chain = hashChain(h, 2);
    ASSERT_GE(chain.size(), 2u);
    HashNode last = node<HashNode>(chain.back());
    last.next_raw = chain.front();
    setNode(chain.back(), last);
    EXPECT_TRUE(names(extract(h), "duplicate key"));
}

TEST_F(OracleTest, CycleInTheSkipListBottomChainBreaksKeyOrder)
{
    const SkipList sl = makeSkip(20);
    const std::vector<uint64_t> l0 = skipLevel(sl, 0);
    SkipNode last = node<SkipNode>(l0.back());
    last.next[0] = l0[3];
    setNode(l0.back(), last);
    EXPECT_TRUE(names(extract(sl), "bottom chain keys not ascending"));
}

TEST_F(OracleTest, CycleInASkipListUpperLevelBreaksKeyOrder)
{
    const SkipList sl = makeSkip(40);
    const std::vector<uint64_t> l1 = skipLevel(sl, 1);
    ASSERT_GE(l1.size(), 2u);
    SkipNode last = node<SkipNode>(l1.back());
    last.next[1] = l1.front();
    setNode(l1.back(), last);
    EXPECT_TRUE(names(extract(sl), "level 1 keys not ascending"));
}

// ---------------------------------------------------------------------
// Persisted counts (strict mode only)
// ---------------------------------------------------------------------

TEST_F(OracleTest, PersistedCountBumpedForEachKind)
{
    const Stack st = makeStack(3);
    const Queue q = makeQueue(3);
    const HashTable h = makeHash(10);
    const SkipList sl = makeSkip(10);
    setAux(st.id(), 1, aux(st.id(), 1) + 1);
    setAux(q.id(), 2, aux(q.id(), 2) + 1);
    setAux(h.id(), 2, aux(h.id(), 2) + 1);
    setAux(sl.id(), 1, aux(sl.id(), 1) + 1);
    EXPECT_TRUE(names(extract(st), "chain length 3 != persisted count 4"));
    EXPECT_TRUE(names(extract(q), "chain length 3 != persisted count 4"));
    EXPECT_TRUE(
        names(extract(h), "reachable entries 10 != persisted count 11"));
    EXPECT_TRUE(names(extract(sl),
                      "bottom-chain length 10 != persisted count 11"));
    // AsymNVM-Naive makes no op-granular promise: counts are not held
    // to the walk.
    EXPECT_TRUE(extract(st, /*strict=*/false).clean());
    EXPECT_TRUE(extract(q, /*strict=*/false).clean());
    EXPECT_TRUE(extract(h, /*strict=*/false).clean());
    EXPECT_TRUE(extract(sl, /*strict=*/false).clean());
}

// ---------------------------------------------------------------------
// Queue tail
// ---------------------------------------------------------------------

TEST_F(OracleTest, EmptyQueueWithAStaleTail)
{
    const Queue q = makeQueue(0);
    setAux(q.id(), 1, RemotePtr(1, be_->layout().dataOff()).raw());
    EXPECT_TRUE(names(extract(q), "empty queue with a stale tail"));
}

TEST_F(OracleTest, QueueTailShortOfTheLastNode)
{
    const Queue q = makeQueue(3);
    setAux(q.id(), 1, aux(q.id(), 0));
    EXPECT_TRUE(
        names(extract(q), "tail pointer does not reach the last node"));
}

// ---------------------------------------------------------------------
// Hash table
// ---------------------------------------------------------------------

TEST_F(OracleTest, HashBucketCountNotAPowerOfTwo)
{
    const HashTable h = makeHash(4);
    setAux(h.id(), 1, 3);
    EXPECT_TRUE(names(extract(h), "bucket count is not a power of 2"));
}

TEST_F(OracleTest, HashBucketArrayOutsideTheDataArea)
{
    const HashTable h = makeHash(4);
    setAux(h.id(), 0, be_->layout().dataEnd() - 8);
    EXPECT_TRUE(names(extract(h), "bucket array outside"));
}

TEST_F(OracleTest, HashBucketArrayInAnUnallocatedBlock)
{
    const HashTable h = makeHash(4);
    freeBlockOf(aux(h.id(), 0));
    EXPECT_TRUE(names(extract(h), "bucket array in an unallocated block"));
}

TEST_F(OracleTest, HashDuplicateKey)
{
    const HashTable h = makeHash(64);
    const std::vector<uint64_t> chain = hashChain(h, 2);
    ASSERT_GE(chain.size(), 2u);
    HashNode second = node<HashNode>(chain[1]);
    second.key = node<HashNode>(chain[0]).key;
    setNode(chain[1], second);
    EXPECT_TRUE(names(extract(h), "duplicate key"));
}

// ---------------------------------------------------------------------
// Skip list
// ---------------------------------------------------------------------

TEST_F(OracleTest, SkipListSentinelHeight)
{
    const SkipList sl = makeSkip(5);
    SkipNode sent = node<SkipNode>(aux(sl.id(), 0));
    sent.level = 3;
    setNode(aux(sl.id(), 0), sent);
    EXPECT_TRUE(names(extract(sl), "sentinel tower height corrupt"));
}

TEST_F(OracleTest, SkipListSentinelOutsideTheDataArea)
{
    const SkipList sl = makeSkip(5);
    setAux(sl.id(), 0, RemotePtr(1, 64).raw());
    const AuditReport rep = extract(sl);
    EXPECT_TRUE(names(rep, "skiplist sentinel"));
    EXPECT_TRUE(names(rep, "outside the data area"));
}

TEST_F(OracleTest, SkipListTowerHeightOutOfRange)
{
    const SkipList sl = makeSkip(5);
    const std::vector<uint64_t> l0 = skipLevel(sl, 0);
    SkipNode n = node<SkipNode>(l0[2]);
    n.level = 17;
    setNode(l0[2], n);
    EXPECT_TRUE(names(extract(sl), "node tower height 17 out of range"));
}

TEST_F(OracleTest, SkipListBottomKeysNotAscending)
{
    const SkipList sl = makeSkip(5);
    const std::vector<uint64_t> l0 = skipLevel(sl, 0);
    SkipNode n = node<SkipNode>(l0[3]);
    n.key = 15; // between the first and second keys
    setNode(l0[3], n);
    EXPECT_TRUE(names(extract(sl), "bottom chain keys not ascending"));
}

TEST_F(OracleTest, SkipListUpperKeysNotAscending)
{
    // Point one level-1 node back at the first level-0 node: level 0
    // stays sorted, level 1 steps back to a smaller key.
    const SkipList sl = makeSkip(40);
    const std::vector<uint64_t> l0 = skipLevel(sl, 0);
    const std::vector<uint64_t> l1 = skipLevel(sl, 1);
    ASSERT_GE(l1.size(), 2u);
    ASSERT_NE(l1[1], l0.front());
    SkipNode n = node<SkipNode>(l1[1]);
    n.next[1] = l0.front();
    setNode(l1[1], n);
    EXPECT_TRUE(names(extract(sl), "level 1 keys not ascending"));
}

TEST_F(OracleTest, SkipListUpperNodeMissingFromTheBottomChain)
{
    // Unlink a tall node from level 0 only: its predecessor skips it.
    const SkipList sl = makeSkip(40);
    const std::vector<uint64_t> l0 = skipLevel(sl, 0);
    const std::vector<uint64_t> l1 = skipLevel(sl, 1);
    ASSERT_FALSE(l1.empty());
    size_t i = 0;
    while (l0[i] != l1.back())
        ++i;
    ASSERT_GT(i, 0u);
    SkipNode pred = node<SkipNode>(l0[i - 1]);
    pred.next[0] = node<SkipNode>(l0[i]).next[0];
    setNode(l0[i - 1], pred);
    const AuditReport rep = extract(sl);
    EXPECT_TRUE(names(rep, "links a node missing from the bottom chain"))
        << rep.str();
    // Naive mode can crash half way through unlinking a tower.
    EXPECT_FALSE(names(extract(sl, /*strict=*/false), "missing"));
}

TEST_F(OracleTest, SkipListNodeLinkedAboveItsTowerHeight)
{
    const SkipList sl = makeSkip(40);
    const std::vector<uint64_t> l1 = skipLevel(sl, 1);
    ASSERT_FALSE(l1.empty());
    SkipNode n = node<SkipNode>(l1.front());
    n.level = 1;
    setNode(l1.front(), n);
    EXPECT_TRUE(names(extract(sl), "node linked above its tower height"));
}

// ---------------------------------------------------------------------
// Quiescence
// ---------------------------------------------------------------------

TEST_F(OracleTest, WriterLockHeldAndOddSeqlock)
{
    const HashTable h = makeHash(3);
    store<uint64_t>(entryOff(h.id()) + naming_field::kWriterLock, 2);
    store<uint64_t>(entryOff(h.id()) + naming_field::kSeqNum, 7);
    InvariantChecker chk(be_.get());
    AuditReport rep;
    chk.checkQuiescent(h.id(), &rep);
    EXPECT_TRUE(names(rep, "writer lock still held by slot 1"));
    EXPECT_TRUE(names(rep, "seqlock SN 7 is odd"));
}

// ---------------------------------------------------------------------
// Log control: corrupt slot 0's control block, then restart the node so
// it reloads the block from NVM, as recovery does.
// ---------------------------------------------------------------------

class LogControlOracleTest : public OracleTest
{
  protected:
    AuditReport auditRestarted(uint64_t field_off, uint64_t v)
    {
        const Stack st = makeStack(3);
        (void)st;
        store(be_->layout().logControlOff(0) + field_off, v);
        BackendNode restarted(1, oracleConfig(), be_->device());
        InvariantChecker chk(&restarted);
        AuditReport rep;
        chk.checkLogControl(0, &rep);
        return rep;
    }
    LogControl control() { return be_->readControl(0); }
};

TEST_F(LogControlOracleTest, CoveredOpnBeyondOpn)
{
    EXPECT_TRUE(names(auditRestarted(offsetof(LogControl, covered_opn),
                                     1000),
                      "covered_opn 1000 exceeds opn"));
}

TEST_F(LogControlOracleTest, MemlogAppliedAheadOfHead)
{
    EXPECT_TRUE(names(
        auditRestarted(offsetof(LogControl, memlog_applied), 1ull << 40),
        "memlog_applied ahead of memlog_head"));
}

TEST_F(LogControlOracleTest, OplogTailAheadOfHead)
{
    EXPECT_TRUE(names(
        auditRestarted(offsetof(LogControl, oplog_tail), 1ull << 40),
        "oplog_tail ahead of oplog_head"));
}

TEST_F(LogControlOracleTest, WindowWiderThanTheRing)
{
    EXPECT_TRUE(names(auditRestarted(offsetof(LogControl, oplog_head),
                                     oracleConfig().oplog_ring_size * 4),
                      "uncovered op window wider than the op-log ring"));
}

TEST_F(LogControlOracleTest, LockAheadLeftSet)
{
    EXPECT_TRUE(names(auditRestarted(offsetof(LogControl, lock_ahead), 1),
                      "lock-ahead record not cleared by recovery"));
}

TEST_F(OracleTest, UndecodableRecordInsideTheOpWindow)
{
    // A batched session leaves its ops uncovered until the group
    // commit; tear one byte of the first record in the window.
    s_ = std::make_unique<FrontendSession>(
        SessionConfig::rcb(2, 256ull << 10, 16));
    ASSERT_EQ(s_->connect(be_.get()), Status::Ok);
    Stack st;
    ASSERT_EQ(Stack::create(*s_, 1, "stack", &st), Status::Ok);
    ASSERT_EQ(s_->persistentFence(), Status::Ok);
    for (uint64_t i = 0; i < 3; ++i)
        ASSERT_EQ(st.push(Value::ofU64(i)), Status::Ok);
    uint32_t slot = 0;
    while (slot < oracleConfig().max_frontends &&
           be_->opWindowSize(slot) == 0)
        ++slot;
    ASSERT_LT(slot, oracleConfig().max_frontends);
    const LogControl ctl = be_->readControl(slot);
    const uint64_t at = be_->layout().oplogRingOff(slot) +
                        ctl.oplog_tail % oracleConfig().oplog_ring_size +
                        48;
    store<uint8_t>(at, static_cast<uint8_t>(~load<uint8_t>(at)));
    InvariantChecker chk(be_.get());
    AuditReport rep;
    chk.checkLogControl(slot, &rep);
    EXPECT_TRUE(names(rep, "op-window record(s) do not decode"))
        << rep.str();
}

// ---------------------------------------------------------------------
// The harnesses' checked op applier and audit (check/oracle.h) fail too:
// a model that disagrees with the structure is named.
// ---------------------------------------------------------------------

TEST_F(OracleTest, ApplierNamesEveryMismatch)
{
    using K = Op::K;
    constexpr WorkloadKind kStack = WorkloadKind::Stack;
    constexpr WorkloadKind kHash = WorkloadKind::HashTable;
    Handles h;
    ASSERT_EQ(h.create(*s_, 1, kStack, "stack"), Status::Ok);
    ASSERT_EQ(h.create(*s_, 1, kHash, "hash"), Status::Ok);
    std::string mism;
    ASSERT_EQ(h.apply(kStack, {K::Add, 0, 5}, &mism), Status::Ok);
    ASSERT_EQ(h.apply(kHash, {K::Add, 1, 5}, &mism), Status::Ok);
    ASSERT_EQ(mism, "");

    h.model(kStack).list.back() = 6;
    ASSERT_EQ(h.apply(kStack, {K::Read, 0, 0}, &mism), Status::Ok);
    EXPECT_EQ(mism, "stack read returned a wrong value");
    h.model(kStack).list.clear();
    ASSERT_EQ(h.apply(kStack, {K::Remove, 0, 0}, &mism), Status::Ok);
    EXPECT_EQ(mism, "stack remove found an element the model lacks");
    h.model(kStack).list = {9};
    ASSERT_EQ(h.apply(kStack, {K::Read, 0, 0}, &mism), Status::Ok);
    EXPECT_EQ(mism, "stack read missed an element the model holds");

    h.model(kHash).map.clear();
    ASSERT_EQ(h.apply(kHash, {K::Read, 1, 0}, &mism), Status::Ok);
    EXPECT_EQ(mism, "hash read found an element the model lacks");
    h.model(kHash).map[2] = 3;
    ASSERT_EQ(h.apply(kHash, {K::Remove, 2, 0}, &mism), Status::Ok);
    EXPECT_EQ(mism, "hash remove missed an element the model holds");
}

TEST_F(OracleTest, AuditNamesAModelThatDiverges)
{
    constexpr WorkloadKind kQueue = WorkloadKind::Queue;
    Handles h;
    ASSERT_EQ(h.create(*s_, 1, kQueue, "queue"), Status::Ok);
    std::string mism;
    for (uint64_t v = 1; v <= 3; ++v)
        ASSERT_EQ(h.apply(kQueue, {Op::K::Add, 0, v}, &mism), Status::Ok);
    ASSERT_EQ(s_->persistentFence(), Status::Ok);
    InvariantChecker chk(be_.get());
    AuditReport rep;
    h.audit(chk, kQueue, &rep);
    EXPECT_TRUE(rep.clean()) << rep.str();

    h.model(kQueue).list.pop_back();
    h.audit(chk, kQueue, &rep);
    ASSERT_EQ(rep.violations.size(), 1u);
    EXPECT_EQ(rep.str(), "  - queue (ds " + std::to_string(h.id(kQueue)) +
                             "): contents diverge from the model (image 3 "
                             "elements, model 2)\n");
}

} // namespace
} // namespace asymnvm
