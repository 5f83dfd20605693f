/**
 * @file
 * Property-based crash-consistency tests: randomized workloads with
 * failures injected at randomized verb counts, followed by the full
 * recovery protocol and a durability audit.
 *
 * The invariant under test is the paper's durability contract:
 *  - every operation acknowledged at a group-commit boundary (a
 *    successful flushAll) MUST survive any combination of front-end
 *    crash, back-end crash (including torn in-flight writes), restart
 *    and mirror promotion;
 *  - operations issued after the last commit MAY survive (their op logs
 *    may have persisted), but whatever survives must be value-correct —
 *    no corruption, no phantom keys.
 */

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "common/rand.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "ds/skiplist.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

ClusterConfig
propCluster()
{
    ClusterConfig cfg;
    cfg.num_backends = 1;
    cfg.mirrors_per_backend = 1;
    cfg.backend.nvm_size = 32ull << 20;
    cfg.backend.max_frontends = 4;
    cfg.backend.max_names = 16;
    cfg.backend.memlog_ring_size = 512ull << 10;
    cfg.backend.oplog_ring_size = 512ull << 10;
    return cfg;
}

struct CrashParam
{
    uint64_t seed;
    uint32_t batch;
    bool promote; //!< recover via mirror promotion instead of restart
};

class CrashPropertyTest : public ::testing::TestWithParam<CrashParam>
{
};

template <typename DS>
Status
dsPutHelper(DS &ds, Key k, uint64_t val)
{
    if constexpr (requires(Value v) { ds.put(k, v); })
        return ds.put(k, Value::ofU64(val));
    else
        return ds.insert(k, Value::ofU64(val));
}

template <typename DS>
Status
dsGetHelper(DS &ds, Key k, Value *out)
{
    if constexpr (requires { ds.get(k, out); })
        return ds.get(k, out);
    else
        return ds.find(k, out);
}

/**
 * Drive a keyed structure with a random put/erase workload, crash the
 * back-end at a random verb, recover, and audit against the model.
 */
template <typename DS>
void
runCrashAudit(const CrashParam &param)
{
    Cluster cluster(propCluster());
    auto s = cluster.makeSession(
        SessionConfig::rcb(10 + param.seed, 256 << 10, param.batch));
    ASSERT_NE(s, nullptr);

    DS ds;
    Status st;
    if constexpr (std::is_same_v<DS, HashTable>)
        st = HashTable::create(*s, 1, "prop", 256, &ds);
    else
        st = DS::create(*s, 1, "prop", &ds);
    ASSERT_EQ(st, Status::Ok);

    Rng rng(param.seed);
    // Model of committed state (as of the last successful flush) and of
    // everything issued (upper bound on what may survive).
    std::map<Key, uint64_t> committed;
    std::map<Key, uint64_t> issued;
    auto apply = [](std::map<Key, uint64_t> &m, Key k, uint64_t val,
                    bool is_erase) {
        if (is_erase)
            m.erase(k);
        else
            m[k] = val;
    };

    // Arm the crash somewhere in the middle of the run.
    const uint64_t crash_after = 100 + rng.nextBounded(1200);
    cluster.backend(1)->failure().armCrashAfterVerbs(crash_after,
                                                     param.seed);

    bool crashed = false;
    // The operation in flight when the crash fires may or may not have
    // persisted its operation log: its effect is allowed either way.
    Key attempt_key = 0;
    uint64_t attempt_val = 0;
    bool attempt_erase = false;
    for (int i = 0; i < 20000 && !crashed; ++i) {
        const Key key = 1 + rng.nextBounded(300);
        const bool is_erase = rng.nextBool(0.2);
        const uint64_t val = rng.next();
        attempt_key = key;
        attempt_val = val;
        attempt_erase = is_erase;
        Status op_st;
        if (is_erase) {
            op_st = ds.erase(key);
            if (op_st == Status::NotFound)
                op_st = Status::Ok;
        } else {
            op_st = dsPutHelper(ds, key, val);
        }
        if (!ok(op_st)) {
            crashed = true;
            break;
        }
        apply(issued, key, val, is_erase);
        if (s->opsInBatch() == 0) {
            // A group commit just succeeded: everything issued is now
            // guaranteed durable.
            committed = issued;
        }
        if (i % 97 == 0) {
            const Status fst = s->flushAll();
            if (!ok(fst)) {
                crashed = true;
                break;
            }
            committed = issued;
        }
    }
    ASSERT_TRUE(crashed) << "crash never fired; raise the op budget";

    // Settle the device and recover: restart or mirror promotion.
    cluster.backend(1)->nvm().crash();
    if (param.promote) {
        ASSERT_EQ(cluster.failBackendPermanently(1, s->clock().now()),
                  Status::Ok);
    } else {
        ASSERT_EQ(cluster.restartBackend(1), Status::Ok);
    }
    s->simulateCrash();
    ASSERT_EQ(s->failover(1, cluster.backend(1)), Status::Ok);
    DS reopened;
    ASSERT_EQ(DS::open(*s, 1, "prop", &reopened), Status::Ok);
    ASSERT_EQ(s->recover(), Status::Ok);

    DS audit;
    ASSERT_EQ(DS::open(*s, 1, "prop", &audit), Status::Ok);
    // 1. Every committed key/value must be present and correct...
    for (const auto &[key, val] : committed) {
        Value v;
        const Status got = dsGetHelper(audit, key, &v);
        if (got == Status::NotFound) {
            // ...unless a post-commit (op-logged) erase replayed it away
            // or the in-flight erase landed.
            const bool erased_in_flight =
                attempt_erase && key == attempt_key;
            ASSERT_TRUE(issued.count(key) == 0 || erased_in_flight)
                << "committed key " << key << " lost (seed "
                << param.seed << ")";
            continue;
        }
        ASSERT_EQ(got, Status::Ok) << "audit read failed for " << key;
        // A post-commit op-log for the same key may have replayed over
        // the committed value (including the in-flight op); any of
        // those values is correct.
        const bool matches_committed = v.asU64() == val;
        const bool matches_issued =
            issued.count(key) && v.asU64() == issued.at(key);
        const bool matches_attempt = !attempt_erase &&
                                     key == attempt_key &&
                                     v.asU64() == attempt_val;
        ASSERT_TRUE(matches_committed || matches_issued ||
                    matches_attempt)
            << "key " << key << " corrupted (seed " << param.seed << ")";
    }
    // 2. No phantom keys: everything present was issued at some point.
    for (const auto &[key, val] : issued) {
        Value v;
        const Status got = dsGetHelper(audit, key, &v);
        if (got == Status::Ok && !(key == attempt_key)) {
            EXPECT_EQ(v.asU64(), val)
                << "surviving key " << key << " has a phantom value";
        }
    }
    // 3. The structure stays fully usable after recovery.
    ASSERT_EQ(dsPutHelper(audit, 9999, 4242), Status::Ok);
    ASSERT_EQ(s->flushAll(), Status::Ok);
    Value v;
    ASSERT_EQ(dsGetHelper(audit, 9999, &v), Status::Ok);
    EXPECT_EQ(v.asU64(), 4242u);
}

TEST_P(CrashPropertyTest, HashTableSurvivesRandomizedCrash)
{
    runCrashAudit<HashTable>(GetParam());
}

TEST_P(CrashPropertyTest, BpTreeSurvivesRandomizedCrash)
{
    runCrashAudit<BpTree>(GetParam());
}

TEST_P(CrashPropertyTest, SkipListSurvivesRandomizedCrash)
{
    runCrashAudit<SkipList>(GetParam());
}

/**
 * simulateCrash() models a front-end reboot: every piece of volatile
 * session state dies with the process, including the per-structure
 * seqlock SN shadow. A survivor there would make the reborn front-end
 * skip the cache invalidation a concurrent replay demands.
 */
TEST(FrontendCrashStateTest, SimulateCrashDropsSeqlockObservations)
{
    Cluster cl(propCluster());
    auto s = cl.makeSession(SessionConfig::rc(1, 256ull << 10));
    HashTable ht;
    ASSERT_EQ(HashTable::create(*s, 1, "sn", 16, &ht), Status::Ok);
    ASSERT_EQ(ht.put(1, Value::ofU64(42)), Status::Ok);

    uint64_t sn = 0;
    ASSERT_EQ(s->readerLock(ht.id(), 1, &sn), Status::Ok);
    ASSERT_TRUE(s->readerValidate(ht.id(), 1, sn));
    ASSERT_GT(s->seqlockObservations(), 0u);

    s->simulateCrash();
    EXPECT_EQ(s->seqlockObservations(), 0u);
}

/**
 * A group commit that fails mid-flight (back-end died under the
 * transaction write) must NOT act committed: the writer locks stay
 * held for the recovery protocol to account for, and the post-flush
 * publication hooks (the MV root swap) must not run — running them
 * would publish a root whose backing batch never became durable.
 */
TEST(FrontendCrashStateTest, FailedCommitKeepsLocksAndSkipsPublish)
{
    Cluster cl(propCluster());
    auto s = cl.makeSession(SessionConfig::rcb(1, 256ull << 10, 64));
    HashTable ht;
    DsOptions shared;
    shared.shared = true; // writer locks engage only on shared handles
    ASSERT_EQ(HashTable::create(*s, 1, "fc", 16, &ht, shared), Status::Ok);
    ASSERT_EQ(s->persistentFence(), Status::Ok);

    ASSERT_EQ(ht.put(7, Value::ofU64(7)), Status::Ok);
    ASSERT_TRUE(s->holdsWriterLock(ht.id(), 1));
    bool published = false;
    s->setPostFlushHook(ht.id(), 1, [&] {
        published = true;
        return Status::Ok;
    });

    cl.backend(1)->failure().armCrashAfterVerbs(0);
    EXPECT_NE(s->flushAll(), Status::Ok);
    EXPECT_FALSE(published);
    EXPECT_TRUE(s->holdsWriterLock(ht.id(), 1));
}

/**
 * One of two identical clusters for CrashEqualsFreshSession: the same
 * script prefix runs in both, so their back-end images match byte for
 * byte at the crash point.
 */
struct CrashTwin
{
    static constexpr uint64_t kSessionId = 21;

    static SessionConfig config()
    {
        // The cache holds every node of the script, so nothing is evicted:
        // the cache RNG, which no reset touches, never draws.
        SessionConfig cfg = SessionConfig::rcb(kSessionId, 8ull << 20, 64);
        cfg.pipeline_depth = 8;
        return cfg;
    }

    CrashTwin() : cluster(propCluster()), s(cluster.makeSession(config()))
    {
    }

    /** Committed writes, prefetch-trained reads, then a buffered batch. */
    void runPrefix()
    {
        HashTable ht;
        BpTree bt;
        // Few buckets: long chains, so reads learn prefetch runs.
        ASSERT_EQ(HashTable::create(*s, 1, "h", 16, &ht), Status::Ok);
        ASSERT_EQ(BpTree::create(*s, 1, "b", &bt), Status::Ok);
        for (Key k = 1; k <= 200; ++k) {
            ASSERT_EQ(ht.put(k, Value::ofU64(k)), Status::Ok);
            ASSERT_EQ(bt.insert(k, Value::ofU64(k)), Status::Ok);
        }
        ASSERT_EQ(s->flushAll(), Status::Ok);
        // Two passes train the chain runs; descending keys walk each
        // chain to its far end last (new keys go in at the head).
        Value v;
        for (int pass = 0; pass < 2; ++pass)
            for (Key k = 200; k >= 1; --k) {
                ASSERT_EQ(ht.get(k, &v), Status::Ok);
                ASSERT_EQ(bt.find(k, &v), Status::Ok);
            }
        // Recovery replays these; the hash chains stay cold for the
        // script's gets, whose first misses show any surviving runs.
        for (Key k = 201; k <= 240; ++k)
            ASSERT_EQ(bt.insert(k, Value::ofU64(k)), Status::Ok);
        ASSERT_GT(s->opsInBatch(), 0u);
    }

    /** Reopen both structures and run the recovery protocol. */
    void reopenAndRecover()
    {
        ASSERT_EQ(HashTable::open(*s, 1, "h", &ht), Status::Ok);
        ASSERT_EQ(BpTree::open(*s, 1, "b", &bt), Status::Ok);
        ASSERT_EQ(s->recover(), Status::Ok);
    }

    /** The post-recovery script; returns every value it read. */
    std::vector<uint64_t> runScript()
    {
        std::vector<uint64_t> seen;
        // One depth-8 window of hash gets and B+tree finds, on a cold
        // cache.
        std::vector<Value> got(32);
        std::vector<OpTask> ops;
        for (Key k = 1; k <= 16; ++k)
            ops.push_back(ht.getAsync(k * 13, &got[k - 1]));
        for (Key k = 17; k <= 32; ++k)
            ops.push_back(bt.findAsync(k * 7, &got[k - 1]));
        std::vector<Status> sts(ops.size());
        s->executePipelined(ops, sts);
        for (size_t i = 0; i < ops.size(); ++i)
            seen.push_back(ok(sts[i]) ? got[i].asU64() : 0);
        Value v;
        for (Key k = 1; k <= 240; ++k) {
            seen.push_back(ok(ht.get(k, &v)) ? v.asU64() : 0);
            seen.push_back(ok(bt.find(k, &v)) ? v.asU64() : 0);
        }
        for (Key k = 300; k <= 350; ++k)
            EXPECT_EQ(ht.put(k, Value::ofU64(k)), Status::Ok);
        for (Key k = 300; k <= 400; ++k)
            EXPECT_EQ(bt.insert(k, Value::ofU64(k)), Status::Ok);
        EXPECT_EQ(s->flushAll(), Status::Ok);
        return seen;
    }

    std::vector<uint8_t> image()
    {
        NvmDevice &nvm = cluster.backend(1)->nvm();
        std::vector<uint8_t> bytes(nvm.size());
        nvm.read(0, bytes.data(), bytes.size());
        return bytes;
    }

    Cluster cluster;
    std::unique_ptr<FrontendSession> s;
    HashTable ht;
    BpTree bt;
};

void
expectSameTraffic(const VerbCounters &a0, const VerbCounters &a1,
                  const VerbCounters &b0, const VerbCounters &b1)
{
    EXPECT_EQ(a1.reads - a0.reads, b1.reads - b0.reads);
    EXPECT_EQ(a1.read_bytes - a0.read_bytes, b1.read_bytes - b0.read_bytes);
    EXPECT_EQ(a1.writes - a0.writes, b1.writes - b0.writes);
    EXPECT_EQ(a1.write_bytes - a0.write_bytes,
              b1.write_bytes - b0.write_bytes);
    EXPECT_EQ(a1.posted - a0.posted, b1.posted - b0.posted);
    EXPECT_EQ(a1.posted_bytes - a0.posted_bytes,
              b1.posted_bytes - b0.posted_bytes);
    EXPECT_EQ(a1.atomics - a0.atomics, b1.atomics - b0.atomics);
    EXPECT_EQ(a1.atomic_bytes - a0.atomic_bytes,
              b1.atomic_bytes - b0.atomic_bytes);
    EXPECT_EQ(a1.doorbells - a0.doorbells, b1.doorbells - b0.doorbells);
    EXPECT_EQ(a1.wqes - a0.wqes, b1.wqes - b0.wqes);
    EXPECT_EQ(a1.read_gathers - a0.read_gathers,
              b1.read_gathers - b0.read_gathers);
}

/**
 * A front-end crash loses all volatile state (Section 7, cases 1 and 2):
 * after simulateCrash() and recover(), the session must cost exactly what
 * a brand-new process with the same session id costs when it recovers
 * the same image from the same virtual time. Any state the crash leaves
 * behind (a warm cache, learned prefetch runs, a stale shadow) shows up
 * as a clock or verb-count difference.
 */
TEST(FrontendCrashStateTest, CrashEqualsFreshSession)
{
    CrashTwin crashed;
    CrashTwin fresh;
    ASSERT_NE(crashed.s, nullptr);
    ASSERT_NE(fresh.s, nullptr);
    crashed.runPrefix();
    fresh.runPrefix();
    ASSERT_EQ(crashed.s->clock().now(), fresh.s->clock().now());
    ASSERT_TRUE(crashed.image() == fresh.image());
    const uint64_t t0 = crashed.s->clock().now();

    crashed.s->simulateCrash();
    const VerbCounters a0 = crashed.s->verbs().counters();
    fresh.s.reset(); // the process is gone; its back-end slot stays
    fresh.s = fresh.cluster.makeSession(CrashTwin::config());
    ASSERT_NE(fresh.s, nullptr);
    ASSERT_LT(fresh.s->clock().now(), t0);
    fresh.s->clock().advanceTo(t0);
    const VerbCounters b0 = fresh.s->verbs().counters();

    crashed.reopenAndRecover();
    fresh.reopenAndRecover();
    EXPECT_EQ(crashed.s->clock().now(), fresh.s->clock().now())
        << "recovery";
    const std::vector<uint64_t> a_seen = crashed.runScript();
    const std::vector<uint64_t> b_seen = fresh.runScript();
    EXPECT_EQ(a_seen, b_seen);
    EXPECT_EQ(crashed.s->clock().now() - t0, fresh.s->clock().now() - t0);
    expectSameTraffic(a0, crashed.s->verbs().counters(), b0,
                      fresh.s->verbs().counters());
    EXPECT_EQ(crashed.s->cache().evictions(), 0u);
    EXPECT_EQ(fresh.s->cache().evictions(), 0u);
    EXPECT_GT(crashed.s->stats().pipeline.rounds, 0u); // the window ran
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, CrashPropertyTest,
    ::testing::Values(CrashParam{1, 1, false}, CrashParam{2, 16, false},
                      CrashParam{3, 64, false}, CrashParam{4, 256, false},
                      CrashParam{5, 16, true}, CrashParam{6, 64, true},
                      CrashParam{7, 1, true}, CrashParam{8, 128, false}),
    [](const auto &info) {
        return "seed" + std::to_string(info.param.seed) + "_batch" +
               std::to_string(info.param.batch) +
               (info.param.promote ? "_promote" : "_restart");
    });

} // namespace
} // namespace asymnvm
