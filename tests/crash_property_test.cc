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
