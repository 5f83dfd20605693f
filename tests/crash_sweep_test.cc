/**
 * @file
 * Systematic crash-point sweep (Section 7 recovery matrix) plus the
 * op-log ring-wrap hygiene regressions.
 *
 * The sweep test drives every workload kind through all four front-end
 * presets, crashing the back-end at a budgeted sample of RDMA verb
 * indices (and, for logged modes, at interior 64-byte tear prefixes of
 * the in-flight write), then recovering and auditing the durable image
 * with InvariantChecker. Any violation string is a real recovery bug.
 *
 * ASYMNVM_SWEEP_BUDGET=<n> shrinks the per-preset verb sample (useful
 * under sanitizers); the >= 200 distinct-crash-point floor is only
 * asserted at the default budget. Each workload x preset cell prints
 * its verb count, points run, crashes fired and recoveries.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "backend/backend_node.h"
#include "backend/log_format.h"
#include "check/crash_explorer.h"
#include "cluster/cluster.h"
#include "ds/bptree.h"
#include "ds/stack.h"
#include "frontend/session.h"

namespace asymnvm {
namespace {

uint32_t
sweepBudget()
{
    if (const char *env = std::getenv("ASYMNVM_SWEEP_BUDGET")) {
        const long v = std::atol(env);
        if (v > 0)
            return static_cast<uint32_t>(v);
    }
    return 56;
}

bool
budgetOverridden()
{
    return std::getenv("ASYMNVM_SWEEP_BUDGET") != nullptr;
}

struct PresetParam
{
    const char *name;
    SessionConfig (*make)();
};

SessionConfig
presetNaive()
{
    return SessionConfig::naive(1);
}
SessionConfig
presetR()
{
    return SessionConfig::r(1);
}
SessionConfig
presetRc()
{
    return SessionConfig::rc(1, 256ull << 10);
}
SessionConfig
presetRcb()
{
    return SessionConfig::rcb(1, 256ull << 10, 13);
}

constexpr PresetParam kPresets[] = {
    {"naive", presetNaive},
    {"r", presetR},
    {"rc", presetRc},
    {"rcb", presetRcb},
};

class CrashSweepTest : public ::testing::TestWithParam<WorkloadKind>
{};

TEST_P(CrashSweepTest, RecoversAtEverySampledCrashPoint)
{
    uint64_t total_points = 0;
    for (const PresetParam &preset : kPresets) {
        SCOPED_TRACE(preset.name);
        ExplorerOptions opt;
        opt.kind = GetParam();
        opt.session = preset.make();
        opt.max_points = sweepBudget();
        const ExplorerResult res = exploreCrashPoints(opt);

        EXPECT_GT(res.workload_verbs, 0u);
        EXPECT_GT(res.points_run, 0u);
        // Every sampled point must actually crash the back-end and
        // complete the recovery protocol.
        EXPECT_EQ(res.crashes_fired, res.points_run);
        EXPECT_EQ(res.recoveries, res.points_run);
        EXPECT_TRUE(res.report.clean()) << res.report.str();
        // One line per workload x preset, so a change that must keep the
        // verb numbering proves it by a plain stdout diff.
        std::printf("crash sweep %s/%s: %llu workload_verbs, %llu "
                    "points_run, %llu crashes_fired, %llu recoveries\n",
                    workloadName(opt.kind), preset.name,
                    static_cast<unsigned long long>(res.workload_verbs),
                    static_cast<unsigned long long>(res.points_run),
                    static_cast<unsigned long long>(res.crashes_fired),
                    static_cast<unsigned long long>(res.recoveries));
        total_points += res.points_run;
    }
    if (!budgetOverridden()) {
        EXPECT_GE(total_points, 200u)
            << "sweep breadth regressed below the acceptance floor";
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CrashSweepTest,
    ::testing::Values(WorkloadKind::Stack, WorkloadKind::Queue,
                      WorkloadKind::HashTable, WorkloadKind::SkipList),
    [](const ::testing::TestParamInfo<WorkloadKind> &info) {
        return workloadName(info.param);
    });

/**
 * Tear-prefix fan-out: with a generous per-point tear budget a logged
 * session must enumerate interior 64-byte prefixes of large writes, so
 * the number of executed (verb, tear) points exceeds the number of
 * sampled verb indices.
 */
TEST(CrashTearTest, InteriorPrefixesEnumeratedForLoggedModes)
{
    ExplorerOptions opt;
    opt.kind = WorkloadKind::Stack;
    opt.session = presetRcb();
    opt.max_points = 16;
    opt.max_tears_per_point = 64;
    const ExplorerResult res = exploreCrashPoints(opt);
    EXPECT_TRUE(res.report.clean()) << res.report.str();
    // 16 indices, each contributing keep-0 and keep-all plus interior
    // prefixes for any multi-chunk write: strictly more points than
    // indices proves the tear enumeration is live.
    EXPECT_GT(res.points_run, 16u);
}

// ---------------------------------------------------------------------
// Crash with a WRITE pipeline in flight, swept across verb indices
// (DESIGN.md §14). Each sampled point crashes the back-end somewhere
// inside a stream of pipelined insert/erase windows, then recovers and
// audits per window: every window acknowledged at its drain fence must
// survive in full, unacknowledged ops may fail back to the caller but
// must never corrupt sibling ops or the structure. The point count
// honors ASYMNVM_SWEEP_BUDGET like the serial sweep above.
// ---------------------------------------------------------------------

TEST(PipelineCrashSweepTest, WriteWindowsRecoverAtSampledCrashPoints)
{
    const uint32_t points = std::max(4u, sweepBudget() / 8);
    for (uint32_t pt = 0; pt < points; ++pt) {
        SCOPED_TRACE("crash point " + std::to_string(pt));
        ClusterConfig ccfg;
        ccfg.num_backends = 1;
        ccfg.mirrors_per_backend = 1;
        ccfg.backend.nvm_size = 64ull << 20;
        ccfg.backend.max_frontends = 4;
        ccfg.backend.max_names = 8;
        ccfg.backend.memlog_ring_size = 1ull << 20;
        ccfg.backend.oplog_ring_size = 512ull << 10;
        Cluster cluster(ccfg);
        SessionConfig scfg = SessionConfig::rc(1, 256ull << 10);
        scfg.pipeline_depth = 4;
        auto s = cluster.makeSession(scfg);
        ASSERT_NE(s, nullptr);
        BpTree ds;
        ASSERT_EQ(BpTree::create(*s, 1, "t", &ds), Status::Ok);
        Value v{};
        for (uint64_t k = 1; k <= 240; ++k)
            ASSERT_EQ(ds.insert(k, Value::ofU64(k)), Status::Ok);
        ASSERT_EQ(s->flushAll(), Status::Ok);

        // Spread the sampled crash indices across the window stream so
        // points land in descents, phase-B write-outs and drain fences.
        // The stream below runs until the crash fires, so any index is
        // reachable — every window appends to the op log, which always
        // costs wire verbs even when the whole tree is cached.
        cluster.backend(1)->failure().armCrashAfterVerbs(
            60 + pt * 61, /*seed=*/pt);

        // Windows alternate between native pipelined inserts (fresh
        // keys) and erases (preloaded keys, until they run out),
        // tracking what each drain acknowledged.
        std::map<Key, uint64_t> committed_ins;
        std::vector<Key> committed_del;
        bool crashed = false;
        uint64_t windows_run = 0;
        for (uint64_t w = 0; w < 4096 && !crashed; ++w) {
            windows_run = w + 1;
            std::vector<Status> sts(8);
            std::vector<Key> keys;
            Status batch_st = Status::Ok;
            const bool do_erase = (w % 2 == 1) && (w / 2) * 8 + 8 <= 240;
            if (!do_erase) {
                std::vector<std::pair<Key, Value>> kvs;
                for (uint64_t i = 0; i < 8; ++i) {
                    const Key k = 1000 + w * 8 + i;
                    keys.push_back(k);
                    kvs.emplace_back(k, Value::ofU64(k * 3));
                }
                batch_st = ds.insertMany(kvs, sts.data());
            } else {
                for (uint64_t i = 0; i < 8; ++i)
                    keys.push_back(1 + (w / 2) * 8 + i);
                batch_st = ds.eraseMany(keys, sts.data());
            }
            bool window_ok = ok(batch_st);
            for (const Status st : sts)
                window_ok = window_ok && ok(st);
            // The drain's flush is the window's durability point; an
            // explicit fence confirms it landed before the window is
            // counted as committed.
            if (window_ok && ok(s->flushAll())) {
                if (!do_erase) {
                    for (const Key k : keys)
                        committed_ins[k] = k * 3;
                } else {
                    for (const Key k : keys)
                        committed_del.push_back(k);
                }
            } else {
                crashed = true;
            }
        }
        ASSERT_TRUE(crashed)
            << "crash never fired; raise the verb budget";

        cluster.backend(1)->nvm().crash();
        ASSERT_EQ(cluster.restartBackend(1), Status::Ok);
        s->simulateCrash();
        ASSERT_EQ(s->failover(1, cluster.backend(1)), Status::Ok);
        BpTree reopened;
        ASSERT_EQ(BpTree::open(*s, 1, "t", &reopened), Status::Ok);
        ASSERT_EQ(s->recover(), Status::Ok);

        BpTree audit;
        ASSERT_EQ(BpTree::open(*s, 1, "t", &audit), Status::Ok);
        // Acknowledged windows survive in full.
        for (const auto &[k, val] : committed_ins) {
            ASSERT_EQ(audit.find(k, &v), Status::Ok)
                << "committed insert " << k << " lost";
            EXPECT_EQ(v.asU64(), val) << "committed insert " << k
                                      << " torn";
        }
        for (const Key k : committed_del) {
            EXPECT_EQ(audit.find(k, &v), Status::NotFound)
                << "committed erase of " << k << " resurrected";
        }
        // In-flight inserts are whole-or-absent; in-flight erases leave
        // the key either gone or with its original value.
        for (uint64_t k = 1000; k < 1000 + windows_run * 8; ++k) {
            if (committed_ins.count(k) != 0)
                continue;
            const Status got = audit.find(k, &v);
            if (got == Status::Ok)
                EXPECT_EQ(v.asU64(), k * 3)
                    << "in-flight insert " << k << " torn";
            else
                EXPECT_EQ(got, Status::NotFound);
        }
        for (uint64_t k = 1; k <= 240; ++k) {
            if (std::find(committed_del.begin(), committed_del.end(),
                          k) != committed_del.end())
                continue;
            const Status got = audit.find(k, &v);
            if (got == Status::Ok)
                EXPECT_EQ(v.asU64(), k)
                    << "in-flight erase tore key " << k;
            else
                EXPECT_EQ(got, Status::NotFound);
        }
        // The structure stays usable after the mid-window crash.
        ASSERT_EQ(audit.insert(99999, Value::ofU64(7)), Status::Ok);
        ASSERT_EQ(s->flushAll(), Status::Ok);
        ASSERT_EQ(audit.find(99999, &v), Status::Ok);
        EXPECT_EQ(v.asU64(), 7u);
    }
}

// ---------------------------------------------------------------------
// Op-log ring-wrap hygiene (satellite regression).
// ---------------------------------------------------------------------

BackendConfig
wrapConfig(uint64_t oplog_ring)
{
    BackendConfig cfg;
    cfg.nvm_size = 32ull << 20;
    cfg.max_frontends = 4;
    cfg.max_names = 16;
    cfg.memlog_ring_size = 256ull << 10;
    cfg.oplog_ring_size = oplog_ring;
    cfg.block_size = 1024;
    return cfg;
}

// One stack-push op-log record: OpLogHeader(40) + Value(64) + CRC(4).
constexpr uint64_t kPushRecLen = 108;

/**
 * When the lap tail is smaller than a skip marker (< 4 bytes), the
 * wrap must still overwrite the stale bytes (with zeroes) so a
 * recovery scan cannot misparse leftovers from the previous lap.
 */
TEST(OpLogRingWrapTest, SubMarkerTailIsZeroFilled)
{
    // 9 pushes end at offset 972; a 975-byte ring leaves a 3-byte tail.
    BackendNode be(1, wrapConfig(975));
    FrontendSession s(SessionConfig::r(1));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    Stack st;
    ASSERT_EQ(Stack::create(s, 1, "wrap", &st), Status::Ok);

    // Poison the ring to stand in for stale records of a previous lap.
    const uint64_t base = be.layout().oplogRingOff(0);
    std::vector<uint8_t> junk(975, 0xAA);
    be.nvm().write(base, junk.data(), junk.size());
    be.nvm().persist();

    for (uint64_t i = 0; i < 10; ++i)
        ASSERT_EQ(st.push(Value::ofU64(i)), Status::Ok);
    ASSERT_EQ(s.persistentFence(), Status::Ok);

    uint8_t tail[3] = {0xFF, 0xFF, 0xFF};
    be.nvm().read(base + 9 * kPushRecLen, tail, sizeof(tail));
    EXPECT_EQ(tail[0], 0u);
    EXPECT_EQ(tail[1], 0u);
    EXPECT_EQ(tail[2], 0u);
}

/** A tail with room for a marker gets kSkipMagic, not stale bytes. */
TEST(OpLogRingWrapTest, MarkerWrittenWhenTailFitsOne)
{
    // 9 pushes end at offset 972; a 976-byte ring leaves a 4-byte tail.
    BackendNode be(1, wrapConfig(976));
    FrontendSession s(SessionConfig::r(1));
    ASSERT_EQ(s.connect(&be), Status::Ok);
    Stack st;
    ASSERT_EQ(Stack::create(s, 1, "wrap", &st), Status::Ok);

    const uint64_t base = be.layout().oplogRingOff(0);
    std::vector<uint8_t> junk(976, 0xAA);
    be.nvm().write(base, junk.data(), junk.size());
    be.nvm().persist();

    for (uint64_t i = 0; i < 10; ++i)
        ASSERT_EQ(st.push(Value::ofU64(i)), Status::Ok);
    ASSERT_EQ(s.persistentFence(), Status::Ok);

    uint32_t marker = 0;
    be.nvm().read(base + 9 * kPushRecLen, &marker, sizeof(marker));
    EXPECT_EQ(marker, kSkipMagic);
}

} // namespace
} // namespace asymnvm
