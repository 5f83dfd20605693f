#include "check/crash_explorer.h"

#include <algorithm>
#include <sstream>

#include "cluster/cluster.h"
#include "common/rand.h"

namespace asymnvm {

namespace {

constexpr NodeId kBackend = 1;
constexpr const char *kDsName = "sweep";
/** Post-recovery usability probe; key above every scripted key. */
constexpr Key kProbeKey = 0xFFFF;
constexpr uint64_t kProbeVal = 0xD00DFEED;
/** Stop collecting after this many violations (keeps failures readable). */
constexpr size_t kMaxViolations = 40;

std::vector<Op>
makeScript(uint32_t ops, uint64_t seed)
{
    Rng rng(seed);
    std::vector<Op> script;
    script.reserve(ops);
    const uint64_t key_span = std::max<uint64_t>(1, ops / 3);
    for (uint32_t i = 0; i < ops; ++i) {
        const uint64_t r = rng.nextBounded(100);
        Op op;
        op.k = r < 60 ? Op::K::Add : (r < 85 ? Op::K::Remove : Op::K::Read);
        op.key = 1 + rng.nextBounded(key_span);
        op.val = 0x10000000ull + i;
        script.push_back(op);
    }
    return script;
}

/** One freshly-wired cluster + session + structure under test. */
struct Run
{
    std::unique_ptr<Cluster> cluster; // destroyed last
    std::unique_ptr<FrontendSession> session;
    Handles h;
};

std::unique_ptr<Run>
setupRun(const ExplorerOptions &opt, std::string *err)
{
    auto run = std::make_unique<Run>();
    ClusterConfig cc;
    cc.num_backends = 1;
    cc.mirrors_per_backend = 0;
    cc.backend = opt.backend;
    run->cluster = std::make_unique<Cluster>(cc);
    run->session = run->cluster->makeSession(opt.session);
    Status st = run->h.create(*run->session, kBackend, opt.kind, kDsName);
    if (ok(st))
        st = run->session->persistentFence(); // setup durable before arming
    if (!ok(st)) {
        *err = "workload setup failed";
        return nullptr;
    }
    return run;
}

struct DriveResult
{
    bool crashed = false;
    uint32_t issued = 0;    //!< ops that returned a benign status
    uint32_t committed = 0; //!< ops acked at the last persistence point
    std::vector<std::string> mismatches;
};

DriveResult
driveScript(Run &run, const ExplorerOptions &opt,
            const std::vector<Op> &script)
{
    DriveResult r;
    for (uint32_t i = 0; i < script.size(); ++i) {
        std::string mism;
        if (!ok(run.h.apply(opt.kind, script[i], &mism))) {
            r.crashed = true;
            return r;
        }
        if (!mism.empty())
            r.mismatches.push_back("op " + std::to_string(i) + ": " +
                                   mism);
        ++r.issued;
        // A drained batch means a group commit just persisted everything
        // acked so far; per-op modes drain after every op.
        if (run.session->opsInBatch() == 0)
            r.committed = r.issued;
        if (opt.flush_every != 0 && (i + 1) % opt.flush_every == 0) {
            if (!ok(run.session->persistentFence())) {
                r.crashed = true;
                return r;
            }
            r.committed = r.issued;
        }
    }
    if (!ok(run.session->persistentFence()))
        r.crashed = true;
    else
        r.committed = r.issued;
    return r;
}

bool
recoverRun(Run &run, WorkloadKind kind, std::string *err)
{
    Cluster &cl = *run.cluster;
    // Anything still staged in the device journal is lost with the power.
    cl.backend(kBackend)->nvm().crash();
    Status st = cl.restartBackend(kBackend);
    if (!ok(st)) {
        *err = "restartBackend failed";
        return false;
    }
    run.session->simulateCrash();
    st = run.session->failover(kBackend, cl.backend(kBackend));
    if (!ok(st)) {
        *err = "session failover failed";
        return false;
    }
    st = run.h.open(*run.session, kBackend, kind, kDsName);
    if (!ok(st)) {
        *err = "structure reopen failed";
        return false;
    }
    // failover() already ran recovery once, but the replayers only exist
    // now that the structure is reopened; this pass replays uncovered ops.
    st = run.session->recover();
    if (!ok(st)) {
        *err = "session recover failed";
        return false;
    }
    return true;
}

void
auditRecoveredState(Run &run, const ExplorerOptions &opt,
                    const std::vector<Op> &script, const DriveResult &drive,
                    AuditReport *rep)
{
    BackendNode *node = run.cluster->backend(kBackend);
    const bool strict = opt.session.use_txlog && !opt.session.symmetric;
    InvariantChecker chk(node, strict);
    const DsId ds = run.h.id(opt.kind);

    chk.checkQuiescent(ds, rep);
    for (uint32_t slot = 0; slot < opt.backend.max_frontends; ++slot)
        chk.checkLogControl(slot, rep);
    const auto got = chk.contents(ds, rep);
    if (!got)
        return;

    // Durability + atomicity: the image must equal the model after some
    // script prefix of length j with committed <= j <= issued (+1 for the
    // op in flight when the crash hit). Anything else — a lost acked op,
    // a half-applied batch, a resurrected annulled op — fails every j.
    Model &m = run.h.model(opt.kind);
    m = Model{};
    size_t j = 0;
    for (; j < drive.committed; ++j)
        applyToModel(opt.kind, &m, script[j]);
    const size_t hi = std::min<size_t>(
        script.size(), drive.crashed ? drive.issued + 1 : drive.issued);
    while (*got != m && j < hi)
        applyToModel(opt.kind, &m, script[j++]);
    if (*got != m) {
        rep->add("recovered state matches no script prefix in [" +
                 std::to_string(drive.committed) + ", " +
                 std::to_string(hi) + "]");
        return;
    }

    // Service restored: one more op must succeed and persist.
    const Op probe{Op::K::Add, kProbeKey, kProbeVal};
    std::string mism;
    if (!ok(run.h.apply(opt.kind, probe, &mism))) {
        rep->add("post-recovery op failed");
        return;
    }
    if (!ok(run.session->persistentFence())) {
        rep->add("post-recovery fence failed");
        return;
    }
    if (strict) {
        run.h.audit(chk, opt.kind, rep);
        return;
    }
    // Naive mode: the pre-crash in-flight op may legally vanish when its
    // half-written linkage is overwritten, so only require the probe to
    // have landed where the workload puts new elements: the top of a
    // stack, the tail of a queue, or its key.
    const auto after = chk.contents(ds, rep);
    if (!after)
        return;
    const auto it = after->map.find(kProbeKey);
    const bool landed = after->list.empty()
                            ? it != after->map.end() && it->second == kProbeVal
                            : after->list.back() == kProbeVal;
    if (!landed)
        rep->add("post-recovery add is not the newest element");
}

std::string
presetName(const SessionConfig &s)
{
    if (s.symmetric)
        return "sym";
    if (!s.use_txlog)
        return "naive";
    if (s.batch_size > 1)
        return s.use_cache ? "rcb" : "rb";
    return s.use_cache ? "rc" : "r";
}

/**
 * Tear prefixes to try at one verb: nothing landed, everything landed,
 * and (logged modes only) sampled interior 64-byte boundaries. Naive
 * sessions have no checksums, so interior tears are outside their
 * contract — see the file comment in crash_explorer.h.
 */
std::vector<uint64_t>
tearPrefixes(uint64_t write_len, bool logged, uint32_t max_interior)
{
    std::vector<uint64_t> keeps{0};
    if (write_len == 0)
        return keeps;
    if (logged && write_len > 64) {
        std::vector<uint64_t> interior;
        for (uint64_t keep = 64; keep < write_len; keep += 64)
            interior.push_back(keep);
        const uint64_t n =
            std::min<uint64_t>(max_interior, interior.size());
        for (uint64_t i = 0; i < n; ++i)
            keeps.push_back(interior[i * interior.size() / n]);
    }
    keeps.push_back(write_len);
    return keeps;
}

} // namespace

BackendConfig
sweepBackendConfig()
{
    // Small enough that per-crash-point cluster construction stays cheap,
    // big enough for the sweep workloads with room to spare.
    BackendConfig bc;
    bc.nvm_size = 8ull << 20;
    bc.max_frontends = 2;
    bc.max_names = 8;
    bc.memlog_ring_size = 128ull << 10;
    bc.oplog_ring_size = 64ull << 10;
    bc.rpc_ring_size = 8ull << 10;
    return bc;
}

ExplorerResult
exploreCrashPoints(const ExplorerOptions &opt)
{
    ExplorerResult res;
    const auto script = makeScript(opt.ops, opt.seed);
    const std::string tag =
        std::string(workloadName(opt.kind)) + "/" + presetName(opt.session);

    // Recording pass: one clean run captures the verb trace.
    std::vector<uint64_t> lens;
    {
        std::string err;
        auto run = setupRun(opt, &err);
        if (!run) {
            res.report.add("[" + tag + "] " + err);
            return res;
        }
        FailureInjector &fi = run->cluster->backend(kBackend)->failure();
        fi.startRecording();
        const DriveResult d = driveScript(*run, opt, script);
        fi.stopRecording();
        if (d.crashed) {
            res.report.add("[" + tag +
                                     "] clean recording run crashed");
            return res;
        }
        for (const auto &m : d.mismatches)
            res.report.add("[" + tag + " clean] " + m);
        lens = fi.recordedWriteLens();
    }
    res.workload_verbs = lens.size();
    if (lens.empty()) {
        res.report.add("[" + tag + "] workload issued no verbs");
        return res;
    }

    // Evenly sample verb indices within the budget.
    std::vector<uint64_t> indices;
    const uint64_t want =
        opt.max_points == 0
            ? lens.size()
            : std::min<uint64_t>(opt.max_points, lens.size());
    for (uint64_t i = 0; i < want; ++i) {
        const uint64_t idx = i * lens.size() / want;
        if (indices.empty() || indices.back() != idx)
            indices.push_back(idx);
    }

    const bool logged = opt.session.use_txlog && !opt.session.symmetric;
    for (const uint64_t idx : indices) {
        for (const uint64_t keep :
             tearPrefixes(lens[idx], logged, opt.max_tears_per_point)) {
            if (res.report.violations.size() >= kMaxViolations) {
                res.report.add("[" + tag +
                                         "] ... sweep aborted: too many "
                                         "violations");
                return res;
            }
            ++res.points_run;
            std::ostringstream lbl;
            lbl << "[" << tag << " verb=" << idx << " keep=" << keep
                << "] ";

            std::string err;
            auto run = setupRun(opt, &err);
            if (!run) {
                res.report.add(lbl.str() + err);
                continue;
            }
            run->cluster->backend(kBackend)->failure().armCrashAtVerb(
                idx, keep);
            const DriveResult d = driveScript(*run, opt, script);
            const auto fired =
                run->cluster->backend(kBackend)->failure().firedAtVerb();
            if (!fired.has_value()) {
                res.report.add(
                    lbl.str() + "armed crash point never fired "
                                "(workload nondeterminism)");
                continue;
            }
            ++res.crashes_fired;
            for (const auto &m : d.mismatches)
                res.report.add(lbl.str() + "pre-crash " + m);

            if (!recoverRun(*run, opt.kind, &err)) {
                res.report.add(lbl.str() + err);
                continue;
            }
            ++res.recoveries;

            AuditReport rep;
            auditRecoveredState(*run, opt, script, d, &rep);
            for (const auto &v : rep.violations)
                res.report.add(lbl.str() + v);
        }
    }
    return res;
}

} // namespace asymnvm
