#include "check/crash_explorer.h"

#include <algorithm>
#include <map>
#include <sstream>

#include "check/invariant_checker.h"
#include "cluster/cluster.h"
#include "common/rand.h"
#include "ds/hash_table.h"
#include "ds/queue.h"
#include "ds/skiplist.h"
#include "ds/stack.h"

namespace asymnvm {

namespace {

constexpr NodeId kBackend = 1;
constexpr const char *kDsName = "sweep";
constexpr uint64_t kHashBuckets = 64;
/** Post-recovery usability probe; key above every scripted key. */
constexpr Key kProbeKey = 0xFFFF;
constexpr uint64_t kProbeVal = 0xD00DFEED;
/** Stop collecting after this many violations (keeps failures readable). */
constexpr size_t kMaxViolations = 40;

struct ScriptOp
{
    enum class K
    {
        Add,
        Remove,
        Read,
    };
    K k;
    Key key;
    uint64_t val;
};

/** Shadow model: `list` for stack/queue (oldest/bottom first). */
struct Model
{
    std::vector<uint64_t> list;
    std::map<Key, uint64_t> map;
};

std::vector<ScriptOp>
makeScript(uint32_t ops, uint64_t seed)
{
    Rng rng(seed);
    std::vector<ScriptOp> script;
    script.reserve(ops);
    const uint64_t key_span = std::max<uint64_t>(1, ops / 3);
    for (uint32_t i = 0; i < ops; ++i) {
        const uint64_t r = rng.nextBounded(100);
        ScriptOp op;
        op.k = r < 60 ? ScriptOp::K::Add
                      : (r < 85 ? ScriptOp::K::Remove : ScriptOp::K::Read);
        op.key = 1 + rng.nextBounded(key_span);
        op.val = 0x10000000ull + i;
        script.push_back(op);
    }
    return script;
}

void
applyToModel(WorkloadKind kind, Model *m, const ScriptOp &op)
{
    switch (kind) {
    case WorkloadKind::Stack:
        if (op.k == ScriptOp::K::Add)
            m->list.push_back(op.val);
        else if (op.k == ScriptOp::K::Remove && !m->list.empty())
            m->list.pop_back();
        break;
    case WorkloadKind::Queue:
        if (op.k == ScriptOp::K::Add)
            m->list.push_back(op.val);
        else if (op.k == ScriptOp::K::Remove && !m->list.empty())
            m->list.erase(m->list.begin());
        break;
    case WorkloadKind::HashTable:
    case WorkloadKind::SkipList:
        if (op.k == ScriptOp::K::Add)
            m->map[op.key] = op.val;
        else if (op.k == ScriptOp::K::Remove)
            m->map.erase(op.key);
        break;
    }
}

/** One freshly-wired cluster + session + structure under test. */
struct Run
{
    std::unique_ptr<Cluster> cluster; // destroyed last
    std::unique_ptr<FrontendSession> session;
    Stack stack;
    Queue queue;
    HashTable hash;
    SkipList skip;
};

DsId
dsIdOf(Run &run, WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Stack:
        return run.stack.id();
    case WorkloadKind::Queue:
        return run.queue.id();
    case WorkloadKind::HashTable:
        return run.hash.id();
    case WorkloadKind::SkipList:
        return run.skip.id();
    }
    return 0;
}

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
    Status st = Status::Ok;
    switch (opt.kind) {
    case WorkloadKind::Stack:
        st = Stack::create(*run->session, kBackend, kDsName, &run->stack);
        break;
    case WorkloadKind::Queue:
        st = Queue::create(*run->session, kBackend, kDsName, &run->queue);
        break;
    case WorkloadKind::HashTable:
        st = HashTable::create(*run->session, kBackend, kDsName,
                               kHashBuckets, &run->hash);
        break;
    case WorkloadKind::SkipList:
        st = SkipList::create(*run->session, kBackend, kDsName,
                              &run->skip);
        break;
    }
    if (ok(st))
        st = run->session->persistentFence(); // setup durable before arming
    if (!ok(st)) {
        *err = "workload setup failed";
        return nullptr;
    }
    return run;
}

Status
reopenStructure(Run &run, WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Stack:
        return Stack::open(*run.session, kBackend, kDsName, &run.stack);
    case WorkloadKind::Queue:
        return Queue::open(*run.session, kBackend, kDsName, &run.queue);
    case WorkloadKind::HashTable:
        return HashTable::open(*run.session, kBackend, kDsName, &run.hash);
    case WorkloadKind::SkipList:
        return SkipList::open(*run.session, kBackend, kDsName, &run.skip);
    }
    return Status::InvalidArgument;
}

/**
 * Execute one script op against the live structure, checking benign
 * results against the pre-op model @p before. Returns the op's status;
 * value/status mismatches under a benign status go into @p mismatch.
 */
Status
applyScriptOp(Run &run, WorkloadKind kind, const ScriptOp &op,
              const Model &before, std::string *mismatch)
{
    Value v;
    Status st = Status::Ok;
    auto expectVal = [&](uint64_t want, const char *what) {
        if (v.asU64() != want)
            *mismatch = std::string(what) + " returned a wrong value";
    };
    switch (kind) {
    case WorkloadKind::Stack:
        if (op.k == ScriptOp::K::Add)
            return run.stack.push(Value::ofU64(op.val));
        st = op.k == ScriptOp::K::Remove ? run.stack.pop(&v)
                                         : run.stack.top(&v);
        if (before.list.empty()) {
            if (st == Status::Ok)
                *mismatch = "stack yielded a value while the model is "
                            "empty";
            return st == Status::NotFound ? Status::Ok : st;
        }
        if (st == Status::Ok)
            expectVal(before.list.back(), "stack");
        return st;
    case WorkloadKind::Queue:
        if (op.k == ScriptOp::K::Add)
            return run.queue.enqueue(Value::ofU64(op.val));
        st = op.k == ScriptOp::K::Remove ? run.queue.dequeue(&v)
                                         : run.queue.front(&v);
        if (before.list.empty()) {
            if (st == Status::Ok)
                *mismatch = "queue yielded a value while the model is "
                            "empty";
            return st == Status::NotFound ? Status::Ok : st;
        }
        if (st == Status::Ok)
            expectVal(before.list.front(), "queue");
        return st;
    case WorkloadKind::HashTable:
    case WorkloadKind::SkipList: {
        const bool is_hash = kind == WorkloadKind::HashTable;
        if (op.k == ScriptOp::K::Add)
            return is_hash ? run.hash.put(op.key, Value::ofU64(op.val))
                           : run.skip.insert(op.key, Value::ofU64(op.val));
        if (op.k == ScriptOp::K::Remove) {
            st = is_hash ? run.hash.erase(op.key)
                         : run.skip.erase(op.key);
            const bool present = before.map.count(op.key) != 0;
            if (st == Status::Ok && !present)
                *mismatch = "erase succeeded on an absent key";
            if (st == Status::NotFound && present)
                *mismatch = "erase missed a present key";
            return st == Status::NotFound ? Status::Ok : st;
        }
        st = is_hash ? run.hash.get(op.key, &v)
                     : run.skip.find(op.key, &v);
        auto it = before.map.find(op.key);
        if (it == before.map.end()) {
            if (st == Status::Ok)
                *mismatch = "lookup found an absent key";
            return st == Status::NotFound ? Status::Ok : st;
        }
        if (st == Status::NotFound)
            *mismatch = "lookup missed a present key";
        else if (st == Status::Ok)
            expectVal(it->second, "lookup");
        return st == Status::NotFound ? Status::Ok : st;
    }
    }
    return Status::InvalidArgument;
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
            const std::vector<ScriptOp> &script)
{
    DriveResult r;
    Model model;
    for (uint32_t i = 0; i < script.size(); ++i) {
        std::string mism;
        const Status st =
            applyScriptOp(run, opt.kind, script[i], model, &mism);
        if (!ok(st)) {
            r.crashed = true;
            return r;
        }
        if (!mism.empty())
            r.mismatches.push_back("op " + std::to_string(i) + ": " +
                                   mism);
        applyToModel(opt.kind, &model, script[i]);
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
    st = reopenStructure(run, kind);
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

bool
stateEq(WorkloadKind kind, const Model &m,
        const std::vector<uint64_t> &list, const std::map<Key, uint64_t> &map)
{
    switch (kind) {
    case WorkloadKind::Stack: {
        // Extraction is top-first; the model list is bottom-first.
        if (list.size() != m.list.size())
            return false;
        return std::equal(list.begin(), list.end(), m.list.rbegin());
    }
    case WorkloadKind::Queue:
        return list == m.list;
    case WorkloadKind::HashTable:
    case WorkloadKind::SkipList:
        return map == m.map;
    }
    return false;
}

/** Extract the audited structure; true when the walk itself succeeded. */
bool
extractState(Run &run, WorkloadKind kind, InvariantChecker *chk,
             AuditReport *rep, std::vector<uint64_t> *list,
             std::map<Key, uint64_t> *map)
{
    const DsId ds = dsIdOf(run, kind);
    switch (kind) {
    case WorkloadKind::Stack: {
        auto got = chk->stackContents(ds, rep);
        if (!got)
            return false;
        *list = std::move(*got);
        return true;
    }
    case WorkloadKind::Queue: {
        auto got = chk->queueContents(ds, rep);
        if (!got)
            return false;
        *list = std::move(*got);
        return true;
    }
    case WorkloadKind::HashTable: {
        auto got = chk->hashContents(ds, rep);
        if (!got)
            return false;
        *map = std::move(*got);
        return true;
    }
    case WorkloadKind::SkipList: {
        auto got = chk->skipContents(ds, rep);
        if (!got)
            return false;
        *map = std::move(*got);
        return true;
    }
    }
    return false;
}

void
auditRecoveredState(Run &run, const ExplorerOptions &opt,
                    const std::vector<ScriptOp> &script,
                    const DriveResult &drive, AuditReport *rep)
{
    BackendNode *node = run.cluster->backend(kBackend);
    const bool strict = opt.session.use_txlog && !opt.session.symmetric;
    InvariantChecker chk(node, strict);
    const DsId ds = dsIdOf(run, opt.kind);

    chk.checkQuiescent(ds, rep);
    for (uint32_t slot = 0; slot < opt.backend.max_frontends; ++slot)
        chk.checkLogControl(slot, rep);

    std::vector<uint64_t> list;
    std::map<Key, uint64_t> map;
    if (!extractState(run, opt.kind, &chk, rep, &list, &map))
        return;

    // Durability + atomicity: the image must equal the model after some
    // script prefix of length j with committed <= j <= issued (+1 for the
    // op in flight when the crash hit). Anything else — a lost acked op,
    // a half-applied batch, a resurrected annulled op — fails every j.
    Model m;
    size_t j = 0;
    for (; j < drive.committed; ++j)
        applyToModel(opt.kind, &m, script[j]);
    const size_t hi = std::min<size_t>(
        script.size(), drive.crashed ? drive.issued + 1 : drive.issued);
    bool matched = stateEq(opt.kind, m, list, map);
    while (!matched && j < hi) {
        applyToModel(opt.kind, &m, script[j]);
        ++j;
        matched = stateEq(opt.kind, m, list, map);
    }
    if (!matched) {
        rep->add("recovered state matches no script prefix in [" +
                 std::to_string(drive.committed) + ", " +
                 std::to_string(hi) + "]");
        return;
    }

    // Service restored: one more op must succeed and persist.
    const ScriptOp probe{ScriptOp::K::Add, kProbeKey, kProbeVal};
    std::string mism;
    Status st = applyScriptOp(run, opt.kind, probe, m, &mism);
    if (!ok(st)) {
        rep->add("post-recovery op failed");
        return;
    }
    if (!ok(run.session->persistentFence())) {
        rep->add("post-recovery fence failed");
        return;
    }
    applyToModel(opt.kind, &m, probe);
    list.clear();
    map.clear();
    if (!extractState(run, opt.kind, &chk, rep, &list, &map))
        return;
    if (strict) {
        if (!stateEq(opt.kind, m, list, map))
            rep->add("state diverged from the model after the "
                     "post-recovery op");
        return;
    }
    // Naive mode: the pre-crash in-flight op may legally vanish when its
    // half-written linkage is overwritten, so only require the probe to
    // have landed where the workload puts new elements.
    switch (opt.kind) {
    case WorkloadKind::Stack:
        if (list.empty() || list.front() != kProbeVal)
            rep->add("post-recovery push is not on top of the stack");
        break;
    case WorkloadKind::Queue:
        if (list.empty() || list.back() != kProbeVal)
            rep->add("post-recovery enqueue is not at the queue tail");
        break;
    case WorkloadKind::HashTable:
    case WorkloadKind::SkipList: {
        auto it = map.find(kProbeKey);
        if (it == map.end() || it->second != kProbeVal)
            rep->add("post-recovery insert is missing");
        break;
    }
    }
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

const char *
workloadName(WorkloadKind kind)
{
    switch (kind) {
    case WorkloadKind::Stack:
        return "stack";
    case WorkloadKind::Queue:
        return "queue";
    case WorkloadKind::HashTable:
        return "hash";
    case WorkloadKind::SkipList:
        return "skiplist";
    }
    return "?";
}

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

std::string
ExplorerResult::violationText() const
{
    std::ostringstream os;
    for (const auto &v : violations)
        os << "  - " << v << "\n";
    return os.str();
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
            res.violations.push_back("[" + tag + "] " + err);
            return res;
        }
        FailureInjector &fi = run->cluster->backend(kBackend)->failure();
        fi.startRecording();
        const DriveResult d = driveScript(*run, opt, script);
        fi.stopRecording();
        if (d.crashed) {
            res.violations.push_back("[" + tag +
                                     "] clean recording run crashed");
            return res;
        }
        for (const auto &m : d.mismatches)
            res.violations.push_back("[" + tag + " clean] " + m);
        lens = fi.recordedWriteLens();
    }
    res.workload_verbs = lens.size();
    if (lens.empty()) {
        res.violations.push_back("[" + tag + "] workload issued no verbs");
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
            if (res.violations.size() >= kMaxViolations) {
                res.violations.push_back("[" + tag +
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
                res.violations.push_back(lbl.str() + err);
                continue;
            }
            run->cluster->backend(kBackend)->failure().armCrashAtVerb(
                idx, keep);
            const DriveResult d = driveScript(*run, opt, script);
            const auto fired =
                run->cluster->backend(kBackend)->failure().firedAtVerb();
            if (!fired.has_value()) {
                res.violations.push_back(
                    lbl.str() + "armed crash point never fired "
                                "(workload nondeterminism)");
                continue;
            }
            ++res.crashes_fired;
            for (const auto &m : d.mismatches)
                res.violations.push_back(lbl.str() + "pre-crash " + m);

            if (!recoverRun(*run, opt.kind, &err)) {
                res.violations.push_back(lbl.str() + err);
                continue;
            }
            ++res.recoveries;

            AuditReport rep;
            auditRecoveredState(*run, opt, script, d, &rep);
            for (const auto &v : rep.violations)
                res.violations.push_back(lbl.str() + v);
        }
    }
    return res;
}

} // namespace asymnvm
