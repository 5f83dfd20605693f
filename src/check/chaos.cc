#include "check/chaos.h"

#include <algorithm>
#include <memory>
#include <set>
#include <vector>

#include "check/oracle.h"
#include "cluster/cluster.h"
#include "common/rand.h"
#include "frontend/session.h"

namespace asymnvm {

namespace {

/** Workload key space: small enough to exercise chains and erases. */
constexpr uint64_t kKeySpace = 64;

std::string
describe(const char *what, Status st)
{
    return std::string(what) + " -> " + statusName(st);
}

/** The op mix: a draw below `below` (of 100) runs `k` on `kind`. */
struct MixEntry
{
    uint32_t below;
    WorkloadKind kind;
    Op::K k;
};
constexpr MixEntry kMix[] = {
    {30, WorkloadKind::HashTable, Op::K::Add},
    {55, WorkloadKind::HashTable, Op::K::Read},
    {70, WorkloadKind::HashTable, Op::K::Remove},
    {85, WorkloadKind::Stack, Op::K::Add},
    {100, WorkloadKind::Stack, Op::K::Remove},
};
constexpr WorkloadKind kKinds[] = {WorkloadKind::HashTable,
                                   WorkloadKind::Stack};

/** One front-end session with its own structures and their models.
 *  Structures are per-session because the simulation is SWMR: each
 *  writer owns its structures, but all share the back-end, its log
 *  slots, heap, naming space — and its failures. */
struct SessionCtx
{
    std::unique_ptr<FrontendSession> s;
    Handles h;
};

} // namespace

ChaosResult
runChaosSoak(const ChaosConfig &cfg)
{
    ChaosResult res;
    auto fail = [&res](std::string why) -> ChaosResult & {
        if (res.ok) {
            res.ok = false;
            res.error = std::move(why);
        }
        return res;
    };

    const uint32_t nsessions = std::max(1u, cfg.sessions);

    ClusterConfig ccfg;
    ccfg.num_backends = 1;
    ccfg.mirrors_per_backend = cfg.mirrors;
    ccfg.backend.nvm_size = (16ull << 20) + nsessions * (2ull << 20);
    ccfg.backend.max_frontends = std::max(4u, nsessions);
    ccfg.backend.max_names = std::max(16u, 2 * nsessions + 4);
    ccfg.backend.memlog_ring_size = 256ull << 10;
    ccfg.backend.oplog_ring_size = 256ull << 10;
    ccfg.transparent_failover = true;
    Cluster cluster(ccfg);

    std::vector<SessionCtx> sess(nsessions);
    std::set<uint64_t> session_ids;
    for (uint32_t j = 0; j < nsessions; ++j) {
        SessionCtx &sc = sess[j];
        sc.s = cluster.makeSession(
            SessionConfig::rcb(1, 1ull << 20, cfg.batch_size));
        if (sc.s == nullptr)
            return fail("makeSession failed");
        session_ids.insert(sc.s->config().session_id);
        for (const WorkloadKind kind : kKinds) {
            const Status st = sc.h.create(
                *sc.s, 1, kind,
                std::string("chaos_") + workloadName(kind) + "_" +
                    std::to_string(j));
            if (!ok(st))
                return fail(describe("create", st));
        }
        const Status st = sc.s->flushAll();
        if (!ok(st))
            return fail(describe("initial flushAll", st));
    }

    // Audit the raw NVM image against every session's models (quiesced
    // first), then the promotion ledger: epochs must be contiguous with
    // exactly one promotion record each, won by a known session (or by
    // the harness, winner 0).
    auto audit = [&](const char *when) -> bool {
        for (SessionCtx &sc : sess) {
            const Status fst = sc.s->flushAll();
            if (!ok(fst)) {
                fail(describe("audit flushAll", fst) + " (" + when +
                     ")");
                return false;
            }
        }
        InvariantChecker chk(cluster.backend(1), /*strict=*/true);
        AuditReport rep;
        for (uint32_t slot = 0; slot < nsessions; ++slot)
            chk.checkLogControl(slot, &rep);
        for (SessionCtx &sc : sess)
            for (const WorkloadKind kind : kKinds)
                sc.h.audit(chk, kind, &rep);
        if (!rep.clean()) {
            fail(std::string("invariants (") + when + "): " + rep.str());
            return false;
        }
        const auto hist = cluster.failoverEpochs().history();
        uint64_t expect = 2; // slots are born at epoch 1
        for (const auto &rec : hist) {
            if (rec.node != 1) {
                fail("promotion record for unexpected node");
                return false;
            }
            if (rec.epoch != expect) {
                fail("promotion epochs not contiguous (epoch " +
                     std::to_string(rec.epoch) + ", expected " +
                     std::to_string(expect) + ")");
                return false;
            }
            if (rec.winner_session != 0 &&
                session_ids.count(rec.winner_session) == 0) {
                fail("promotion won by unknown session " +
                     std::to_string(rec.winner_session));
                return false;
            }
            ++expect;
        }
        if (cluster.slotEpoch(1) != 1 + hist.size()) {
            fail("slot epoch diverges from promotion history");
            return false;
        }
        ++res.audits;
        return true;
    };

    Rng rng(cfg.seed * 0x9e3779b97f4a7c15ULL + 1);
    bool condemned = false;
    uint32_t fault_ops_left = 0;
    FaultConfig window_cfg;
    std::vector<uint64_t> fo_seen(nsessions, 0);

    auto maxNow = [&] {
        uint64_t mx = 0;
        for (SessionCtx &sc : sess)
            mx = std::max(mx, sc.s->clock().now());
        return mx;
    };

    for (uint32_t i = 0; res.ok && i < cfg.num_ops; ++i) {
        SessionCtx &sc = sess[i % nsessions];

        // Keepalive heartbeats at the frontier of virtual time: a live
        // primary renews (a condemned one, by definition, never will
        // again); surviving mirrors renew.
        const uint64_t mx = maxNow();
        if (!condemned)
            cluster.keepAlive().renew(1, mx);
        for (MirrorNode *m : cluster.mirrorsOf(1))
            cluster.keepAlive().renew(m->id(), mx);

        // Maintain the transient-network-fault window across failovers:
        // a replacement back-end arrives with a fresh, disarmed model.
        BackendNode *be = cluster.backend(1);
        if (fault_ops_left > 0) {
            --fault_ops_left;
            if (fault_ops_left == 0)
                be->faults().disarm();
            else if (!be->faults().armed())
                be->faults().configure(window_cfg,
                                       cfg.seed ^ (i * 0x100000001b3ULL));
        }

        // Inject at most one chaos event per operation boundary.
        if (rng.nextBool(cfg.p_transient)) {
            cluster.crashBackendTransient(1);
            ++res.transient_crashes;
        } else if (!condemned && rng.nextBool(cfg.p_permanent) &&
                   !cluster.mirrorsOf(1).empty()) {
            cluster.condemnBackend(1);
            condemned = true;
            ++res.permanent_failures;
            // Detection delay: the group only declares the node dead
            // once its lease lapses. Jump every session's clock past
            // the lease in sub-lease steps (staggered, so no two
            // sessions resolve at the same instant), renewing the
            // surviving mirrors at each step — their keepalive agents
            // outlive the primary's silence.
            const uint64_t lease = cluster.keepAlive().leaseNs();
            for (int step = 0; step < 3; ++step) {
                for (uint32_t j = 0; j < nsessions; ++j)
                    sess[j].s->clock().advance(lease / 2 + j * 1000);
                const uint64_t t = maxNow();
                for (MirrorNode *m : cluster.mirrorsOf(1))
                    cluster.keepAlive().renew(m->id(), t);
            }
        } else if (rng.nextBool(cfg.p_mirror_crash) &&
                   cluster.mirrorsOf(1).size() > 1) {
            // Keep at least one mirror so the availability promise holds.
            cluster.crashMirror(
                1, rng.nextBounded(cluster.mirrorsOf(1).size()), mx);
            ++res.mirror_crashes;
        } else if (fault_ops_left == 0 &&
                   rng.nextBool(cfg.p_fault_window)) {
            window_cfg = FaultConfig{};
            window_cfg.drop_rate = 0.02;
            window_cfg.delay_rate = 0.05;
            window_cfg.qp_error_rate = 0.01;
            be->faults().configure(window_cfg,
                                   cfg.seed ^ (i * 0x9e3779b9ULL));
            fault_ops_left = cfg.fault_window_ops;
            ++res.fault_windows;
        } else if (rng.nextBool(cfg.p_gray)) {
            be->faults().slowDownUntil(mx + 200000, /*extra_ns=*/500);
            ++res.gray_bursts;
        }

        // While the primary is condemned and down, every session probes
        // the resolver (the KeepAlive rejoin path): once the lease
        // lapses, k sessions race the promotion claim — exactly one may
        // win it; the rest must observe the race and re-resolve.
        const size_t hist_before =
            cluster.failoverEpochs().history().size();
        if (condemned && cluster.backend(1)->failure().crashed()) {
            for (SessionCtx &x : sess)
                x.s->tryHeal(1);
        }

        // One workload operation, on this session's own structures.
        // Every outcome other than Ok (or a model-consistent NotFound)
        // is an availability violation: a promotable mirror or a
        // restartable node always exists here.
        const uint32_t draw = static_cast<uint32_t>(rng.nextBounded(100));
        const MixEntry &mix =
            *std::find_if(std::begin(kMix), std::end(kMix),
                          [&](const MixEntry &e) { return draw < e.below; });
        Op op{mix.k, rng.nextBounded(kKeySpace) + 1, 0};
        if (op.k == Op::K::Add)
            op.val = rng.next();
        std::string mism;
        const Status st = sc.h.apply(mix.kind, op, &mism);
        if (!ok(st) || !mism.empty()) {
            fail(ok(st) ? mism : describe(workloadName(mix.kind), st));
            break;
        }
        ++res.ops_done;

        // Transparent heals ran inside the probes or the op. When a
        // promotion landed (the ledger grew), the condemned node has
        // been replaced; audit the recovered image.
        uint64_t new_fo = 0;
        for (uint32_t j = 0; j < nsessions; ++j) {
            const uint64_t cur = sess[j].s->failoversCompleted();
            new_fo += cur - fo_seen[j];
            fo_seen[j] = cur;
        }
        if (new_fo > 0) {
            res.failovers += new_fo;
            if (cluster.failoverEpochs().history().size() >
                hist_before)
                condemned = false;
            if (!audit("after recovery"))
                break;
        }
    }

    if (res.ok)
        audit("end of run");

    for (SessionCtx &sc : sess) {
        const SessionStats stats = sc.s->stats();
        res.verb_retries += stats.retry.totalRetries();
        res.rpc_resends += stats.retry.rpc_resends;
        res.promotions_won += stats.retry.promotions_won;
        res.promotions_lost += stats.retry.promotions_lost;
        res.stale_fenced += stats.retry.stale_epoch_fenced;
    }
    res.promotions = cluster.failoverEpochs().history().size();
    res.claim_takeovers = cluster.failoverEpochs().stats(1).takeovers;
    return res;
}

} // namespace asymnvm
