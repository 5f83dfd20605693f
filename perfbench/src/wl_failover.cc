/**
 * @file
 * failover: four RCB sessions (batch 64) interleaved round-robin in one
 * thread through a Cluster with transparent failover and two NVM
 * mirrors. Each session runs its own hash table: 50% puts, 50% gets,
 * uniform keys. The back-end is condemned at a fixed op interval and
 * every session rides through the epoch-fenced mirror promotion on its
 * own. The run loads the cluster layer (keepalive, epoch claim, mirror
 * promotion, re-attach of the surviving mirror) and the retry path.
 *
 * A Cluster has no public way to attach a fresh promotable mirror, so a
 * cluster survives only as many promotions as it has mirrors. The run is
 * therefore split into generations: each builds a fresh cluster, preloads
 * it, schedules two crashes, and ends with a read-back of every key from
 * the promoted incarnation. Only the first generation's setup counts as
 * setup time; later setups are outside every metric.
 */

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>

#include "cluster/cluster.h"
#include "ds/hash_table.h"
#include "workloads.h"

namespace perfbench {

using namespace asymnvm;

namespace {

constexpr uint32_t kSessions = 4;
constexpr uint32_t kCrashesPerGeneration = 2;

struct Sizes
{
    uint64_t keys;        //!< keys per session's hash table
    uint64_t generations; //!< fresh clusters per run
    uint64_t interval;    //!< ops between scheduled crashes (odd, so the
                          //!< first session to hit a crash rotates)
};

struct FoOp
{
    bool put;
    Key key;
    uint64_t tag;
    Value value; //!< put payload
};

/** One session of a generation with its structure and shadow state. */
struct Lane
{
    std::unique_ptr<FrontendSession> s;
    HashTable ht;
    std::vector<uint64_t> shadow; //!< last acknowledged tag per key
    uint64_t t0 = 0;              //!< clock at the start of measurement
};

std::string
tableName(uint32_t lane)
{
    return "fo/ht" + std::to_string(lane);
}

/**
 * Bytes replicated to each mirror of back-end 1, observed at the start
 * of a generation, at every scheduled crash and at the end. A promoted
 * mirror leaves the roster, so its last observation stays as its total.
 */
class MirrorLedger
{
  public:
    void
    observe(Cluster &c)
    {
        alive_.clear();
        for (MirrorNode *m : c.mirrorsOf(1)) {
            auto [it, fresh] = seen_.try_emplace(
                m->id(), m->bytesReplicated(), m->bytesReplicated());
            it->second.second = m->bytesReplicated();
            alive_.insert(m->id());
        }
    }

    /** Last observation of the mirror that left since the last observe. */
    uint64_t
    promotedBytes(Cluster &c) const
    {
        std::set<NodeId> now;
        for (MirrorNode *m : c.mirrorsOf(1))
            now.insert(m->id());
        for (const NodeId id : alive_)
            if (now.count(id) == 0)
                return seen_.at(id).second;
        return 0;
    }

    uint64_t
    total() const
    {
        uint64_t sum = 0;
        for (const auto &[id, se] : seen_)
            sum += se.second - se.first;
        return sum;
    }

  private:
    std::map<NodeId, std::pair<uint64_t, uint64_t>> seen_; //!< first, last
    std::set<NodeId> alive_;
};

} // namespace

Result
runFailover(const RunConfig &rc, Tracer &tr)
{
    const Sizes z =
        rc.tiny ? Sizes{256, 2, 301} : Sizes{2048, 12, 2001};
    const uint64_t gen_ops = kCrashesPerGeneration * z.interval;
    Result out;

    // Inputs for every generation; lane = op index % kSessions.
    Rng rng = streamRng(rc.seed, 4);
    std::vector<FoOp> ops(z.generations * gen_ops);
    for (FoOp &op : ops) {
        op.put = rng.nextBool(0.5);
        op.key = 1 + rng.nextBounded(z.keys);
        op.tag = rng.next();
        if (op.put)
            op.value = valueOf(op.tag);
    }

    ClusterConfig ccfg;
    ccfg.num_backends = 1;
    ccfg.mirrors_per_backend = kCrashesPerGeneration;
    ccfg.backend.nvm_size = (16ull + 2 * kSessions) << 20;
    ccfg.backend.max_frontends = 8;
    ccfg.backend.max_names = 16;
    ccfg.backend.memlog_ring_size = 256ull << 10;
    ccfg.backend.oplog_ring_size = 256ull << 10;
    ccfg.transparent_failover = true;

    SetupTimes setup;
    // One generation per host-time chunk: only its first promotion
    // re-attaches a surviving mirror (a full device copy), so a chunk
    // must hold both to carry the whole failover cost.
    Measured m(gen_ops);
    uint64_t promotions = 0, promotion_host_ns = 0;
    std::array<uint64_t, kSessions> lane_wait_ns{};

    for (uint64_t g = 0; g < z.generations; ++g) {
        Scope gen_span(tr, "generation", "bench", 0, nullptr);
        uint64_t h = hostNowNs();
        std::unique_ptr<Cluster> cluster;
        {
            // The Cluster constructor formats the back-end and attaches
            // both mirrors in one call.
            Scope sp(tr, "format", "cluster", 0, nullptr);
            cluster = std::make_unique<Cluster>(ccfg);
        }
        if (g == 0)
            setup.format_s = secondsBetween(h, hostNowNs());

        h = hostNowNs();
        std::array<Lane, kSessions> lanes;
        auto track = [&](uint32_t j) {
            return static_cast<uint32_t>(1 + g * kSessions + j);
        };
        for (uint32_t j = 0; j < kSessions; ++j) {
            Lane &ln = lanes[j];
            ln.s = cluster->makeSession(
                SessionConfig::rcb(1, 256ull << 10, 64));
            if (ln.s == nullptr) {
                out.fail("failover: makeSession failed");
                return out;
            }
            Scope sp(tr, "preload", "ds", track(j), &ln.s->clock());
            ln.shadow.assign(z.keys + 1, 0);
            if (!ok(HashTable::create(*ln.s, 1, tableName(j), z.keys,
                                      &ln.ht))) {
                out.fail("failover: HashTable::create failed");
                return out;
            }
            for (Key k = 1; k <= z.keys; ++k) {
                ln.shadow[k] = mix64(g * kSessions + j) ^ k;
                if (!ok(ln.ht.put(k, valueOf(ln.shadow[k])))) {
                    out.fail("failover: preload put failed");
                    return out;
                }
            }
            if (!ok(ln.s->flushAll())) {
                out.fail("failover: preload flushAll failed");
                return out;
            }
        }
        if (g == 0)
            setup.preload_s = secondsBetween(h, hostNowNs());

        // Measured phase of this generation.
        for (Lane &ln : lanes) {
            ln.s->resetStats();
            ln.t0 = ln.s->clock().now();
        }
        auto maxClock = [&] {
            uint64_t mx = 0;
            for (Lane &ln : lanes)
                mx = std::max(mx, ln.s->clock().now());
            return mx;
        };
        // Keepalive heartbeats at the frontier of virtual time: a live
        // primary renews (a condemned one never does again), and the
        // surviving mirrors always do.
        auto heartbeat = [&](bool primary) {
            const uint64_t mx = maxClock();
            if (primary)
                cluster->keepAlive().renew(1, mx);
            for (MirrorNode *mn : cluster->mirrorsOf(1))
                cluster->keepAlive().renew(mn->id(), mx);
        };

        BackendNode *be = cluster->backend(1);
        BackendTally be_start = BackendTally::of(*be);
        MirrorLedger mirrors;
        mirrors.observe(*cluster);
        const uint64_t epoch0 = cluster->slotEpoch(1);
        bool condemned = false;
        uint32_t episode = 0;
        uint64_t episode_h0 = 0;
        if (g == 0)
            setup.first_op_host_ns = hostNowNs();
        {
            Scope phase(tr, "measure", "bench", 0, nullptr);
            for (uint64_t i = 0; i < gen_ops; ++i) {
                heartbeat(!condemned);
                if (i % z.interval == z.interval / 2) {
                    // Scheduled crash: the primary dies for good; the
                    // group only declares it dead once its lease lapses,
                    // so every clock moves past the lease in sub-lease
                    // steps (staggered per session) with the mirrors
                    // renewing along the way.
                    m.be += BackendTally::of(*be) - be_start;
                    mirrors.observe(*cluster);
                    episode = tr.open("failover_episode", "cluster", 0,
                                      maxClock());
                    episode_h0 = hostNowNs();
                    m.calls.hostTimed([&] {
                        cluster->condemnBackend(1);
                        return 0;
                    });
                    condemned = true;
                    const uint64_t lease = cluster->keepAlive().leaseNs();
                    for (int step = 0; step < 3; ++step) {
                        for (uint32_t j = 0; j < kSessions; ++j)
                            lanes[j].s->clock().advance(lease / 2 +
                                                        j * 1000);
                        heartbeat(false);
                    }
                }

                const uint32_t j = static_cast<uint32_t>(i % kSessions);
                Lane &ln = lanes[j];
                const FoOp &op = ops[g * gen_ops + i];
                Value got;
                const Status st = m.calls.measure(
                    *ln.s, tr, track(j), op.put ? "ht.put" : "ht.get",
                    [&] {
                        return op.put ? ln.ht.put(op.key, op.value)
                                      : ln.ht.get(op.key, &got);
                    });
                if (!ok(st))
                    out.fail(std::string("failover: ") +
                             (op.put ? "put" : "get") + " returned " +
                             statusName(st));
                else if (op.put) {
                    ln.shadow[op.key] = op.tag;
                    m.user_bytes_written += kPairBytes;
                } else if (got != valueOf(ln.shadow[op.key]))
                    out.fail("failover: get of key " +
                             std::to_string(op.key) +
                             " missed its last acknowledged put");

                if (condemned && cluster->backend(1) != be) {
                    // The promotion completed inside this op: account the
                    // new incarnation from its start, whose device already
                    // holds what the promoted mirror received.
                    condemned = false;
                    tr.finish(episode, maxClock());
                    promotion_host_ns += hostNowNs() - episode_h0;
                    be = cluster->backend(1);
                    be_start = BackendTally{};
                    be_start.nvm_bytes = mirrors.promotedBytes(*cluster);
                    mirrors.observe(*cluster);
                }
            }
            for (uint32_t j = 0; j < kSessions; ++j) {
                Lane &ln = lanes[j];
                Scope sp(tr, "flushAll", "frontend", track(j),
                         &ln.s->clock());
                if (!ok(m.calls.hostTimed([&] { return ln.s->flushAll(); })))
                    out.fail("failover: final flushAll failed");
            }
        }
        m.be += BackendTally::of(*be) - be_start;
        mirrors.observe(*cluster);
        m.mirror_bytes += mirrors.total();

        uint64_t gen_vns = 0;
        for (uint32_t j = 0; j < kSessions; ++j) {
            Lane &ln = lanes[j];
            gen_vns = std::max(gen_vns, ln.s->clock().now() - ln.t0);
            m.sess.add(*ln.s);
            lane_wait_ns[j] += ln.s->stats().retry.failover_wait_ns;
            m.live_user_bytes += ln.ht.size() * kPairBytes;
        }
        m.vns += gen_vns;
        m.nvm_alloc_bytes += allocatedBytes(*cluster->backend(1));
        const uint64_t gen_promotions = cluster->slotEpoch(1) - epoch0;
        promotions += gen_promotions;
        if (gen_promotions != kCrashesPerGeneration || condemned)
            out.fail("failover: generation " + std::to_string(g) +
                     " completed " + std::to_string(gen_promotions) +
                     " promotions for " +
                     std::to_string(kCrashesPerGeneration) +
                     " scheduled crashes");

        // Output check: after the final flushAll, a fresh session reads
        // every key back from the promoted incarnation.
        Scope vspan(tr, "verify", "bench", 0, nullptr);
        auto verifier =
            cluster->makeSession(SessionConfig::rcb(1, 1ull << 20, 64));
        std::array<HashTable, kSessions> tables;
        for (uint32_t j = 0; verifier != nullptr && j < kSessions; ++j) {
            if (!ok(HashTable::open(*verifier, 1, tableName(j),
                                    &tables[j]))) {
                out.fail("failover: verifier cannot open " + tableName(j));
                continue;
            }
            for (Key k = 1; k <= z.keys; ++k) {
                Value got;
                const Status st = tables[j].get(k, &got);
                if (!ok(st) || got != valueOf(lanes[j].shadow[k]))
                    out.fail("failover: " + tableName(j) + " key " +
                             std::to_string(k) +
                             " lost an acknowledged put");
            }
        }
        if (verifier == nullptr)
            out.fail("failover: verifier session failed");
    }

    const uint64_t total_ops = z.generations * gen_ops;
    m.ops = total_ops;
    out.attempted = total_ops;
    report(m, setup, rc, &out);

    const double promos = static_cast<double>(promotions);
    out.virt["cluster.promotions"] = promos;
    if (promotions > 0) {
        out.virt["cluster.promo_lost_per_promotion"] =
            static_cast<double>(m.sess.retry.promotions_lost) / promos;
        out.virt["cluster.stale_fenced_per_promotion"] =
            static_cast<double>(m.sess.retry.stale_epoch_fenced) / promos;
        // Median over the sessions of each one's mean wait per promotion.
        std::sort(lane_wait_ns.begin(), lane_wait_ns.end());
        out.virt["failover_stall_p50_us"] =
            static_cast<double>(lane_wait_ns[kSessions / 2 - 1] +
                                lane_wait_ns[kSessions / 2]) /
            2.0 / promos / 1000.0;
        out.host["cluster.promotion_host_ms"] =
            static_cast<double>(promotion_host_ns) / promos / 1e6;
    }
    return out;
}

} // namespace perfbench
