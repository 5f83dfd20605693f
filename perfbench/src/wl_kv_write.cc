/**
 * @file
 * kv_write: 100% puts from one RCB session (batch 1024, cache 10% of the
 * data) with one NVM mirror attached, round-robin over a B+tree and a
 * hash table of about 200 K keys each. Keys are uniform; half the puts
 * overwrite a preloaded key and half insert a fresh one, so the working
 * set is larger than the cache. The run loads the group-commit, log
 * format, back-end replay, mirror replication and allocator paths; read
 * prefetch never fires, because write paths do not speculate.
 */

#include <memory>

#include "cluster/mirror.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "workloads.h"

namespace perfbench {

using namespace asymnvm;

namespace {

struct Sizes
{
    uint64_t preload; //!< keys loaded into each structure
    uint64_t ops;     //!< measured puts, split evenly over both
};

struct PutOp
{
    uint8_t ds; //!< 0 = B+tree, 1 = hash table
    Key key;
    uint64_t tag; //!< value tag (see valueOf)
    Value value;
};

constexpr const char *kDsName[2] = {"kv/bpt", "kv/ht"};

} // namespace

Result
runKvWrite(const RunConfig &rc, Tracer &tr)
{
    const Sizes z = rc.tiny ? Sizes{2000, 2000} : Sizes{200000, 100000};
    const uint64_t fresh = z.ops / 2; // enough for every put of one ds
    const uint64_t universe = z.preload + fresh;
    Result out;

    // Inputs: per structure, keys 1..universe in seed order; the first
    // `preload` are loaded, the rest are handed out as fresh keys.
    Rng rng = streamRng(rc.seed, 1);
    std::vector<Key> keys[2];
    for (auto &k : keys)
        k = shuffledKeys(universe, rng);
    std::vector<PutOp> ops(z.ops);
    uint64_t next_fresh[2] = {z.preload, z.preload};
    for (uint64_t i = 0; i < z.ops; ++i) {
        PutOp &op = ops[i];
        op.ds = static_cast<uint8_t>(i % 2);
        op.key = rng.nextBool(0.5)
                     ? keys[op.ds][rng.nextBounded(z.preload)]
                     : keys[op.ds][next_fresh[op.ds]++];
        op.tag = rng.next();
        op.value = valueOf(op.tag);
    }

    // Setup: format, mirror attach, preload.
    SetupTimes setup;
    const BackendConfig bcfg = backendConfig(rc.tiny ? 32 : 96);
    std::unique_ptr<MirrorNode> mirror; // outlives the node it mirrors
    std::unique_ptr<BackendNode> be;
    uint64_t h = hostNowNs();
    {
        Scope sp(tr, "format", "backend", 0, nullptr);
        be = std::make_unique<BackendNode>(1, bcfg);
    }
    setup.format_s = secondsBetween(h, hostNowNs());
    h = hostNowNs();
    {
        Scope sp(tr, "mirror_attach", "backend", 0, nullptr);
        mirror = std::make_unique<MirrorNode>(200, bcfg.nvm_size);
        be->addMirror(mirror.get());
    }
    setup.mirror_attach_s = secondsBetween(h, hostNowNs());

    h = hostNowNs();
    // Cache 10% of the data: ~100 B/key in the B+tree, ~88 B/key in the
    // hash table (node plus bucket slot).
    const uint64_t cache_bytes = universe * (100 + 88) / 10;
    FrontendSession s(SessionConfig::rcb(1, cache_bytes, 1024));
    BpTree bpt;
    HashTable ht;
    {
        Scope sp(tr, "preload", "ds", 1, &s.clock());
        if (!ok(s.connect(be.get())) ||
            !ok(BpTree::create(s, 1, kDsName[0], &bpt)) ||
            !ok(HashTable::create(s, 1, kDsName[1], universe, &ht))) {
            out.fail("kv_write: session or structure setup failed");
            return out;
        }
        for (uint64_t i = 0; i < z.preload; ++i) {
            if (!ok(bpt.insert(keys[0][i], valueOf(keys[0][i]))) ||
                !ok(ht.put(keys[1][i], valueOf(keys[1][i])))) {
                out.fail("kv_write: preload put failed");
                return out;
            }
        }
        if (!ok(s.flushAll())) {
            out.fail("kv_write: preload flushAll failed");
            return out;
        }
    }
    setup.preload_s = secondsBetween(h, hostNowNs());

    // Measured phase.
    s.resetStats();
    const BackendTally be0 = BackendTally::of(*be);
    const uint64_t mirror0 = mirror->bytesReplicated();
    const uint64_t v0 = s.clock().now();
    Measured m(z.ops / 20);
    std::vector<uint64_t> shadow[2] = {
        std::vector<uint64_t>(universe + 1, 0),
        std::vector<uint64_t>(universe + 1, 0)};
    uint64_t acked = 0;
    setup.first_op_host_ns = hostNowNs();
    {
        Scope phase(tr, "measure", "bench", 0, &s.clock());
        for (const PutOp &op : ops) {
            const Status st = m.calls.measure(
                s, tr, 1, op.ds == 0 ? "bpt.insert" : "ht.put", [&] {
                    return op.ds == 0 ? bpt.insert(op.key, op.value)
                                      : ht.put(op.key, op.value);
                });
            if (!ok(st)) {
                out.fail(std::string("kv_write: put returned ") +
                         statusName(st));
                continue;
            }
            shadow[op.ds][op.key] = op.tag;
            ++acked;
        }
        Scope sp(tr, "flushAll", "frontend", 1, &s.clock());
        if (!ok(m.calls.hostTimed([&] { return s.flushAll(); })))
            out.fail("kv_write: final flushAll failed");
    }
    m.vns = s.clock().now() - v0;
    m.ops = z.ops;
    m.user_bytes_written = acked * kPairBytes;
    m.sess.add(s);
    m.be = BackendTally::of(*be) - be0;
    m.mirror_bytes = mirror->bytesReplicated() - mirror0;
    m.nvm_alloc_bytes = allocatedBytes(*be);
    m.live_user_bytes = (bpt.size() + ht.size()) * kPairBytes;
    out.attempted = z.ops;
    report(m, setup, rc, &out);

    // Output check: a fresh session reads every key the measured phase
    // acknowledged from back-end NVM. Its cache starts empty; it is sized
    // for the whole data set only to keep the check's host time short.
    FrontendSession verifier(SessionConfig::rcb(2, 128ull << 20, 1024));
    BpTree vb;
    HashTable vh;
    if (!ok(verifier.connect(be.get())) ||
        !ok(BpTree::open(verifier, 1, kDsName[0], &vb)) ||
        !ok(HashTable::open(verifier, 1, kDsName[1], &vh))) {
        out.fail("kv_write: verifier could not open the structures");
        return out;
    }
    if (vb.size() != bpt.size() || vh.size() != ht.size())
        out.fail("kv_write: persisted element counts differ");
    for (int d = 0; d < 2; ++d) {
        for (Key k = 1; k <= universe; ++k) {
            if (shadow[d][k] == 0)
                continue;
            Value got;
            const Status st = d == 0 ? vb.find(k, &got) : vh.get(k, &got);
            if (!ok(st) || got != valueOf(shadow[d][k]))
                out.fail(std::string("kv_write: ") + kDsName[d] + " key " +
                         std::to_string(k) + " lost its last put (" +
                         statusName(st) + ")");
        }
    }
    return out;
}

} // namespace perfbench
