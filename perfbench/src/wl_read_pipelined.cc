/**
 * @file
 * read_pipelined: one RCB session at pipeline_depth 8 running 32-op
 * heterogeneous windows through executePipelined: findAsync/getAsync
 * plus 5% insertAsync/putAsync (updates of existing keys), over a B+tree
 * and a hash table of about 250 K keys each. Keys are Zipf(0.99) and the
 * cache holds 10% of the data, so most descents miss somewhere. The run
 * loads the cache, prefetch, reactor and readGather paths, with little
 * log traffic. One sample is one window.
 */

#include <array>

#include "backend/backend_node.h"
#include "common/zipf.h"
#include "ds/bptree.h"
#include "ds/hash_table.h"
#include "workloads.h"

namespace perfbench {

using namespace asymnvm;

namespace {

constexpr size_t kWindow = 32;
constexpr double kPutFrac = 0.05;

struct Sizes
{
    uint64_t keys;    //!< keys per structure
    uint64_t windows; //!< measured windows of kWindow ops
};

struct WinOp
{
    uint8_t ds; //!< 0 = B+tree, 1 = hash table
    bool put;
    Key key;
    uint64_t tag; //!< put value tag
};

constexpr const char *kDsName[2] = {"rp/bpt", "rp/ht"};

/** Tag of the value a key holds after the preload. */
uint64_t
preloadTag(uint8_t ds, Key key)
{
    return (static_cast<uint64_t>(ds + 1) << 56) ^ key;
}

} // namespace

Result
runReadPipelined(const RunConfig &rc, Tracer &tr)
{
    // 10 000 windows leave exactly ten samples above the p99.9 rank.
    const Sizes z = rc.tiny ? Sizes{2000, 100} : Sizes{250000, 10000};
    Result out;

    // Inputs: Zipf ranks mapped to keys through a seed-dependent
    // permutation, so the hot keys are scattered over each structure.
    Rng rng = streamRng(rc.seed, 2);
    std::vector<Key> rank_to_key[2];
    for (auto &k : rank_to_key)
        k = shuffledKeys(z.keys, rng);
    ZipfGenerator zipf(z.keys, 0.99, rng.next());
    const uint64_t nops = z.windows * kWindow;
    std::vector<WinOp> ops(nops);
    std::vector<Value> put_values(nops);
    for (uint64_t i = 0; i < nops; ++i) {
        WinOp &op = ops[i];
        op.ds = static_cast<uint8_t>(rng.nextBounded(2));
        op.put = rng.nextBool(kPutFrac);
        op.key = rank_to_key[op.ds][zipf.next()];
        op.tag = rng.next();
        if (op.put)
            put_values[i] = valueOf(op.tag);
    }

    // Setup: format, preload (no mirror on this workload).
    SetupTimes setup;
    uint64_t h = hostNowNs();
    std::unique_ptr<BackendNode> be;
    {
        Scope sp(tr, "format", "backend", 0, nullptr);
        be = std::make_unique<BackendNode>(1,
                                           backendConfig(rc.tiny ? 32 : 96));
    }
    setup.format_s = secondsBetween(h, hostNowNs());

    h = hostNowNs();
    // Cache 10% of the data (~100 B/key B+tree, ~88 B/key hash table).
    SessionConfig scfg =
        SessionConfig::rcb(1, z.keys * (100 + 88) / 10, 1024);
    scfg.pipeline_depth = 8;
    FrontendSession s(scfg);
    BpTree bpt;
    HashTable ht;
    {
        Scope sp(tr, "preload", "ds", 1, &s.clock());
        if (!ok(s.connect(be.get())) ||
            !ok(BpTree::create(s, 1, kDsName[0], &bpt)) ||
            !ok(HashTable::create(s, 1, kDsName[1], z.keys, &ht))) {
            out.fail("read_pipelined: session or structure setup failed");
            return out;
        }
        // Load in a seed-dependent order (the permutations' reverse).
        for (uint64_t i = z.keys; i-- > 0;) {
            const Key kb = rank_to_key[0][i], kh = rank_to_key[1][i];
            if (!ok(bpt.insert(kb, valueOf(preloadTag(0, kb)))) ||
                !ok(ht.put(kh, valueOf(preloadTag(1, kh))))) {
                out.fail("read_pipelined: preload put failed");
                return out;
            }
        }
        if (!ok(s.flushAll())) {
            out.fail("read_pipelined: preload flushAll failed");
            return out;
        }
    }
    setup.preload_s = secondsBetween(h, hostNowNs());

    // Last acknowledged value tag of every key.
    std::vector<uint64_t> shadow[2];
    for (uint8_t d = 0; d < 2; ++d) {
        shadow[d].resize(z.keys + 1);
        for (Key k = 1; k <= z.keys; ++k)
            shadow[d][k] = preloadTag(d, k);
    }

    // Measured phase.
    s.resetStats();
    const BackendTally be0 = BackendTally::of(*be);
    const uint64_t v0 = s.clock().now();
    Measured m(z.windows / 20);
    uint64_t acked_puts = 0;
    std::array<Value, kWindow> got;
    std::array<Status, kWindow> results;
    std::vector<OpTask> tasks;
    tasks.reserve(kWindow);
    setup.first_op_host_ns = hostNowNs();
    {
        Scope phase(tr, "measure", "bench", 0, &s.clock());
        for (uint64_t w = 0; w < z.windows; ++w) {
            const WinOp *win = &ops[w * kWindow];
            m.calls.measure(s, tr, 1, "window", [&] {
                tasks.clear();
                for (size_t j = 0; j < kWindow; ++j) {
                    const WinOp &op = win[j];
                    const Value &pv = put_values[w * kWindow + j];
                    if (op.ds == 0)
                        tasks.push_back(op.put ? bpt.insertAsync(op.key, pv)
                                               : bpt.findAsync(op.key,
                                                               &got[j]));
                    else
                        tasks.push_back(op.put ? ht.putAsync(op.key, pv)
                                               : ht.getAsync(op.key,
                                                             &got[j]));
                }
                s.executePipelined(tasks, results);
                tasks.clear(); // coroutine frames are part of the call
                return 0;
            });
            // Output check in admission order. Same-key ops of a window
            // run in that order, but a read may also observe a put
            // admitted after it in the same window.
            for (size_t j = 0; j < kWindow; ++j) {
                const WinOp &op = win[j];
                if (!ok(results[j])) {
                    out.fail(std::string("read_pipelined: ") +
                             kDsName[op.ds] + (op.put ? " put" : " get") +
                             " returned " + statusName(results[j]));
                    continue;
                }
                if (op.put) {
                    shadow[op.ds][op.key] = op.tag;
                    ++acked_puts;
                    continue;
                }
                bool match = got[j] == valueOf(shadow[op.ds][op.key]);
                for (size_t k = j + 1; !match && k < kWindow; ++k)
                    match = win[k].put && win[k].ds == op.ds &&
                            win[k].key == op.key &&
                            got[j] == put_values[w * kWindow + k];
                if (!match)
                    out.fail(std::string("read_pipelined: ") +
                             kDsName[op.ds] + " key " +
                             std::to_string(op.key) +
                             " read a value never written");
            }
        }
        Scope sp(tr, "flushAll", "frontend", 1, &s.clock());
        if (!ok(m.calls.hostTimed([&] { return s.flushAll(); })))
            out.fail("read_pipelined: final flushAll failed");
    }
    m.vns = s.clock().now() - v0;
    m.ops = nops;
    m.user_bytes_written = acked_puts * kPairBytes;
    m.sess.add(s);
    m.be = BackendTally::of(*be) - be0;
    m.nvm_alloc_bytes = allocatedBytes(*be);
    m.live_user_bytes = (bpt.size() + ht.size()) * kPairBytes;
    out.attempted = nops;
    report(m, setup, rc, &out);
    return out;
}

} // namespace perfbench
