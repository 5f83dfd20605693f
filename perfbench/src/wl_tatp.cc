/**
 * @file
 * tatp: one RCB session running the standard TATP mix through
 * Tatp::runOne (80/20 read/write over four B+tree indexes, about 50 K
 * subscribers). The cache holds the whole data set, and writes sit
 * beside reads on the same session, serially. One sample is one
 * transaction. Tatp::runOne draws its transaction parameters from the
 * Rng the benchmark seeds; that draw is part of the application API.
 */

#include <memory>

#include "apps/tatp.h"
#include "backend/backend_node.h"
#include "workloads.h"

namespace perfbench {

using namespace asymnvm;

namespace {

struct Sizes
{
    uint64_t subscribers;
    uint64_t txns; //!< measured transactions
};

constexpr const char *kTables[] = {"tatp/subscriber", "tatp/access_info",
                                   "tatp/special_facility",
                                   "tatp/call_forwarding"};

} // namespace

Result
runTatp(const RunConfig &rc, Tracer &tr)
{
    const Sizes z = rc.tiny ? Sizes{500, 2000} : Sizes{50000, 200000};
    Result out;

    // Setup: format, populate (no mirror on this workload).
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
    // The cache holds the whole data set (~33 MB of NVM at 50 K
    // subscribers), so every read after the first touch is local.
    FrontendSession s(
        SessionConfig::rcb(1, rc.tiny ? 4ull << 20 : 64ull << 20, 1024));
    Tatp tatp;
    {
        Scope sp(tr, "preload", "apps", 1, &s.clock());
        if (!ok(s.connect(be.get())) ||
            !ok(Tatp::create(s, 1, z.subscribers, &tatp))) {
            out.fail("tatp: population failed");
            return out;
        }
    }
    setup.preload_s = secondsBetween(h, hostNowNs());

    // Measured phase.
    Rng rng = streamRng(rc.seed, 3);
    s.resetStats();
    const BackendTally be0 = BackendTally::of(*be);
    const TatpStats ts0 = tatp.stats();
    const uint64_t v0 = s.clock().now();
    Measured m(z.txns / 20);
    setup.first_op_host_ns = hostNowNs();
    {
        Scope phase(tr, "measure", "bench", 0, &s.clock());
        for (uint64_t t = 0; t < z.txns; ++t) {
            const Status st = m.calls.measure(
                s, tr, 1, "tatp.txn", [&] { return tatp.runOne(rng); });
            if (!ok(st))
                out.fail(std::string("tatp: transaction returned ") +
                         statusName(st));
        }
        Scope sp(tr, "flushAll", "frontend", 1, &s.clock());
        if (!ok(m.calls.hostTimed([&] { return s.flushAll(); })))
            out.fail("tatp: final flushAll failed");
    }
    m.vns = s.clock().now() - v0;
    m.ops = z.txns;
    m.sess.add(s);
    m.user_bytes_written = m.sess.ops_started * kPairBytes;
    m.be = BackendTally::of(*be) - be0;
    m.nvm_alloc_bytes = allocatedBytes(*be);
    out.attempted = z.txns;

    // Output check: every transaction either committed or hit one of
    // TATP's by-design misses, and the subscriber table (never inserted
    // into or deleted from by the mix) still holds every subscriber, as
    // read by a fresh session straight from NVM.
    const uint64_t committed = tatp.stats().committed - ts0.committed;
    const uint64_t not_found = tatp.stats().not_found - ts0.not_found;
    if (committed + not_found != z.txns)
        out.fail("tatp: committed + not_found = " +
                 std::to_string(committed + not_found) + ", attempted " +
                 std::to_string(z.txns));
    FrontendSession verifier(SessionConfig::rcb(2, 1ull << 20, 1024));
    if (!ok(verifier.connect(be.get()))) {
        out.fail("tatp: verifier could not connect");
        return out;
    }
    uint64_t live_rows = 0;
    BpTree tables[std::size(kTables)];
    for (size_t i = 0; i < std::size(kTables); ++i) {
        if (!ok(BpTree::open(verifier, 1, kTables[i], &tables[i]))) {
            out.fail(std::string("tatp: cannot open ") + kTables[i]);
            continue;
        }
        live_rows += tables[i].size();
    }
    if (tables[0].size() != z.subscribers)
        out.fail("tatp: subscriber table lost rows");
    m.live_user_bytes = live_rows * kPairBytes;

    report(m, setup, rc, &out);
    out.virt["apps.writes_per_txn"] =
        static_cast<double>(m.sess.ops_started) /
        static_cast<double>(z.txns);
    out.virt["apps.tatp_not_found_frac"] =
        static_cast<double>(not_found) / static_cast<double>(z.txns);
    return out;
}

} // namespace perfbench
