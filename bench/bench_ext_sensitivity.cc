/**
 * @file
 * Extension benchmark: sensitivity of the asymmetric-vs-symmetric
 * trade-off to hardware constants.
 *
 * The paper's conclusion — AsymNVM-RCB matches or beats the best
 * symmetric deployment — is evaluated on CX-3-class RDMA (~2 us RTT).
 * This extension sweeps the network round trip from 4 us down to 0.5 us
 * (CX-6/Gen-Z class) and the NVM read latency from 500 ns down to 100 ns,
 * locating where the asymmetric design's crossover moves: faster networks
 * strengthen the disaggregation argument, faster NVM strengthens the
 * symmetric baseline.
 */

#include "bench_common.h"

namespace asymnvm::bench {
namespace {

constexpr uint64_t kPreload = 20000;
constexpr uint64_t kOps = 8000;

uint64_t session_counter = 15000;

Report report("ext_sensitivity");

/** @p sweep and @p value label the cell: which constant, at what. */
double
runBpt(Mode mode, const LatencyModel &lat, const char *sweep,
       uint64_t value)
{
    BackendNode be(1, benchBackendConfig(), lat);
    FrontendSession s(sessionFor(mode, ++session_counter,
                                 cacheBytesFor<BpTree>(0.10, kPreload),
                                 1024),
                      lat);
    if (!ok(s.connect(&be)))
        return -1;
    BpTree tree;
    if (!ok(BpTree::create(s, 1, "sens", &tree)))
        return -1;
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.seed = 42;
    preloadKeys(s, tree, wcfg, kPreload);
    s.resetStats();
    WorkloadConfig mcfg = wcfg;
    mcfg.put_ratio = 0.5;
    mcfg.seed = 99;
    Workload w(mcfg);
    Meter m(s, be);
    const double kops = runKvWorkload(m, s, tree, w.generate(kOps)).kops();
    report.add({{"sweep", sweep},
                {"value", std::to_string(value)},
                {"system", modeName(mode)}},
               m.finish(kOps));
    return kops;
}

void
run()
{
    printHeader("Extension: sensitivity to network RTT "
                "(BPT, 50% put, NVM read 300 ns)",
                "RTT(us)   AsymNVM-RCB   Symmetric-B   Asym/Sym");
    for (uint64_t rtt : {4000u, 2000u, 1000u, 500u}) {
        LatencyModel lat;
        lat.rdma_read_rtt_ns = rtt;
        lat.rdma_write_rtt_ns = rtt * 19 / 20;
        lat.rdma_atomic_rtt_ns = rtt * 21 / 20;
        const double asym = runBpt(Mode::RCB, lat, "rtt_ns", rtt);
        const double sym = runBpt(Mode::SymmetricB, lat, "rtt_ns", rtt);
        std::printf("%7.1f   %11.1f   %11.1f   %8.2f\n", rtt / 1000.0,
                    asym, sym, asym / sym);
    }

    printHeader("Extension: sensitivity to NVM read latency "
                "(BPT, 50% put, RTT 2 us)",
                "NVMread(ns)   AsymNVM-RCB   Symmetric-B   Asym/Sym");
    for (uint64_t nvm : {500u, 300u, 200u, 100u}) {
        LatencyModel lat;
        lat.nvm_read_ns = nvm;
        const double asym = runBpt(Mode::RCB, lat, "nvm_read_ns", nvm);
        const double sym = runBpt(Mode::SymmetricB, lat, "nvm_read_ns", nvm);
        std::printf("%11" PRIu64 "   %11.1f   %11.1f   %8.2f\n", nvm,
                    asym, sym, asym / sym);
    }
    std::printf(
        "\nExpected shape: the Asym/Sym ratio rises as the network gets"
        "\nfaster (disaggregation wins more) and falls as NVM reads get"
        "\nfaster (the symmetric baseline's local reads speed up while"
        "\nAsymNVM's remote path is RTT-bound).\n");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
