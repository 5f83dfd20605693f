/**
 * @file
 * Configurable workload driver — a YCSB-style client for the framework.
 *
 * Usage:
 *   example_workload_driver [ds] [mode] [ops] [keyspace] [put%] [theta]
 *
 *     ds       stack|queue|hash|skiplist|bst|bpt|mvbst|mvbpt  (default bpt)
 *     mode     naive|r|rc|rcb|sym|symb                        (default rcb)
 *     ops      operation count                                (default 20000)
 *     keyspace distinct keys                                  (default 20000)
 *     put%     0..100                                         (default 50)
 *     theta    0 = uniform, else Zipf skew                    (default 0)
 *
 * Prints virtual-time throughput, verb/cache statistics, and latency
 * percentiles — everything needed to explore configurations beyond the
 * paper's fixed benchmark grid.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "asymnvm.h"
#include "common/stats.h"

using namespace asymnvm;

namespace {

SessionConfig
modeConfig(const std::string &mode)
{
    if (mode == "naive")
        return SessionConfig::naive(1);
    if (mode == "r")
        return SessionConfig::r(1);
    if (mode == "rc")
        return SessionConfig::rc(1, 4 << 20);
    if (mode == "sym")
        return SessionConfig::symmetricBase(1, false);
    if (mode == "symb")
        return SessionConfig::symmetricBase(1, true);
    return SessionConfig::rcb(1, 4 << 20, 1024);
}

struct Driver
{
    virtual ~Driver() = default;
    virtual Status create(FrontendSession &s, uint64_t keyspace) = 0;
    virtual Status apply(const WorkItem &item) = 0;
};

template <typename DS>
struct KvDriver : Driver
{
    DS ds;
    Status create(FrontendSession &s, uint64_t keyspace) override
    {
        if constexpr (std::is_same_v<DS, HashTable>)
            return HashTable::create(s, 1, "drv", keyspace * 2, &ds);
        else
            return DS::create(s, 1, "drv", &ds);
    }
    Status apply(const WorkItem &item) override
    {
        if (item.op == WorkOp::Put) {
            if constexpr (requires { ds.put(item.key, item.value); })
                return ds.put(item.key, item.value);
            else
                return ds.insert(item.key, item.value);
        }
        Value v;
        Status st;
        if constexpr (requires { ds.get(item.key, &v); })
            st = ds.get(item.key, &v);
        else
            st = ds.find(item.key, &v);
        return st == Status::NotFound ? Status::Ok : st;
    }
};

template <typename DS>
struct ListDriver : Driver
{
    DS ds;
    Status create(FrontendSession &s, uint64_t) override
    {
        return DS::create(s, 1, "drv", &ds);
    }
    Status apply(const WorkItem &item) override
    {
        Value v = item.value;
        if (item.op == WorkOp::Put) {
            if constexpr (std::is_same_v<DS, Queue>)
                return ds.enqueue(v);
            else
                return ds.push(v);
        }
        Status st;
        if constexpr (std::is_same_v<DS, Queue>)
            st = ds.dequeue(&v);
        else
            st = ds.pop(&v);
        return st == Status::NotFound ? Status::Ok : st;
    }
};

std::unique_ptr<Driver>
makeDriver(const std::string &ds)
{
    if (ds == "stack")
        return std::make_unique<ListDriver<Stack>>();
    if (ds == "queue")
        return std::make_unique<ListDriver<Queue>>();
    if (ds == "hash")
        return std::make_unique<KvDriver<HashTable>>();
    if (ds == "skiplist")
        return std::make_unique<KvDriver<SkipList>>();
    if (ds == "bst")
        return std::make_unique<KvDriver<Bst>>();
    if (ds == "mvbst")
        return std::make_unique<KvDriver<MvBst>>();
    if (ds == "mvbpt")
        return std::make_unique<KvDriver<MvBpTree>>();
    return std::make_unique<KvDriver<BpTree>>();
}

} // namespace

int
main(int argc, char **argv)
{
    const std::string ds = argc > 1 ? argv[1] : "bpt";
    const std::string mode = argc > 2 ? argv[2] : "rcb";
    const uint64_t ops = argc > 3 ? std::strtoull(argv[3], nullptr, 10)
                                  : 20000;
    const uint64_t keyspace =
        argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 20000;
    const double put_pct = argc > 5 ? std::atof(argv[5]) : 50.0;
    const double theta = argc > 6 ? std::atof(argv[6]) : 0.0;

    ClusterConfig ccfg;
    ccfg.backend.nvm_size = 256ull << 20;
    Cluster cluster(ccfg);
    auto session = cluster.makeSession(modeConfig(mode));
    if (session == nullptr) {
        std::fprintf(stderr, "connect failed\n");
        return 1;
    }
    auto driver = makeDriver(ds);
    if (!ok(driver->create(*session, keyspace))) {
        std::fprintf(stderr, "create failed\n");
        return 1;
    }

    WorkloadConfig wcfg;
    wcfg.key_space = keyspace;
    wcfg.put_ratio = put_pct / 100.0;
    wcfg.dist = theta > 0 ? KeyDist::Zipf : KeyDist::Uniform;
    wcfg.zipf_theta = theta;
    Workload w(wcfg);

    // Load phase (keyed structures only see it as useful).
    WorkloadConfig lcfg = wcfg;
    lcfg.put_ratio = 1.0;
    Workload loader(lcfg);
    for (uint64_t i = 0; i < keyspace; ++i)
        (void)driver->apply(loader.next());
    session->flushAll();
    session->resetStats();

    Histogram lat;
    const uint64_t t0 = session->clock().now();
    for (uint64_t i = 0; i < ops; ++i) {
        const uint64_t op_t0 = session->clock().now();
        const Status st = driver->apply(w.next());
        if (!ok(st)) {
            std::fprintf(stderr, "op %llu failed: %s\n",
                         static_cast<unsigned long long>(i),
                         statusName(st));
            return 1;
        }
        lat.record(session->clock().now() - op_t0);
    }
    session->flushAll();
    const uint64_t elapsed = session->clock().now() - t0;

    std::printf("ds=%s mode=%s ops=%llu keyspace=%llu put=%.0f%% "
                "theta=%.2f\n",
                ds.c_str(), mode.c_str(),
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(keyspace), put_pct,
                theta);
    std::printf("throughput: %.1f KOPS (%.2f virtual ms)\n",
                ops * 1e6 / static_cast<double>(elapsed), elapsed / 1e6);
    std::printf("latency: %s\n", lat.summary().c_str());
    std::printf("verbs issued: %llu (%.2f/op), bytes moved: %.2f MB\n",
                static_cast<unsigned long long>(
                    session->verbs().verbsIssued()),
                static_cast<double>(session->verbs().verbsIssued()) / ops,
                session->verbs().counters().totalBytes() / 1e6);
    std::printf("cache: hits=%llu misses=%llu (%.1f%% hit)\n",
                static_cast<unsigned long long>(session->cache().hits()),
                static_cast<unsigned long long>(
                    session->cache().misses()),
                100.0 * (1.0 - session->cache().missRatio()));
    return 0;
}
