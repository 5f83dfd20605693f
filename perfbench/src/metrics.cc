#include "metrics.h"

#include <algorithm>

namespace perfbench {

using namespace asymnvm;

namespace {

/** a / b, or 0 when nothing was counted. */
double
ratio(double a, double b)
{
    return b == 0 ? 0.0 : a / b;
}

} // namespace

void
Result::fail(const std::string &why)
{
    ++failed;
    if (errors.size() < 8)
        errors.push_back(why);
}

void
CallLog::record(uint64_t vns, bool committed)
{
    lat_.push_back(vns);
    total_ns_ += vns;
    if (committed) {
        commit_lat_.push_back(vns);
        commit_ns_ += vns;
    }
    if (lat_.size() % chunk_calls_ == 0) {
        chunk_host_.push_back(chunk_host_ns_);
        chunk_host_ns_ = 0;
    }
}

std::vector<double>
CallLog::hostNsPerCall() const
{
    if (chunk_host_.empty())
        return {ratio(static_cast<double>(chunk_host_ns_),
                      static_cast<double>(lat_.size()))};
    std::vector<double> out;
    for (const uint64_t ns : chunk_host_)
        out.push_back(static_cast<double>(ns) /
                      static_cast<double>(chunk_calls_));
    out.back() += static_cast<double>(chunk_host_ns_) /
                  static_cast<double>(chunk_calls_);
    return out;
}

void
SessionTally::add(FrontendSession &s)
{
    const SessionStats st = s.stats();
    const VerbCounters &v = st.verbs;
    verbs.reads += v.reads;
    verbs.read_bytes += v.read_bytes;
    verbs.writes += v.writes;
    verbs.write_bytes += v.write_bytes;
    verbs.posted += v.posted;
    verbs.posted_bytes += v.posted_bytes;
    verbs.atomics += v.atomics;
    verbs.atomic_bytes += v.atomic_bytes;
    verbs.doorbells += v.doorbells;
    verbs.wqes += v.wqes;
    verbs.read_gathers += v.read_gathers;
    retry.merge(st.retry);
    prefetch.batches += st.prefetch.batches;
    prefetch.issued += st.prefetch.issued;
    prefetch.hits += st.prefetch.hits;
    prefetch.wasted += st.prefetch.wasted;
    logfmt.tx_wire_bytes += st.logfmt.tx_wire_bytes;
    logfmt.op_wire_bytes += st.logfmt.op_wire_bytes;
    pipe.rounds += st.pipeline.rounds;
    pipe.batched_reads += st.pipeline.batched_reads;
    pipe.solo_rounds += st.pipeline.solo_rounds;
    pipe.dep_stalls += st.pipeline.dep_stalls;
    ops_started += st.ops_started;
    tx_flushes += st.tx_flushes;
    cache_hits += s.cache().hits();
    cache_misses += s.cache().misses();
    cache_evictions += s.cache().evictions();
    reads_local += s.readLocalHistogram().count();
    reads_remote += s.readRemoteHistogram().count();
}

BackendTally
BackendTally::of(BackendNode &be)
{
    BackendTally t;
    t.busy_ns = be.busyNs();
    t.replayed_entries = be.replayedEntries();
    t.rpc_calls = be.rpcCalls();
    t.nic_busy_ns = be.nic().busyNs();
    t.gather_batches = be.nic().gatherBatches();
    t.gather_wqes = be.nic().gatherWqes();
    t.nvm_bytes = be.nvm().bytesWritten();
    const ReplicationStats &r = be.replicationStats();
    t.repl_batches = r.batches;
    t.repl_persists = r.persists;
    t.repl_ranges = r.ranges;
    t.repl_bytes = r.bytes;
    return t;
}

BackendTally
BackendTally::operator-(const BackendTally &o) const
{
    BackendTally t;
    t.busy_ns = busy_ns - o.busy_ns;
    t.replayed_entries = replayed_entries - o.replayed_entries;
    t.rpc_calls = rpc_calls - o.rpc_calls;
    t.nic_busy_ns = nic_busy_ns - o.nic_busy_ns;
    t.gather_batches = gather_batches - o.gather_batches;
    t.gather_wqes = gather_wqes - o.gather_wqes;
    t.nvm_bytes = nvm_bytes - o.nvm_bytes;
    t.repl_batches = repl_batches - o.repl_batches;
    t.repl_persists = repl_persists - o.repl_persists;
    t.repl_ranges = repl_ranges - o.repl_ranges;
    t.repl_bytes = repl_bytes - o.repl_bytes;
    return t;
}

BackendTally &
BackendTally::operator+=(const BackendTally &o)
{
    busy_ns += o.busy_ns;
    replayed_entries += o.replayed_entries;
    rpc_calls += o.rpc_calls;
    nic_busy_ns += o.nic_busy_ns;
    gather_batches += o.gather_batches;
    gather_wqes += o.gather_wqes;
    nvm_bytes += o.nvm_bytes;
    repl_batches += o.repl_batches;
    repl_persists += o.repl_persists;
    repl_ranges += o.repl_ranges;
    repl_bytes += o.repl_bytes;
    return *this;
}

uint64_t
allocatedBytes(BackendNode &be)
{
    BackendAllocator &a = be.allocator();
    return (a.totalBlocks() - a.freeBlocks()) * a.blockSize();
}

double
percentile(const std::vector<uint64_t> &sorted, double p)
{
    const double n = static_cast<double>(sorted.size());
    const double q = p / 100.0;
    double prev_x = 0, prev_f = 0;
    for (size_t i = 0; i < sorted.size();) {
        size_t j = i;
        while (j < sorted.size() && sorted[j] == sorted[i])
            ++j;
        // Mid-distribution function at this value: the share of samples
        // below it plus half the share equal to it.
        const double f = (static_cast<double>(i) +
                          static_cast<double>(j - i) / 2.0) / n;
        const double x = static_cast<double>(sorted[i]);
        if (q <= f)
            return i == 0 ? x
                          : prev_x + (q - prev_f) / (f - prev_f) *
                                         (x - prev_x);
        prev_x = x;
        prev_f = f;
        i = j;
    }
    return prev_x;
}

void
report(const Measured &m, const SetupTimes &setup, const RunConfig &rc,
       Result *out)
{
    Metrics &v = out->virt;
    const double ops = static_cast<double>(m.ops);
    const SessionTally &s = m.sess;
    const BackendTally &b = m.be;

    std::vector<uint64_t> lat = m.calls.samples();
    std::sort(lat.begin(), lat.end());
    std::vector<uint64_t> commit = m.calls.commitSamples();
    std::sort(commit.begin(), commit.end());

    // End to end, on the virtual clock.
    v["kops"] = ratio(ops * 1e6, static_cast<double>(m.vns));
    v["lat_p50_ns"] = percentile(lat, 50);
    v["lat_p99_ns"] = percentile(lat, 99);
    v["lat_p999_ns"] = percentile(lat, 99.9);
    v["lat_samples"] = static_cast<double>(lat.size());
    v["space_amp"] = ratio(static_cast<double>(m.nvm_alloc_bytes),
                           static_cast<double>(m.live_user_bytes));

    // ds
    const double reads =
        static_cast<double>(s.reads_local + s.reads_remote);
    v["ds.node_reads_per_op"] = ratio(reads, ops);

    // frontend: cache and prefetch
    v["frontend.cache_hit_ratio"] =
        ratio(static_cast<double>(s.cache_hits),
              static_cast<double>(s.cache_hits + s.cache_misses));
    v["frontend.cache_evictions_per_op"] =
        ratio(static_cast<double>(s.cache_evictions), ops);
    v["frontend.remote_read_frac"] =
        ratio(static_cast<double>(s.reads_remote), reads);
    v["frontend.prefetch_hit_ratio"] =
        ratio(static_cast<double>(s.prefetch.hits),
              static_cast<double>(s.prefetch.issued));
    v["frontend.prefetch_wasted_per_op"] =
        ratio(static_cast<double>(s.prefetch.wasted), ops);

    // frontend: pipelined reactor
    v["frontend.pipeline_overlap"] =
        ratio(static_cast<double>(s.pipe.batched_reads),
              static_cast<double>(s.pipe.rounds));
    v["frontend.pipeline_solo_round_frac"] =
        ratio(static_cast<double>(s.pipe.solo_rounds),
              static_cast<double>(s.pipe.rounds));
    v["frontend.pipeline_dep_stalls_per_kop"] =
        ratio(1000.0 * static_cast<double>(s.pipe.dep_stalls), ops);

    // frontend: log and group commit
    v["frontend.commits_per_kop"] =
        ratio(1000.0 * static_cast<double>(s.tx_flushes), ops);
    v["frontend.commit_op_share"] =
        ratio(static_cast<double>(m.calls.commitNs()),
              static_cast<double>(m.calls.totalNs()));
    v["frontend.commit_call_p50_ns"] = percentile(commit, 50);
    v["frontend.log_bytes_per_op"] = ratio(
        static_cast<double>(s.logfmt.tx_wire_bytes + s.logfmt.op_wire_bytes),
        ops);

    // rdma
    const VerbCounters &vc = s.verbs;
    v["rdma.doorbells_per_op"] =
        ratio(static_cast<double>(vc.doorbells), ops);
    // VerbCounters::reads counts every read of a readGather chain, but the
    // chain is one round trip; the NIC knows how many reads rode chains.
    const uint64_t read_rtts =
        vc.reads - std::min(vc.reads, b.gather_wqes) + vc.read_gathers;
    v["rdma.sync_rtts_per_op"] = ratio(
        static_cast<double>(read_rtts + vc.writes + vc.atomics), ops);
    v["rdma.read_gathers_per_op"] =
        ratio(static_cast<double>(vc.read_gathers), ops);
    v["rdma.wqes_per_doorbell"] = ratio(static_cast<double>(vc.wqes),
                                        static_cast<double>(vc.doorbells));
    v["rdma.wire_bytes_per_op"] =
        ratio(static_cast<double>(vc.totalBytes()), ops);
    v["rdma.retries_per_kop"] =
        ratio(1000.0 * static_cast<double>(s.retry.totalRetries()), ops);
    v["rdma.backoff_us_per_kop"] =
        ratio(static_cast<double>(s.retry.backoff_ns), ops);

    // sim: the back-end NIC
    v["sim.nic_utilization"] = ratio(static_cast<double>(b.nic_busy_ns),
                                     static_cast<double>(m.vns));
    v["sim.nic_busy_ns_per_op"] =
        ratio(static_cast<double>(b.nic_busy_ns), ops);
    v["sim.gather_wqes_per_batch"] =
        ratio(static_cast<double>(b.gather_wqes),
              static_cast<double>(b.gather_batches));

    // backend
    v["backend.busy_ns_per_op"] = ratio(static_cast<double>(b.busy_ns), ops);
    v["backend.replayed_entries_per_op"] =
        ratio(static_cast<double>(b.replayed_entries), ops);
    v["backend.rpc_calls_per_kop"] =
        ratio(1000.0 * static_cast<double>(b.rpc_calls), ops);
    v["backend.repl_bytes_per_op"] =
        ratio(static_cast<double>(b.repl_bytes), ops);
    v["backend.repl_ranges_per_batch"] =
        ratio(static_cast<double>(b.repl_ranges),
              static_cast<double>(b.repl_batches));
    v["backend.repl_persists_per_kop"] =
        ratio(1000.0 * static_cast<double>(b.repl_persists), ops);

    // nvm
    v["nvm.write_amp"] = ratio(static_cast<double>(b.nvm_bytes),
                               static_cast<double>(m.user_bytes_written));
    v["nvm.mirror_bytes_per_op"] =
        ratio(static_cast<double>(m.mirror_bytes), ops);

    // Workload-specific layers; the workloads that have them overwrite.
    for (const char *name :
         {"cluster.promotions", "cluster.promo_lost_per_promotion",
          "cluster.stale_fenced_per_promotion", "failover_stall_p50_us",
          "apps.writes_per_txn", "apps.tatp_not_found_frac"})
        v[name] = 0;

    Metrics &h = out->host;
    // Per op: a pipelined window is several ops per call.
    const double calls_per_op =
        ratio(static_cast<double>(m.calls.samples().size()), ops);
    for (const double ns : m.calls.hostNsPerCall())
        out->host_chunks.push_back(ns * calls_per_op);
    h["setup_s"] =
        static_cast<double>(setup.first_op_host_ns - rc.process_start_ns) /
        1e9;
    h["setup.format_s"] = setup.format_s;
    h["setup.mirror_attach_s"] = setup.mirror_attach_s;
    h["setup.preload_s"] = setup.preload_s;
    h["cluster.promotion_host_ms"] = 0;
}

} // namespace perfbench
