/**
 * @file
 * Pipeline-depth ablation (DESIGN.md §11 and §14), three sections:
 *
 * 1. Reads — cold-cache B+tree point lookups, windows of findAsync
 *    (what BpTree::findMany runs) with `pipeline_depth` swept 1 → 16.
 *    Depth 1 runs the serial protocol bit-for-bit (the reactor never
 *    engages); deeper windows keep that many descents in flight and
 *    multiplex their remote reads onto shared doorbell-batched gather
 *    rounds. It is the 0% row of section 2, printed on its own.
 *
 * 2. Write-ratio × depth — the same cold-cache B+tree under mixed
 *    windows of native write (insertAsync) and read (findAsync)
 *    coroutines at 0/50/100% writes. Write descents join the shared
 *    gather rounds; their op-log appends ride one batched WQE chain per
 *    round and their commit fences coalesce to the window drain.
 *
 * 3. Write-heavy fan-out — the Stack RCB cell: eight stacks' pops (a
 *    pop writes the head/count shadows and frees the node) issued one
 *    per stack per window. Each stack's pops form a dependent pointer
 *    chain, so depth 1 pays one head-read RTT per op; at depth 8 the
 *    eight chains advance in lockstep through single-gather rounds.
 *
 * Same cold-cache setup as the Figure 7 prefetch ablation: cache sized
 * to 25% of the data and dropped after the preload, Zipf theta 0.9 over
 * unhashed (range-local) keys.
 */

#include "bench_common.h"

namespace asymnvm::bench {
namespace {

// Full-size parameters reproduce the paper-scale shape;
// ASYMNVM_BENCH_TINY shrinks them so the bench's gate exercises the
// reactor plumbing in seconds.
uint64_t kPreload = 30000;
uint64_t kOps = 8000;

/** Ops in one pipelined window (the application batch size). */
constexpr size_t kBatch = 32;

uint64_t session_counter = 7000;

Report report("ablation_pipeline");

/** Close @p m's cell of @p section at @p depth. */
void
addCell(Meter &m, uint64_t ops, const char *section, uint64_t depth,
        double write_ratio = 0)
{
    report.add({{"section", section},
                {"write_ratio", num(write_ratio)},
                {"depth", std::to_string(depth)}},
               m.finish(ops));
}

/** Outcome of one depth point of the sweep. */
struct DepthPoint
{
    uint64_t depth = 0;
    double ns_per_op = -1;
    double kops = 0;
    uint64_t doorbells = 0;
    uint64_t reads = 0;
    PipelineStats pipe;
};

/**
 * Mixed read/write windows at one depth: the same cold-cache Zipf
 * stream, with @p put_ratio of the ops issued as native insertAsync
 * coroutines (updates and fresh keys alike) and the rest as findAsync,
 * all through one heterogeneous executePipelined window per batch.
 */
DepthPoint
runBptMixedAtDepth(uint64_t depth, double put_ratio)
{
    DepthPoint out;
    out.depth = depth;
    BackendNode be(1, benchBackendConfig());
    SessionConfig cfg = sessionFor(Mode::RC, ++session_counter,
                                   cacheBytesFor<BpTree>(0.25, kPreload));
    cfg.pipeline_depth = static_cast<uint32_t>(depth);
    FrontendSession s(cfg);
    if (!ok(s.connect(&be)))
        return out;
    BpTree ds;
    if (!ok(BpTree::create(s, 1, "c", &ds)))
        return out;
    WorkloadConfig wcfg;
    wcfg.key_space = kPreload;
    wcfg.seed = 42;
    wcfg.hashed_keys = false;
    preloadKeys(s, ds, wcfg, kPreload);
    s.cache().clear();
    s.resetStats();
    WorkloadConfig mcfg = wcfg;
    mcfg.put_ratio = put_ratio;
    mcfg.dist = KeyDist::Zipf;
    mcfg.zipf_theta = 0.9;
    mcfg.seed = 99;
    Workload w(mcfg);
    const uint64_t nops = kOps / 2;
    std::vector<WorkItem> items;
    items.reserve(nops);
    for (uint64_t i = 0; i < nops; ++i)
        items.push_back(w.next());
    std::vector<Value> vals(kBatch);
    std::vector<Status> results(kBatch);
    Meter m(s, be);
    const uint64_t t0 = s.clock().now();
    for (size_t base = 0; base < items.size(); base += kBatch) {
        const size_t n = std::min(kBatch, items.size() - base);
        std::vector<OpTask> ops;
        ops.reserve(n);
        for (size_t j = 0; j < n; ++j) {
            const WorkItem &item = items[base + j];
            if (item.op == WorkOp::Put)
                ops.push_back(ds.insertAsync(item.key, item.value));
            else
                ops.push_back(ds.findAsync(item.key, &vals[j]));
        }
        m.call(s, [&] {
            s.executePipelined(std::span<OpTask>(ops),
                               std::span<Status>(results.data(), n));
        });
    }
    const uint64_t dt = s.clock().now() - t0;
    addCell(m, nops, "write_mix", depth, put_ratio);
    const SessionStats st = s.stats();
    out.ns_per_op = static_cast<double>(dt) / static_cast<double>(nops);
    out.kops = Throughput{nops, dt}.kops();
    out.doorbells = st.verbs.doorbells;
    out.reads = st.verbs.reads;
    out.pipe = st.pipeline;
    return out;
}

/** Stacks popped one-per-structure per window (the Stack RCB cell). */
constexpr size_t kStacks = 8;

/**
 * Write-heavy fan-out at one depth: every window pops all eight stacks
 * once. A pop writes shadows/memlogs and frees the node, but its wire
 * cost is the dependent head-node read — eight independent chains, so
 * the window turns eight serial RTTs into one gather round.
 */
DepthPoint
runStackPopFanoutAtDepth(uint64_t depth)
{
    DepthPoint out;
    out.depth = depth;
    BackendNode be(1, benchBackendConfig());
    SessionConfig cfg = sessionFor(Mode::RCB, ++session_counter,
                                   64ull << 10);
    cfg.pipeline_depth = static_cast<uint32_t>(depth);
    FrontendSession s(cfg);
    if (!ok(s.connect(&be)))
        return out;
    std::vector<Stack> stacks(kStacks);
    const uint64_t per = std::max<uint64_t>(kOps / (2 * kStacks), 8);
    char name[16];
    for (size_t i = 0; i < kStacks; ++i) {
        std::snprintf(name, sizeof name, "s%zu", i);
        if (!ok(Stack::create(s, 1, name, &stacks[i])))
            return out;
        for (uint64_t j = 0; j < per; ++j)
            (void)stacks[i].push(Value::ofU64(j));
    }
    (void)s.flushAll(); // materialize every pending push
    s.cache().clear();  // pops chase cold head chains
    s.resetStats();
    const uint64_t nops = per * kStacks;
    std::vector<Value> outs(kStacks);
    std::vector<Status> results(kStacks);
    Meter m(s, be);
    const uint64_t t0 = s.clock().now();
    for (uint64_t round = 0; round < per; ++round) {
        std::vector<OpTask> ops;
        ops.reserve(kStacks);
        for (size_t i = 0; i < kStacks; ++i)
            ops.push_back(stacks[i].popAsync(&outs[i]));
        m.call(s, [&] {
            s.executePipelined(std::span<OpTask>(ops),
                               std::span<Status>(results.data(), kStacks));
        });
    }
    const uint64_t dt = s.clock().now() - t0;
    addCell(m, nops, "stack_fanout", depth);
    const SessionStats st = s.stats();
    out.ns_per_op = static_cast<double>(dt) / static_cast<double>(nops);
    out.kops = Throughput{nops, dt}.kops();
    out.doorbells = st.verbs.doorbells;
    out.reads = st.verbs.reads;
    out.pipe = st.pipeline;
    return out;
}

void
printDepthRow(const DepthPoint &p, double base)
{
    std::printf("%5" PRIu64 "  %9.1f  %9.1f  %8.2fx  %9" PRIu64
                "  %9" PRIu64 "\n",
                p.depth, p.kops, p.ns_per_op,
                p.ns_per_op > 0 ? base / p.ns_per_op : 0.0,
                p.doorbells, p.reads);
}

void
run()
{
    if (benchTiny()) {
        kPreload = 1500;
        kOps = 400;
    }
    const uint64_t depths[] = {1, 2, 4, 8, 16};
    char label[64];

    printHeader("Pipeline-depth ablation (BPT, cold cache, 100% "
                "point lookups via findMany)",
                "Depth       KOPS      ns/op    speedup  doorbells"
                "      reads");
    std::vector<DepthPoint> points;
    for (uint64_t d : depths)
        points.push_back(runBptMixedAtDepth(d, 0.0));
    for (const DepthPoint &p : points)
        printDepthRow(p, points[0].ns_per_op);

    std::printf("\nReactor profile per depth (depth 1 runs the "
                "serial protocol — all zeros):\n");
    for (const DepthPoint &p : points) {
        std::snprintf(label, sizeof label, "depth %" PRIu64, p.depth);
        printPipelineCounters(label, p.pipe);
    }

    std::printf(
        "\nExpected shape: ns/op drops as the window widens — "
        "each gather round retires\nreads for several in-flight "
        "descents, so the per-op RTT cost falls toward\n"
        "RTT/overlap — with diminishing returns once the window "
        "covers the tree's\nindependent descents (speedup "
        "saturates by depth 8-16).\n");

    for (const double r : {0.0, 0.5, 1.0}) {
        std::snprintf(label, sizeof label,
                      "Write-ratio sweep (BPT, %.0f%% insertAsync "
                      "per window)",
                      100.0 * r);
        printHeader(label,
                    "Depth       KOPS      ns/op    speedup  "
                    "doorbells      reads");
        std::vector<DepthPoint> row = points;
        if (r != 0.0) {
            row.clear();
            for (uint64_t d : depths)
                row.push_back(runBptMixedAtDepth(d, r));
        }
        for (const DepthPoint &p : row)
            printDepthRow(p, row[0].ns_per_op);
        for (const DepthPoint &p : row) {
            std::snprintf(label, sizeof label, "depth %" PRIu64, p.depth);
            printPipelineCounters(label, p.pipe);
        }
    }

    printHeader("Write-heavy fan-out (8 Stack RCB pop chains, one "
                "pop per stack per window)",
                "Depth       KOPS      ns/op    speedup  doorbells"
                "      reads");
    std::vector<DepthPoint> stack_points;
    for (uint64_t d : depths)
        stack_points.push_back(runStackPopFanoutAtDepth(d));
    for (const DepthPoint &p : stack_points)
        printDepthRow(p, stack_points[0].ns_per_op);
    for (const DepthPoint &p : stack_points) {
        std::snprintf(label, sizeof label, "depth %" PRIu64, p.depth);
        printPipelineCounters(label, p.pipe);
    }
    std::printf(
        "\nExpected shape: write windows keep the read-side "
        "overlap (descents gather)\nand add log-side wins — "
        "appends ride one WQE chain per round, fences\ncoalesce "
        "to the drain — so the 100%%-write column scales with "
        "depth too.\nThe stack cell turns eight dependent pop "
        "chains into lockstep gather\nrounds: >= 1.3x at depth 8 "
        "with doorbells well below the depth-1 count.\n");
}

} // namespace
} // namespace asymnvm::bench

int
main()
{
    asymnvm::bench::run();
    return asymnvm::bench::report.write() ? 0 : 1;
}
