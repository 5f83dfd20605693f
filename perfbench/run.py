#!/usr/bin/env python3
"""AsymNVM benchmark runner.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the repository root. The script builds perfbench/ (a CMake
project that compiles the library sources in src/ plus the benchmark
program in perfbench/src/) into $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset. It then runs rounds of the benchmark binary
until S seconds of wall time have passed, with at least MIN_ROUNDS rounds.
Each round is a fresh process that sets up the workload, runs its fixed,
seed-determined sequence of operations, and checks every output.

Virtual-time metrics are a pure function of the seed and the code, so
every round must report them byte for byte identically; a difference
marks the run incorrect. host_ns_per_op is the cheapest measured-phase
chunk after warm-up over all rounds (see host_ns_per_op below); set-up
time and memory are medians over the rounds.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are the
end-to-end ones; with --trace 1 they are the per-layer ones, and every
round also writes its spans as Chrome trace-event JSON under
<build dir>/traces/.
"""

import argparse
import fcntl
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

WORKLOADS = ("kv_write", "read_pipelined", "tatp", "failover")

# name -> unit. Names match BENCHMARK.json.
END_TO_END = {
    "kops": "kop/s",
    "lat_p50_ns": "ns",
    "lat_p99_ns": "ns",
    "lat_p999_ns": "ns",
    "space_amp": "B/B",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "host_ns_per_op": "ns",
    "lat_samples": "count",
    "failed_op_frac": "ratio",
    "failover_stall_p50_us": "us",
    "ds.node_reads_per_op": "1/op",
    "frontend.cache_hit_ratio": "ratio",
    "frontend.cache_evictions_per_op": "1/op",
    "frontend.remote_read_frac": "ratio",
    "frontend.prefetch_hit_ratio": "ratio",
    "frontend.prefetch_wasted_per_op": "1/op",
    "frontend.pipeline_overlap": "reads/round",
    "frontend.pipeline_solo_round_frac": "ratio",
    "frontend.pipeline_dep_stalls_per_kop": "1/kop",
    "frontend.commits_per_kop": "1/kop",
    "frontend.commit_op_share": "ratio",
    "frontend.commit_call_p50_ns": "ns",
    "frontend.log_bytes_per_op": "B/op",
    "rdma.doorbells_per_op": "1/op",
    "rdma.sync_rtts_per_op": "1/op",
    "rdma.read_gathers_per_op": "1/op",
    "rdma.wqes_per_doorbell": "wqe/doorbell",
    "rdma.wire_bytes_per_op": "B/op",
    "rdma.retries_per_kop": "1/kop",
    "rdma.backoff_us_per_kop": "us/kop",
    "sim.nic_utilization": "ratio",
    "sim.nic_busy_ns_per_op": "ns/op",
    "sim.gather_wqes_per_batch": "wqe/batch",
    "backend.busy_ns_per_op": "ns/op",
    "backend.replayed_entries_per_op": "1/op",
    "backend.rpc_calls_per_kop": "1/kop",
    "backend.repl_bytes_per_op": "B/op",
    "backend.repl_ranges_per_batch": "1/batch",
    "backend.repl_persists_per_kop": "1/kop",
    "nvm.write_amp": "ratio",
    "nvm.mirror_bytes_per_op": "B/op",
    "cluster.promotions": "count",
    "cluster.promo_lost_per_promotion": "1/promotion",
    "cluster.stale_fenced_per_promotion": "1/promotion",
    "cluster.promotion_host_ms": "ms",
    "apps.writes_per_txn": "1/txn",
    "apps.tatp_not_found_frac": "ratio",
    "setup.format_s": "s",
    "setup.mirror_attach_s": "s",
    "setup.preload_s": "s",
}

MIN_ROUNDS = 3
MAX_ROUNDS = 25
ROUND_TIMEOUT_S = 150
RUN_BUDGET_S = 160  # stop starting rounds past this, whatever --seconds


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build_dir():
    root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(os.path.abspath(root), "perfbench")


def build():
    """Configure and build the benchmark; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logfile = os.path.join(out, "build.log")
    # Serialize builds of one checkout (concurrent runs share the tree).
    with open(os.path.join(out, ".lock"), "w") as lock, \
            open(logfile, "w") as blog:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        for cmd in (["cmake", "-S", HERE, "-B", out,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                    ["cmake", "--build", out, "-j", jobs]):
            rc = subprocess.run(cmd, stdout=blog, stderr=subprocess.STDOUT)
            if rc.returncode != 0:
                blog.flush()
                with open(logfile) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise SystemExit(f"perfbench: build failed: {' '.join(cmd)}")
    return os.path.join(out, "perfbench")


def run_round(binary, args, trace_path):
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed)]
    if trace_path:
        cmd += ["--trace", trace_path]
    t0 = time.monotonic()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=ROUND_TIMEOUT_S)
    wall = time.monotonic() - t0
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: round failed (exit {proc.returncode})")
    return json.loads(lines[-1]), wall


def host_ns_per_op(rounds):
    """Host ns per op of the cheapest measured-phase chunk of all rounds.

    Each round splits its measured phase into equal chunks (20, or one
    per cluster generation on failover), each long enough to hold the
    phase's periodic work (several group commits, cache evictions,
    promotions). The first chunk of a round is warm-up and left out:
    on read_pipelined it costs a quarter of the rest until the prefetch
    table fills, on failover the first generation has no promoted
    back-end yet. On a machine shared with other tenants the simulator's
    host cost moves by 30-40% in episodes of seconds, so a median over
    chunks flips between a fast and a slow level from run to run; the
    cheapest chunk, the code's cost under the least interference, moved
    half as much on kv_write and read_pipelined. Load that lasts minutes
    still moves it by 10-20% between runs, which is why it is a
    per-layer metric and not a gated end-to-end one.
    """
    return min(c for r in rounds
               for c in (r["host_chunks"][1:] or r["host_chunks"]))


def aggregate(rounds, trace):
    first = rounds[0]
    same = all(r["virt"] == first["virt"] for r in rounds)
    if not same:
        log("virtual-time metrics differ between rounds of one seed")
    host = {k: statistics.median(r["host"][k] for r in rounds)
            for k in first["host"]}
    host["host_ns_per_op"] = host_ns_per_op(rounds)
    values = dict(first["virt"], **host)
    wanted = PER_LAYER if trace else END_TO_END
    missing = [k for k in wanted if k not in values]
    if missing:
        raise SystemExit(f"perfbench: binary did not report {missing}")
    return {
        "correct": same and all(r["correct"] for r in rounds),
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {k: {"value": values[k], "unit": u}
                    for k, u in wanted.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()

    binary = build()
    trace_path = None
    if args.trace:
        tdir = os.path.join(build_dir(), "traces")
        os.makedirs(tdir, exist_ok=True)
        trace_path = os.path.join(
            tdir, f"{args.workload}-seed{args.seed}.json")

    start = time.monotonic()
    rounds, walls = [], []
    while True:
        res, wall = run_round(binary, args, trace_path)
        rounds.append(res)
        walls.append(wall)
        elapsed = time.monotonic() - start
        if len(rounds) >= MAX_ROUNDS or elapsed + wall > RUN_BUDGET_S:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed >= args.seconds:
            break

    result = aggregate(rounds, args.trace)
    print(f"workload {args.workload} seed {args.seed} "
          f"rounds {len(rounds)} round_wall_s "
          f"{' '.join(f'{w:.2f}' for w in walls)}"
          + (f" trace {trace_path}" if trace_path else ""))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
