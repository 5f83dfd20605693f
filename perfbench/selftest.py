#!/usr/bin/env python3
"""Determinism self-check of the benchmark, at tiny size.

    python3 perfbench/selftest.py [--binary PATH] [--seed N]

Run from the repository root (builds the benchmark like run.py unless
--binary is given). For every workload it runs the binary twice without
tracing and once with tracing, and requires:

  * every run passes its output checks;
  * the virtual-time metrics of all three runs are byte-identical, so
    tracing observes the simulation without perturbing it;
  * the traced run wrote a parseable Chrome trace whose spans cover the
    setup steps, the measured calls and (on failover) the failover
    episodes.

The host-time difference between the traced run and the two untraced
runs is printed as the tracing overhead. Also checks that the metric lists
in run.py match BENCHMARK.json when that file is present. Exits non-zero
on any failure.
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

REQUIRED_SPANS = {
    "kv_write": {"format", "mirror_attach", "preload", "measure",
                 "bpt.insert", "ht.put", "flushAll"},
    "read_pipelined": {"format", "preload", "measure", "window",
                       "flushAll"},
    "tatp": {"format", "preload", "measure", "tatp.txn", "flushAll"},
    "failover": {"generation", "format", "preload", "measure", "ht.put",
                 "ht.get", "flushAll", "failover_episode", "verify"},
}


def run_binary(binary, workload, seed, trace_path=None):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--scale", "tiny"]
    if trace_path:
        cmd += ["--trace", trace_path]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=run.ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"selftest: {workload} exited {proc.returncode}")
    line = proc.stdout.strip().splitlines()[-1]
    # The virt object exactly as printed: byte identity, not float equality.
    virt_text = line[line.index('"virt"'):line.index('"host"')]
    return json.loads(line), virt_text


def check_metric_lists(errors):
    path = "BENCHMARK.json"
    if not os.path.exists(path):
        return
    with open(path) as f:
        bench = json.load(f)
    for key, ours in (("end_to_end", run.END_TO_END),
                      ("per_layer", run.PER_LAYER)):
        theirs = {m["name"]: m["unit"] for m in bench[key]}
        if theirs != ours:
            errors.append(f"BENCHMARK.json {key} differs from run.py")
    if [w["name"] for w in bench["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.py")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--binary")
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()
    binary = args.binary or run.build()

    errors = []
    check_metric_lists(errors)
    with tempfile.TemporaryDirectory(dir=os.path.dirname(binary)) as tmp:
        for w in run.WORKLOADS:
            trace_path = os.path.join(tmp, f"{w}.json")
            a, va = run_binary(binary, w, args.seed)
            b, vb = run_binary(binary, w, args.seed)
            t, vt = run_binary(binary, w, args.seed, trace_path)
            for name, r in (("first", a), ("second", b), ("traced", t)):
                if not r["correct"]:
                    errors.append(f"{w}: {name} run failed its output "
                                  f"checks: {r['errors']}")
            if va != vb:
                errors.append(f"{w}: two untraced runs differ in "
                              "virtual-time metrics")
            if va != vt:
                errors.append(f"{w}: traced run differs in virtual-time "
                              "metrics")
            with open(trace_path) as f:
                spans = json.load(f)["traceEvents"]
            missing = REQUIRED_SPANS[w] - {s["name"] for s in spans}
            if len(spans) != t["spans"] or missing:
                errors.append(f"{w}: trace incomplete (missing {missing})")
            base = run.host_ns_per_op([a, b])
            traced = run.host_ns_per_op([t])
            print(f"{w:15s} virtual metrics identical: "
                  f"{va == vb == vt}  spans {len(spans):7d}  "
                  f"tracing overhead {100.0 * (traced / base - 1):+6.1f}% "
                  f"({base:.0f} -> {traced:.0f} host ns/op)")
    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest " + ("FAILED" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
