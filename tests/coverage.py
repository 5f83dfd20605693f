#!/usr/bin/env python3
"""Line and function coverage of src/ under the tier-1 ctest.

Configures a separate build directory with gcc's --coverage at -O0 (no
CMake option involved), builds it, runs the whole ctest suite there and
prints, per file of src/, the lines and functions that ran. Counts are
the union over every translation unit that compiled the file (library,
tests, benches and examples all instantiate src/ headers); template
copies of one function are merged by file and start line.

Every function that never runs must be listed, with its reason, in
coverage_never_run.txt next to this script; the script fails when one
is missing from that list or a listed one now runs.

    python3 tests/coverage.py                 # configure, build, ctest, report
    python3 tests/coverage.py --no-run        # report the last run again
    python3 tests/coverage.py --lines src/check/invariant_checker.cc
"""

import argparse
import json
import os
import subprocess
import sys
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO, "src") + os.sep
NEVER_RUN = os.path.join(REPO, "tests", "coverage_never_run.txt")


def run(cmd, **kw):
    print("+", " ".join(cmd), flush=True)
    subprocess.run(cmd, check=True, **kw)


def gcov_json(gcda):
    out = subprocess.run(
        ["gcov", "--json-format", "--stdout", gcda],
        cwd=os.path.dirname(gcda), check=True, capture_output=True,
        text=True).stdout
    return [json.loads(doc) for doc in out.splitlines() if doc.strip()]


def collect(build):
    """{file: {line: ran}}, {(file, start_line): [name, ran]}."""
    gcdas = [os.path.join(d, f) for d, _, fs in os.walk(build)
             for f in fs if f.endswith(".gcda")]
    lines = defaultdict(dict)
    funcs = {}
    with ThreadPoolExecutor(max_workers=4) as pool:
        for docs in pool.map(gcov_json, gcdas):
            for doc in docs:
                cwd = doc["current_working_directory"]
                for f in doc["files"]:
                    path = os.path.realpath(os.path.join(cwd, f["file"]))
                    if not path.startswith(SRC):
                        continue
                    rel = os.path.relpath(path, REPO)
                    for ln in f["lines"]:
                        n = ln["line_number"]
                        lines[rel][n] = lines[rel].get(n, False) or \
                            ln["count"] > 0
                    for fn in f["functions"]:
                        key = (rel, fn["start_line"])
                        name = fn["demangled_name"]
                        ran = fn["execution_count"] > 0
                        if key in funcs:
                            funcs[key][1] = funcs[key][1] or ran
                        else:
                            funcs[key] = [name, ran]
    return lines, funcs


def listed():
    """(file, name prefix) -> reason, from coverage_never_run.txt."""
    out = {}
    with open(NEVER_RUN) as f:
        for raw in f:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            loc, _, reason = line.partition(" -- ")
            path, _, name = loc.strip().partition(" ")
            out[(path, name.strip())] = reason.strip()
    return out


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--build-dir", default=os.path.join(REPO, "build-cov"))
    ap.add_argument("--jobs", type=int, default=4)
    ap.add_argument("--no-run", action="store_true",
                    help="report the .gcda files of the last run")
    ap.add_argument("--lines", metavar="FILE",
                    help="also print FILE's lines that never ran")
    args = ap.parse_args()
    build = os.path.abspath(args.build_dir)

    if not args.no_run:
        run(["cmake", "-B", build, "-S", REPO, "-DCMAKE_BUILD_TYPE=Debug",
             "-DCMAKE_CXX_FLAGS=--coverage -O0"])
        run(["cmake", "--build", build, "-j", str(args.jobs)])
        for d, _, fs in os.walk(build):
            for f in fs:
                if f.endswith(".gcda"):
                    os.remove(os.path.join(d, f))
        run(["ctest", "--test-dir", build, "-j", str(args.jobs),
             "--output-on-failure"])

    lines, funcs = collect(build)
    tot_l = tot_lr = tot_f = tot_fr = 0
    print(f"\n{'file':48} {'lines':>13} {'functions':>11}")
    for rel in sorted(lines):
        nl = len(lines[rel])
        nlr = sum(lines[rel].values())
        fs = [ran for (p, _), (_, ran) in funcs.items() if p == rel]
        print(f"{rel:48} {nlr:6}/{nl:<6} {sum(fs):5}/{len(fs):<5}")
        tot_l, tot_lr = tot_l + nl, tot_lr + nlr
        tot_f, tot_fr = tot_f + len(fs), tot_fr + sum(fs)
    print(f"{'total':48} {tot_lr:6}/{tot_l:<6} {tot_fr:5}/{tot_f:<5}"
          f"  ({100.0 * tot_lr / tot_l:.1f}% lines,"
          f" {100.0 * tot_fr / tot_f:.1f}% functions)")

    if args.lines:
        miss = sorted(n for n, ran in lines.get(args.lines, {}).items()
                      if not ran)
        print(f"\n{args.lines}: {len(miss)} line(s) never ran:",
              " ".join(map(str, miss)))

    reasons = listed()
    used = set()
    unlisted = []
    print("\nFunctions that never ran:")
    for (rel, start), (name, ran) in sorted(funcs.items()):
        if ran:
            continue
        key = next((k for k in reasons
                    if k[0] == rel and name.startswith(k[1])), None)
        if key is None:
            unlisted.append(f"{rel}:{start} {name}")
            continue
        used.add(key)
        print(f"  {rel}:{start} {name}\n      {reasons[key]}")
    stale = [f"{p} {n}" for (p, n) in reasons if (p, n) not in used]
    for u in unlisted:
        print(f"  UNLISTED {u}")
    for s in stale:
        print(f"  STALE (runs now, or gone) {s}")
    return 1 if unlisted or stale else 0


if __name__ == "__main__":
    sys.exit(main())
