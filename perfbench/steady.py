#!/usr/bin/env python3
"""Steadiness self-check for the repository benchmark.

    python3 perfbench/steady.py spread [--seeds 1-10] [--seconds S]
    python3 perfbench/steady.py determinism [--seed 1 --other-seed 2]

`spread` runs every workload once per seed, rotating the workload order from
one seed to the next so slow phases of the host hit all workloads alike. For
each end-to-end metric it prints the median, the quartiles (as Python's
statistics.quantiles gives them) and the spread (Q3 - Q1) / median next to
the metric's bound; a spread above a third of the bound is flagged. setup_s
is shown but not gated, as its bound covers the median only.

`determinism` runs each workload traced twice on one seed and once on
another, and shows that the deterministic counts repeat exactly on the same
seed and which of them change on the other one.

Both check that every run is correct and prints exactly the metrics
BENCHMARK.json lists.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = json.load(open(os.path.join(ROOT, "BENCHMARK.json")))
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
DETERMINISTIC = [
    "cpu.insns", "platform.cycles", "platform.exceptions",
    "link.delivered", "link.frames_per_ota_node", "link.bytes_per_ota_node",
    "fleet.quanta", "update.ota_sim_mcycles",
]


def run(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          stderr=subprocess.DEVNULL, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit("FAIL %s seed %d: exit %d\n%s" %
                 (workload, seed, proc.returncode, proc.stdout))
    result = json.loads(lines[-1])
    expected = BENCH["per_layer" if trace else "end_to_end"]
    names = [m["name"] for m in expected]
    units = {m["name"]: m["unit"] for m in expected}
    got = result["metrics"]
    if sorted(got) != sorted(names) or any(
            got[n]["unit"] != units[n] for n in names):
        sys.exit("FAIL %s: metrics differ from BENCHMARK.json" % workload)
    if not result["correct"] or result["failed"]:
        sys.exit("FAIL %s seed %d: incorrect run\n%s" %
                 (workload, seed, proc.stdout))
    return {n: got[n]["value"] for n in names}


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def spread(args):
    seeds = parse_seeds(args.seeds)
    values = {w: {} for w in WORKLOADS}
    for i, seed in enumerate(seeds):
        k = i % len(WORKLOADS)
        order = WORKLOADS[k:] + WORKLOADS[:k]
        for w in order:
            for name, v in run(w, seed, args.seconds, 0).items():
                values[w].setdefault(name, []).append(v)
            print("ran %s seed %d" % (w, seed), flush=True)
    wide = 0
    print("%-18s %-20s %3s %12s %12s %12s %7s %6s" %
          ("workload", "metric", "n", "median", "q1", "q3", "spread",
           "bound"))
    for w in WORKLOADS:
        for m in BENCH["end_to_end"]:
            v = values[w][m["name"]]
            med = statistics.median(v)
            q1, _, q3 = statistics.quantiles(v, n=4)
            s = (q3 - q1) / med if med else float("inf")
            gated = m["name"] != "setup_s"
            flag = "WIDE" if gated and s > m["bound"] / 3 else ""
            wide += bool(flag)
            print("%-18s %-20s %3d %12.6g %12.6g %12.6g %7.4f %6.3g %s" %
                  (w, m["name"], len(v), med, q1, q3, s, m["bound"], flag))
    return 1 if wide else 0


def determinism(args):
    bad = 0
    for w in WORKLOADS:
        a = run(w, args.seed, args.seconds, 1)
        b = run(w, args.seed, args.seconds, 1)
        c = run(w, args.other_seed, args.seconds, 1)
        same = [n for n in DETERMINISTIC if a[n] == b[n]]
        moved = [n for n in DETERMINISTIC if a[n] != c[n]]
        bad += len(same) != len(DETERMINISTIC)
        print("%s: repeat on seed %d: %d/%d exact%s" %
              (w, args.seed, len(same), len(DETERMINISTIC),
               "" if len(same) == len(DETERMINISTIC) else
               " (differ: %s)" % ", ".join(
                   n for n in DETERMINISTIC if n not in same)))
        print("  changed on seed %d: %s" %
              (args.other_seed, ", ".join(moved) or "none"))
        print("  tracing overhead %.4f" % a["trace.overhead_share"])
    return 1 if bad else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread")
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=float, default=BENCH["run_seconds"])
    p.set_defaults(fn=spread)
    p = sub.add_parser("determinism")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--other-seed", type=int, default=2)
    p.add_argument("--seconds", type=float, default=2)
    p.set_defaults(fn=determinism)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
