#!/usr/bin/env python3
"""Steadiness check: run every workload ten times and compare each
end-to-end metric's spread with its bound.

    python3 perfbench/steady.py [--sets 1|2]

Run from the root of a checkout. Reads BENCHMARK.json for the command,
the run length, the workloads and the bounds. Each set runs every
workload ten times, with seeds 1 to 10. For every metric it prints the
median of the set, and the spread: the distance between the first and
third quartile (statistics.quantiles, n=4) as a share of the median.
Every spread, setup_s's too, must stay within the metric's bound, and
should stay below a third of it. With --sets 2 the second set reuses the
first set's seeds; each metric's two medians must not differ by more
than the bound, in either direction, and the share of failed operations
must be identical. Exits 1 when a check fails.
"""

import argparse
import json
import statistics
import subprocess
import sys

RUNS = 10


def run_once(cmd, workload, seed, seconds):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(args, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med if med else float("inf")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sets", type=int, default=1, choices=[1, 2])
    opts = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    ok = True
    for w in bench["workloads"]:
        name = w["name"]
        sets = []
        for _ in range(opts.sets):
            results = []
            for seed in range(1, RUNS + 1):
                r = run_once(bench["command"], name, seed, seconds)
                if not r["correct"]:
                    print(f"{name} seed {seed}: correct is false")
                    ok = False
                results.append(r)
            sets.append(results)
        print(f"\n{name}: {RUNS} runs x {opts.sets} set(s), {seconds} s each")
        shares = [(sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
                  for rs in sets]
        print("  failed/attempted per set: " + ", ".join(f"{f}/{a}" for f, a in shares))
        if any(f * shares[0][1] != shares[0][0] * a for f, a in shares):
            ok = False
        for m in bench["end_to_end"]:
            line = f"  {m['name']:<20} bound {m['bound']:.2f}"
            medians = []
            for rs in sets:
                values = [r["metrics"][m["name"]]["value"] for r in rs]
                med = statistics.median(values)
                sp = spread(values)
                medians.append(med)
                verdict = "ok" if sp < m["bound"] / 3 else ("WIDE" if sp < m["bound"] else "OVER")
                if sp >= m["bound"]:
                    ok = False
                line += f" | median {med:.6g} spread {sp:.3f} {verdict}"
                line += " [" + " ".join(f"{v:.5g}" for v in values) + "]"
            if len(medians) == 2:
                moved = (medians[1] - medians[0]) / medians[0]
                line += f" | second moved {moved:+.3f}"
                if abs(moved) > m["bound"]:
                    ok = False
                    line += " OVER"
            print(line, flush=True)
    print("\nsteady" if ok else "\nNOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
