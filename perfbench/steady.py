#!/usr/bin/env python3
"""Steadiness check: repeats one workload on consecutive seeds and prints,
for every end-to-end metric, the median, the quartiles and their spread
next to the metric's bound in BENCHMARK.json.

Run from the root of the repository:

    python3 perfbench/steady.py --workload sssp-replicated --seed 100 --runs 10

The spread is (Q3 - Q1) / median with the quartiles Python's
statistics.quantiles(values, n=4) gives. Seeds run are seed, seed+1, ...
so a claim can be re-checked on seeds not used while a change was made.
With --trace it also makes as many traced runs, prints the per-layer
medians, and prints the tracing overhead: each end-to-end median of the
traced runs against the untraced one.
"""
import argparse
import json
import re
import statistics
import subprocess
import sys


def run(workload, seed, seconds, trace):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        sys.exit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stdout}{out.stderr}")
    lines = out.stdout.strip().splitlines()
    traced, steal = {}, ""
    for line in lines[:-1]:
        m = re.match(r"also measured (\S+): (\S+)", line)
        if m:
            traced[m.group(1)] = float(m.group(2))
        m = re.match(r"host: CPU time stolen by the hypervisor during the run: (\S+) s", line)
        if m:
            steal = f" (stolen CPU {m.group(1)} s)"
    return json.loads(lines[-1]), traced, steal


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True, help="first seed; run i uses seed+i")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--trace", action="store_true", help="also make traced runs and print the overhead")
    args = ap.parse_args()
    if args.runs < 2:
        ap.error("--runs must be at least 2: a spread needs two values")

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    e2e = {m["name"]: m for m in bench["end_to_end"]}

    results, extras = [], []
    for i in range(args.runs):
        res, extra, steal = run(args.workload, args.seed + i, seconds, False)
        results.append(res)
        extras.append(extra)
        print(f"seed {args.seed + i}: correct={res['correct']} attempted={res['attempted']} failed={res['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in sorted(res["metrics"].items())) + steal, flush=True)

    print(f"\n{args.workload}: {args.runs} runs of {seconds} s from seed {args.seed}")
    print(f"{'metric':24} {'median':>12} {'Q1':>12} {'Q3':>12} {'spread':>8} {'bound':>7}  ok (spread < bound/3)")
    medians = {}
    for name, m in e2e.items():
        vals = [r["metrics"][name]["value"] for r in results]
        med, q1, q3, sp = spread(vals)
        medians[name] = med
        ok = "yes" if sp < m["bound"] / 3 else ("within bound" if sp <= m["bound"] else "NO")
        print(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.2%} {m['bound']:7.0%}  {ok}")
    for name in sorted(extras[0]):
        vals = [e[name] for e in extras if name in e]
        if len(vals) == len(extras) and statistics.median(vals) > 0:
            med, q1, q3, sp = spread(vals)
            print(f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {sp:8.2%} {'-':>7}  not gated")
    shares = sorted({r["failed"] / r["attempted"] for r in results})
    print(f"failed share: {', '.join(f'{s:.6f}' for s in shares)}"
          + ("" if len(shares) == 1 else "  (NOT the same in every run)"))
    print(f"all correct: {all(r['correct'] for r in results)}")

    if not args.trace:
        return
    traced_runs = []
    for i in range(args.runs):
        traced_runs.append(run(args.workload, args.seed + i, seconds, True)[:2])
    print(f"\nper-layer medians over {args.runs} traced runs")
    for name in sorted(traced_runs[0][0]["metrics"]):
        vals = [r["metrics"][name]["value"] for r, _ in traced_runs]
        print(f"  {name:36} {statistics.median(vals):12.6g} {traced_runs[0][0]['metrics'][name]['unit']}")
    print("\ntracing overhead: traced median against untraced median")
    for name in e2e:
        vals = [t[name] for _, t in traced_runs if name in t]
        if vals:
            tm = statistics.median(vals)
            print(f"  {name:24} untraced {medians[name]:12.6g}  traced {tm:12.6g}  ({(tm / medians[name] - 1):+.1%})")


if __name__ == "__main__":
    main()
