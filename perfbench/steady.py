#!/usr/bin/env python3
"""Steadiness check for the service benchmark.

Runs the benchmark several times per workload, each run with another seed,
and reports for every end-to-end metric its median, quartiles and spread
(quartile distance over median, the statistic BENCHMARK.json's bounds are
checked against), plus each run's calibration spin and CPU steal. With
--sets 2 or more it repeats the whole set with fresh seeds and reports how
far each later set's medians moved from the first set's, against the bound.

Run from the repository root:

    python3 perfbench/steady.py --runs 10 --sets 2 --raw runs.jsonl > report.md
"""

import argparse
import json
import statistics
import subprocess
import sys


def run_once(workload, seed, seconds):
    cmd = ["bash", "perfbench/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    lines = out.strip().splitlines()
    return json.loads(lines[-2])["details"], json.loads(lines[-1])


def value(run, name):
    details, result = run
    if name in result["metrics"]:
        return result["metrics"][name]["value"]
    return details["unbounded"][name]["value"]


def report_set(label, w, runs, seconds, bounds):
    """Prints one workload's table for one set; returns the worst
    spread/bound outside setup_s and the medians by metric."""
    details = [r[0] for r in runs]
    print(f"### {w}, {label}\n")
    print(f"{len(runs)} runs, seeds {details[0]['seed']}..{details[-1]['seed']}, "
          f"{seconds} s each, {details[0]['samples']} samples per run.\n")
    print("| metric | median | Q1 | Q3 | spread | bound | spread/bound |")
    print("|---|---|---|---|---|---|---|")
    worst, medians = 0.0, {}
    for name in sorted(bounds) + sorted(details[0].get("unbounded", {})):
        q1, med, q3 = statistics.quantiles([value(r, name) for r in runs], n=4)
        spread = (q3 - q1) / med
        medians[name] = med
        if name not in bounds:
            print(f"| {name} (unbounded) | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | - | - |")
            continue
        ratio = spread / bounds[name]
        if name != "setup_s":
            worst = max(worst, ratio)
        print(f"| {name} | {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.4f} | "
              f"{bounds[name]} | {ratio:.2f} |")
    print()
    print("`harness.spin_ms` per run (start/end of the timed phase, ms): " +
          ", ".join(f"{d['spin_start_ms']:.1f}/{d['spin_end_ms']:.1f}" for d in details))
    print()
    print("CPU steal per run (% of the machine's CPU time during the timed phase): " +
          ", ".join(f"{d['steal_pct']:.1f}" for d in details))
    print()
    sys.stdout.flush()
    return worst, medians


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=1)
    ap.add_argument("--seed-base", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=None,
                    help="run length (default: BENCHMARK.json's run_seconds)")
    ap.add_argument("--workloads", nargs="*", default=None)
    ap.add_argument("--raw", default=None,
                    help="also append every run's details and result to this JSON-lines file")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}

    worst = 0.0
    medians = {}  # (set, workload) -> {metric: median}
    for s in range(args.sets):
        for w in workloads:
            runs = []
            for i in range(args.runs):
                seed = args.seed_base + s * args.runs + i
                details, result = run_once(w, seed, seconds)
                if not result["correct"] or result["failed"]:
                    sys.exit(f"{w} seed {seed}: incorrect run {result}")
                runs.append((details, result))
                if args.raw:
                    with open(args.raw, "a") as f:
                        f.write(json.dumps({"set": s + 1, "details": details, "result": result}) + "\n")
                print(f"set {s + 1} {w} seed {seed} done", file=sys.stderr)
            set_worst, medians[s, w] = report_set(f"set {s + 1}", w, runs, seconds, bounds)
            worst = max(worst, set_worst)

    if args.sets > 1:
        print("### Medians of later sets against the first\n")
        print("A positive change is a worsening; a change past the bound fails the check.\n")
        print("| workload | metric | set 1 | " +
              " | ".join(f"set {s + 1} | change" for s in range(1, args.sets)) + " | bound |")
        print("|---|---|---|" + "---|---|" * (args.sets - 1) + "---|")
        for w in workloads:
            for name in sorted(bounds):
                base = medians[0, w][name]
                cells = []
                for s in range(1, args.sets):
                    m = medians[s, w][name]
                    better = next(e["better"] for e in bench["end_to_end"] if e["name"] == name)
                    change = (m - base) / base if better == "lower" else (base - m) / base
                    cells.append(f"{m:.6g} | {change:+.3f}")
                print(f"| {w} | {name} | {base:.6g} | " + " | ".join(cells) + f" | {bounds[name]} |")
        print()
    print(f"Largest spread/bound outside setup_s: {worst:.2f}")


if __name__ == "__main__":
    main()
