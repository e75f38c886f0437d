#!/usr/bin/env python3
"""Runs the benchmark on seeds 1-10 of every workload, in two sets back
to back, and reports for each end-to-end metric the median, the quartiles
and the spread (distance between the quartiles as a share of the median)
of each set, and how much worse each set's median is than the other's, in
both directions, against the metric's bound.

Run from the repository root:

    python3 perfbench/steady.py --out runs.jsonl

Raw result lines are appended to --out (one JSON object per run).
"""

import argparse
import json
import statistics
import subprocess
import sys

SETS = 2
SEEDS = 10


def run_once(command, workload, seed, seconds):
    argv = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / abs(med)


def worse_by(metric, base, other):
    """How much worse `other` is than `base`, as a share of `base`."""
    change = (other - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def main():
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out")
    args = parser.parse_args()
    workloads = [w["name"] for w in bench["workloads"]]

    out = open(args.out, "a") if args.out else None
    results = {w: [[] for _ in range(SETS)] for w in workloads}
    for s in range(SETS):
        for workload in workloads:
            for seed in range(1, SEEDS + 1):
                result = run_once(bench["command"], workload, seed, bench["run_seconds"])
                results[workload][s].append(result)
                if out:
                    out.write(json.dumps({"set": s + 1, "workload": workload,
                                          "seed": seed, **result}) + "\n")
                    out.flush()
                if not result["correct"]:
                    print(f"{workload} seed {seed}: INCORRECT {result}", file=sys.stderr)

    failures = []
    for workload, sets in results.items():
        runs = [r for rs in sets for r in rs]
        attempted = [r["attempted"] for r in runs]
        print(f"\n**{workload}** — {SETS} × {SEEDS} runs, seeds 1–{SEEDS}, "
              f"all `correct`: {all(r['correct'] for r in runs)}, "
              f"failed ops: {sum(r['failed'] for r in runs)}, "
              f"ops attempted per run: {min(attempted)}–{max(attempted)}\n")
        header = "| metric |" + "".join(
            f" set {s + 1} median | q1 | q3 | spread |" for s in range(SETS))
        header += " 2 worse than 1 | 1 worse than 2 | bound |"
        print(header)
        print("|---|" + "---:|" * (header.count("|") - 2))
        for m in bench["end_to_end"]:
            row = f"| {m['name']} |"
            medians = []
            for s, rs in enumerate(sets):
                med, q1, q3, spread = summary([r["metrics"][m["name"]]["value"] for r in rs])
                medians.append(med)
                mark = ""
                if spread > m["bound"]:
                    mark = " **over bound**"
                    failures.append(f"{workload} set {s + 1} {m['name']} spread {spread:.3f}")
                elif spread > m["bound"] / 3:
                    mark = " (> bound/3)"
                row += f" {med:.6g} | {q1:.6g} | {q3:.6g} | {spread:.3f}{mark} |"
            for base, other in ((0, 1), (1, 0)):
                shift = worse_by(m, medians[base], medians[other])
                mark = ""
                if shift > m["bound"]:
                    mark = " **over bound**"
                    failures.append(f"{workload} {m['name']} set {other + 1} "
                                    f"worse than set {base + 1} by {shift:.3f}")
                row += f" {shift:+.3f}{mark} |"
            print(row + f" {m['bound']} |")

    print()
    if failures:
        print("Outside the bounds: " + "; ".join(failures) + ".")
    else:
        print("Every spread and every median shift is within its bound.")


if __name__ == "__main__":
    main()
