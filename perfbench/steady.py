"""Steadiness report: run one workload N times and show each metric's spread.

    python3 perfbench/steady.py --workload stream_mem --runs 10 [--seconds S]
                                [--first-seed 1] [--overhead]

Run from the repository root.  Runs perfbench/run.py one run after another,
seeds first-seed .. first-seed+N-1, and prints for every end-to-end metric
the median, the quartiles (statistics.quantiles, n=4) and IQR / median,
next to the bound in BENCHMARK.json, then the median and spread of the same
figure from raw wall-clock times (no reference-loop rescaling).  It also
prints the reference loop's own raw spread: within a run (IQR / median of
all its loops) and across runs (IQR / median of the runs' median loops),
which is what the normalisation has to absorb.  With --overhead every seed also gets a
traced run, and the ratio of traced to untraced operation time is printed.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"run failed ({proc.returncode}):\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    diag = next(json.loads(line) for line in proc.stderr.splitlines()
                if line.startswith('{"rounds"'))
    return result, diag


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    results, diags, ratios = [], [], []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        result, diag = run_once(args.workload, seed, args.seconds, 0)
        results.append(result)
        diags.append(diag)
        line = (f"seed {seed}: {result['attempted']} attempted, "
                f"{result['failed']} failed, {diag['rounds']} rounds")
        if args.overhead:
            _, traced = run_once(args.workload, seed, args.seconds, 1)
            ratios.append(traced["ops_s"] / diag["ops_s"])
            line += f", traced/untraced operation time {ratios[-1]:.2f}"
        print(line, flush=True)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    print(f"\n{args.workload}: {args.runs} runs of {args.seconds:g} s")
    print(f"{'metric':24} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} "
          f"{'bound':>6} {'raw median':>12} {'raw iqr/med':>11}")
    for name in results[0]["metrics"]:
        med, q1, q3, rel = spread([r["metrics"][name]["value"] for r in results])
        line = (f"{name:24} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.3f} "
                f"{bounds.get(name, float('nan')):6.2f}")
        if name in diags[0]["raw"]:
            raw_med, _, _, raw_rel = spread([d["raw"][name] for d in diags])
            line += f" {raw_med:12.6g} {raw_rel:11.3f}"
        print(line)
    within = [(d["ref_ms_q3"] - d["ref_ms_q1"]) / d["ref_ms_median"] for d in diags]
    med, q1, q3, rel = spread([d["ref_ms_median"] for d in diags])
    print(f"\nreference loop, raw: median {med:.4f} ms; within a run iqr/med "
          f"{statistics.median(within):.3f} (median over runs); across runs "
          f"iqr/med {rel:.3f}")
    if ratios:
        print(f"tracing overhead: traced/untraced operation time, median "
              f"{statistics.median(ratios):.2f}")
    failed = sum(r["failed"] for r in results)
    print(f"failed operations: {failed} of {sum(r['attempted'] for r in results)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
