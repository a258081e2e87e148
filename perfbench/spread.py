#!/usr/bin/env python3
"""Agreement check and bound calibration for the benchmark.

Runs the command in BENCHMARK.json on every workload with N different
seeds (default 10), `--sets` times (default 2), and prints, for every
(end-to-end metric, workload) pair, each set's median and its spread:
the distance between the first and third quartile of the N values
(`statistics.quantiles(values, n=4)`) as a share of their median. This
is the check the driver applies before it accepts the benchmark.

Exits non-zero if a run fails, if a spread (other than `setup_s`'s)
exceeds the metric's bound, or if a later set's median is worse than
the first's by more than the bound. `--calibrate` also prints, per
metric, three times the widest spread seen: the smallest bound that
keeps every spread under a third of it.

    python3 perfbench/spread.py [--seeds 10] [--sets 2] [--calibrate]
                                [--workload NAME ...] [--seconds S]

Run it from the root of a checkout; it builds on first use.
"""
import argparse
import json
import statistics
import subprocess
import sys


def run(command, workload, seed, seconds):
    argv = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        sys.exit(f"{' '.join(argv)}: exit {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        sys.exit(f"{workload} seed {seed}: incorrect ({result['failed']} failed)")
    return {name: m["value"] for name, m in result["metrics"].items()}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--workload", action="append")
    ap.add_argument("--calibrate", action="store_true")
    args = ap.parse_args()

    spec = json.load(open("BENCHMARK.json"))
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    # values[set][workload][metric] -> list over seeds
    values = []
    for s in range(args.sets):
        per_workload = {}
        for w in workloads:
            runs = [run(spec["command"], w, 1000 * s + k + 1, seconds) for k in range(args.seeds)]
            per_workload[w] = {m: [r[m] for r in runs] for m in metrics}
            print(f"set {s + 1} {w}: done", file=sys.stderr)
        values.append(per_workload)

    bad = []
    widest = {m: 0.0 for m in metrics}
    print(f"{'metric':<12} {'workload':<14} " + " ".join(
        f"{'median' + str(s + 1):>12} {'spread' + str(s + 1):>8}" for s in range(args.sets)
    ) + f" {'worse':>8} {'bound':>6}")
    for m, meta in metrics.items():
        for w in workloads:
            cells, medians = [], []
            for s in range(args.sets):
                v = values[s][w][m]
                med = statistics.median(v)
                q = statistics.quantiles(v, n=4)
                spread = (q[2] - q[0]) / med
                medians.append(med)
                widest[m] = max(widest[m], spread)
                cells.append(f"{med:12.6g} {spread:8.4f}")
                if m != "setup_s" and spread > meta["bound"]:
                    bad.append(f"{m} on {w}: set {s + 1} spread {spread:.3f} > bound {meta['bound']}")
            sign = 1 if meta["better"] == "lower" else -1
            worse = max((sign * (x - medians[0]) / medians[0] for x in medians[1:]), default=0.0)
            if worse > meta["bound"]:
                bad.append(f"{m} on {w}: a later median is {worse:.3f} worse > bound {meta['bound']}")
            print(f"{m:<12} {w:<14} " + " ".join(cells) + f" {worse:8.4f} {meta['bound']:6.2f}")
    if args.calibrate:
        for m, wide in widest.items():
            print(f"calibrate {m}: widest spread {wide:.4f}, bound >= {3 * wide:.3f}")
    for b in bad:
        print("DISAGREES:", b)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
