"""Run-to-run spread of the end-to-end metrics across seeds.

    python3 perfbench/spread.py --workloads words states --seeds 1 2 3 4 5
    python3 perfbench/spread.py --seeds 1 2 3 4 5 6 7 8 9 10 --save

Runs run.py once per workload and seed, as a separate process, and prints for
each metric the median and the spread: the distance between the first and
third quartiles (statistics.quantiles(values, n=4)) as a share of the median.
--save stores the figures in record.json under "baseline".
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return {k: v["value"] for k, v in result["metrics"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workloads", nargs="+", default=list(run.WORKLOADS))
    p.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    p.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    p.add_argument("--save", action="store_true")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    baseline = {}
    worst = 0.0
    for w in args.workloads:
        values: dict[str, list[float]] = {}
        for seed in args.seeds:
            for k, v in one_run(w, seed, args.seconds).items():
                values.setdefault(k, []).append(v)
            print(f"{w} seed {seed}: " + ", ".join(f"{k}={v[-1]:.4g}" for k, v in values.items()), flush=True)
        baseline[w] = {}
        for k, vs in values.items():
            q1, med, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / med
            if k != "setup_s":
                worst = max(worst, spread / bounds[k])
            baseline[w][k] = {"median": med, "q1": q1, "q3": q3, "spread": spread, "values": vs}
            print(f"{w:7s} {k:12s} median {med:10.4g}  spread {spread:6.3f}  bound {bounds[k]}")
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.3f}")
    if args.save:
        record = run.load_record()
        record["baseline"] = {"seeds": args.seeds, "seconds": args.seconds, "workloads": baseline}
        with open(run.RECORD, "w") as fh:
            json.dump(record, fh, indent=2)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
