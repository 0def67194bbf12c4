#!/usr/bin/env python3
"""Run the benchmark over several seeds and print each metric's median
and spread (interquartile distance as a share of the median), beside
the bound BENCHMARK.json gives it.

    python3 perfbench/spread.py --workload day_replay --seeds 1-10 [--trace 0] [--seconds 20]

Run from the repository root after building the benchmark once
(`cargo build --release --manifest-path perfbench/Cargo.toml`).
Results of every run are appended as JSON lines to --log if given.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys


def seeds(spec):
    out = []
    for part in spec.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--trace", default="0")
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--log")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    binary = os.path.join(target, "release", "xar-perfbench")

    values = {}
    for seed in seeds(args.seeds):
        cmd = [binary, "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", args.trace]
        proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            sys.exit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
        result = json.loads(lines[-1])
        if not result["correct"] or result["failed"]:
            sys.exit(f"seed {seed}: audit failed\n{proc.stdout}")
        if args.log:
            with open(args.log, "a") as f:
                f.write(json.dumps({"workload": args.workload, "seed": seed, **result}) + "\n")
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + " ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
              flush=True)

    print(f"\n{args.workload} over {len(seeds(args.seeds))} seeds")
    print(f"{'metric':40} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vs in values.items():
        med = statistics.median(vs)
        q1, _, q3 = statistics.quantiles(vs, n=4) if len(vs) > 1 else (vs[0], 0, vs[0])
        spread = (q3 - q1) / med if med else float("nan")
        bound = bounds.get(name)
        flag = "" if bound is None or spread < bound / 3 else "  <-- above a third of the bound"
        print(f"{name:40} {med:12.5g} {spread:8.4f} {bound if bound is not None else '':>6}{flag}")


if __name__ == "__main__":
    main()
