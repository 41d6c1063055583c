#!/usr/bin/env python3
"""Steadiness check of the benchmark, the way the driver does it.

Runs every workload of BENCHMARK.json ten times, each with another --seed, and
prints for each end-to-end metric the distance between the first and third
quartile of its ten values as a share of their median, next to the metric's
bound. A spread above a third of the bound is marked.

    python3 bench/steady.py [first_seed] [workload ...]
"""
import json
import statistics
import subprocess
import sys
import time

RUNS = 10


def main():
    spec = json.load(open("BENCHMARK.json"))
    first = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    names = sys.argv[2:] or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    noisy = 0
    for name in names:
        values = {m: [] for m in bounds}
        took = []
        for seed in range(first, first + RUNS):
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed),
                                     "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            t0 = time.time()
            out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
            took.append(time.time() - t0)
            rep = json.loads(out.strip().splitlines()[-1])
            if not rep["correct"] or rep["failed"]:
                sys.exit(f"{name} seed {seed}: failed {rep['failed']} of {rep['attempted']}")
            for m in values:
                values[m].append(rep["metrics"][m]["value"])
        print(f"{name}: {RUNS} runs, {statistics.mean(took):.1f} s each")
        for m, vs in values.items():
            q1, q2, q3 = statistics.quantiles(vs, n=4)
            spread = (q3 - q1) / q2
            mark = ""
            if m != "setup_s" and spread > bounds[m] / 3:
                mark = "  <-- above a third of the bound"
                noisy += 1
            print(f"  {m:26s} median {q2:12.6g}  spread {100 * spread:6.2f}%  bound {100 * bounds[m]:4.0f}%{mark}")
            print("    " + " ".join(f"{v:.5g}" for v in vs))
    sys.exit(1 if noisy else 0)


if __name__ == "__main__":
    main()
