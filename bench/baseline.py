#!/usr/bin/env python3
"""Measure the meshbench baseline and write it to bench/baseline.json.

Run from the repository root:

    python3 bench/baseline.py [--out bench/baseline.json]

For every workload it makes 2 sets of 5 runs of
`bash bench/run.sh --workload W --seed 1 --seconds T --trace 0`, with T
the `run_seconds` of BENCHMARK.json (the sets interleave, so slow drift in
the machine's speed spreads over both), then one traced run, and records
each end-to-end metric's median and quartiles per set and each per-layer
metric of the traced run, together with the machine it ran on.
"""
import argparse
import json
import os
import platform
import statistics
import subprocess

SEED = 1
SETS = 2
RUNS = 5


def run(workload, seconds, trace):
    cmd = ["bash", "bench/run.sh", "--workload", workload, "--seed", str(SEED),
           "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    return json.loads(out.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "values": values}


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--out", default="bench/baseline.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    seconds = bench["run_seconds"]
    go = subprocess.run(["go", "version"], check=True, capture_output=True, text=True).stdout.split()[2]
    doc = {
        "machine": {
            "cpu": cpu_model(),
            "cores": os.cpu_count(),
            "gomaxprocs": os.cpu_count(),  # meshbench leaves GOMAXPROCS at its default
            "go": go,
        },
        "method": f"{SETS} interleaved sets of {RUNS} runs per workload at seed {SEED}, "
                  f"--seconds {seconds}, tracing off; then one traced run",
        "workloads": {},
    }
    for w in bench["workloads"]:
        name = w["name"]
        sets = [[] for _ in range(SETS)]
        for _ in range(RUNS):
            for s in sets:
                s.append(run(name, seconds, 0))
        entry = {"why": w["why"], "sets": []}
        for s in sets:
            entry["sets"].append({
                "attempted": sum(r["attempted"] for r in s),
                "failed": sum(r["failed"] for r in s),
                "metrics": {m["name"]: dict(unit=m["unit"], **summary([r["metrics"][m["name"]]["value"] for r in s]))
                            for m in bench["end_to_end"]},
            })
        traced = run(name, seconds, 1)
        entry["per_layer"] = {k: v["value"] for k, v in sorted(traced["metrics"].items())}
        doc["workloads"][name] = entry
        print(name, "done", flush=True)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
