#!/usr/bin/env python3
"""Run the benchmark repeatedly and record each metric's spread.

Usage, from the root of a checkout:

    python3 perfbench/spread.py --set first --seeds 1-10 --seconds 30 [--workloads a,b]
    python3 perfbench/spread.py --set second --seeds 11-20 --seconds 30

For every workload (by default those BENCHMARK.json gates) it runs
perfbench/run.py once per seed (untraced) and stores the set under
sets.<name> in perfbench/spread.json: per workload and end-to-end metric,
the median, the quartiles from statistics.quantiles(values, n=4), and the
spread (q3 - q1) / median. Runs whose outputs failed a check are listed
under incorrect_runs; their measurements still count, since every check
runs after the measured window. Other sets and keys already in the file
are kept. With two or more sets it also writes agreement: per workload
and metric, how far each later set's median moved from the first set's,
as a share of the first, against the metric's bound in BENCHMARK.json.
Each run's standard error, with its per-round lines, is kept under
.bench_build/spread-logs/<set>/.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    BENCH = json.load(f)
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
BOUNDS = {m["name"]: (m["bound"], m["better"]) for m in BENCH["end_to_end"]}


def seeds(spec):
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def machine():
    cpu = ""
    with open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    go = subprocess.run(["go", "version"], capture_output=True, text=True).stdout.strip()
    return {"nproc": os.cpu_count(), "GOMAXPROCS": os.environ.get("GOMAXPROCS", str(os.cpu_count())),
            "go": go, "cpu": cpu}


def run_once(workload, seed, seconds, logs):
    p = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
                        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                       cwd=ROOT, capture_output=True, text=True)
    with open(os.path.join(logs, f"{workload}-seed{seed}.log"), "w") as f:
        f.write(p.stderr)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr.strip().splitlines()[-1:] if p.stderr.strip() else []


def measure(workload, seed_list, seconds, logs):
    values, incorrect = {}, []
    for s in seed_list:
        code, result, err = run_once(workload, s, seconds, logs)
        if result is None or not result.get("correct"):
            incorrect.append({"seed": s, "exit": code, "stderr": err})
        if result is None:
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(workload, s, code, json.dumps(result["metrics"]), file=sys.stderr)
    stats = {}
    for name, vs in sorted(values.items()):
        q1, med, q3 = statistics.quantiles(vs, n=4)
        stats[name] = {"median": med, "q1": q1, "q3": q3,
                       "spread": (q3 - q1) / med if med else None, "values": vs}
    return {"metrics": stats, "incorrect_runs": incorrect}


def agreement(sets):
    """Compare each later set's medians with the first set's."""
    names = list(sets)
    out = {}
    for later in names[1:]:
        for w, doc in sets[later]["workloads"].items():
            base = sets[names[0]]["workloads"].get(w)
            if base is None:
                continue
            for name, st in doc["metrics"].items():
                if name not in base["metrics"] or name not in BOUNDS:
                    continue
                bound, better = BOUNDS[name]
                m0, m1 = base["metrics"][name]["median"], st["median"]
                worse = (m1 - m0) / m0 if better == "lower" else (m0 - m1) / m0
                out.setdefault(later, {}).setdefault(w, {})[name] = {
                    "first_median": m0, "median": m1, "worse_by": worse, "bound": bound,
                    "within": abs(worse) <= bound}
    return out


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--set", default="first", help="name the set is stored under")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=BENCH["run_seconds"])
    ap.add_argument("--workloads", default=",".join(WORKLOADS))
    ap.add_argument("--out", default=os.path.join(HERE, "spread.json"))
    args = ap.parse_args()
    doc = {}
    if os.path.exists(args.out):
        with open(args.out) as f:
            doc = json.load(f)
    doc["machine"] = machine()
    sets = doc.setdefault("sets", {})
    entry = sets.setdefault(args.set, {"workloads": {}})
    entry["seeds"], entry["seconds"] = args.seeds, args.seconds
    logs = os.path.join(ROOT, ".bench_build", "spread-logs", args.set)
    os.makedirs(logs, exist_ok=True)
    for w in args.workloads.split(","):
        entry["workloads"][w] = measure(w, seeds(args.seeds), args.seconds, logs)
    doc["agreement"] = agreement(sets)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
