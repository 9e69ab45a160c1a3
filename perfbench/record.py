"""Result writer: run the benchmark over several seeds and record medians.

  python3 perfbench/record.py --label LABEL

Runs `run.py` exactly as BENCHMARK.json says (same --seconds) on every
workload, once per seed 1-10 with --trace 0, then with --trace 1 on seeds 1
and 2.
For every end-to-end metric it prints and records the median, the
quartiles and their spread, (Q3 - Q1) / median, against the metric's bound;
for every per-layer metric the median.  The record goes to
perfbench/results/BENCH_<LABEL>.json together with the environment.
Run it from the root of a source checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
SEEDS = range(1, 11)
TRACE_RUNS = 2


def run_once(spec, workload, seed, trace):
    cmd = list(spec["command"]) + ["--workload", workload, "--seed", str(seed),
                                   "--seconds", str(spec["run_seconds"]),
                                   "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def quartiles(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--label", required=True)
    args = ap.parse_args()

    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {"label": args.label, "run_seconds": spec["run_seconds"],
              "seeds": list(SEEDS),
              "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        e2e, layers, attempted, failed, env = {}, {}, 0, 0, None
        for seed in record["seeds"]:
            detail, result = run_once(spec, workload, seed, 0)
            env = env or detail["env"]
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                e2e.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        for seed in record["seeds"][:TRACE_RUNS]:
            detail, result = run_once(spec, workload, seed, 1)
            attempted += result["attempted"]
            failed += result["failed"]
            for name, m in result["metrics"].items():
                layers.setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
        for name, row in e2e.items():
            row.update(quartiles(row["values"]), bound=bounds[name])
            flag = "" if row["spread"] <= bounds[name] / 3 else "  <-- above bound/3"
            print(f"  {workload} {name}: median {row['median']:.5g} {row['unit']}, "
                  f"spread {row['spread']:.3f} (bound {bounds[name]}){flag}", flush=True)
        for row in layers.values():
            row["median"] = statistics.median(row["values"])
        record["workloads"][workload] = {"end_to_end": e2e, "per_layer": layers,
                                         "attempted": attempted, "failed": failed}
        record["env"] = env
    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
