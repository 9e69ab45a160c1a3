"""Pipeline benchmark for impurityprobe.

  python3 perfbench/run.py --workload {forward,analyze,invert,cli} --seed N
                           --seconds S --trace {0,1}

Run it from the root of a source checkout: it imports the package from
./src and nothing else.  Each workload runs in fresh worker processes
(worker.py) with one BLAS thread.  With --trace 0 it prints the end-to-end
metrics, with --trace 1 the per-layer metrics of a traced run plus the
tracing overhead.  The last line of standard output is the result:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}

Op times are reported in probes: each op's time divided by the mean time of
a fixed kernel sampled around and inside it (probe.py), so that the host's
speed drift cancels out; `ops_per_kprobe` is ops per 1000 probe durations.
The line before the result is a JSON detail record: the environment, sample
counts, the tail percentile, the same timings in seconds and every failure.
Workloads (see workloads.py):

  forward  synthesize_fringe + fringe_to_csv at 384 x 512 nodes; the
           trigonometric node x time loop in ramsey does the work
  analyze  fringe_from_csv + analyze_fringes + write_json, one op in five a
           calibration fit; ramsey is never called
  invert   one infer_density / infer_temperature call, tens of forward calls
  cli      one fresh `python -m impurityprobe.cli` process per op; start-up,
           cli and serialization dominate
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
# Set-up is measured this many times per --trace 0 run and the median is
# reported.  Invert's set-up is mostly its 6-s warm-up inversion; two keep
# an invert run near 45 s, so that all runs the contract asks for fit its
# time limit even when the host runs slow.
SETUP_REPEATS = {"forward": 5, "analyze": 5, "invert": 2, "cli": 5}
BLAS_THREADS = "1"     # fixed so cpu_probe_per_op compares across commits
DEADLINE_S = 170.0     # the whole run, set-ups included
ANALYSIS = ("analyze_fringes", "fit_fringe", "fit_visibility_decay",
            "extract_phase_series", "fit_phase_slope")
CALIBRATION = ("fit_release_curve", "fit_zeeman", "fit_bfield",
               "fit_light_shift", "fit_no_bath_trace")
SERIALIZATION = ("fringe_to_csv", "fringe_from_csv", "write_json", "load_config")
VERBS = ("simulate", "analyze", "sweep", "calibrate", "infer")
UNITS = {"calls": "count/op", "self_s": "s/op", "nodes": "count/op",
         "evals": "count/op", "bytes": "B/op"}


def child_env(root: str) -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
               OPENBLAS_NUM_THREADS=BLAS_THREADS, OMP_NUM_THREADS=BLAS_THREADS,
               MKL_NUM_THREADS=BLAS_THREADS)
    return env


def run_worker(args, mode, env, workdir, deadline) -> dict:
    os.makedirs(workdir)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--mode", mode, "--workdir", workdir, "--t0"]
    # the worker's set-up clock starts here; CLOCK_MONOTONIC is system-wide
    proc = subprocess.Popen(cmd + [repr(time.monotonic())], env=env,
                            stdout=subprocess.PIPE, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError(f"{mode} worker passed the {DEADLINE_S:.0f} s deadline")
    if proc.returncode != 0:
        raise RuntimeError(f"{mode} worker exited with {proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def git_sha(root: str):
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, timeout=10,
                              capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(run: dict, setups: list) -> dict:
    n = run["n"]
    return {
        "setup_s": metric(statistics.median(s["setup_s"] for s in setups), "s"),
        "ops_per_kprobe": metric(run["ops_per_kprobe"], "1/kprobe"),
        "op_p50_probe": metric(run["op_p50_probe"], "probe"),
        "op_tail_probe": metric(run["op_tail_probe"], "probe"),
        "cpu_probe_per_op": metric(run["cpu_probe_per_op"], "probe"),
        "peak_rss_mb": metric(run["peak_rss_mb"], "MB"),
        "ok_ratio": metric(1.0 - len(run["failures"]) / n, "ratio"),
        "forward_max_err": metric(run["max_err"], "1"),
    }


def per_layer(run: dict) -> dict:
    layers = run["layers"]
    spans, n = layers["spans"], layers["n"]

    def total(span, field):
        return spans.get(span, {}).get(field, 0)

    fields = [("thermal.mb_quadrature", ("calls", "self_s", "nodes")),
              ("bath.density_weight_measure", ("calls", "self_s", "nodes")),
              ("scattering.delta_a", ("calls", "self_s", "evals")),
              ("ramsey.detuning_nodes", ("self_s", "nodes")),
              ("ramsey.population_grid", ("self_s",)),
              ("ramsey.synthesize_fringe", ("self_s",)),
              *[(f"analysis.{f}", ("calls", "self_s")) for f in ANALYSIS],
              ("fitting.fit_least_squares", ("calls", "self_s")),
              *[(f"calibration.{f}", ("calls", "self_s")) for f in CALIBRATION],
              ("inference.infer_density", ("self_s",)),
              ("inference.infer_temperature", ("self_s",)),
              ("inference.forward_observables", ("calls",)),
              *[(f"serialization.{f}", ("self_s", "bytes")) for f in SERIALIZATION]]
    m = {f"{span}.{field}": metric(total(span, field) / n, UNITS[field])
         for span, names in fields for field in names}
    grids = total("ramsey.detuning_nodes", "calls")
    fits = total("fitting.fit_least_squares", "lsq")
    inversions = (total("inference.infer_density", "calls")
                  + total("inference.infer_temperature", "calls"))
    m.update({
        "ramsey.trig_evals": metric(spans["ramsey.trig_evals"] / n, "count/op"),
        "ramsey.node_bytes": metric(
            total("ramsey.detuning_nodes", "node_bytes") / grids if grids else 0, "B"),
        "ramsey.noise_cells": metric(
            total("ramsey.synthesize_fringe", "noise_cells") / n, "count/op"),
        "fitting.nfev": metric(total("fitting.fit_least_squares", "nfev") / n, "count/op"),
        "fitting.bound_active_ratio": metric(
            total("fitting.fit_least_squares", "bound_active") / fits if fits else 0,
            "ratio"),
        "fitting.failed": metric(total("fitting.fit_least_squares", "error") / n,
                                 "count/op"),
        "inference.forward_calls_per_inversion": metric(
            total("inference.forward_observables", "calls") / inversions
            if inversions else 0, "count/inversion"),
        "cli.import_s": metric(run["import_s"], "s"),
        "trace.overhead_ops_per_kprobe": metric(
            layers["ops_per_kprobe"] - run["ops_per_kprobe"], "1/kprobe"),
    })
    for verb in VERBS:
        wall, cpu = layers["verbs"].get(verb, (0, 0))
        m[f"cli.{verb}.wall_s"] = metric(wall, "s")
        m[f"cli.{verb}.cpu_s"] = metric(cpu, "s")
    return m


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=SETUP_REPEATS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "impurityprobe", "__init__.py")):
        print("run.py: no src/impurityprobe here; run from the root of a source "
              "checkout", file=sys.stderr)
        return 2
    compileall.compile_dir(os.path.join(root, "src"), quiet=1)
    env = child_env(root)
    scratch = os.path.join(root, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        repeats = 0 if args.trace else SETUP_REPEATS[args.workload] - 1
        setups = [run_worker(args, "setup", env, os.path.join(workdir, f"setup{k}"),
                             deadline)
                  for k in range(repeats)]
        run = run_worker(args, "run", env, os.path.join(workdir, "run"), deadline)
    except RuntimeError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:  # another run still uses it
            pass

    metrics = per_layer(run) if args.trace else end_to_end(run, setups + [run])
    env_info = dict(run["env"], git_sha=git_sha(root))
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env_info, "ops": run["n"],
              "wall_s": run["wall"], "op_tail": {"percentile": run["tail_percentile"],
                                                 "samples_beyond": run["tail_beyond"],
                                                 "samples": run["n"]},
              "seconds_unscaled": {k: run[k] for k in ("probe_s", "ops_per_s", "op_p50_s",
                                                       "op_tail_s", "cpu_s_per_op")},
              "setup_s_samples": [s["setup_s"] for s in setups + [run]],
              "failures": run["failures"]}
    if args.trace:
        detail.update(traced_ops=run["layers"]["n"],
                      ops_per_s={"untraced": run["ops_per_s"],
                                 "traced": run["layers"]["ops_per_s"]},
                      ops_per_kprobe={"untraced": run["ops_per_kprobe"],
                                      "traced": run["layers"]["ops_per_kprobe"]},
                      computed=["ramsey.trig_evals", "ramsey.node_bytes"])
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": not run["failures"], "attempted": run["attempted"],
                      "failed": len(run["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
