"""One workload process, started by run.py.

  python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1
      --mode setup|run --t0 MONOTONIC --workdir DIR

Set-up is timed from `--t0` (the parent's clock just before it started this
process) to ready: importing the package, building the inputs and one
untimed warm-up op.  In `setup` mode the process stops there.  In `run` mode
it then computes the references, times ops for `--seconds`, checks every
op's output and prints one JSON line of raw results.  With `--trace 1` it
then runs the timed loop a second time with spans recorded, and checks that
every traced op's output is identical to the untraced one on the same input
and that every layer the workload exercises recorded a span.

Op times are also reported in probes, which cancels the host's speed drift
out of them (probe.py).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import traceback
from time import monotonic, perf_counter

from probe import SpeedProbe


def cpu_seconds() -> float:
    """User + system CPU of this process and its waited-for children."""
    import resource
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb() -> float:
    import resource
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss) / 1024.0


def timed_loop(wl, seconds, tracer=None):
    """Run ops 1, 2, ... until `seconds` have passed, at least `wl.min_ops`
    ran, and the ops run so far are whole cycles of the workload's op mix.
    Each op's wall and CPU time leave out the probe samples taken inside it,
    and are also given in probes: divided by the mean of the samples before,
    inside and after it (probe.py).  Checks come later."""
    probe = SpeedProbe()
    probe.sample()
    ops, lat, cpu, lat_probe, cpu_probe = [], [], [], [], []
    start = perf_counter()
    i = 1
    while perf_counter() - start < seconds or i <= wl.min_ops or (i - 1) % wl.cycle:
        if tracer is not None:
            tracer.op = i
        c0 = cpu_seconds()
        first = probe.start(wl.probe_in_op)
        t0 = perf_counter()
        try:
            out, err = wl.op(i), None
        except Exception as exc:  # an op that raises is a failed op
            probe.stop()
            traceback.print_exc(file=sys.stderr)
            out, err = None, f"{type(exc).__name__}: {exc}"
        probe.stop()
        wall, used = perf_counter() - t0, cpu_seconds() - c0
        if tracer is not None:
            tracer.op = None
        inside, (child_wall, child_cpu) = wl.child_probe(out)
        lat.append(wall - probe.spent[0] - child_wall)
        cpu.append(used - probe.spent[1] - child_cpu)
        probe.sample()
        wall_ref, cpu_ref = probe.mean(probe.samples[first:] + inside)
        lat_probe.append(lat[-1] / wall_ref)
        cpu_probe.append(cpu[-1] / cpu_ref)
        ops.append((i, out, err))
        i += 1
    return {"ops": ops, "lat": lat, "cpu": cpu, "wall": perf_counter() - start,
            "lat_probe": lat_probe, "cpu_probe": cpu_probe,
            "probe_s": statistics.median(w for w, _ in probe.samples)}


def check_all(wl, loop, failures):
    for i, out, err in loop["ops"]:
        if err is None:
            try:
                err = wl.check(i, out)
            except Exception as exc:  # a malformed output is a failed op
                err = f"check raised {type(exc).__name__}: {exc}"
        if err is not None:
            failures.append(f"op {i}: {err}")


def environment() -> dict:
    import platform
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count()}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--mode", choices=("setup", "run"), required=True)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()

    t = perf_counter()
    import impurityprobe.cli  # noqa: F401  (the package's whole public surface)
    import_s = perf_counter() - t
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(impurityprobe.__file__).startswith(src + os.sep):
        print(f"worker: impurityprobe imported from {impurityprobe.__file__}, "
              f"not from {src}", file=sys.stderr)
        return 2

    import workloads
    wl = workloads.WORKLOADS[args.workload](args.seed, args.workdir)
    wl.op(0)
    setup_s = monotonic() - args.t0
    result = {"setup_s": setup_s, "import_s": import_s}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    wl.prepare()
    failures = []
    loop = timed_loop(wl, args.seconds)
    check_all(wl, loop, failures)
    result.update(summary(loop), max_err=wl.max_err, env=environment())
    if args.trace:
        result["layers"] = traced_run(wl, args, failures)
    result["attempted"] = result["n"] + (result["layers"]["n"] if args.trace else 0)
    result["failures"] = failures
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))
    return 0


def summary(loop) -> dict:
    lat, lat_probe = sorted(loop["lat"]), sorted(loop["lat_probe"])
    n = len(lat)
    # The highest order statistic with at least ten samples above it.  Below
    # 20 ops that is under the median, so the run has too few ops for a tail
    # and reports its slowest op; the detail line names the percentile.
    tail_rank = n - 11 if n >= 20 else n - 1
    return {"n": n, "wall": loop["wall"], "ops_per_s": n / sum(lat),
            "op_p50_s": statistics.median(lat), "op_tail_s": lat[tail_rank],
            "tail_percentile": 100.0 * (tail_rank + 1) / n,
            "tail_beyond": n - 1 - tail_rank,
            "cpu_s_per_op": statistics.fmean(loop["cpu"]),
            "probe_s": loop["probe_s"],
            "ops_per_kprobe": 1000.0 * n / sum(lat_probe),
            "op_p50_probe": statistics.median(lat_probe),
            "op_tail_probe": lat_probe[tail_rank],
            "cpu_probe_per_op": statistics.fmean(loop["cpu_probe"])}


def traced_run(wl, args, failures) -> dict:
    """Repeat the timed loop with spans and return the per-layer metrics.

    Each workload's check compares an op's output with the first output on
    the same input, which the untraced loop recorded, so a traced op whose
    output differs from its untraced twin fails."""
    import tracing
    tracer = tracing.Tracer()
    tracing.install(tracer)
    wl.traced = True
    loop = timed_loop(wl, args.seconds, tracer)
    check_all(wl, loop, failures)
    n = len(loop["ops"])
    verbs = {}
    for (i, out, err), wall, cpu in zip(loop["ops"], loop["lat"], loop["cpu"]):
        if getattr(wl, "VERBS", None):
            verbs.setdefault(wl.VERBS[i % len(wl.VERBS)], []).append((wall, cpu))
            if out is not None and os.path.exists(out[3]):
                tracing.load_spans(out[3], i, tracer.spans)
    spans = tracing.summarize(tracer.spans)
    for name in wl.layers:
        if name not in spans:
            failures.append(f"traced run recorded no span of {name}")
    if "fitting.fit_least_squares" in wl.layers and \
            not spans.get("fitting.fit_least_squares", {}).get("nfev"):
        failures.append("traced run saw no scipy least_squares result")
    for verb in getattr(wl, "VERBS", ()):
        if verb not in verbs:
            failures.append(f"traced run ran no cli {verb}")
    return {"spans": spans, "n": n, "verbs": {
        v: [statistics.median(w for w, _ in s), statistics.median(c for _, c in s)]
        for v, s in verbs.items()}, "ops_per_s": n / sum(loop["lat"]),
        "ops_per_kprobe": 1000.0 * n / sum(loop["lat_probe"])}


if __name__ == "__main__":
    sys.exit(main())
