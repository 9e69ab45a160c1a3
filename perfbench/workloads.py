"""The four benchmark workloads.

Each workload builds its inputs from the seed through the package's public
functions, runs op ``i`` on demand, and checks an op's output afterwards.
Op 0 is the untimed warm-up; timed ops start at 1 and cycle through the
workload's inputs, so inputs recur within a run, or at least between the
untraced and the traced loop, and repeated outputs can be compared byte for
byte.

The seed draws the binomial noise, the calibration truths and a 3 %
jitter of the inversion targets.  The other bath design points (n0, T) stay
fixed: the quadrature error oscillates with n0 * t, and even a 1 % jitter
moved the largest error by +-40 % between seeds, more than any code change
should move it.

Every workload reports ``max_err``: the largest |p - p_ref| against the
independent reference in `reference.py`, over the noiseless population
grids its ops produce (forward), its inputs come from (analyze, cli), or at
its nominal design points (invert).
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np

from impurityprobe import (analysis, calibration, inference, ramsey,
                           serialization)
from impurityprobe.bath import BathState
from impurityprobe.constants import CONST
from impurityprobe.scattering import ResonanceModel

import reference

TWO_PI = 2.0 * math.pi
K_B = CONST.k_B
OMEGA = TWO_PI * 100.0
HERE = os.path.dirname(os.path.abspath(__file__))

# Accuracy the package itself demands of its quadrature in population_grid.
FORWARD_TOL = 1e-4


def sha(data) -> str:
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def within(value: float, rel: float):
    """(value, absolute tolerance) for a relative tolerance."""
    return value, rel * abs(value)


def make_bath(n0: float, T: float) -> BathState:
    """Isotropic 100 Hz trap; the density measure does not depend on its shape."""
    return BathState(n0=n0, T=T, omega_x=OMEGA, omega_y=OMEGA, omega_z=OMEGA)


class Workload:
    """Common bookkeeping: seeded jitter, first-occurrence digests, max_err."""

    name = ""
    layers = ()          # span names the traced run must record
    cycle = 1            # timed ops stop after a whole number of these
    min_ops = 1          # and after at least this many
    probe_in_op = True   # the op's work runs in this process (probe.py)
    traced = False       # set for the traced loop

    def __init__(self, seed: int, workdir: str):
        self.rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.first = {}
        self.max_err = 0.0

    def jitter(self, value, share):
        return float(value * (1.0 + share * self.rng.uniform(-1.0, 1.0)))

    def same_as_first(self, key, digest) -> bool:
        return self.first.setdefault(key, digest) == digest

    def grid_err(self, protocol, bath, model, p) -> None:
        err = float(np.max(np.abs(p - reference.reference_population(protocol, bath, model))))
        self.max_err = max(self.max_err, err)

    def prepare(self):
        """Reference computations, run after set-up is timed."""

    def child_probe(self, out):
        """Probe samples an op's child process took, and their (wall, CPU) s."""
        return [], (0.0, 0.0)


class Forward(Workload):
    """synthesize_fringe + fringe_to_csv at the default 384 x 512 nodes."""

    name = "forward"
    layers = ("thermal.mb_quadrature", "bath.density_weight_measure",
              "scattering.delta_a", "ramsey.detuning_nodes",
              "ramsey.population_grid", "ramsey.synthesize_fringe",
              "serialization.fringe_to_csv")
    # (t_max ms, n_t, n0 in 1e13 cm^-3, T in nK).  The 12-ms points stop at
    # 1.5e13 cm^-3: beyond that the default 384 x 512 rule misses its own
    # 1e-4 accuracy (1e-4 at 2e13, 2e-3 at 3e13 cm^-3), so noiseless ops
    # there would fail.  Five long points to four short ones put the median
    # op inside the 12-ms noiseless class, not on the edge between classes.
    POINTS = [(4.0, 24, 0.5, 1000.0), (4.0, 24, 1.3, 450.0),
              (4.0, 24, 2.1, 800.0), (4.0, 24, 2.9, 600.0),
              (12.0, 30, 0.5, 700.0), (12.0, 30, 0.85, 950.0),
              (12.0, 30, 1.05, 850.0), (12.0, 30, 1.2, 400.0),
              (12.0, 30, 1.45, 550.0)]
    ATOMS = (10, 30, 100, 300)
    cycle = 2 * len(POINTS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model = ResonanceModel()
        self.inputs = []
        for k, (t_max, n_t, n0, T) in enumerate(self.POINTS):
            protocol = ramsey.RamseyProtocol.default_grid(t_max_ms=t_max, n_t=n_t)
            bath = make_bath(n0 * 1e19, T * 1e-9)
            noise = {"atoms_per_shot": self.ATOMS[k % len(self.ATOMS)], "repetitions": 1}
            self.inputs.append((protocol, bath, noise, int(self.rng.integers(2**31))))
        self.p_ref = []

    def point(self, i):
        """Ops alternate noiseless / noisy on each design point in turn."""
        return (i // 2) % len(self.inputs), i % 2 == 1

    def op(self, i):
        k, noisy = self.point(i)
        protocol, bath, noise, noise_seed = self.inputs[k]
        series = ramsey.synthesize_fringe(protocol, bath, self.model,
                                          noise=noise if noisy else None,
                                          seed=noise_seed)
        return series, serialization.fringe_to_csv(series)

    def prepare(self):
        self.p_ref = [reference.reference_population(protocol, bath, self.model)
                      for protocol, bath, _, _ in self.inputs]

    def check(self, i, out):
        series, text = out
        k, noisy = self.point(i)
        p_ref = self.p_ref[k]
        if not self.same_as_first((k, noisy), sha(text)):
            return "CSV differs from an earlier op on the same input and seed"
        if not noisy:
            err = float(np.max(np.abs(series.p - p_ref)))
            self.max_err = max(self.max_err, err)
            return None if err <= FORWARD_TOL else f"|p - p_ref| = {err:.3g}"
        trials = self.inputs[k][2]["atoms_per_shot"]
        sigma = np.sqrt(p_ref * (1.0 - p_ref) / trials)
        if not (np.all(series.p >= 0.0) and np.all(series.p <= 1.0)
                and np.all(np.abs(series.p - p_ref) <= 8.0 * sigma + 2.0 / trials)):
            return "binomial draws inconsistent with the reference population"
        return None


def _write_fringe_csv(path, series):
    text = serialization.fringe_to_csv(series)
    with open(path, "w") as fh:
        fh.write(text)
    return text


class Analyze(Workload):
    """fringe_from_csv + analyze_fringes + write_json; every fifth op fits a
    calibration dataset instead."""

    name = "analyze"
    layers = ("analysis.analyze_fringes", "analysis.fit_fringe",
              "analysis.fit_visibility_decay", "analysis.extract_phase_series",
              "analysis.fit_phase_slope", "fitting.fit_least_squares",
              "calibration.fit_release_curve", "calibration.fit_zeeman",
              "calibration.fit_bfield", "calibration.fit_light_shift",
              "calibration.fit_no_bath_trace", "serialization.fringe_from_csv",
              "serialization.write_json")
    # (t_max ms, n_t, n0 in 1e13 cm^-3, T in nK, atoms per shot or None)
    FORWARD = [(4.0, 24, 0.6, 900.0, None), (4.0, 24, 1.5, 500.0, 300),
               (4.0, 24, 2.6, 700.0, 30), (12.0, 30, 0.7, 600.0, None),
               (12.0, 30, 1.1, 850.0, 100), (12.0, 30, 1.4, 450.0, 10)]
    # (Delta / 2 pi in Hz, T2 in ms) of closed-form fringes on the criterion-04
    # grid.  Fixed, not seeded: fit_fringe lands in a wrong minimum at about
    # 1 % of (Delta, T2) points (190 Hz / 6 ms: T2 +11 %, Delta -74 %;
    # 148.07 Hz / 3.893 ms: T2 -3e-4), which would fail these ops at random.
    CLOSED = [(150.0, 4.0), (200.0, 5.0), (250.0, 6.5)]
    CALIBRATIONS = {"release": "fit_release_curve", "zeeman": "fit_zeeman",
                    "bfield": "fit_bfield", "lightshift": "fit_light_shift",
                    "nobath": "fit_no_bath_trace"}
    # One cycle: five blocks of four fringe ops and one calibration op, each
    # calibration once; every run times whole cycles, so the same op mix.
    cycle = 25

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model = ResonanceModel()
        self.pool = []   # (csv path, delta_bg, convention, truth)
        # Closed-form fringes first: a cycle's 20 fringe ops take pool entries
        # j % 9, so the first two run three times and the others twice, and
        # with these two first the median op lies inside the 101-110 ms class
        # of closed-form and noiseless 4-ms analyses, three ops from its edge.
        t = np.linspace(0.3e-3, 12e-3, 24)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        for k, (f_hz, T2_ms) in enumerate(self.CLOSED):
            Delta, T2 = TWO_PI * f_hz, T2_ms * 1e-3
            p = np.array([ramsey.fringe_closed_form(tk, phi, Delta, T2) for tk in t])
            path = os.path.join(workdir, f"closed{k}.csv")
            _write_fringe_csv(path, ramsey.FringeSeries(t=t, phi=phi, p=p))
            self.pool.append((path, 0.0, "sin2", ("closed", Delta, T2)))
        for k, (t_max, n_t, n0, T, atoms) in enumerate(self.FORWARD):
            protocol = ramsey.RamseyProtocol.default_grid(t_max_ms=t_max, n_t=n_t)
            bath = make_bath(n0 * 1e19, T * 1e-9)
            noise = None if atoms is None else {"atoms_per_shot": atoms, "repetitions": 1}
            series = ramsey.synthesize_fringe(protocol, bath, self.model, noise=noise,
                                              seed=int(self.rng.integers(2**31)))
            path = os.path.join(workdir, f"forward{k}.csv")
            _write_fringe_csv(path, series)
            self.pool.append((path, protocol.delta_bg, "cos2",
                              ("forward", protocol, bath, series)))
        self.calibration_data = {kind: self._calibration(kind) for kind in self.CALIBRATIONS}
        self.expected = {}

    def _calibration(self, kind):
        """Noiseless dataset and the true value(s) its fit must recover, to
        the criterion-07 (and 01, 06) tolerances."""
        if kind == "release":
            T = self.jitter(1.7e-6, 0.05)
            E0 = np.linspace(0.1, 6.0, 20) * K_B * T
            return (E0, calibration.release_curve(E0, T)), {"T": within(T, 0.01)}
        if kind == "zeeman":
            a = self.jitter(417.2, 0.02)
            B = np.linspace(0.0, 0.5, 15) * 1e-4
            return (B, a * TWO_PI * 1e8 * B**2 + 2.0), {"a_hz_per_G2": within(a, 1e-9)}
        if kind == "bfield":
            Omega0, omega_MW = TWO_PI * 15.4e3, TWO_PI * 140e3
            bg = TWO_PI * 0.7e6 * self.jitter(0.1985, 0.01)
            w = omega_MW - bg + np.linspace(-2.5, 2.5, 41) * Omega0
            return ((w, calibration.rabi_lineshape(w, Omega0, bg, omega_MW), Omega0,
                     omega_MW), {"omega_bg": within(bg, 1e-6)})
        if kind == "lightshift":
            slope = TWO_PI * self.jitter(1083.0, 0.03)
            P = np.linspace(0.0, 1.2, 10)
            return (P, slope * P + 1.0), {"slope": within(slope, 1e-9)}
        delta, T2 = TWO_PI * self.jitter(135.0, 0.05), self.jitter(27.2e-3, 0.05)
        t = np.linspace(0.2e-3, 40e-3, 80)
        return ((t, ramsey.no_bath_trace(t, 6.0, 2.0, delta, T2)),
                {"delta": within(delta, 1e-3), "T2": within(T2, 1e-3)})

    def entry(self, i):
        """('calibration', kind) for every fifth op, else ('fringe', pool index)."""
        block, slot = divmod(i % self.cycle, 5)
        if slot == 4:
            return "calibration", list(self.CALIBRATIONS)[block]
        return "fringe", (4 * block + slot) % len(self.pool)

    def op(self, i):
        kind, key = self.entry(i)
        out_path = os.path.join(self.workdir, f"op{i}.json")
        if kind == "calibration":
            args, _ = self.calibration_data[key]
            rep = getattr(calibration, self.CALIBRATIONS[key])(*args)
            if key == "bfield":
                rep = rep[0]
            serialization.write_json(out_path, rep.to_dict())
            return rep.params, out_path
        path, delta_bg, convention, _ = self.pool[key]
        series = serialization.fringe_from_csv(path)
        result = analysis.analyze_fringes(series, delta_bg=delta_bg,
                                          phase_convention=convention)
        serialization.write_json(out_path, result.to_dict())
        return {"T2": result.T2, "delta": result.delta}, out_path

    def prepare(self):
        # The op must reproduce the analysis of the in-memory series.  The
        # CSV keeps 17 significant digits, but t and phi pass through ms and
        # degrees, so the op's fits see last-bit changes: noiseless fits keep
        # them below 1e-8, noisy ones (10 atoms per shot) move T2 by up to
        # 2.4e-4, still under 1 % of the fit's own 1-sigma error.
        for k, (_, delta_bg, convention, truth) in enumerate(self.pool):
            if truth[0] != "forward":
                continue
            _, protocol, bath, series = truth
            res = analysis.analyze_fringes(series, delta_bg=delta_bg,
                                           phase_convention=convention)
            if series.p_err is None:
                self.expected[k] = {"T2": within(res.T2, 1e-6),
                                    "delta": within(res.delta, 1e-6)}
            else:
                self.expected[k] = {
                    "T2": (res.T2, 0.01 * res.decay_fit.errors["T2"]),
                    "delta": (res.delta, 0.01 * res.slope_fit.errors["delta"])}
            if series.p_err is None:
                self.grid_err(protocol, bath, self.model, series.p)

    def check(self, i, out):
        params, out_path = out
        kind, key = self.entry(i)
        with open(out_path, "rb") as fh:
            if not self.same_as_first((kind, key), sha(fh.read())):
                return "JSON differs from an earlier op on the same input"
        if kind == "calibration":
            targets = self.calibration_data[key][1]
        else:
            truth = self.pool[key][3]
            targets = (self.expected[key] if truth[0] == "forward" else
                       {"delta": within(truth[1], 1e-6), "T2": within(truth[2], 1e-6)})
        for name, (value, tol) in targets.items():
            got = params[name]
            if got is None or not abs(got - value) <= tol:
                return f"{key}: {name} = {got!r}, expected {value!r} +- {tol:.3g}"
        return None


class Invert(Workload):
    """One infer_density or infer_temperature call on the criterion-04
    protocol (24 x 12 grid, t <= 4 ms, default orders)."""

    name = "invert"
    layers = Forward.layers[:-1] + Analyze.layers[:6] + (
        "inference.infer_density", "inference.infer_temperature",
        "inference.forward_observables")
    # (target, observables used, errors supplied, n0 in 1e19 m^-3, T in nK).
    # Density from delta, from T2 and from both, with and without errors
    # (the chi^2 interval path), and temperature.  Every timed loop runs the
    # whole mix once, so the mix does not depend on how fast an op is; four
    # kinds at about 6 s each keep a run inside its time budget.
    KINDS = [("density", ("delta", "T2"), False, 1.0, 850.0),
             ("density", ("delta",), False, 0.8, 700.0),
             ("density", ("T2",), True, 2.0, 950.0),
             ("temperature", ("T2",), True, 1.8, 500.0)]
    REL_ERROR = 0.02    # supplied 1-sigma errors, share of each observable
    cycle = len(KINDS)

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.model = ResonanceModel()
        self.protocol = ramsey.RamseyProtocol(
            t=np.geomspace(0.05e-3, 4e-3, 24),
            phi=np.deg2rad(np.arange(0.0, 360.0, 30.0)))
        self.truths = []
        for _, _, _, n0, T in self.KINDS:
            n0, T = self.jitter(n0 * 1e19, 0.03), self.jitter(T * 1e-9, 0.03)
            obs = inference.forward_observables(n0, T, self.model, self.protocol)
            self.truths.append((n0, T, obs))

    def op(self, i):
        k = i % len(self.KINDS)
        target, keys, with_errors, _, _ = self.KINDS[k]
        n0, T, obs = self.truths[k]
        observed = {key: obs[key] for key in keys}
        errors = ({key: self.REL_ERROR * abs(obs[key]) for key in keys}
                  if with_errors else None)
        if target == "density":
            return inference.infer_density(observed, T, self.model, self.protocol,
                                           errors=errors)
        return inference.infer_temperature(obs["T2"], n0, self.model, self.protocol,
                                           T2_error=errors["T2"] if errors else None)

    def prepare(self):
        for _, _, _, n0, T in self.KINDS:
            bath = make_bath(n0 * 1e19, T * 1e-9)
            series = ramsey.synthesize_fringe(self.protocol, bath, self.model)
            self.grid_err(self.protocol, bath, self.model, series.p)

    def check(self, i, post):
        k = i % len(self.KINDS)
        if not self.same_as_first(k, sha(json.dumps(post.to_dict(), sort_keys=True))):
            return "posterior differs from an earlier op on the same input"
        n0, T, _ = self.truths[k]
        truth = n0 if self.KINDS[k][0] == "density" else T
        rel = post.estimate / truth - 1.0
        return None if abs(rel) <= 0.02 else f"estimate off the truth by {rel:.3%}"


class Cli(Workload):
    """One fresh CLI process per op (cli_op.py, which behaves as `python -m
    impurityprobe.cli`), cycling through the verbs on criterion-10-sized
    inputs (10 times, 96 x 96 nodes)."""

    name = "cli"
    layers = ("serialization.load_config", "serialization.fringe_to_csv",
              "serialization.fringe_from_csv", "serialization.write_json",
              "calibration.fit_release_curve", "inference.infer_density",
              "ramsey.synthesize_fringe", "analysis.analyze_fringes")
    VERBS = ("simulate", "analyze", "sweep", "calibrate", "infer")
    cycle = len(VERBS)
    probe_in_op = False
    # Three cycles (4-5 s each today) fill --seconds; a fixed op count keeps
    # op_tail_probe on the same order statistic from run to run.
    min_ops = 3 * cycle
    ARTIFACTS = {"simulate": ("fringes.csv", "fringes.meta.json"),
                 "analyze": ("analysis.json",), "sweep": ("sweep.csv", "sweep.meta.json"),
                 "calibrate": ("calibration.json",), "infer": ("inference.json",)}
    OP_TIMEOUT_S = 120

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.noise_seed = int(self.rng.integers(2**31))
        user = {"bath": {"peak_density_per_cm3": 1.5e13, "temperature_nK": 850.0},
                "protocol": {"t_min_ms": 0.05, "t_max_ms": 3.0, "n_t": 10},
                "quadrature": {"density_order": 96, "energy_order": 96},
                "noise": {"atoms_per_shot": 10, "repetitions": 3},
                "sweep": {"parameter": "temperature_nK",
                          "values": [400.0, 800.0]}}
        self.config_path = os.path.join(workdir, "config.json")
        with open(self.config_path, "w") as fh:
            json.dump(user, fh)
        cfg = serialization.load_config(self.config_path)
        self.cfg = cfg
        self.model = serialization.model_from_config(cfg)
        self.protocol = serialization.protocol_from_config(cfg)
        self.bath = serialization.bath_from_config(cfg)
        series = ramsey.synthesize_fringe(self.protocol, self.bath, self.model,
                                          noise=cfg["noise"], seed=self.noise_seed,
                                          density_order=96, energy_order=96)
        self.fringes_path = os.path.join(workdir, "fringes.csv")
        self.fringes_csv = _write_fringe_csv(self.fringes_path, series)
        self.T_release = self.jitter(1.7e-6, 0.05)
        depth = np.linspace(0.2, 10.0, 20)
        frac = calibration.release_curve(depth * K_B * 1e-6, self.T_release)
        self.release_path = os.path.join(workdir, "release.csv")
        with open(self.release_path, "w") as fh:
            fh.write("depth_kB_uK,fraction\n" + "".join(
                f"{d:.17g},{f:.17g}\n" for d, f in zip(depth, frac)))
        obs = inference.forward_observables(self.bath.n0, self.bath.T, self.model,
                                            self.protocol, density_order=96,
                                            energy_order=96)
        self.t2_ms = format(obs["T2"] * 1e3, ".17g")

    def argv(self, verb, out):
        if verb == "simulate":
            return ["simulate", "--config", self.config_path, "--out", out,
                    "--seed", str(self.noise_seed)]
        if verb == "analyze":
            return ["analyze", self.fringes_path, "--out", out]
        if verb == "sweep":
            return ["sweep", "--config", self.config_path, "--out", out,
                    "--seed", str(self.noise_seed)]
        if verb == "calibrate":
            return ["calibrate", "release", self.release_path, "--out", out]
        return ["infer", "density", "--config", self.config_path, "--out", out,
                "--t2-ms", self.t2_ms]

    def op(self, i):
        verb = self.VERBS[i % len(self.VERBS)]
        out = os.path.join(self.workdir, f"op{i}")
        probe = os.path.join(self.workdir, f"op{i}.probe.json")
        spans = os.path.join(self.workdir, f"op{i}.spans.json") if self.traced else "-"
        cmd = [sys.executable, os.path.join(HERE, "cli_op.py"), probe, spans]
        proc = subprocess.run(cmd + self.argv(verb, out),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=self.OP_TIMEOUT_S)
        return proc.returncode, proc.stderr, out, spans, probe

    def child_probe(self, out):
        if out is None or not os.path.exists(out[4]):
            return [], (0.0, 0.0)
        with open(out[4]) as fh:
            probe = json.load(fh)
        return [tuple(s) for s in probe["samples"]], tuple(probe["spent"])

    def prepare(self):
        for T_nK in [self.cfg["bath"]["temperature_nK"]] + self.cfg["sweep"]["values"]:
            bath = make_bath(self.bath.n0, T_nK * 1e-9)
            p = ramsey.population_grid(self.protocol, bath, self.model,
                                       density_order=96, energy_order=96)
            self.grid_err(self.protocol, bath, self.model, p)

    def _read(self, i, out):
        verb = self.VERBS[i % len(self.VERBS)]
        blobs = {}
        for name in self.ARTIFACTS[verb]:
            with open(os.path.join(out, name), "rb") as fh:
                blobs[name] = fh.read()
        return verb, blobs

    def check(self, i, result):
        code, stderr, out = result[:3]
        if code != 0:
            return f"exit {code}: {stderr.decode(errors='replace').strip()[-200:]}"
        verb, blobs = self._read(i, out)
        if not self.same_as_first(verb, sha(b"".join(blobs.values()))):
            return f"{verb} artifacts differ from an earlier run"
        if verb == "simulate":
            meta = json.loads(blobs["fringes.meta.json"])
            if blobs["fringes.csv"].decode() != self.fringes_csv or \
                    meta["csv_hash"] != sha(blobs["fringes.csv"]):
                return "simulate CSV differs from the library's synthesize_fringe"
        elif verb == "sweep":
            rows = blobs["sweep.csv"].decode().strip().splitlines()[1:]
            if len(rows) != 2 or not all(math.isfinite(float(r.split(",")[3])) for r in rows):
                return "sweep rows missing or T2 not finite"
        elif verb == "calibrate":
            entry = next(iter(json.loads(blobs["calibration.json"]).values()))
            if abs(entry["T_uK"] * 1e-6 / self.T_release - 1.0) > 0.01:
                return f"release temperature {entry['T_uK']} uK off the truth"
        elif verb == "infer":
            est = json.loads(blobs["inference.json"])["estimate_per_cm3"] * 1e6
            if abs(est / self.bath.n0 - 1.0) > 0.02:
                return f"density estimate off the truth by {est / self.bath.n0 - 1:.3%}"
        elif verb == "analyze":
            if json.loads(blobs["analysis.json"])["T2_ms"] is None:
                return "analysis found no T2"
        return None


WORKLOADS = {cls.name: cls for cls in (Forward, Analyze, Invert, Cli)}
