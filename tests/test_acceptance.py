"""Acceptance gate: ten end-to-end criteria with pinned tolerances.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
on success).  Criteria cover the analytic Zeeman coefficient, the
degenerate-quadrature reduction, Monte Carlo equivalence of the forward
model, noiseless round-trips and inversions, the density/temperature
trends, the no-bath fixture, the calibration fits, the collision-count
operating window, distribution sanity, and CLI determinism.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad

from impurityprobe.analysis import analyze_fringes
from impurityprobe.bath import (BathState, density_at, density_weight_measure,
                                interaction_detuning)
from impurityprobe.calibration import (fit_bfield, fit_light_shift,
                                       fit_no_bath_trace, fit_release_curve,
                                       fit_zeeman, rabi_lineshape,
                                       release_curve)
from impurityprobe.cli import main as cli_main
from impurityprobe.constants import CONST
from impurityprobe.inference import (collision_counts, forward_observables,
                                     infer_density, infer_temperature)
from impurityprobe.ramsey import (FringeSeries, RamseyProtocol,
                                  fringe_closed_form, no_bath_trace,
                                  ramsey_population, synthesize_fringe)
from impurityprobe.scattering import (ResonanceModel, a_ground, mean_a,
                                      var_a)
from impurityprobe.thermal import mb_pdf, zeeman_coefficient_hz_per_G2

TWO_PI = 2 * math.pi
K_B = CONST.k_B
MODEL = ResonanceModel()


class Budget:
    """Timer that prints the per-criterion verdict line."""

    def __init__(self, label, seconds):
        self.label, self.seconds = label, seconds

    def __enter__(self):
        self.start = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.start
        verdict = "PASS" if exc_type is None else "FAIL"
        print(f"[acceptance] {self.label}: {verdict} ({elapsed:.2f} s)")
        if exc_type is None:
            assert elapsed < self.seconds, \
                f"{self.label} exceeded its {self.seconds} s budget"
        return False


def make_bath(n0, T):
    w = TWO_PI * 100.0
    return BathState(n0=n0, T=T, omega_x=w, omega_y=w, omega_z=w)


def test_01_zeeman_coefficient():
    with Budget("criterion 01 quadratic Zeeman", 1.0):
        assert zeeman_coefficient_hz_per_G2() == pytest.approx(427.5,
                                                               rel=0.005)
        B = np.linspace(0.0, 0.5, 15) * 1e-4
        a_true = 417.2 * TWO_PI * 1e8
        rep = fit_zeeman(B, a_true * B**2 + 2.0)
        assert rep.params["a_hz_per_G2"] == pytest.approx(417.2, rel=1e-9)


def test_02_degenerate_reduction():
    with Budget("criterion 02 degenerate-quadrature reduction", 1.0):
        bath = make_bath(1.0e19, 850e-9)
        # a protocol without background: delta_bg = 0, T2_bg -> inf
        proto = RamseyProtocol(t=np.geomspace(0.1e-3, 8e-3, 5),
                               phi=np.linspace(0.0, TWO_PI, 4,
                                               endpoint=False),
                               delta_bg=0.0, T2_bg=1e30)
        delta = interaction_detuning(
            bath.n0, MODEL.a_e - a_ground(proto.B, K_B * 400e-9, MODEL))
        nodes = (np.array([[delta]]), np.array([[1.0]]))
        checked = 0
        for t in proto.t:
            for phi in proto.phi:
                p = ramsey_population(t, phi, bath, MODEL, proto, nodes=nodes)
                ref = fringe_closed_form(t, -(phi + math.pi), delta, 1e6)
                assert p == pytest.approx(ref, rel=1e-12, abs=1e-12)
                checked += 1
        assert checked == 20


def test_03_monte_carlo_equivalence():
    with Budget("criterion 03 Monte Carlo equivalence", 120.0):
        cases = [(1.0e19, 850e-9, 0), (2.0e19, 400e-9, 1), (0.5e19, 600e-9, 2)]
        points = [(0.3e-3, 0.0), (1e-3, 1.0), (2e-3, math.pi),
                  (4e-3, 4.0), (6e-3, 2.0)]
        n_samples = 1_000_000
        for n0, T, seed in cases:
            bath = make_bath(n0, T)
            proto = RamseyProtocol(t=np.geomspace(0.1e-3, 6e-3, 4),
                                   phi=np.array([0.0]), delta_bg=0.0,
                                   T2_bg=1e30)
            rng = np.random.default_rng(seed)
            pos = rng.normal(size=(n_samples, 3)) * bath.sigmas()
            n = density_at(pos, bath)
            E = K_B * T * rng.gamma(1.5, 1.0, size=n_samples)
            d = interaction_detuning(
                n, MODEL.a_e - a_ground(proto.B, E, MODEL))
            for t, phi in points:
                vals = np.cos(0.5 * (d * t + phi)) ** 2
                sem = vals.std(ddof=1) / math.sqrt(n_samples)
                p = ramsey_population(t, phi, bath, MODEL, proto)
                assert abs(p - vals.mean()) < 3.0 * sem


def test_04_roundtrip_and_inversions():
    with Budget("criterion 04 round-trip and inversions", 120.0):
        # phenomenological round-trip at 200 Hz / 5 ms
        t = np.linspace(0.3e-3, 12e-3, 24)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        Delta, T2 = TWO_PI * 200.0, 5e-3
        p = np.array([fringe_closed_form(tk, phi, Delta, T2) for tk in t])
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p), delta_bg=0.0)
        assert res.T2 == pytest.approx(T2, rel=1e-6)
        assert res.delta == pytest.approx(Delta, rel=1e-6)

        # microscopic-model inversions (pipeline-consistent)
        proto = RamseyProtocol(t=np.geomspace(0.05e-3, 4e-3, 24),
                               phi=np.deg2rad(np.arange(0.0, 360.0, 30.0)))
        n_true = 1.0e19
        obs = forward_observables(n_true, 850e-9, MODEL, proto)
        post = infer_density(obs, 850e-9, MODEL, proto)
        assert post.estimate == pytest.approx(n_true, rel=0.02)

        T_true = 400e-9
        obs = forward_observables(1.5e19, T_true, MODEL, proto)
        post = infer_temperature(obs["T2"], 1.5e19, MODEL, proto)
        assert post.estimate == pytest.approx(T_true, rel=0.02)


def test_05_density_and_temperature_trends():
    with Budget("criterion 05 density/temperature trends", 300.0):
        proto = RamseyProtocol(t=np.geomspace(0.05e-3, 4e-3, 20),
                               phi=np.deg2rad(np.arange(0.0, 360.0, 30.0)))
        T2s, deltas = [], []
        for n0 in (0.2e19, 0.5e19, 1.0e19, 1.5e19, 2.0e19):
            obs = forward_observables(n0, 850e-9, MODEL, proto)
            T2s.append(obs["T2"])
            deltas.append(abs(obs["delta"]))
        assert np.all(np.diff(T2s) < 0)
        assert np.all(np.diff(deltas) > 0)

        T2s = [forward_observables(1.5e19, T, MODEL, proto)["T2"]
               for T in (200e-9, 400e-9, 600e-9, 800e-9, 1000e-9)]
        assert np.all(np.diff(T2s) > 0)


def test_06_no_bath_fixture():
    with Budget("criterion 06 no-bath fixture", 5.0):
        t = np.linspace(0.2e-3, 40e-3, 80)
        N = no_bath_trace(t, 6.0, 2.0, TWO_PI * 135.0, 27.2e-3)
        rep = fit_no_bath_trace(t, N)
        assert rep.params["delta"] == pytest.approx(TWO_PI * 135.0, rel=1e-3)
        assert rep.params["T2"] == pytest.approx(27.2e-3, rel=1e-3)


def test_07_calibration_suite():
    with Budget("criterion 07 calibration suite", 10.0):
        Omega0 = TWO_PI * 15.4e3
        assert rabi_lineshape(0.0, Omega0, 0.0, 0.0) == pytest.approx(1.0)

        omega_bg_true = TWO_PI * 0.7e6 * 0.1985
        omega_MW = TWO_PI * 140e3
        w = omega_MW - omega_bg_true + np.linspace(-2.5, 2.5, 41) * Omega0
        rep, _ = fit_bfield(w, rabi_lineshape(w, Omega0, omega_bg_true,
                                              omega_MW), Omega0, omega_MW)
        assert rep.params["omega_bg"] == pytest.approx(omega_bg_true,
                                                       rel=1e-6)

        P = np.linspace(0.0, 1.2, 10)
        rep = fit_light_shift(P, TWO_PI * 1083.0 * P + 1.0)
        assert rep.params["slope"] == pytest.approx(TWO_PI * 1083.0, rel=1e-9)

        T_true = 1.7e-6
        E0 = np.linspace(0.1, 6.0, 20) * K_B * T_true
        rep = fit_release_curve(E0, release_curve(E0, T_true))
        assert rep.params["T"] == pytest.approx(T_true, rel=0.01)


def test_08_collision_count_window():
    with Budget("criterion 08 collision-count window", 1.0):
        bath = make_bath(1.5e19, 850e-9)
        # coherence time of the forward pipeline at the operating point,
        # precomputed with the default protocol grid to stay in budget
        T2 = 0.62e-3
        N_g, N_e = collision_counts(bath, MODEL, T2=T2)
        assert 6.0 <= N_g <= 18.0
        assert 0.4 <= N_e <= 1.8
        a_bar = mean_a(MODEL.B0, bath.T, MODEL, order=1024)
        assert N_g / N_e == pytest.approx((a_bar / MODEL.a_e) ** 2,
                                          rel=1e-12)


def test_09_distribution_sanity():
    with Budget("criterion 09 distribution sanity", 60.0):
        T = 600e-9
        total, _ = quad(lambda E: mb_pdf(E, T), 0.0, 40 * K_B * T, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

        bath = make_bath(1.0e19, 850e-9)
        rng = np.random.default_rng(3)
        n_samples = 1_000_000
        pos = rng.normal(size=(n_samples, 3)) * bath.sigmas()
        n_mc = density_at(pos, bath)
        s, wq = density_weight_measure(order=48)
        n_nodes = bath.n0 * s
        for k in (1, 2):
            sem = (n_mc**k).std(ddof=1) / math.sqrt(n_samples)
            assert abs(np.dot(wq, n_nodes**k) - (n_mc**k).mean()) < 3 * sem

        E = K_B * T * rng.gamma(1.5, 1.0, size=n_samples)
        a = a_ground(MODEL.B0, E, MODEL)
        sem_mean = a.std(ddof=1) / math.sqrt(n_samples)
        assert abs(mean_a(MODEL.B0, T, MODEL, order=2048) - a.mean()) \
            < 3 * sem_mean
        m4 = np.mean((a - a.mean()) ** 4)
        sem_var = math.sqrt(max(m4 - a.var() ** 2, 0.0) / n_samples)
        assert abs(var_a(MODEL.B0, T, MODEL, order=2048) - a.var()) \
            < 3 * sem_var


def test_10_cli_determinism(tmp_path):
    with Budget("criterion 10 CLI determinism", 60.0):
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "bath": {"peak_density_per_cm3": 1.5e13, "temperature_nK": 850.0},
            "protocol": {"t_min_ms": 0.05, "t_max_ms": 3.0, "n_t": 10},
            "quadrature": {"density_order": 96, "energy_order": 96},
            "noise": {"atoms_per_shot": 10, "repetitions": 3},
            "sweep": {"parameter": "temperature_nK",
                      "values": [400.0, 800.0]},
        }))
        cal_path = tmp_path / "release.csv"
        depth = np.linspace(0.2, 10.0, 20)
        frac = release_curve(depth * K_B * 1e-6, 1.7e-6)
        cal_path.write_text("depth_kB_uK,fraction\n" + "\n".join(
            f"{d},{f}" for d, f in zip(depth, frac)) + "\n")

        artifacts = {
            "simulate": ["fringes.csv", "fringes.meta.json"],
            "analyze": ["analysis.json"],
            "sweep": ["sweep.csv", "sweep.meta.json"],
            "calibrate": ["calibration.json"],
            "infer": ["inference.json"],
        }
        outputs = {}
        for run in ("run1", "run2"):
            out = tmp_path / run
            assert cli_main(["simulate", "--config", str(cfg_path),
                             "--out", str(out), "--seed", "42"]) == 0
            assert cli_main(["analyze", str(out / "fringes.csv"),
                             "--out", str(out)]) == 0
            assert cli_main(["sweep", "--config", str(cfg_path),
                             "--out", str(out), "--seed", "42"]) == 0
            assert cli_main(["calibrate", "release", str(cal_path),
                             "--out", str(out)]) == 0
            assert cli_main(["infer", "density", "--config", str(cfg_path),
                             "--out", str(out), "--t2-ms", "0.6"]) == 0
            outputs[run] = {
                name: (out / name).read_bytes()
                for names in artifacts.values() for name in names
            }
        assert outputs["run1"] == outputs["run2"]
