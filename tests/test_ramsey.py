import math

import numpy as np
import pytest
from scipy.signal import argrelmax

from impurityprobe.bath import BathState, density_at, interaction_detuning
from impurityprobe.constants import CONST
from impurityprobe.ramsey import (FringeSeries, RamseyProtocol,
                                  detuning_nodes, fringe_closed_form,
                                  no_bath_trace, population_grid,
                                  ramsey_population, synthesize_fringe)
from impurityprobe.scattering import ResonanceModel, delta_a
from impurityprobe.thermal import QuadratureError

TWO_PI = 2 * math.pi
MODEL = ResonanceModel()


def make_bath(n0=1.0e19, T=850e-9):
    w = TWO_PI * 100.0
    return BathState(n0=n0, T=T, omega_x=w, omega_y=w, omega_z=w)


def make_protocol(**kw):
    kw.setdefault("t", np.geomspace(0.1e-3, 6e-3, 12))
    kw.setdefault("phi", np.deg2rad(np.arange(0.0, 360.0, 30.0)))
    return RamseyProtocol(**kw)


class TestClosedForm:
    def test_time_zero(self):
        assert fringe_closed_form(0.0, 0.0, TWO_PI * 100, 5e-3) == pytest.approx(0.0)
        assert fringe_closed_form(0.0, math.pi, TWO_PI * 100, 5e-3) == pytest.approx(1.0)

    def test_full_dephasing(self):
        p = fringe_closed_form(50e-3, 0.3, TWO_PI * 100, 5e-3)
        assert p == pytest.approx(0.5, abs=math.exp(-100.0) + 1e-15)

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            fringe_closed_form(-1e-3, 0.0, 0.0, 5e-3)
        with pytest.raises(ValueError):
            fringe_closed_form(1e-3, 0.0, 0.0, 0.0)


class TestRamseyPopulation:
    def test_time_zero_is_unity(self):
        p = ramsey_population(0.0, 0.0, make_bath(), MODEL, make_protocol())
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_reduction_to_closed_form(self):
        # one density node and one energy node: a pure fringe that must
        # match the phenomenological model (T2 -> inf) under the
        # documented phase mapping phi_eq2 = -(phi + pi)
        bath = make_bath()
        proto = make_protocol()
        E0 = CONST.k_B * 400e-9
        delta = interaction_detuning(bath.n0, delta_a(proto.B, E0, MODEL))
        nodes = (np.array([[delta]]), np.array([[1.0]]))
        for t in np.linspace(0.2e-3, 8e-3, 5):
            for phi in np.linspace(0.0, TWO_PI, 4, endpoint=False):
                p = ramsey_population(t, phi, bath, MODEL, proto, nodes=nodes)
                ref = fringe_closed_form(t, -(phi + math.pi), delta, 1e6)
                assert p == pytest.approx(ref, abs=1e-12)
                direct = math.cos(0.5 * (delta * t + phi)) ** 2
                assert p == pytest.approx(direct, rel=1e-12, abs=1e-12)

    def test_periodic_in_phase(self):
        bath, proto = make_bath(), make_protocol()
        p1 = ramsey_population(2e-3, 0.7, bath, MODEL, proto)
        p2 = ramsey_population(2e-3, 0.7 + TWO_PI, bath, MODEL, proto)
        assert p1 == pytest.approx(p2, abs=1e-12)

    def test_bounded(self):
        bath, proto = make_bath(2e19, 300e-9), make_protocol()
        p = population_grid(proto, bath, MODEL)
        assert np.all(p >= 0.0) and np.all(p <= 1.0)

    def test_contrast_non_increasing(self):
        bath, proto = make_bath(), make_protocol()
        delta, w = detuning_nodes(bath, MODEL, proto.B)
        d, wf = delta.ravel(), w.ravel()
        R = [math.hypot(np.dot(wf, np.cos(d * t)), np.dot(wf, np.sin(d * t)))
             for t in proto.t]
        assert np.all(np.diff(R) < 1e-9)

    def test_against_full_monte_carlo(self):
        # positions x energies sampled directly from the microscopic model
        bath, proto = make_bath(1.5e19, 600e-9), make_protocol()
        rng = np.random.default_rng(42)
        n_samples = 1_000_000
        pos = rng.normal(size=(n_samples, 3)) * bath.sigmas()
        n = density_at(pos, bath)
        E = CONST.k_B * bath.T * rng.gamma(1.5, 1.0, size=n_samples)
        d = interaction_detuning(n, delta_a(proto.B, E, MODEL))
        for t, phi in [(0.3e-3, 0.0), (1e-3, 1.0), (2e-3, math.pi),
                       (4e-3, 4.0), (6e-3, 2.0)]:
            vals = np.cos(0.5 * (d * t + phi)) ** 2
            sem = vals.std(ddof=1) / math.sqrt(n_samples)
            p = ramsey_population(t, phi, bath, MODEL, proto,
                                  energy_order=2048,
                                  include_background=False)
            assert abs(p - vals.mean()) < 3.0 * sem


class TestConvergenceCheck:
    def test_unresolved_quadrature_raises(self):
        # 12 ms at 3e13 cm^-3: the default 384 x 512 rule and its
        # doubled-energy refinement differ by more than 1e-4
        proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=30)
        bath = make_bath(3e19, 700e-9)
        with pytest.raises(QuadratureError):
            population_grid(proto, bath, MODEL, check_convergence=True)
        with pytest.raises(QuadratureError):
            ramsey_population(proto.t, 0.0, bath, MODEL, proto,
                              check_convergence=True)

    def test_converged_returns_refined_result(self):
        proto = RamseyProtocol.default_grid(t_max_ms=4.0, n_t=10)
        bath = make_bath(1e19)
        refined = population_grid(proto, bath, MODEL, energy_order=1024)
        checked = population_grid(proto, bath, MODEL, check_convergence=True)
        assert np.array_equal(checked, refined)
        assert not np.array_equal(checked, population_grid(proto, bath, MODEL))
        p = ramsey_population(proto.t, 0.5, bath, MODEL, proto,
                              check_convergence=True)
        assert np.array_equal(
            p, ramsey_population(proto.t, 0.5, bath, MODEL, proto,
                                 energy_order=1024))


class TestSynthesize:
    def test_deterministic_with_seed(self):
        bath, proto = make_bath(), make_protocol()
        noise = {"atoms_per_shot": 10, "repetitions": 5}
        s1 = synthesize_fringe(proto, bath, MODEL, noise=noise, seed=3)
        s2 = synthesize_fringe(proto, bath, MODEL, noise=noise, seed=3)
        assert np.array_equal(s1.p, s2.p)
        s3 = synthesize_fringe(proto, bath, MODEL, noise=noise, seed=4)
        assert not np.array_equal(s1.p, s3.p)

    def test_partition_independent_noise(self):
        # each cell derives its RNG from (seed, it, iphi): recomputing a
        # single cell must reproduce the full-grid draw
        bath, proto = make_bath(), make_protocol()
        noise = {"atoms_per_shot": 10, "repetitions": 2}
        full = synthesize_fringe(proto, bath, MODEL, noise=noise, seed=11)
        clean = population_grid(proto, bath, MODEL)
        it, ip = 5, 7
        rng = np.random.default_rng(np.random.SeedSequence([11, it, ip]))
        cell = rng.binomial(20, clean[it, ip]) / 20
        assert full.p[it, ip] == cell

    def test_zero_interaction_matches_background_fringe(self):
        flat = ResonanceModel(delta_B=0.0, a_bg=MODEL.a_e, a_e=MODEL.a_e)
        bath, proto = make_bath(), make_protocol()
        series = synthesize_fringe(proto, bath, flat)
        for i, t in enumerate(proto.t):
            for j, phi in enumerate(proto.phi):
                env = math.exp(-((t / proto.T2_bg) ** 2))
                ref = 0.5 + 0.5 * env * math.cos(proto.delta_bg * t + phi)
                assert series.p[i, j] == pytest.approx(ref, abs=1e-12)

    def test_grid_shape_checked(self):
        with pytest.raises(ValueError):
            FringeSeries(t=np.array([1.0, 2.0]), phi=np.array([0.0]),
                         p=np.zeros((3, 1)))


class TestNoBathTrace:
    def test_time_zero(self):
        assert no_bath_trace(0.0, 6.0, 2.0, TWO_PI * 135, 27.2e-3) == pytest.approx(2.0)

    def test_long_time_plateau(self):
        val = no_bath_trace(0.5, 6.0, 2.0, TWO_PI * 135, 27.2e-3)
        assert val == pytest.approx(0.5 * 6.0 + 2.0, rel=1e-12)

    def test_oscillation_period(self):
        t = np.linspace(0.0, 30e-3, 60001)
        # with a negligible envelope the peak spacing is exactly 1/f
        flat = no_bath_trace(t, 1.0, 0.0, TWO_PI * 135.0, 1.0e3)
        periods = np.diff(t[argrelmax(flat)[0]])
        assert np.mean(periods) == pytest.approx(1.0 / 135.0, rel=1e-4)
        # the decaying envelope pulls the peaks in by well under a percent
        trace = no_bath_trace(t, 1.0, 0.0, TWO_PI * 135.0, 27.2e-3)
        periods = np.diff(t[argrelmax(trace)[0]])
        assert np.mean(periods) == pytest.approx(7.41e-3, rel=5e-3)


class TestProtocol:
    def test_monotone_times_required(self):
        with pytest.raises(ValueError):
            RamseyProtocol(t=np.array([2e-3, 1e-3]), phi=np.array([0.0]))

    def test_default_grid(self):
        proto = RamseyProtocol.default_grid()
        assert len(proto.phi) == 12
        assert proto.t[0] == pytest.approx(0.1e-3)
        assert proto.t[-1] == pytest.approx(12e-3)
