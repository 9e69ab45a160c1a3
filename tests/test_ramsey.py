import json
import math
import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import argrelmax

from impurityprobe import ramsey
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
        s, wn, x, wE = detuning_nodes(bath, MODEL, proto.B)
        delta, w = np.outer(s, x), np.outer(wn, wE)
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
        # doubled refinement differ by more than 1e-4
        proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=30)
        bath = make_bath(3e19, 700e-9)
        with pytest.raises(QuadratureError):
            population_grid(proto, bath, MODEL, check_convergence=True)
        with pytest.raises(QuadratureError):
            ramsey_population(proto.t, 0.0, bath, MODEL, proto,
                              check_convergence=True)

    def test_short_density_rule_raises(self):
        # 12 ms at 2e13 cm^-3: doubling the energy order alone moves the
        # trace by 1.3e-5, doubling both orders by 2.5e-4
        proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=24)
        with pytest.raises(QuadratureError):
            population_grid(proto, make_bath(2e19, 850e-9), MODEL,
                            check_convergence=True)

    def test_converged_returns_refined_result(self):
        proto = RamseyProtocol.default_grid(t_max_ms=4.0, n_t=10)
        bath = make_bath(1e19)
        refined = population_grid(proto, bath, MODEL, density_order=768,
                                  energy_order=1024)
        checked = population_grid(proto, bath, MODEL, check_convergence=True)
        assert np.array_equal(checked, refined)
        assert not np.array_equal(checked, population_grid(proto, bath, MODEL))
        p = ramsey_population(proto.t, 0.5, bath, MODEL, proto,
                              check_convergence=True)
        assert np.array_equal(
            p, ramsey_population(proto.t, 0.5, bath, MODEL, proto,
                                 density_order=768, energy_order=1024))


def direct_trace(ts, s, wn, x, wE):
    """<cos>, <sin> summed over the full 2-D product rule, time by time."""
    d, w = np.outer(s, x).ravel(), np.outer(wn, wE).ravel()
    t = np.ravel(ts)
    C = np.array([np.dot(w, np.cos(d * tk)) for tk in t]).reshape(np.shape(ts))
    S = np.array([np.dot(w, np.sin(d * tk)) for tk in t]).reshape(np.shape(ts))
    return C, S


def random_rule(rng, n_d, n_e, x_max, negative):
    """A factored rule (s, wn, x, wE) with s in (0, 1], s[0] = 1, and a
    fraction `negative` of the detunings x below 0."""
    s = rng.uniform(0.0, 1.0, n_d)
    s[0] = 1.0
    wn = rng.uniform(0.1, 1.0, n_d)
    sign = np.where(rng.uniform(size=n_e) < negative, -1.0, 1.0)
    x = sign * rng.uniform(0.0, x_max, n_e)
    wE = rng.uniform(0.1, 1.0, n_e)
    return s, wn / wn.sum(), x, wE / wE.sum()


# 3e13 cm^-3 at 12 ms reaches |x t| ~ 410; the property goes a little past it
X_MAX = 3.6e4    # rad/s
T_MAX = 12e-3    # s


def assert_trace_close(ts, rule):
    C, S = ramsey._coherence_trace(ts, *rule)
    refC, refS = direct_trace(ts, *rule)
    assert C.shape == S.shape == np.shape(ts)
    np.testing.assert_allclose(C, refC, rtol=0.0, atol=1e-13)
    np.testing.assert_allclose(S, refS, rtol=0.0, atol=1e-13)


class TestCoherenceTable:
    """_coherence_trace reads the density average from a Taylor table; it
    must equal the node-by-node sum over the product rule at round-off."""

    @settings(max_examples=200, deadline=None)
    @given(n_d=st.integers(1, 40), n_e=st.integers(1, 40),
           n_t=st.integers(1, 8), negative=st.sampled_from([0.0, 0.5, 1.0]),
           column=st.booleans(), seed=st.integers(0, 2**31))
    def test_matches_product_rule(self, n_d, n_e, n_t, negative, column, seed):
        rng = np.random.default_rng(seed)
        rule = random_rule(rng, n_d, n_e, X_MAX, negative)
        t = np.sort(rng.uniform(0.0, T_MAX, n_t))
        if rng.uniform() < 0.3:
            t[0] = 0.0
        assert_trace_close(t[:, None] if column else t, rule)

    @pytest.mark.parametrize("ts", [np.array([0.0]), np.array([3.7e-3]),
                                    np.array([[0.0], [5e-3], [12e-3]])])
    def test_edge_cases(self, ts):
        # t = 0, one time, a column of times; one node; negative x
        one_node = (np.ones(1), np.ones(1), np.array([-2.9e4]), np.ones(1))
        assert_trace_close(ts, one_node)
        assert_trace_close(ts, random_rule(np.random.default_rng(5), 7, 9,
                                           X_MAX, 0.5))
        C, S = ramsey._coherence_trace(np.zeros(1), *one_node)
        assert C[0] == pytest.approx(1.0, abs=1e-15) and S[0] == 0.0

    def test_default_rule_at_3e13_and_12_ms(self):
        proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=30)
        rule = detuning_nodes(make_bath(3e19, 700e-9), MODEL, proto.B)
        assert np.max(np.abs(rule[2])) * proto.t[-1] > 400.0
        assert_trace_close(proto.t, rule)

    @pytest.mark.parametrize("nt", [1, 2, 3, 24, 30])
    def test_bytes_independent_of_time_grouping(self, nt):
        # the table holds only the rows a call needs, so a time's value
        # must not depend on which other times share the call
        bath, proto = make_bath(), make_protocol()
        nodes = detuning_nodes(bath, MODEL, proto.B)
        t = np.geomspace(0.1e-3, 12e-3, nt)
        C, S = ramsey._coherence_trace(t, *nodes)
        for k in range(nt):
            Ck, Sk = ramsey._coherence_trace(t[k:k + 1], *nodes)
            assert Ck.tobytes() == C[k:k + 1].tobytes()
            assert Sk.tobytes() == S[k:k + 1].tobytes()
        grid = ramsey_population(t[:, None], proto.phi[None, :], bath, MODEL,
                                 proto)
        rows = [ramsey_population(tk, proto.phi, bath, MODEL, proto) for tk in t]
        assert grid.tobytes() == np.stack(rows).tobytes()
        scalar = ramsey_population(float(t[0]), 0.4, bath, MODEL, proto)
        assert scalar == ramsey_population(t, 0.4, bath, MODEL, proto)[0]

    def test_matrix_pair_is_one_density_fraction(self):
        bath, proto = make_bath(), make_protocol()
        s, wn, x, wE = detuning_nodes(bath, MODEL, proto.B, density_order=16,
                                      energy_order=16)
        pair = (np.outer(s, x), np.outer(wn, wE))
        got = ramsey_population(proto.t, 0.3, bath, MODEL, proto, nodes=pair)
        ref = ramsey_population(proto.t, 0.3, bath, MODEL, proto,
                                nodes=(s, wn, x, wE))
        np.testing.assert_allclose(got, ref, rtol=0.0, atol=1e-13)


# prints the sha256 of a noiseless default-rule forward CSV
_FORWARD_CSV_DIGEST = """
import hashlib, math
from impurityprobe.bath import BathState
from impurityprobe.ramsey import RamseyProtocol, synthesize_fringe
from impurityprobe.scattering import ResonanceModel
from impurityprobe.serialization import fringe_to_csv
w = 2 * math.pi * 100.0
bath = BathState(n0=1.45e19, T=850e-9, omega_x=w, omega_y=w, omega_z=w)
series = synthesize_fringe(RamseyProtocol.default_grid(), bath, ResonanceModel())
print(hashlib.sha256(fringe_to_csv(series).encode()).hexdigest())
"""


def test_forward_bytes_independent_of_blas_threads():
    # no sum of the forward model goes through BLAS, whose threaded dot
    # splits its sum by the thread count
    src = os.path.dirname(os.path.dirname(ramsey.__file__))
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        out = subprocess.run([sys.executable, "-c", _FORWARD_CSV_DIGEST],
                             capture_output=True, text=True, check=True,
                             timeout=300, env=env)
        digests.append(out.stdout.strip())
    assert len(digests[0]) == 64 and digests[0] == digests[1]


# prints, as JSON, the sha256 of the forward populations for each time count
# and of a convergence-checked grid, on the first argv[1] usable cores
_CORE_RUN_DIGESTS = """
import hashlib, json, math, os, sys
n = int(sys.argv[1])
if hasattr(os, "sched_setaffinity"):  # before numpy sizes its BLAS pool
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:n])
import numpy as np
from impurityprobe.bath import BathState
from impurityprobe.ramsey import (RamseyProtocol, detuning_nodes,
                                  population_grid, ramsey_population)
from impurityprobe.scattering import ResonanceModel
digest = lambda a: hashlib.sha256(np.asarray(a).tobytes()).hexdigest()
w, model = 2 * math.pi * 100.0, ResonanceModel()
bath = BathState(n0=1.0e19, T=850e-9, omega_x=w, omega_y=w, omega_z=w)
proto = RamseyProtocol(t=np.geomspace(0.1e-3, 6e-3, 12),
                       phi=np.deg2rad(np.arange(0.0, 360.0, 30.0)))
nodes = detuning_nodes(bath, model, proto.B)
out = {}
for nt in (1, 2, 3, 24, 30):
    t = np.geomspace(0.1e-3, 12e-3, nt)
    cases = [(t, 0.4), (t[:, None], proto.phi[None, :])]
    if nt == 1:
        cases.append((float(t[0]), 0.4))
    out[str(nt)] = [digest(ramsey_population(ts, phi, bath, model, proto,
                                             nodes=nodes))
                    for ts, phi in cases]
grid = population_grid(RamseyProtocol.default_grid(t_max_ms=4.0, n_t=10),
                       bath, model, check_convergence=True)
out["convergence"] = digest(grid)
print(json.dumps(out))
"""


def _trace_in_child(conn, ts, *nodes):
    C, S = ramsey._coherence_trace(ts, *nodes)
    conn.send((C.tobytes(), S.tobytes()))
    conn.close()


class TestCoherenceSplit:
    """Nothing in the forward model may split its sums by the number of
    cores: the bits must be the same on one core as on several, and a
    forked child must compute what its parent did."""

    @pytest.fixture(scope="class")
    def core_runs(self):
        # one child per core count, with as many BLAS threads as cores
        src = os.path.dirname(os.path.dirname(ramsey.__file__))
        runs = {}
        for n in (1, 2, 3, 4):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS":
                   str(n), "OMP_NUM_THREADS": str(n), "MKL_NUM_THREADS": str(n)}
            out = subprocess.run([sys.executable, "-c", _CORE_RUN_DIGESTS,
                                  str(n)], capture_output=True, text=True,
                                 check=True, timeout=300, env=env)
            runs[n] = json.loads(out.stdout)
        return runs

    @pytest.mark.parametrize("nt", [1, 2, 3, 24, 30])
    def test_bytes_independent_of_core_count(self, core_runs, nt):
        ref = core_runs[1][str(nt)]
        assert len(ref) == (3 if nt == 1 else 2)
        assert all(len(d) == 64 for d in ref)
        for n in (2, 3, 4):
            assert core_runs[n][str(nt)] == ref

    def test_convergence_check_independent_of_core_count(self, core_runs):
        ref = core_runs[1]["convergence"]
        assert len(ref) == 64
        for n in (2, 3, 4):
            assert core_runs[n]["convergence"] == ref

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_fork_child_after_threaded_call(self):
        # the trace starts no threads, so a fork after a call inherits none
        nodes = detuning_nodes(make_bath(), MODEL, make_protocol().B)
        before = threading.active_count()
        ts = np.geomspace(0.1e-3, 12e-3, 7)
        C, S = ramsey._coherence_trace(ts, *nodes)
        assert threading.active_count() == before
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        child = ctx.Process(target=_trace_in_child, args=(send, ts, *nodes))
        child.start()
        send.close()
        try:
            assert recv.poll(60)
            got = recv.recv()
        finally:
            child.join(60)
        assert not child.is_alive() and child.exitcode == 0
        assert got == (C.tobytes(), S.tobytes())


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

    @pytest.mark.parametrize("noise", [
        {"atoms": 1000, "repetitions": 1},
        {"atoms_per_shot": 10},
        {"atoms_per_shot": 10.9, "repetitions": 1},
        {"atoms_per_shot": 10, "repetitions": 0},
        {"atoms_per_shot": True, "repetitions": 1},
        {"atoms_per_shot": 10, "repetitions": 1, "seed": 2},
    ], ids=["misspelt", "missing", "fraction", "zero", "bool", "extra"])
    def test_bad_noise_rejected(self, noise):
        # no key falls back to a default, and no count is truncated
        with pytest.raises(ValueError, match="noise"):
            synthesize_fringe(make_protocol(), make_bath(), MODEL, noise=noise)

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

    @pytest.mark.parametrize("kw", [{"t": [1e-3, math.nan]},
                                    {"phi": [0.0, math.inf]},
                                    {"B": math.nan}, {"delta_bg": math.inf},
                                    {"T2_bg": math.nan}, {"Omega0": -math.inf}])
    def test_non_finite_parameters_rejected(self, kw):
        with pytest.raises(ValueError):
            make_protocol(**kw)

    def test_default_grid(self):
        proto = RamseyProtocol.default_grid()
        assert len(proto.phi) == 12
        assert proto.t[0] == pytest.approx(0.1e-3)
        assert proto.t[-1] == pytest.approx(12e-3)
