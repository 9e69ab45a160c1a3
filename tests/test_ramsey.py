import json
import math
import multiprocessing
import os
import platform
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.signal import argrelmax

from impurityprobe import bath as bath_module, ramsey, thermal
from impurityprobe.bath import BathState, density_at, interaction_detuning
from impurityprobe.constants import CONST
from impurityprobe.ramsey import (FringeSeries, RamseyProtocol,
                                  detuning_nodes, fringe_closed_form,
                                  no_bath_trace, population_grid,
                                  quadrature_error, ramsey_population,
                                  synthesize_fringe)
from impurityprobe.scattering import ResonanceModel, delta_a

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

    def test_no_bath_trace_rejects_negative_time(self):
        with pytest.raises(ValueError, match="time must be nonnegative"):
            no_bath_trace([0.0, -1e-3], 6.0, 2.0, TWO_PI * 135.0, 27.2e-3)


class TestRamseyPopulation:
    def test_time_zero_is_unity(self):
        p = ramsey_population(0.0, 0.0, make_bath(), MODEL, make_protocol())
        assert p == pytest.approx(1.0, abs=1e-12)

    def test_degenerate_reduction_to_closed_form(self):
        # one density node and one energy node: a pure fringe that must
        # match the phenomenological model (T2 -> inf) under the
        # documented phase mapping phi_eq2 = -(phi + pi), on a protocol
        # without background
        bath = make_bath()
        proto = make_protocol(delta_bg=0.0, T2_bg=1e30)
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

    def test_grid_is_population_on_protocol_grid(self):
        # both apply the protocol's background, so they agree to the bit
        bath, proto = make_bath(), RamseyProtocol.default_grid()
        grid = population_grid(proto, bath, MODEL)
        direct = ramsey_population(proto.t[:, None], proto.phi[None, :],
                                   bath, MODEL, proto)
        assert grid.tobytes() == direct.tobytes()

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
        bath = make_bath(1.5e19, 600e-9)
        proto = make_protocol(delta_bg=0.0, T2_bg=1e30)
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
                                  energy_order=2048)
            assert abs(p - vals.mean()) < 3.0 * sem


class TestConvergenceCheck:
    def test_unresolved_quadrature_reported(self):
        # 12 ms at 3e13 cm^-3: the default 384 x 512 rule and its
        # doubled refinement differ by more than 1e-4
        proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=30)
        assert quadrature_error(proto, make_bath(3e19, 700e-9), MODEL) > 1e-4

    def test_short_density_rule_reported(self):
        # 12 ms at 2e13 cm^-3: doubling the energy order alone moves the
        # trace by 1.3e-5, doubling both orders by 2.5e-4
        proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=24)
        assert quadrature_error(proto, make_bath(2e19, 850e-9), MODEL) > 1e-4

    def test_error_is_the_change_under_doubled_orders(self):
        proto = RamseyProtocol.default_grid(t_max_ms=4.0, n_t=10)
        bath = make_bath(1e19)
        C, S = ramsey._coherence_trace(proto.t, *detuning_nodes(
            bath, MODEL, proto.B, density_order=384, energy_order=512))
        C2, S2 = ramsey._coherence_trace(proto.t, *detuning_nodes(
            bath, MODEL, proto.B, density_order=768, energy_order=1024))
        err = quadrature_error(proto, bath, MODEL)
        assert err < 1e-4
        assert err == np.max(np.hypot(C2 - C, S2 - S))


def test_populations_independent_of_trap():
    # the impurity samples the cloud by density alone, so the forward model
    # reads n0 and T and never the trap; the config has no trap for it
    proto = make_protocol()
    w = TWO_PI * np.array([20.0, 300.0, 55.0])
    anisotropic = BathState(n0=1.0e19, T=850e-9, omega_x=w[0], omega_y=w[1],
                            omega_z=w[2])
    assert np.array_equal(population_grid(proto, anisotropic, MODEL),
                          population_grid(proto, make_bath(), MODEL))


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
        # the table grows to the highest row any call needed, so a time's
        # value must not depend on which other times share the call
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


def test_taylor_truncation_below_1e_16():
    # with s <= 1 a query sits at most half a row spacing from its row, so
    # the first Taylor term left out is at most (spacing / 2)^terms / terms!
    terms, half = ramsey._TAYLOR_TERMS, 0.5 / ramsey._ROWS_PER_UNIT
    assert half ** terms / math.factorial(terms) <= 1e-16
    assert ramsey._INV_FACTORIALS.size == terms


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("t_max", [4.0, 12.0])
@pytest.mark.parametrize("n0, T", [(1e19, 850e-9), (5e19, 850e-9),
                                   (1.45e19, 550e-9)])
def test_trace_within_1e_15_of_long_double_sum(n0, T, t_max):
    # the referee sums the same 96 x 128 product rule node by node, its
    # phases and sums in long double
    proto = RamseyProtocol.default_grid(t_max_ms=t_max, n_t=12)
    s, wn, x, wE = detuning_nodes(make_bath(n0, T), MODEL, proto.B,
                                  density_order=96, energy_order=128)
    C, S = ramsey._coherence_trace(proto.t, s, wn, x, wE)
    ld = np.longdouble
    delta = np.multiply.outer(s.astype(ld), x.astype(ld)).ravel()
    w = np.multiply.outer(wn.astype(ld), wE.astype(ld)).ravel()
    for k, t in enumerate(proto.t):
        theta = delta * ld(t)
        assert abs(C[k] - np.sum(w * np.cos(theta))) <= 1e-15
        assert abs(S[k] - np.sum(w * np.sin(theta))) <= 1e-15


def sorted_rows_trace(ts, s, wn, x, wE, per_unit=ramsey._ROWS_PER_UNIT):
    """The table trace with only the call's rows, found by np.unique and
    stored row-major, with `per_unit` rows per unit of q: the reference
    for the bits of _coherence_trace."""
    q = np.abs(np.multiply.outer(ts, x)) * per_unit
    m = np.rint(q)
    d = (q - m) / per_unit
    rows, row_of = np.unique(m, return_inverse=True)
    row_of = row_of.reshape(q.shape)
    terms = ramsey._TAYLOR_TERMS
    moments = (s[None, :] ** np.arange(terms)[:, None]
               * wn[None, :] * ramsey._INV_FACTORIALS[:, None])
    re, im = np.empty((2, rows.size, terms))
    block = ramsey._ROW_BLOCK
    for b in range(0, rows.size, block):
        phase = np.multiply.outer(rows[b:b + block] / per_unit, s)
        re[b:b + block] = np.einsum("ri,ki->rk", np.cos(phase), moments)
        im[b:b + block] = np.einsum("ri,ki->rk", np.sin(phase), moments)
    gr, gi = re[row_of, -1], im[row_of, -1]
    for k in range(terms - 2, -1, -1):
        gr, gi = re[row_of, k] - gi * d, im[row_of, k] + gr * d
    return (np.einsum("...j,j->...", gr, wE),
            np.einsum("...j,j->...", gi, np.where(x < 0.0, -wE, wE)))


def pair_rule(delta, w):
    """A (delta, weights) pair as ramsey_population reads it."""
    return np.ones(1), np.ones(1), np.asarray(delta, float), np.asarray(w, float)


@pytest.mark.parametrize("ts, rule", [
    (np.geomspace(0.1e-3, 12e-3, 30),
     pair_rule([-2.9e4, -1.2e3, 0.0, 4.4e3], [0.1, 0.2, 0.3, 0.4])),
    (np.array([0.0]), pair_rule([-2.9e4, 1.0e3], [0.5, 0.5])),
    (np.array([]), pair_rule([-2.9e4, 1.0e3], [0.5, 0.5])),
    (np.array([[0.0], [5e-3], [12e-3]]), pair_rule([-2.9e4, 1.0e3], [0.5, 0.5])),
    # rows too sparse for a mask over every integer: the sort path
    (np.geomspace(1e-4, 1.0, 20), pair_rule([-5e8, 3.0], [0.5, 0.5])),
])
def test_trace_bits_match_sorted_rows(ts, rule):
    C, S = ramsey._coherence_trace(ts, *rule)
    refC, refS = sorted_rows_trace(ts, *rule)
    assert C.shape == np.shape(ts)
    assert np.array_equal(C, refC) and np.array_equal(S, refS)


def test_trace_bits_match_sorted_rows_at_3e13_and_12_ms():
    proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=30)
    rule = detuning_nodes(make_bath(3e19, 700e-9), MODEL, proto.B)
    C, S = ramsey._coherence_trace(proto.t, *rule)
    refC, refS = sorted_rows_trace(proto.t, *rule)
    assert np.array_equal(C, refC) and np.array_equal(S, refS)


@pytest.mark.parametrize("t", [math.nan, math.inf, -1e-3])
def test_population_rejects_bad_times(t):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        ramsey_population([1e-3, t], 0.0, make_bath(), MODEL, make_protocol())


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
# and of a doubled-order grid with its quadrature error, on the first argv[1]
# usable cores
_CORE_RUN_DIGESTS = """
import hashlib, json, math, os, sys
n = int(sys.argv[1])
if hasattr(os, "sched_setaffinity"):  # before numpy sizes its BLAS pool
    os.sched_setaffinity(0, sorted(os.sched_getaffinity(0))[:n])
import numpy as np
from impurityprobe.bath import BathState
from impurityprobe.ramsey import (RamseyProtocol, detuning_nodes,
                                  population_grid, quadrature_error,
                                  ramsey_population)
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
proto = RamseyProtocol.default_grid(t_max_ms=4.0, n_t=10)
grid = population_grid(proto, bath, model, density_order=768,
                       energy_order=1024)
err = quadrature_error(proto, bath, model)
out["convergence"] = hashlib.sha256(grid.tobytes()
                                    + repr(err).encode()).hexdigest()
print(json.dumps(out))
"""


def _trace_in_child(conn, ts, *nodes):
    C, S = ramsey._coherence_trace(ts, *nodes)
    conn.send((C.tobytes(), S.tobytes()))
    conn.close()


def _trace_from_fork(ts, nodes):
    """The trace's (C, S) bytes as a forked child computes them."""
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
    return got


# (n0, T, t_max_ms) of the traces compared across table histories
_HISTORY_CASES = [(1.0e19, 850e-9, 4.0), (3.0e19, 700e-9, 12.0),
                  (0.5e19, 400e-9, 12.0), (5.0e19, 1200e-9, 12.0)]


def _history_traces(cold):
    """(C, S) bytes of each history case on the default and the 96-node
    rule, each from an empty table if `cold`."""
    out = []
    for n0, T, t_max in _HISTORY_CASES:
        proto = RamseyProtocol.default_grid(t_max_ms=t_max, n_t=24)
        for order in (ramsey.DENSITY_ORDER, 96):
            nodes = detuning_nodes(make_bath(n0, T), MODEL, proto.B,
                                   density_order=order, energy_order=order)
            if cold:
                ramsey._rule_table.cache_clear()
            C, S = ramsey._coherence_trace(proto.t, *nodes)
            out.append(C.tobytes() + S.tobytes())
    return out


def _warm_density_scan(n0s):
    proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=24)
    for n0 in n0s:
        for order in (ramsey.DENSITY_ORDER, 96):
            population_grid(proto, make_bath(n0), MODEL, density_order=order,
                            energy_order=order)


def _warm_other_times():
    bath = make_bath(2e19, 500e-9)
    for t in (np.array([0.0]), np.geomspace(0.1e-3, 1e-3, 5),
              np.geomspace(1e-3, 30e-3, 7)[:, None], np.array([7.3e-3])):
        for order in (ramsey.DENSITY_ORDER, 96):
            ramsey._coherence_trace(t, *detuning_nodes(
                bath, MODEL, 198.5e-7, density_order=order,
                energy_order=order))


# call sequences that leave the tables built in other blocks and offsets
_WARM_UPS = {
    "ascending n0": lambda: _warm_density_scan(np.linspace(0.05e19, 5e19, 12)),
    "descending n0": lambda: _warm_density_scan(np.linspace(5e19, 0.05e19, 12)),
    "other times": _warm_other_times,
    "doubled rule": lambda: quadrature_error(
        RamseyProtocol.default_grid(t_max_ms=12.0, n_t=24),
        make_bath(2e19, 850e-9), MODEL),
}


class TestRuleTable:
    """The trace keeps one Taylor table per density rule and extends it as
    calls need higher rows, so its bits must not depend on the calls made
    before it, and the kept tables must stay bounded."""

    @pytest.fixture(scope="class")
    def cold(self):
        return _history_traces(cold=True)

    @pytest.mark.parametrize("warm_up", list(_WARM_UPS))
    def test_bytes_independent_of_history(self, cold, warm_up):
        ramsey._rule_table.cache_clear()
        _WARM_UPS[warm_up]()
        assert _history_traces(cold=False) == cold

    def test_density_rule_bytes_independent_of_bath(self):
        # one rule for every bath, so every bath shares its table
        s, wn, _, _ = detuning_nodes(make_bath(0.7e19, 400e-9), MODEL, 198.5e-7)
        s2, wn2, _, _ = detuning_nodes(make_bath(3.1e19, 1200e-9), MODEL, 2e-5)
        assert s.tobytes() == s2.tobytes() and wn.tobytes() == wn2.tobytes()

    def test_tables_bounded(self):
        # four rules at most, each as long as the longest call needed
        ramsey._rule_table.cache_clear()
        proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=24)
        for order in (48, 96, 192, 384, 768):
            nodes = detuning_nodes(make_bath(3e19, 700e-9), MODEL, proto.B,
                                   density_order=order)
            for t in (proto.t[:5], proto.t, proto.t[:10]):
                ramsey._coherence_trace(t, *nodes)
        assert ramsey._rule_table.cache_info().currsize == 4
        top = int(np.rint(ramsey._ROWS_PER_UNIT
                          * np.max(np.abs(np.multiply.outer(proto.t, nodes[2])))))
        table = ramsey._rule_table((nodes[0].tobytes(), nodes[1].tobytes()))[0]
        assert table.shape == (ramsey._TAYLOR_TERMS, top + 1)

    def test_ascending_scan_regrows_geometrically(self):
        # an ascending density scan extends the table at every point; the
        # rows go into a buffer whose capacity at least doubles when it
        # grows, so the table is copied a logarithmic number of times
        ramsey._rule_table.cache_clear()
        proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=24)
        buffers, extended = [], 0
        for n0 in np.linspace(0.05e19, 5e19, 12):
            nodes = detuning_nodes(make_bath(n0), MODEL, proto.B)
            table = ramsey._rule_table((nodes[0].tobytes(), nodes[1].tobytes()))
            before = table[0].shape[-1]
            ramsey._coherence_trace(proto.t, *nodes)
            built, buf = table[0], table[0].base
            extended += built.shape[-1] > before
            assert built.shape[-1] <= buf.shape[-1]
            if not buffers or buffers[-1] is not buf:
                buffers.append(buf)
        assert extended == 12
        assert len(buffers) <= 1 + math.ceil(math.log2(buf.shape[-1] / buffers[0].shape[-1]))


class TestCachedRules:
    """The density measure and the Maxwell-Boltzmann rule in E / kB T are
    the same for every bath, so each is built once per order and shared as
    read-only arrays."""

    @pytest.mark.parametrize("order", [48, 96, 384])
    def test_read_only_and_equal_to_a_fresh_rule(self, order):
        rules = [(bath_module.density_weight_measure(order),
                  bath_module.density_weight_measure.__wrapped__(order)),
                 (thermal._mb_unit_rule(order), thermal._mb_unit_rule.__wrapped__(order))]
        for cached, fresh in rules:
            for got, want in zip(cached, fresh):
                assert not got.flags.writeable
                assert got.tobytes() == want.tobytes()
                with pytest.raises(ValueError, match="read-only"):
                    got[0] = 0.0

    def test_temperatures_share_the_weights(self):
        E1, w1 = thermal.mb_quadrature(400e-9, order=512)
        E2, w2 = thermal.mb_quadrature(1200e-9, order=512)
        assert w1 is w2
        x = thermal._mb_unit_rule(512)[0]
        assert E1.tobytes() == (x * (CONST.k_B * 400e-9)).tobytes()
        assert E2.tobytes() == (x * (CONST.k_B * 1200e-9)).tobytes()
        assert E1.flags.writeable

    def test_nodes_use_the_cached_rules(self):
        s, wn, _, wE = detuning_nodes(make_bath(2e19, 600e-9), MODEL, 198.5e-7)
        s0, wn0 = bath_module.density_weight_measure(order=ramsey.DENSITY_ORDER)
        assert s is s0 and wn is wn0
        assert wE is thermal._mb_unit_rule(ramsey.ENERGY_ORDER)[1]


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
        got = _trace_from_fork(ts, nodes)
        assert got == (C.tobytes(), S.tobytes())

    @pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                        reason="needs the fork start method")
    def test_fork_child_with_warm_table(self):
        # the child inherits tables that other calls built; it must compute
        # what a cold table gives, whether they hold its rows already or
        # it has to extend them
        proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=24)
        nodes = detuning_nodes(make_bath(3e19, 700e-9), MODEL, proto.B)
        ramsey._rule_table.cache_clear()
        C, S = ramsey._coherence_trace(proto.t, *nodes)
        ramsey._rule_table.cache_clear()
        _WARM_UPS["ascending n0"]()
        assert _trace_from_fork(proto.t, nodes) == (C.tobytes(), S.tobytes())
        ramsey._rule_table.cache_clear()
        _warm_density_scan([0.5e19, 1e19])
        assert _trace_from_fork(proto.t, nodes) == (C.tobytes(), S.tobytes())


class TestTraceScratch:
    """The trace keeps its (times x nodes) work arrays per thread and reuses
    them, so a warm call returns no pages to the heap and threads that
    call it at once compute what they compute one after the other."""

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="needs glibc")
    def test_warm_calls_take_no_page_faults(self):
        # with the heap trimmed on every free, each per-call temporary of
        # ~250 kB faulted its pages in again: 19,520 faults in 20 calls
        pytest.importorskip("resource")
        src = os.path.dirname(os.path.dirname(ramsey.__file__))
        script = os.path.join(os.path.dirname(src), "scripts", "trace_faults.py")
        env = {**os.environ, "PYTHONPATH": src,
               "GLIBC_TUNABLES": "glibc.malloc.trim_threshold=0"}
        out = subprocess.run([sys.executable, script], capture_output=True,
                             text=True, check=True, timeout=300, env=env)
        assert int(out.stdout) <= 20

    def test_concurrent_calls_match_serial_calls(self):
        # four threads, two on each density rule's shared table, each with
        # its own rule and time shapes, started on cold tables
        proto = RamseyProtocol.default_grid(t_max_ms=12.0, n_t=30)
        jobs = []
        for n0, T, order in ((3e19, 700e-9, 384), (1e19, 850e-9, 384),
                             (0.8e19, 400e-9, 96), (5e19, 1200e-9, 96)):
            nodes = detuning_nodes(make_bath(n0, T), MODEL, proto.B,
                                   density_order=order, energy_order=order + 32)
            shapes = ([proto.t[:k] for k in (30, 7, 19)] if order == 384
                      else [proto.t[:k, None] for k in (12, 30, 3)])
            jobs.append([(shapes[i % 3], nodes) for i in range(50)])

        def run(calls):
            return [b"".join(a.tobytes() for a in ramsey._coherence_trace(ts, *nodes))
                    for ts, nodes in calls]

        ramsey._rule_table.cache_clear()
        serial = [run(calls) for calls in jobs]
        ramsey._rule_table.cache_clear()
        got = [None] * len(jobs)

        def worker(k):
            got[k] = run(jobs[k])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,))
                       for k in range(len(jobs))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        assert got == serial


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

    @pytest.mark.parametrize("p_shape, err_shape, match", [
        ((3, 1), None, "population grid shape mismatch"),
        # each p_err here raised IndexError in the cell-by-cell CSV writer,
        # and the one-pass writer would drop rows for a short one; analysis
        # broadcasts an (Nt, 1) p_err, but no CSV can hold it
        ((2, 4), (4,), r"p_err has the shape \(4,\), p \(2, 4\)"),
        ((2, 4), (1, 4), r"p_err has the shape \(1, 4\), p \(2, 4\)"),
        ((2, 4), (2, 1), r"p_err has the shape \(2, 1\), p \(2, 4\)"),
    ], ids=["p", "p_err-row", "p_err-short", "p_err-column"])
    def test_grid_shape_checked(self, p_shape, err_shape, match):
        with pytest.raises(ValueError, match=match):
            FringeSeries(t=np.array([1.0, 2.0]), phi=np.linspace(0.0, 3.0, p_shape[1]),
                         p=np.zeros(p_shape),
                         p_err=None if err_shape is None else np.ones(err_shape))

    @pytest.mark.parametrize("case", ["permuted", "repeated", "nan", "inf"])
    def test_times_checked(self, case):
        # analyze_fringes used to unwrap a permuted series in array order:
        # this one gave delta = -6266 rad/s for -1171.1 ("cos2" convention),
        # flagged only as branch-ambiguous
        series = synthesize_fringe(RamseyProtocol.default_grid(t_max_ms=4.0, n_t=24),
                                   make_bath(), ResonanceModel())
        t, p = series.t.copy(), series.p
        if case == "permuted":
            order = np.random.default_rng(4).permutation(len(t))
            t, p = t[order], p[order]
        elif case == "repeated":
            t[5] = t[4]
        else:
            t[5] = math.nan if case == "nan" else math.inf
        with pytest.raises(ValueError, match="strictly increasing"):
            FringeSeries(t=t, phi=series.phi, p=p)


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
                                    {"T2_bg": math.nan}])
    def test_non_finite_parameters_rejected(self, kw):
        with pytest.raises(ValueError):
            make_protocol(**kw)

    @pytest.mark.parametrize("T2_bg", [0.0, -27.2e-3])
    def test_nonpositive_background_t2_rejected(self, T2_bg):
        with pytest.raises(ValueError, match="T2_bg must be positive"):
            make_protocol(T2_bg=T2_bg)

    def test_default_grid(self):
        proto = RamseyProtocol.default_grid()
        assert len(proto.phi) == 12
        assert proto.t[0] == pytest.approx(0.1e-3)
        assert proto.t[-1] == pytest.approx(12e-3)
