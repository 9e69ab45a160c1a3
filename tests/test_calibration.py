import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import least_squares

from impurityprobe import fitting
from impurityprobe.analysis import fit_visibility_decay
from impurityprobe.calibration import (LIGHT_SHIFT_THEORY, ZEEMAN_HZ_PER_G,
                                       _no_bath_column, fit_bfield, fit_light_shift,
                                       fit_no_bath_trace, fit_release_curve,
                                       fit_zeeman, rabi_lineshape,
                                       release_curve)
from impurityprobe.constants import CONST
from impurityprobe.fitting import FitError
from impurityprobe.ramsey import no_bath_trace
from impurityprobe.thermal import mb_pdf, zeeman_coefficient_hz_per_G2

from test_analysis import DECAY_BOUNDS, TestDecayReferee, decay_jacobian, decay_model

TWO_PI = 2 * math.pi
K_B = CONST.k_B
OMEGA0 = TWO_PI * 15.4e3


class TestRabiLineshape:
    def test_resonant_transfer_is_unity(self):
        # on resonance the pulse area is pi/2 * 2 = full transfer
        assert rabi_lineshape(0.0, OMEGA0, 0.0, 0.0) == pytest.approx(1.0)

    def test_far_detuned_vanishes(self):
        assert rabi_lineshape(1e4 * OMEGA0, OMEGA0, 0.0, 0.0) < 1e-6

    def test_zero_at_sqrt3(self):
        # generalized flopping null: W = 2 Omega0 makes the sine argument pi
        D = math.sqrt(3.0) * OMEGA0
        assert rabi_lineshape(D, OMEGA0, 0.0, 0.0) == pytest.approx(0.0,
                                                                    abs=1e-20)

    def test_detuning_composition(self):
        # only the combination omega_coil + omega_bg - omega_MW matters
        a = rabi_lineshape(1000.0, OMEGA0, 500.0, 200.0)
        b = rabi_lineshape(1300.0, OMEGA0, 0.0, 0.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_invalid_rabi_frequency(self):
        with pytest.raises(ValueError):
            rabi_lineshape(0.0, 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("arg", ["omega_coil", "Omega0", "omega_bg", "omega_MW"])
    def test_nonfinite_input_rejected(self, arg, value):
        # a NaN omega_bg used to return NaN; an infinite Omega0 warned
        kw = {"omega_coil": np.zeros(3), "Omega0": OMEGA0, "omega_bg": 0.0,
              "omega_MW": 0.0}
        if arg == "omega_coil":
            kw[arg][1] = value
        else:
            kw[arg] = value
        with pytest.raises(ValueError, match="finite"):
            rabi_lineshape(**kw)


class TestFitBfield:
    def test_roundtrip(self):
        omega_bg_true = TWO_PI * 0.7e6 * 0.1985  # 198.5 mG on the coil axis
        omega_MW = TWO_PI * 140e3
        w = omega_MW - omega_bg_true + np.linspace(-2.5, 2.5, 41) * OMEGA0
        p = rabi_lineshape(w, OMEGA0, omega_bg_true, omega_MW)
        rep, B_coil = fit_bfield(w, p, OMEGA0, omega_MW)
        assert rep.params["omega_bg"] == pytest.approx(omega_bg_true, rel=1e-6)
        assert B_coil * 1e7 == pytest.approx(
            (omega_MW - omega_bg_true) / TWO_PI / ZEEMAN_HZ_PER_G * 1e3,
            rel=1e-6)

    def test_zero_background_field(self):
        omega_MW = TWO_PI * ZEEMAN_HZ_PER_G * 0.1985
        w = omega_MW + np.linspace(-2.5, 2.5, 41) * OMEGA0
        _, B_coil = fit_bfield(w, rabi_lineshape(w, OMEGA0, 0.0, omega_MW),
                               OMEGA0, omega_MW)
        assert B_coil == pytest.approx(198.5e-7, rel=1e-6)

    def test_unbracketed_peak_rejected(self):
        w = np.linspace(1.0, 2.0, 11) * OMEGA0
        p = rabi_lineshape(w, OMEGA0, 0.0, 0.0)
        with pytest.raises(ValueError):
            fit_bfield(w, p, OMEGA0, 0.0)


class TestLightShift:
    def test_fixture_slope(self):
        P = np.linspace(0.0, 1.2, 10)
        slope = TWO_PI * 1083.0
        rep = fit_light_shift(P, slope * P + 3.0)
        assert rep.params["slope"] == pytest.approx(slope, rel=1e-9)
        assert rep.params["intercept"] == pytest.approx(3.0, abs=1e-6)

    def test_theory_deviation_flagged(self):
        P = np.linspace(0.0, 1.2, 10)
        rep = fit_light_shift(P, TWO_PI * 900.0 * P)
        assert any("theory" in w for w in rep.warnings)
        rep_ok = fit_light_shift(P, LIGHT_SHIFT_THEORY * P)
        assert not rep_ok.warnings

    def test_single_power_rejected(self):
        with pytest.raises(ValueError):
            fit_light_shift(np.ones(5), np.ones(5))


class TestZeeman:
    def test_fixture_coefficient(self):
        B = np.linspace(0.0, 0.5, 12) * 1e-4  # 0..0.5 G in T
        a_true = 417.2 * TWO_PI * 1e8  # rad/s/T^2
        rep = fit_zeeman(B, a_true * B**2 + 5.0)
        assert rep.params["a_hz_per_G2"] == pytest.approx(417.2, rel=1e-9)
        assert rep.params["c"] == pytest.approx(5.0, abs=1e-6)

    def test_field_sign_invariance(self):
        B = np.linspace(0.05, 0.5, 10) * 1e-4
        a_true = 427.5 * TWO_PI * 1e8
        delta = a_true * B**2 + 1.0
        rep_pos = fit_zeeman(B, delta)
        rep_neg = fit_zeeman(-B, delta)
        assert rep_pos.params["a"] == pytest.approx(rep_neg.params["a"],
                                                    rel=1e-10)

    def test_theory_cross_check(self):
        # data generated from the microscopic coefficient fits back to it
        from impurityprobe.thermal import quadratic_zeeman
        B = np.linspace(0.0, 0.5, 15) * 1e-4
        rep = fit_zeeman(B, np.array([quadratic_zeeman(b) for b in B]))
        assert rep.params["a_hz_per_G2"] == pytest.approx(
            zeeman_coefficient_hz_per_G2(), rel=1e-9)
        assert rep.params["a_hz_per_G2"] == pytest.approx(427.5, rel=5e-3)

    def test_too_few_fields(self):
        with pytest.raises(ValueError):
            fit_zeeman(np.array([0.0, 1e-5]), np.array([0.0, 1.0]))


@pytest.mark.parametrize("weighted", [False, True],
                         ids=["unweighted", "weighted"])
class TestLinearCalibrationsExact:
    """Both models are linear in their parameters, so each fit must be the
    exact weighted least-squares solution, as np.polyfit computes it."""

    def test_light_shift(self, weighted):
        rng = np.random.default_rng(21)
        P = np.linspace(0.0, 1.2, 10)
        err = TWO_PI * rng.uniform(10.0, 40.0, P.size)
        delta = TWO_PI * (1083.0 * P + 2.0) + err * rng.normal(size=P.size)
        sigma = err if weighted else None
        rep = fit_light_shift(P, delta, delta_err=sigma)
        ref = np.polyfit(P, delta, 1, w=None if sigma is None else 1.0 / sigma)
        assert rep.params["slope"] == pytest.approx(ref[0], rel=1e-10)
        assert rep.params["intercept"] == pytest.approx(ref[1], rel=1e-10)

    def test_zeeman(self, weighted):
        rng = np.random.default_rng(22)
        B = np.linspace(0.0, 0.5, 15) * 1e-4
        err = TWO_PI * rng.uniform(1.0, 4.0, B.size)
        delta = 417.2 * TWO_PI * 1e8 * B**2 + 20.0 + err * rng.normal(size=B.size)
        sigma = err if weighted else None
        rep = fit_zeeman(B, delta, delta_err=sigma)
        ref = np.polyfit(B**2, delta, 1, w=None if sigma is None else 1.0 / sigma)
        assert rep.params["a"] == pytest.approx(ref[0], rel=1e-10)
        assert rep.params["c"] == pytest.approx(ref[1], rel=1e-10)


class TestReleaseCurve:
    def test_zero_depth(self):
        assert release_curve(0.0, 1.7e-6) == 0.0

    def test_deep_trap_retains_all(self):
        assert release_curve(100 * K_B * 1.7e-6, 1.7e-6) == pytest.approx(1.0)

    def test_against_pdf_integral(self):
        # retention equals the integral of the energy pdf up to the depth
        T = 1.7e-6
        E0 = 1.5 * K_B * T
        ref, _ = quad(lambda E: mb_pdf(E, T), 0.0, E0, limit=200)
        assert release_curve(E0, T) == pytest.approx(ref, rel=1e-9)
        assert release_curve(E0, T) == pytest.approx(0.608, abs=2e-3)

    def test_monotone_in_depth(self):
        E0 = np.linspace(0.0, 8.0, 50) * K_B * 1.7e-6
        f = release_curve(E0, 1.7e-6)
        assert np.all(np.diff(f) > 0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            release_curve(-1e-30, 1.7e-6)

    @pytest.mark.parametrize("T", [math.nan, math.inf, -math.inf, 0.0])
    def test_bad_temperature_rejected(self, T):
        # T = NaN used to return NaN, T = inf a retention of 0
        with pytest.raises(ValueError, match="temperature"):
            release_curve(1e-29, T)

    @pytest.mark.parametrize("E0", [math.nan, math.inf])
    def test_nonfinite_depth_rejected(self, E0):
        with pytest.raises(ValueError, match="trap depth"):
            release_curve(np.array([1e-29, E0]), 1.7e-6)


class TestReleaseClosedForm:
    """release_curve is P(3/2, x), x = E0 / kB T: erf(sqrt x) - 2 sqrt(x/pi)
    e^-x from x = 1 on, its power series below (switch at x = 1)."""

    @pytest.mark.parametrize("x", [0.0, 1e-12, 1e-8, 1e-2, 0.3, 0.999,
                                   np.nextafter(1.0, 0.0), 1.0, 1.001, 1.2,
                                   3.0, 10.0, 40.0])
    def test_matches_scipy_gammainc(self, x):
        from scipy.special import gammainc
        E0 = x * K_B * 1.7e-6
        ref = gammainc(1.5, E0 / (K_B * 1.7e-6))
        assert abs(release_curve(E0, 1.7e-6) - ref) <= 2e-15

    def test_matches_arbitrary_precision(self):
        # scipy's gammainc is itself 4.8e-15 off at x = 1.529
        mpmath = pytest.importorskip("mpmath")
        x = np.concatenate([np.geomspace(1e-8, 60.0, 400),
                            np.linspace(0.95, 1.6, 131)])
        with mpmath.workdps(30):
            ref = np.array([float(mpmath.gammainc(1.5, 0, v, regularized=True))
                            for v in x])
        got = release_curve(x * K_B * 1.7e-6, 1.7e-6)
        assert np.max(np.abs(got - ref)) <= 5e-16
        assert np.max(np.abs(got - ref) / ref) <= 2e-15


def _sum_of_squares_slack(r, yw):
    """Rounding of r.r: each r_i = (model_i - y_i)/sigma_i carries about
    eps |y_i/sigma_i|, so r.r moves by up to 2 eps |r|.|y/sigma|; doubled."""
    return 4.0 * np.finfo(float).eps * float(np.abs(r) @ np.abs(yw))


class TestScalarFitsStationary:
    """The release and B-field fits land on the least-squares minimum: the
    gradient J.r is at round-off, and the sum of squares is no larger than
    that of scipy's TRF from the same start, up to the rounding of r.r
    (the B-field sum of squares, about 40, jumps by up to 5e-13 when
    omega_bg moves by a few 1e-15, relative).  TRF stopped up to 1e-4
    (relative) short of the minimum on the release curve."""

    @staticmethod
    def check(r, J, r_trf, yw):
        assert abs(J @ r) <= 1e-10 * np.linalg.norm(J) * np.linalg.norm(r)
        assert r @ r <= r_trf @ r_trf + _sum_of_squares_slack(r_trf, yw)

    @pytest.mark.parametrize("seed", range(10))
    def test_release(self, seed):
        rng = np.random.default_rng(seed)
        T = 1.7e-6 * (1.0 + 0.05 * rng.normal())
        E0 = np.linspace(0.1, 6.0, 20) * K_B * T
        sigma = np.full(20, 0.01)
        f = release_curve(E0, T) + sigma * rng.normal(size=20)
        rep = fit_release_curve(E0, f, fraction_err=sigma)
        order = np.argsort(f)  # fit_release_curve's start, then its old fit
        T0 = max(float(np.interp(0.5, f[order], E0[order])) / (1.16 * K_B), 1e-9)
        trf = least_squares(lambda p: (release_curve(E0, p[0]) - f) / sigma, [T0],
                            bounds=([1e-12], [np.inf]), xtol=1e-14, ftol=1e-14,
                            gtol=1e-14, max_nfev=2000)
        T_fit = rep.params["T"]
        x = E0 / (K_B * T_fit)
        J = -2.0 / math.sqrt(math.pi) * np.sqrt(x) * np.exp(-x) * x / T_fit / sigma
        self.check((release_curve(E0, T_fit) - f) / sigma, J,
                   (release_curve(E0, trf.x[0]) - f) / sigma, f / sigma)
        assert rep.errors["T"] == pytest.approx(1.0 / np.linalg.norm(J), rel=1e-12)

    @pytest.mark.parametrize("seed", range(10))
    def test_bfield(self, seed):
        rng = np.random.default_rng(100 + seed)
        omega_MW = TWO_PI * 140e3
        bg = TWO_PI * 0.7e6 * 0.1985 * (1.0 + 0.01 * rng.normal())
        w = omega_MW - bg + np.linspace(-2.5, 2.5, 41) * OMEGA0
        sigma = np.full(41, 0.01)
        p = rabi_lineshape(w, OMEGA0, bg, omega_MW) + sigma * rng.normal(size=41)
        rep, _ = fit_bfield(w, p, OMEGA0, omega_MW, p_err=sigma)
        trf = least_squares(
            lambda b: (rabi_lineshape(w, OMEGA0, b[0], omega_MW) - p) / sigma,
            [omega_MW - w[np.argmax(p)]], xtol=1e-14, ftol=1e-14, gtol=1e-14,
            max_nfev=2000)
        b = rep.params["omega_bg"]
        # complex step: the derivative to round-off, independent of the fit's
        J = np.imag(rabi_lineshape(w, OMEGA0, b + 1e-20j, omega_MW)) / 1e-20 / sigma
        self.check((rabi_lineshape(w, OMEGA0, b, omega_MW) - p) / sigma, J,
                   (rabi_lineshape(w, OMEGA0, trf.x[0], omega_MW) - p)
                   / sigma, p / sigma)
        assert rep.errors["omega_bg"] == pytest.approx(1.0 / np.linalg.norm(J),
                                                       rel=1e-9)


class TestFitReleaseCurve:
    def test_temperature_roundtrip(self):
        T_true = 1.7e-6
        E0 = np.linspace(0.1, 6.0, 20) * K_B * T_true
        rep = fit_release_curve(E0, release_curve(E0, T_true))
        assert rep.params["T"] == pytest.approx(T_true, rel=0.01)

    def test_saturated_curve_flagged(self):
        E0 = np.linspace(50.0, 80.0, 10) * K_B * 1.7e-6
        rep = fit_release_curve(E0, release_curve(E0, 1.7e-6))
        assert not rep.converged
        assert rep.params["T"] == math.inf
        assert any("unbounded" in w for w in rep.warnings)

    def test_scale_covariance(self):
        # scaling all depths by lambda scales the fitted temperature
        T_true = 800e-9
        E0 = np.linspace(0.1, 6.0, 25) * K_B * T_true
        base = fit_release_curve(E0, release_curve(E0, T_true))
        lam = 2.5
        scaled = fit_release_curve(lam * E0, release_curve(E0, T_true))
        assert scaled.params["T"] == pytest.approx(lam * base.params["T"],
                                                   rel=1e-6)


class TestNoBathTrace:
    def test_parameter_roundtrip(self):
        t = np.linspace(0.2e-3, 40e-3, 80)
        N = no_bath_trace(t, 6.0, 2.0, TWO_PI * 135.0, 27.2e-3)
        rep = fit_no_bath_trace(t, N)
        assert rep.params["A"] == pytest.approx(6.0, rel=1e-6)
        assert rep.params["C"] == pytest.approx(2.0, rel=1e-6)
        assert rep.params["delta"] == pytest.approx(TWO_PI * 135.0, rel=1e-6)
        assert rep.params["T2"] == pytest.approx(27.2e-3, rel=1e-6)

    def test_flat_trace_rejected(self):
        t = np.linspace(0.0, 10e-3, 10)
        with pytest.raises(FitError):
            fit_no_bath_trace(t, np.full_like(t, 3.0))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_no_bath_trace(np.linspace(0, 1e-3, 4), np.zeros(4))

    @pytest.mark.parametrize("case", ["reversed", "repeated", "nan-time",
                                      "nan-count", "inf-count"])
    def test_bad_trace_rejected(self, case):
        # each used to fail inside scipy, on a start outside the bounds
        t = np.linspace(0.2e-3, 40e-3, 80)
        N = no_bath_trace(t, 6.0, 2.0, TWO_PI * 135.0, 27.2e-3)
        if case == "reversed":
            t, N = t[::-1], N[::-1]
        elif case == "repeated":
            t[5] = t[4]
        elif case == "nan-time":
            t[5] = np.nan
        else:
            N[5] = np.nan if case == "nan-count" else np.inf
        with pytest.raises(ValueError, match="times"):
            fit_no_bath_trace(t, N)


def _no_bath_jacobian(t, A, C, delta, T2):
    """d`no_bath_trace`/d(A, C, delta, T2): the column, the offset's ones and
    the column's derivative that the fit searches with."""
    a, jac = _no_bath_column(t, (delta, T2))
    return np.column_stack([a, np.ones_like(t), jac(A)])


class TestNoBathReferee:
    """fit_no_bath_trace on criterion 06's trace and seeded noisy traces,
    unweighted and weighted: a sum of squares at or below that of scipy's
    TRF from the same start, up to the rounding of r.r, with nfev counting
    every projection."""

    T = np.linspace(0.2e-3, 40e-3, 80)  # criterion 06's times
    NAMES = ("A", "C", "delta", "T2")

    @staticmethod
    def noisy(seed):
        # 40-100 times to 20-40 ms, 80-200 Hz, T2 10-40 ms, 1-5 % noise
        rng = np.random.default_rng(seed)
        n = rng.integers(40, 101)
        t = np.linspace(0.2e-3, rng.uniform(20e-3, 40e-3), n)
        A, C = rng.uniform(3.0, 8.0), rng.uniform(0.0, 3.0)
        p = (A, C, TWO_PI * rng.uniform(80.0, 200.0), rng.uniform(10e-3, 40e-3))
        sigma = A * rng.uniform(0.01, 0.05, n)
        return t, no_bath_trace(t, *p) + sigma * rng.standard_normal(n), sigma

    def check(self, monkeypatch, t, N, N_err=None):
        calls, sols, solve = [], [], fitting.least_squares

        def counted(column, starts, *a, **kw):
            def column_counted(p):
                calls.append(1)
                return column(p)
            sols.append((solve(column_counted, starts, *a, **kw), starts))
            return sols[-1][0]

        monkeypatch.setattr(fitting, "least_squares", counted)
        rep = fit_no_bath_trace(t, N, N_err=N_err)
        monkeypatch.undo()
        (sol, [(delta0, T20)]), = sols
        assert sol.nfev == len(calls) and rep.converged
        w = np.ones_like(N) if N_err is None else 1.0 / N_err
        r = (no_bath_trace(t, *(rep.params[k] for k in self.NAMES)) - N) * w
        # the start the parent's four-parameter fit took: the trace's span
        # and minimum for (A, C)
        x0 = [N.max() - N.min(), N.min(), delta0, T20]
        trf = least_squares(lambda q: (no_bath_trace(t, *q) - N) * w, x0,
                            jac=lambda q: _no_bath_jacobian(t, *q) * w[:, None],
                            bounds=([0.0, -np.inf, 0.0, 1e-9], np.inf), xtol=1e-14,
                            ftol=1e-14, gtol=1e-14, max_nfev=2000)
        assert r @ r <= trf.fun @ trf.fun + _sum_of_squares_slack(r, N * w)
        return sol.nfev

    @pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
    def test_criterion_06(self, monkeypatch, weighted):
        N = no_bath_trace(self.T, 6.0, 2.0, TWO_PI * 135.0, 27.2e-3)
        self.check(monkeypatch, self.T, N, np.full(80, 0.05) if weighted else None)

    @pytest.mark.parametrize("seed", range(20))
    def test_noisy(self, monkeypatch, seed):
        t, N, sigma = self.noisy(seed)
        assert self.check(monkeypatch, t, N, sigma if seed % 2 else None) <= 25

    def test_jacobian_against_central_differences(self):
        p = np.array([6.0, 2.0, TWO_PI * 135.0, 27.2e-3])
        h = 1e-6 * p
        fd = np.column_stack([(no_bath_trace(self.T, *(p + dp)) - no_bath_trace(self.T, *(p - dp)))
                              / (2.0 * hk) for hk, dp in zip(h, np.diag(h))])
        assert _no_bath_jacobian(self.T, *p) == pytest.approx(fd, rel=1e-7, abs=1e-7)
        a, _ = _no_bath_column(self.T, p[2:])
        assert (p[0] * a + p[1]).tolist() == no_bath_trace(self.T, *p).tolist()


class TestEngineReferee:
    """The property the Levenberg-Marquardt polish used to enforce: scipy's
    TRF started at a decay or bath-free fit finds no sum of squares lower
    than the fit's by more than its rounding (`_sum_of_squares_slack`)."""

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**31), weighted=st.booleans())
    def test_decay(self, seed, weighted):
        # a seeded decay of 8-30 times, as TestDecayReferee draws them
        t, V, V_err = TestDecayReferee.series(seed)
        V_err = np.full(len(t), 0.01) if weighted else None
        w = np.ones_like(V) if V_err is None else 1.0 / V_err
        rep = fit_visibility_decay(t, V, V_err=V_err)
        x = [rep.params[k] for k in ("V0", "T2", "B")]
        r = (decay_model(t, *x) - V) * w
        trf = least_squares(lambda q: (decay_model(t, *q) - V) * w, x,
                            jac=lambda q: decay_jacobian(t, *q) * w[:, None],
                            bounds=DECAY_BOUNDS, xtol=1e-14, ftol=1e-14, gtol=1e-14,
                            max_nfev=2000)
        assert trf.fun @ trf.fun >= r @ r - _sum_of_squares_slack(r, V * w)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31), weighted=st.booleans())
    def test_bath_free_trace(self, seed, weighted):
        t, N, sigma = TestNoBathReferee.noisy(seed)
        N_err = sigma if weighted else None
        w = np.ones_like(N) if N_err is None else 1.0 / N_err
        rep = fit_no_bath_trace(t, N, N_err=N_err)
        x = [rep.params[k] for k in TestNoBathReferee.NAMES]
        r = (no_bath_trace(t, *x) - N) * w
        trf = least_squares(lambda q: (no_bath_trace(t, *q) - N) * w, x,
                            jac=lambda q: _no_bath_jacobian(t, *q) * w[:, None],
                            bounds=([0.0, -np.inf, 0.0, 1e-9], np.inf), xtol=1e-14,
                            ftol=1e-14, gtol=1e-14, max_nfev=2000)
        assert trf.fun @ trf.fun >= r @ r - _sum_of_squares_slack(r, N * w)


BAD_SIGMA = pytest.mark.parametrize("bad", [0.0, -0.01, math.nan, math.inf],
                                    ids=["zero", "negative", "nan", "inf"])


class TestSigmaChecked:
    """Every weighted calibration fit refuses an error that is not finite
    and positive, with the ValueError of `fitting.weights`.  A zero release
    error used to raise numpy's divide-by-zero warning, and a negative
    release or trace error was taken as a weight."""

    @BAD_SIGMA
    def test_release(self, bad):
        E0 = np.linspace(0.1, 6.0, 20) * K_B * 1.7e-6
        err = np.full(20, 0.01)
        err[3] = bad
        with pytest.raises(ValueError, match="sigma"):
            fit_release_curve(E0, release_curve(E0, 1.7e-6), fraction_err=err)

    @BAD_SIGMA
    def test_bfield(self, bad):
        omega_MW = TWO_PI * 140e3
        w = omega_MW - TWO_PI * 1.4e5 + np.linspace(-2.5, 2.5, 41) * OMEGA0
        err = np.full(41, 0.01)
        err[7] = bad
        with pytest.raises(ValueError, match="sigma"):
            fit_bfield(w, rabi_lineshape(w, OMEGA0, TWO_PI * 1.4e5, omega_MW),
                       OMEGA0, omega_MW, p_err=err)

    @BAD_SIGMA
    def test_no_bath_trace(self, bad):
        t = np.linspace(0.2e-3, 40e-3, 80)
        err = np.full(80, 0.05)
        err[11] = bad
        with pytest.raises(ValueError, match="sigma"):
            fit_no_bath_trace(t, no_bath_trace(t, 6.0, 2.0, TWO_PI * 135.0, 27.2e-3),
                              N_err=err)
