import functools
import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import least_squares

from impurityprobe import analysis, fitting
from impurityprobe.analysis import (BOUNDED_FIT, analyze_fringes, extract_phase_series,
                                    fit_fringe, fit_phase_slope,
                                    fit_visibility_decay, normalize_counts,
                                    visibility, visibility_error)
from impurityprobe.bath import BathState
from impurityprobe.fitting import FitError
from impurityprobe.ramsey import (FringeSeries, RamseyProtocol,
                                  fringe_closed_form, synthesize_fringe)
from impurityprobe.scattering import ResonanceModel

TWO_PI = 2 * math.pi


def fringe_values(phi, A, C, phi0):
    return A * np.sin(0.5 * (phi0 - phi)) ** 2 + C


def wrapped(angle):
    """angle mapped into [-pi, pi)."""
    return (angle + math.pi) % TWO_PI - math.pi


def decay_model(t, V0, T2, B):
    return V0 * np.exp(-((t / T2) ** 2)) + B


def decay_jacobian(t, V0, T2, B):
    """d `decay_model` / d(V0, T2, B)."""
    e = np.exp(-((t / T2) ** 2))
    return np.column_stack([e, 2.0 * V0 * e * t**2 / T2**3, np.ones_like(t)])


# the scipy referee's box for (V0, T2, B): the decay fit's (V0, B) box, T2 > 0
DECAY_BOUNDS = np.array([[0.0, 1e-12, 0.0], [2.0, np.inf, 1.0]])


class TestNormalize:
    def test_plug_in(self):
        assert normalize_counts(7.0, 10.0, 2.0) == pytest.approx(0.625)

    def test_endpoints(self):
        assert normalize_counts(2.0, 10.0, 2.0) == 0.0
        assert normalize_counts(10.0, 10.0, 2.0) == 1.0

    def test_vectorized(self):
        out = normalize_counts(np.array([2.0, 6.0, 10.0]), 10.0, 2.0)
        assert np.allclose(out, [0.0, 0.5, 1.0])

    def test_invalid_reference(self):
        with pytest.raises(ValueError):
            normalize_counts(1.0, 2.0, 2.0)


class TestFitFringe:
    PHI = np.linspace(0.0, TWO_PI, 13, endpoint=False)

    def test_roundtrip(self):
        p = fringe_values(self.PHI, 0.8, 0.1, 1.0)
        rep = fit_fringe(self.PHI, p)
        assert rep.params["A"] == pytest.approx(0.8, abs=1e-8)
        assert rep.params["C"] == pytest.approx(0.1, abs=1e-8)
        assert rep.params["phi0"] == pytest.approx(1.0, abs=1e-8)

    def test_constant_data(self):
        rep = fit_fringe(self.PHI, np.full_like(self.PHI, 0.5))
        assert rep.params["A"] == 0.0
        assert rep.params["C"] == 0.5
        assert rep.warnings

    def test_phase_equivariance(self):
        # shifting the data phase shifts phi0 by the same amount (mod 2pi)
        p = fringe_values(self.PHI, 0.6, 0.2, 0.4)
        base = fit_fringe(self.PHI, p)
        for shift in (0.7, 2.0, 5.5):
            p2 = fringe_values(self.PHI, 0.6, 0.2, 0.4 + shift)
            rep = fit_fringe(self.PHI, p2)
            got = (rep.params["phi0"] - base.params["phi0"]) % TWO_PI
            assert got == pytest.approx(shift % TWO_PI, abs=1e-7)

    def test_amplitude_scaling(self):
        p = fringe_values(self.PHI, 0.5, 0.05, 2.2)
        for lam in (0.5, 1.5):
            rep = fit_fringe(self.PHI, lam * p)
            assert rep.params["A"] == pytest.approx(lam * 0.5, abs=1e-8)
            assert rep.params["C"] == pytest.approx(lam * 0.05, abs=1e-8)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_fringe(np.array([0.0, 1.0, 2.0]), np.array([0.1, 0.5, 0.9]))
        # two distinct phases leave the three-parameter fringe undetermined
        with pytest.raises(ValueError, match="distinct"):
            fit_fringe(np.array([0.0, 0.0, 0.0, 4.0, 4.0, 4.0]),
                       np.array([0.1, 0.12, 0.11, 0.8, 0.82, 0.79]))

    def test_narrow_phase_span(self):
        phi = np.linspace(0.0, 2.0, 8)
        with pytest.raises(ValueError):
            fit_fringe(phi, fringe_values(phi, 0.8, 0.1, 1.0))

    @pytest.mark.parametrize("bad", [0.0, -0.01, float("nan"), float("inf")])
    def test_invalid_p_err_rejected(self, bad):
        p = fringe_values(self.PHI, 0.8, 0.1, 1.0)
        err = np.full_like(p, 0.02)
        err[3] = bad
        with pytest.raises(ValueError, match="p_err"):
            fit_fringe(self.PHI, p, p_err=err)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_nonfinite_population_rejected(self, bad):
        p = fringe_values(self.PHI, 0.8, 0.1, 1.0)
        p[3] = bad
        with pytest.raises(ValueError, match="finite"):
            fit_fringe(self.PHI, p)

    def test_negative_offset_falls_back_to_bounded_fit(self):
        # the free solution has C = -0.05; the bounded fit pins C at 0
        p = fringe_values(self.PHI, 0.8, -0.05, 1.0)
        rep = fit_fringe(self.PHI, p)
        assert 0.0 <= rep.params["C"] <= 1e-12
        assert rep.params["A"] > 0.0
        assert BOUNDED_FIT in rep.warnings

    def test_pinned_offset_reports_zero_error(self):
        # at the bound the bounded fit pins C: it reports error 0 and a
        # warning, and A and phi0 get the errors of the free parameters
        p = fringe_values(self.PHI, 0.8, -0.05, 1.0)
        rep = fit_fringe(self.PHI, p)
        assert rep.errors["C"] == 0.0
        assert "C pinned at a bound" in rep.warnings
        A, phi0 = rep.params["A"], rep.params["phi0"]
        jac = np.column_stack([np.sin(0.5 * (phi0 - self.PHI)) ** 2,
                               0.5 * A * np.sin(phi0 - self.PHI)])
        r = fringe_values(self.PHI, A, rep.params["C"], phi0) - p
        cov = np.linalg.inv(jac.T @ jac) * (r @ r) / (len(p) - 3)
        assert [rep.errors["A"], rep.errors["phi0"]] == \
            pytest.approx(np.sqrt(np.diag(cov)), rel=1e-6)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_grid_fit_matches_row_fits(self, weighted):
        # one 2-D call returns the reports of one 1-D call per row, with a
        # bounded row (C < 0) and a constant row among them
        rng = np.random.default_rng(3)
        p = np.array([fringe_values(self.PHI, A, 0.5 - 0.5 * A, 0.3 + A)
                      for A in np.linspace(0.95, 0.2, 8)])
        p += 0.01 * rng.standard_normal(p.shape)
        p[2] = fringe_values(self.PHI, 0.8, -0.05, 1.0)
        p[5] = 0.4
        err = rng.uniform(0.01, 0.05, p.shape) if weighted else None
        grid = fit_fringe(self.PHI, p, p_err=err)
        assert len(grid) == len(p)
        assert BOUNDED_FIT in grid[2].warnings and grid[5].params["A"] == 0.0
        for k, got in enumerate(grid):
            row = fit_fringe(self.PHI, p[k], p_err=None if err is None else err[k])
            assert got.warnings == row.warnings
            assert got.n_points == row.n_points
            assert got.residual_norm == pytest.approx(row.residual_norm, rel=1e-10, abs=1e-15)
            for name in ("A", "C", "phi0"):
                assert got.params[name] == pytest.approx(row.params[name], rel=1e-12, abs=1e-15)
                assert got.errors[name] == pytest.approx(row.errors[name], rel=1e-10, abs=1e-15,
                                                         nan_ok=True)

    def test_grid_input_validated_like_rows(self):
        p = np.tile(fringe_values(self.PHI, 0.8, 0.1, 1.0), (3, 1))
        bad = p.copy()
        bad[1, 3] = np.nan
        with pytest.raises(ValueError, match="finite"):
            fit_fringe(self.PHI, bad)
        err = np.full_like(p, 0.02)
        err[2, 4] = 0.0
        with pytest.raises(ValueError, match="p_err"):
            fit_fringe(self.PHI, p, p_err=err)
        with pytest.raises(ValueError):
            fit_fringe(self.PHI, p, p_err=np.full((3, 5), 0.02))
        with pytest.raises(ValueError):
            fit_fringe(self.PHI[:-1], p)
        with pytest.raises(ValueError, match="span"):
            fit_fringe(np.linspace(0.0, 2.0, 13), p)

    @settings(max_examples=60, deadline=None)
    @given(A=st.floats(0.1, 1.5), C=st.floats(0.05, 0.4),
           phi0=st.floats(0.0, 6.28), noise=st.floats(0.0, 0.03),
           n_phi=st.integers(6, 16), weighted=st.booleans(),
           seed=st.integers(0, 2**31))
    def test_linear_fit_equals_bounded_fit(self, A, C, phi0, noise, n_phi,
                                           weighted, seed):
        # where no bound is active the linear fit and a bounded fit minimise
        # the same sum of squares; the TRF reference starts from the linear
        # solution, so both describe the same minimum (a three-parameter
        # search from elsewhere may stop in another local one)
        rng = np.random.default_rng(seed)
        phi = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
        p = fringe_values(phi, A, C, phi0) + noise * rng.standard_normal(n_phi)
        err = rng.uniform(0.01, 0.05, n_phi) if weighted else None
        lin = fit_fringe(phi, p, p_err=err)
        assume(BOUNDED_FIT not in lin.warnings)
        start = [lin.params[name] for name in ("A", "C", "phi0")]
        w = 1.0 if err is None else 1.0 / err
        ref = least_squares(lambda q: (fringe_values(phi, *q) - p) * w, start,
                            bounds=([0.0, 0.0, start[2] - TWO_PI],
                                    [2.0, 2.0, start[2] + TWO_PI]),
                            xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
        r = ref.fun
        ref_errors = np.sqrt(np.diag(np.linalg.inv(ref.jac.T @ ref.jac))
                             * (1.0 if err is not None else r @ r / (n_phi - 3)))
        # Both sit at the minimum; the bounded fit stops where its
        # finite-difference gradient vanishes, which fixes a parameter only
        # to ~sqrt(eps) of its 1-sigma error, so that sets the floor.
        for k, name in enumerate(("A", "C", "phi0")):
            diff = lin.params[name] - ref.x[k]
            if name == "phi0":
                diff = wrapped(diff)
            assert abs(diff) <= max(1e-9, 1e-6 * ref_errors[k])
        assert lin.residual_norm <= np.linalg.norm(r) * (1.0 + 1e-12) + 1e-12
        for k, name in enumerate(("A", "C", "phi0")):
            assert lin.errors[name] == pytest.approx(ref_errors[k], rel=1e-6, abs=1e-12)


def box_minimum(phi, p, w, phi0):
    """(r.r, A, C) at each phase of phi0 with (A, C) the exact weighted
    least-squares solution in [0, 2] x [0, 2]: the free one if it lies
    inside, else the best of the four edges, each a clipped 1-D solution."""
    a = w * np.sin(0.5 * (np.asarray(phi0)[:, None] - phi)) ** 2
    y = w * p
    aa, aw, ww, ay, wy = np.sum(a * a, 1), a @ w, w @ w, a @ y, w @ y
    det = aa * ww - aw * aw
    A, C = (ww * ay - aw * wy) / det, (aa * wy - aw * ay) / det
    inside = (0.0 <= A) & (A <= 2.0) & (0.0 <= C) & (C <= 2.0)
    best = (np.where(inside, np.sum((A[:, None] * a + C[:, None] * w - y) ** 2, axis=1),
                     np.inf), A, C)
    for edge in (np.zeros_like(A), np.full_like(A, 2.0)):
        for A, C in ((edge, np.clip((wy - aw * edge) / ww, 0.0, 2.0)),
                     (np.clip((ay - aw * edge) / aa, 0.0, 2.0), edge)):
            ss = np.sum((A[:, None] * a + C[:, None] * w - y) ** 2, axis=1)
            best = [np.where(ss < best[0], new, old) for new, old in zip((ss, A, C), best)]
    return best


def kaufman(phi, p, w, A, C, phi0):
    """Weighted residual and Kaufman's Jacobian in phi0: d r / d phi0 minus
    its projection on the columns of the coefficients not on a bound."""
    X = w[:, None] * np.column_stack([np.sin(0.5 * (phi0 - phi)) ** 2, np.ones_like(phi)])
    j = w * 0.5 * A * np.sin(phi0 - phi)
    Xf = X[:, [A not in (0.0, 2.0), C not in (0.0, 2.0)]]
    return X @ [A, C] - w * p, j - Xf @ np.linalg.lstsq(Xf, j, rcond=None)[0]


@functools.lru_cache(maxsize=1)
def bounded_rows():
    """(phi, p, p_err) of every row of a seeded set of noisy low-count
    fringes (10 and 30 atoms per shot, three baths, two seeds, the 4-ms and
    the 12-ms grid) whose free fringe solution leaves the box."""
    rows = []
    for t_max, n_t in ((4.0, 24), (12.0, 30)):
        proto = RamseyProtocol.default_grid(t_max, n_t)
        for n0, T in ((0.5e19, 300e-9), (1.4e19, 450e-9), (2e19, 850e-9)):
            for atoms in (10, 30):
                for seed in (1, 2):
                    s = synthesize_fringe(proto, BathState(n0=n0, T=T), ResonanceModel(),
                                          noise={"atoms_per_shot": atoms, "repetitions": 1},
                                          seed=seed, density_order=96, energy_order=96)
                    rows += [(s.phi, s.p[k], s.p_err[k])
                             for k, f in enumerate(fit_fringe(s.phi, s.p, s.p_err))
                             if BOUNDED_FIT in f.warnings]
    return rows


def faces():
    """Fringes whose box minimum has A = 2 (C free) and A = 2, C = 0."""
    phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
    noise = 0.01 * np.random.default_rng(5).standard_normal(12)
    return [(phi, fringe_values(phi, 2.3, 0.1, 1.0) + noise, np.full(12, 0.05)),
            (phi, fringe_values(phi, 2.6, -0.3, 4.0) + noise, np.full(12, 0.05))]


class TestBoundedFringe:
    """fit_fringe's bounded fallback, a projected search in phi0, against
    referees: a dense phi0 scan with the exact box (A, C) at each phase,
    and scipy's TRF started from the data's Fourier phase."""

    PHI = np.deg2rad(np.arange(0.0, 360.0, 30.0))
    # row 6 (t = 0.269 ms) of the pipeline dataset below; its free solution
    # has C < 0
    ROW = np.array([0.5, 0.6, 0.9, 0.8, 0.9, 0.8, 0.5, 0.3, 0.0, 0.3, 0.0, 0.5])

    @staticmethod
    def residual(phi, p, p_err, rep):
        A, C, phi0 = (rep.params[k] for k in ("A", "C", "phi0"))
        w = 1.0 / p_err
        r = (fringe_values(phi, A, C, phi0) - p) * w
        return r, 4.0 * np.finfo(float).eps * np.abs(r) @ np.abs(w * p)

    def test_starts_at_the_fourier_phase(self):
        # the fallback used to start at the mirrored phase, -phi0, and stop
        # at A = 0 with r.r = 247.89
        err = np.sqrt(np.maximum(self.ROW * (1.0 - self.ROW), 0.01) / 10)
        rep = fit_fringe(self.PHI, self.ROW, err)
        r, _ = self.residual(self.PHI, self.ROW, err, rep)
        assert rep.params["A"] == pytest.approx(0.92089, abs=1e-5)
        assert rep.params["C"] == 0.0 and rep.errors["C"] == 0.0
        assert rep.params["phi0"] == pytest.approx(4.71849, abs=1e-5)
        assert r @ r == pytest.approx(17.52999, abs=1e-5)
        assert rep.warnings == ["C pinned at a bound", BOUNDED_FIT]

    @pytest.mark.parametrize("case", ["noisy", "faces"])
    def test_at_or_below_the_referees(self, case):
        for phi, p, err in bounded_rows() if case == "noisy" else faces():
            rep = fit_fringe(phi, p, err)
            assert BOUNDED_FIT in rep.warnings
            r, allow = self.residual(phi, p, err, rep)
            w = 1.0 / err
            scan, _, _ = box_minimum(phi, p, w, np.linspace(0.0, TWO_PI, 3600, endpoint=False))
            assert r @ r <= scan.min() + allow
            c1 = 2.0 * np.mean(p * np.exp(-1j * phi))  # -(A/2) e^{-i phi0}
            start = -np.angle(-c1)
            A0 = min(max(2.0 * abs(c1), 1e-6), 2.0)
            x0 = [A0, min(max(np.mean(p) - 0.5 * A0, 1e-9), 2.0), start]
            trf = least_squares(lambda q: (fringe_values(phi, *q) - p) * w, x0,
                                bounds=([0.0, 0.0, start - TWO_PI], [2.0, 2.0, start + TWO_PI]),
                                xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
            assert r @ r <= trf.fun @ trf.fun + allow

    @pytest.mark.parametrize("case", ["noisy", "faces"])
    def test_stationary_with_pinned_coefficients_on_their_bounds(self, case):
        pinned_seen = set()
        for phi, p, err in bounded_rows() if case == "noisy" else faces():
            rep = fit_fringe(phi, p, err)
            A, C, phi0 = (rep.params[k] for k in ("A", "C", "phi0"))
            pinned = [f"{k} pinned at a bound" in rep.warnings for k in "AC"]
            for k, on in zip("AC", pinned):
                assert (rep.params[k] in (0.0, 2.0)) == on
                assert (rep.errors[k] == 0.0) == on
            pinned_seen.add(tuple(pinned))
            r, jk = kaufman(phi, p, 1.0 / err, A, C, phi0)
            assert A > 0.0
            assert abs(jk @ r) <= 1e-8 * np.linalg.norm(jk) * np.linalg.norm(r)
        if case == "faces":
            assert pinned_seen == {(True, False), (True, True)}

    @pytest.mark.parametrize("case", ["noisy", "faces"])
    def test_first_step_is_kaufmans_gauss_newton(self, monkeypatch, case):
        # at the start g = j_K . r and h = j_K . j_K; the secant replaces h
        # after the first step
        slopes = []
        search = fitting.gauss_newton

        def first_slope(residual, slope, *a, **k):
            def recorded(p, r, state):
                g, h = slope(p, r, state)
                if len(slopes) == n:
                    slopes.append((p, g, h))
                return g, h
            n = len(slopes)
            return search(residual, recorded, *a, **k)

        monkeypatch.setattr(fitting, "gauss_newton", first_slope)
        rows = bounded_rows() if case == "noisy" else faces()
        for phi, p, err in rows:
            fit_fringe(phi, p, err)
        assert len(slopes) == len(rows)
        for (phi, p, err), (phi0, g, h) in zip(rows, slopes):
            _, A, C = box_minimum(phi, p, 1.0 / err, [phi0])
            r, jk = kaufman(phi, p, 1.0 / err, A[0], C[0], phi0)
            assert h == pytest.approx(jk @ jk, rel=1e-9)
            scale = np.linalg.norm(jk) * np.linalg.norm(r)
            assert g == pytest.approx(jk @ r, rel=1e-9, abs=1e-9 * scale)

    def test_few_projections(self, monkeypatch):
        counts = []
        search = fitting.gauss_newton

        def counted(residual, *a, **k):
            counts.append(1)  # the start's projection

            def projection(p):
                counts[-1] += 1
                return residual(p)
            return search(projection, *a, **k)

        monkeypatch.setattr(fitting, "gauss_newton", counted)
        for phi, p, err in bounded_rows():
            fit_fringe(phi, p, err)
        assert len(counts) == len(bounded_rows()) >= 50
        assert np.median(counts) <= 8


def fringe_jacobian(phi, A, phi0):
    """d model / d(A, C, phi0) for per-row A and phi0, (rows, phases, 3)."""
    return np.stack([np.sin(0.5 * (phi0[:, None] - phi)) ** 2,
                     np.ones((len(A), len(phi))),
                     0.5 * A[:, None] * np.sin(phi0[:, None] - phi)], axis=-1)


class TestFringeErrors:
    """Fringe errors come in closed form from the linear fit's normal
    matrices, G N^-1 G^T, and must equal the SVD of the analytic Jacobian."""

    PHI = np.linspace(0.0, TWO_PI, 12, endpoint=False)
    T = np.linspace(0.3e-3, 6e-3, 24)

    def grid(self, seed):
        """24 noisy decaying fringes, none bounded, and their p_err."""
        rng = np.random.default_rng(seed)
        A = 0.9 * np.exp(-((self.T / 3e-3) ** 2)) + 0.05
        p = np.array([fringe_values(self.PHI, a, 0.5 - 0.5 * a, ph)
                      for a, ph in zip(A, rng.uniform(0.0, TWO_PI, len(A)))])
        p += 0.01 * rng.standard_normal(p.shape)
        return p, rng.uniform(0.005, 0.03, p.shape)

    @staticmethod
    def params(reports):
        return (np.array([r.params[k] for r in reports]) for k in ("A", "C", "phi0"))

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_fit_errors_match_the_svd(self, seed, weighted, svd_errors):
        p, err = self.grid(seed)
        W = 1.0 / err if weighted else np.ones_like(p)
        reports = fit_fringe(self.PHI, p, p_err=err if weighted else None)
        assert not any(r.warnings for r in reports)
        A, C, phi0 = self.params(reports)
        r = (fringe_values(self.PHI, A[:, None], C[:, None], phi0[:, None]) - p) * W
        var = 1.0 if weighted else np.sum(r * r, axis=1) / (len(self.PHI) - 3)
        want = svd_errors(fringe_jacobian(self.PHI, A, phi0) * W[..., None], var)
        got = [[rep.errors[k] for k in ("A", "C", "phi0")] for rep in reports]
        np.testing.assert_allclose(got, want, rtol=1e-13, atol=0.0)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_visibility_error_inputs_match_the_svd(self, seed, svd_errors):
        # analyze_fringes takes every row's unconstrained errors at its
        # reported (A, phi0), the bounded rows' too
        p, err = self.grid(seed)
        p[5] = fringe_values(self.PHI, 0.8, -0.03, 1.0)
        res = analyze_fringes(FringeSeries(t=self.T, phi=self.PHI, p=p, p_err=err),
                              delta_bg=0.0)
        assert BOUNDED_FIT in res.fringe_fits[5].warnings
        A, C, phi0 = self.params(res.fringe_fits)
        want = svd_errors(fringe_jacobian(self.PHI, A, phi0) / err[..., None], 1.0)
        N = analysis._fringe_normal(self.PHI, 1.0 / err)[1]
        np.testing.assert_allclose(np.sqrt(analysis._fringe_variances(N, A, phi0)), want,
                                   rtol=1e-13, atol=0.0)
        np.testing.assert_allclose(
            res.visibility.V_err,
            np.clip(visibility_error(A, C, want[:, 0], want[:, 1]), 1e-6, None),
            rtol=1e-13, atol=0.0)

    def test_bounded_and_constant_rows_keep_their_reports(self):
        p, err = self.grid(4)
        p[3] = fringe_values(self.PHI, 0.8, -0.05, 1.0)
        p[7] = 0.4
        reports = fit_fringe(self.PHI, p, p_err=err)
        assert reports[3] == analysis._bounded_fringe(self.PHI, p[3], 1.0 / err[3], True)
        assert reports[3].errors["C"] == 0.0 and BOUNDED_FIT in reports[3].warnings
        const = reports[7]
        assert const.params == {"A": 0.0, "C": 0.4, "phi0": 0.0}
        assert const.errors["A"] == const.errors["C"] == 0.0
        assert math.isnan(const.errors["phi0"]) and const.residual_norm == 0.0
        assert const.warnings == [analysis.CONSTANT_FIT]

    def test_zero_amplitude_gives_phi0_error_exactly_zero(self):
        # as the SVD drops the Jacobian's zero phi0 column
        _, err = self.grid(5)
        N = analysis._fringe_normal(self.PHI, 1.0 / err[:2])[1]
        var = analysis._fringe_variances(N, np.array([0.0, 0.5]), np.array([1.0, 1.0]))
        assert var[0, 2] == 0.0 and var[1, 2] > 0.0
        assert np.all(np.isfinite(var)) and np.all(var[:, :2] > 0.0)


class TestVisibility:
    def test_full_contrast(self):
        assert visibility(1.0, 0.0) == 1.0

    def test_half(self):
        assert visibility(0.5, 0.25) == pytest.approx(0.5)

    def test_zero_amplitude(self):
        assert visibility(0.0, 0.3) == 0.0

    def test_degenerate(self):
        with pytest.raises(ValueError):
            visibility(0.0, 0.0)

    @pytest.mark.parametrize("A, C", [(-0.1, 0.3), (0.5, [0.2, -1e-3])])
    def test_negative_amplitude_or_offset_rejected(self, A, C):
        with pytest.raises(ValueError, match="amplitude and offset must be nonnegative"):
            visibility(A, C)

    def test_error_propagation_against_finite_differences(self):
        A, C = 0.7, 0.15
        eps = 1e-7
        dA = (visibility(A + eps, C) - visibility(A - eps, C)) / (2 * eps)
        dC = (visibility(A, C + eps) - visibility(A, C - eps)) / (2 * eps)
        expected = math.hypot(dA * 0.01, dC * 0.02)
        assert visibility_error(A, C, 0.01, 0.02) == pytest.approx(expected,
                                                                   rel=1e-5)


class TestVisibilityDecay:
    T = np.linspace(0.2e-3, 12e-3, 25)

    def test_roundtrip(self):
        V = 0.9 * np.exp(-((self.T / 4e-3) ** 2)) + 0.05
        rep = fit_visibility_decay(self.T, V)
        assert rep.params["V0"] == pytest.approx(0.9, rel=1e-6)
        assert rep.params["T2"] == pytest.approx(4e-3, rel=1e-6)
        assert rep.params["B"] == pytest.approx(0.05, abs=1e-6)

    def test_exact_gaussian_recovers_t2(self):
        V = 0.9 * np.exp(-((self.T / 4e-3) ** 2)) + 0.05
        assert fit_visibility_decay(self.T, V).params["T2"] == \
            pytest.approx(4e-3, rel=1e-9)

    @staticmethod
    def visibility_series():
        # 9 baths on the criterion-04 protocol: each noiseless visibility
        # series, and the same series with 1 % noise added
        proto = RamseyProtocol.default_grid(t_max_ms=4.0, n_t=24)
        rng = np.random.default_rng(7)
        for n0 in (0.5e19, 1e19, 2e19):
            for T in (300e-9, 700e-9, 1200e-9):
                bath = BathState(n0=n0, T=T, omega_x=TWO_PI * 100,
                                 omega_y=TWO_PI * 100, omega_z=TWO_PI * 100)
                V = analyze_fringes(synthesize_fringe(proto, bath, ResonanceModel()),
                                    delta_bg=proto.delta_bg, phase_convention="cos2").visibility.V
                yield proto.t, V
                yield proto.t, V + 0.01 * rng.standard_normal(len(V))

    def test_stationary_and_no_worse_than_finite_differences(self):
        # started at the variable-projection minimum, the fit is stationary
        # to round-off (at most 2.7e-9 on this scale); the reference is
        # scipy's finite-difference TRF fit from the first-crossing guess,
        # which stops short of it
        for t, V in self.visibility_series():
            rep = fit_visibility_decay(t, V)
            V0, T2, B = (rep.params[k] for k in ("V0", "T2", "B"))
            assert 0.0 < V0 < 2.0 and 0.0 < B < 1.0  # an interior solution
            r = decay_model(t, V0, T2, B) - V
            J = decay_jacobian(t, V0, T2, B)
            assert np.linalg.norm(J.T @ r) <= \
                1e-8 * np.linalg.norm(J) * np.linalg.norm(r)
            ref = least_squares(lambda q: decay_model(t, *q) - V,
                                analysis._crossing_guess(t, V), jac="2-point",
                                bounds=DECAY_BOUNDS)
            assert rep.residual_norm <= np.linalg.norm(ref.fun)

    @staticmethod
    def counted(monkeypatch):
        """Every fitting.least_squares result the fits below return."""
        sols, solve = [], fitting.least_squares

        def counted(*a, **k):
            sols.append(solve(*a, **k))
            return sols[-1]
        monkeypatch.setattr(fitting, "least_squares", counted)
        return sols

    def test_few_projections(self, monkeypatch):
        # the projected search in log T2, one fitting.least_squares call per
        # series, converged in a median of at most 7 projections
        series = list(self.visibility_series())
        sols = self.counted(monkeypatch)
        for t, V in series:
            assert fit_visibility_decay(t, V).converged
        assert len(sols) == 18 and np.median([sol.nfev for sol in sols]) <= 7

    def test_start_converges_in_few_steps(self, monkeypatch):
        # the secant curvature makes the search superlinear: 8 steps reach
        # the 50-step point, where Gauss-Newton alone, linear at about 1/3
        # per step on these large residuals, is still 1e-4 away
        series = list(self.visibility_series())
        full = [fit_visibility_decay(t, V).params for t, V in series]
        monkeypatch.setattr(fitting, "VP_STEPS", 8)
        for (t, V), ref in zip(series, full):
            got = fit_visibility_decay(t, V).params
            np.testing.assert_allclose(list(got.values()), list(ref.values()), rtol=1e-9)

    @staticmethod
    def fit(t, V, starts, V_err=None):
        """The decay's projection in log T2 from the given starts."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            return fitting.fit_least_squares(analysis._decay_column, t, V, starts,
                                             ("V0", "B", "T2"), sigma=V_err,
                                             bounds=((0.0, 2.0), (0.0, 1.0)), log=True,
                                             rel_step=analysis.DECAY_REL_STEP)

    def test_start_falls_back_on_a_singular_system(self):
        # at T2 = 1e30 s the decay column is all ones, the offset's twin:
        # the search runs from the other start, and with no other it fails
        V = 0.9 * np.exp(-((self.T / 4e-3) ** 2)) + 0.05
        assert self.fit(self.T, V, [1e30, 3e-3]) == self.fit(self.T, V, [3e-3])
        with pytest.raises(FitError, match="singular"):
            self.fit(self.T, V, [1e30])

    def test_start_stops_at_a_non_finite_step(self):
        # at T2 = 1e-200 s, (t/T2)^2 overflows for t > 0: the Jacobian is
        # not finite, so the search ends, not converged, at the start's
        # projection
        t = np.concatenate([[0.0], self.T])
        V = 0.9 * np.exp(-((t / 4e-3) ** 2)) + 0.05
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sol = fitting.least_squares(lambda T2: analysis._decay_column(t, T2), [1e-200],
                                        np.ones_like(t), V, bounds=((0.0, 2.0), (0.0, 1.0)),
                                        log=True, rel_step=analysis.DECAY_REL_STEP)
        V0, B, T2 = sol.x
        assert T2 == 1e-200 and not sol.success and sol.nfev == 1
        assert V0 == pytest.approx(V[0] - np.mean(V[1:]), rel=1e-12)
        assert B == pytest.approx(np.mean(V[1:]), rel=1e-12)

    @pytest.mark.parametrize("V0, B, face", [(0.9, -0.05, "B"), (2.5, 0.1, "V0"),
                                             (0.3, 1.05, "B")])
    def test_start_stays_in_the_box(self, V0, B, face):
        # the free minimum is the truth, outside [0, 2] x [0, 1]: the fit,
        # the bounded projection's minimum, puts the face's coefficient on
        # its bound, no higher than scipy's TRF from the clipped crossing guess
        V = V0 * np.exp(-((self.T / 4e-3) ** 2)) + B
        guess = analysis._crossing_guess(self.T, V)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = fit_visibility_decay(self.T, V)
        bound = dict(zip(("V0", "T2", "B"), np.clip([V0, 4e-3, B], *DECAY_BOUNDS)))[face]
        assert rep.params[face] == bound
        trf = least_squares(lambda q: decay_model(self.T, *q) - V,
                            np.clip(guess, *DECAY_BOUNDS),
                            jac=lambda q: decay_jacobian(self.T, *q),
                            bounds=DECAY_BOUNDS, xtol=1e-14, ftol=1e-14,
                            gtol=1e-14, max_nfev=2000)
        r = decay_model(self.T, *rep.params.values()) - V
        assert r @ r <= trf.fun @ trf.fun + 4.0 * np.finfo(float).eps * np.abs(r) @ np.abs(V)
        assert f"{face} pinned at a bound" in rep.warnings

    @pytest.mark.parametrize("V0, B, face, bound, trf_nfev", [
        (0.9, -0.05, "B", 0.0, 9), (2.5, 0.1, "V0", 2.0, 24), (0.3, 1.05, "B", 1.0, 17)])
    def test_face_fit_takes_few_evaluations(self, monkeypatch, V0, B, face, bound,
                                            trf_nfev):
        # the free minimum is outside the box, so the search in log T2 runs
        # on the face: it takes no more projections than scipy's TRF from the
        # clipped crossing guess took evaluations (trf_nfev), and lands where
        # TRF lands from that start
        V = V0 * np.exp(-((self.T / 4e-3) ** 2)) + B
        sols = self.counted(monkeypatch)
        rep = fit_visibility_decay(self.T, V)
        (sol,) = sols
        assert sol.nfev <= trf_nfev and rep.converged
        assert rep.warnings == [f"{face} pinned at a bound"]
        assert rep.params[face] == bound and rep.errors[face] == 0.0
        trf = least_squares(lambda q: decay_model(self.T, *q) - V,
                            np.clip(analysis._crossing_guess(self.T, V), *DECAY_BOUNDS),
                            jac=lambda q: decay_jacobian(self.T, *q),
                            bounds=DECAY_BOUNDS, xtol=1e-14, ftol=1e-14,
                            gtol=1e-14, max_nfev=2000)
        assert trf.nfev == trf_nfev
        r = decay_model(self.T, *rep.params.values()) - V
        eps = np.finfo(float).eps
        assert r @ r <= trf.fun @ trf.fun + 4.0 * eps * np.abs(trf.fun) @ np.abs(V)
        assert rep.params["T2"] == pytest.approx(trf.x[1], rel=1e-8)

    def test_start_is_the_weighted_minimum(self):
        # the fit minimises the sum weighted by 1/V_err: no higher than
        # scipy's weighted TRF, and not at the unweighted minimum
        rng = np.random.default_rng(3)
        V_err = rng.uniform(0.005, 0.05, len(self.T))
        V = (0.8 * np.exp(-((self.T / 5e-3) ** 2)) + 0.1
             + V_err * rng.standard_normal(len(self.T)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = fit_visibility_decay(self.T, V, V_err=V_err)
        w = 1.0 / V_err
        trf = least_squares(lambda q: (decay_model(self.T, *q) - V) * w,
                            np.clip(analysis._crossing_guess(self.T, V), *DECAY_BOUNDS),
                            jac=lambda q: decay_jacobian(self.T, *q) * w[:, None],
                            bounds=DECAY_BOUNDS, xtol=1e-14, ftol=1e-14,
                            gtol=1e-14, max_nfev=2000)
        fitted = list(rep.params.values())
        r = (decay_model(self.T, *fitted) - V) * w
        assert r @ r <= trf.fun @ trf.fun + 4.0 * np.finfo(float).eps * np.abs(r) @ np.abs(V * w)
        np.testing.assert_allclose(fitted, trf.x, rtol=1e-8)
        unweighted = fit_visibility_decay(self.T, V).params["T2"]
        assert abs(unweighted / fitted[1] - 1.0) > 1e-3

    @pytest.mark.parametrize("kw", [{"V": [0.9, 0.5, math.nan, 0.1]},
                                    {"t": [0.0, 1e-3, math.inf, 3e-3]},
                                    {"V_err": [0.01, 0.0, 0.01, 0.01]},
                                    {"V_err": [0.01, math.nan, 0.01, 0.01]}])
    def test_bad_input_rejected(self, kw):
        args = {"t": [0.0, 1e-3, 2e-3, 3e-3], "V": [0.9, 0.5, 0.2, 0.1], **kw}
        with pytest.raises(ValueError):
            fit_visibility_decay(**args)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="times must be nonnegative"):
            fit_visibility_decay([-1e-3, 0.0, 1e-3, 2e-3], [0.9, 0.5, 0.2, 0.1])

    def test_no_decay_flagged(self):
        rep = fit_visibility_decay(self.T, np.full_like(self.T, 0.8))
        assert rep.params["T2"] == math.inf
        assert "no decay detected" in rep.warnings

    def test_increasing_rejected(self):
        with pytest.raises(FitError):
            fit_visibility_decay(self.T, np.linspace(0.1, 0.9, len(self.T)))

    def test_visibility_of_closed_form_fringe(self):
        # the phenomenological fringe has V(t) = exp(-t^2/T2^2) exactly
        T2 = 5e-3
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        V = []
        for t in self.T:
            p = fringe_closed_form(t, phi, TWO_PI * 150.0, T2)
            rep = fit_fringe(phi, p)
            V.append(visibility(rep.params["A"], rep.params["C"]))
        rep = fit_visibility_decay(self.T, np.array(V))
        assert rep.params["T2"] == pytest.approx(T2, rel=1e-6)
        assert rep.params["V0"] == pytest.approx(1.0, rel=1e-6)
        assert abs(rep.params["B"]) < 1e-6


class TestDecayReferee:
    """fit_visibility_decay on seeded noisy decays against scipy's TRF from
    the clipped first-crossing guess: never a FitError, few projections,
    and a sum of squares at or below TRF's up to its rounding."""

    @staticmethod
    def series(seed):
        # one in three outside the physical box, the rest with visibilities
        # in [0, 1]; 8-30 times over 2-12 ms, 0.2-3 % noise, every other one
        # weighted
        rng = np.random.default_rng(seed)
        n = rng.integers(8, 31)
        t = np.linspace(1.0 / n, 1.0, n) * rng.uniform(2e-3, 12e-3)
        if seed % 3 == 0:
            V0, B = rng.uniform(0.2, 2.0), rng.uniform(-0.1, 1.1)
        else:
            V0, B = rng.uniform(0.0, 1.0, 2)
            B *= 1.0 - V0
        T2, sigma = rng.uniform(1e-3, 8e-3), rng.uniform(0.002, 0.03)
        V = V0 * np.exp(-((t / T2) ** 2)) + B + sigma * rng.standard_normal(n)
        return t, V, np.full(n, sigma) if seed % 2 else None

    @staticmethod
    def check(monkeypatch, t, V, V_err=None):
        """The fit's r.r, after the TRF check, and its projections."""
        sols = TestVisibilityDecay.counted(monkeypatch)
        rep = fit_visibility_decay(t, V, V_err=V_err)
        monkeypatch.undo()
        w = np.ones_like(V) if V_err is None else 1.0 / V_err
        r = (decay_model(t, *(rep.params[k] for k in ("V0", "T2", "B"))) - V) * w
        trf = least_squares(lambda q: (decay_model(t, *q) - V) * w,
                            np.clip(analysis._crossing_guess(t, V), *DECAY_BOUNDS),
                            jac=lambda q: decay_jacobian(t, *q) * w[:, None],
                            bounds=DECAY_BOUNDS, xtol=1e-14, ftol=1e-14,
                            gtol=1e-14, max_nfev=2000)
        assert r @ r <= trf.fun @ trf.fun + 4.0 * np.finfo(float).eps * np.abs(r) @ np.abs(w * V)
        return r @ r, sum(sol.nfev for sol in sols)

    def test_at_or_below_trf_in_few_evaluations(self, monkeypatch):
        # the start that met the (V0, B) box as a wall failed 2 of these (one
        # FitError, one 1.1 % above TRF), and its polish took up to 1,124
        # evaluations
        nfev = [self.check(monkeypatch, *self.series(seed))[1] for seed in range(300)]
        assert np.median(nfev) <= 7

    def test_short_window_converges(self, monkeypatch):
        # a visibility above 1 seen over half a T2: the start clipped onto
        # the box left the polish stuck (FitError after 2000 evaluations
        # here, and on 86 of 400 such seeds)
        rng = np.random.default_rng(1)
        t = np.linspace(0.2e-3, 3e-3, 12)
        V0, B = rng.uniform(0.3, 1.2), rng.uniform(0.6, 1.1)
        V = V0 * np.exp(-((t / 6e-3) ** 2)) + B + 0.01 * rng.standard_normal(len(t))
        self.check(monkeypatch, t, V)

    def test_restarts_off_the_v0_plateau(self, monkeypatch):
        # the search from the crossing guess ends at V0 = 0, where r.r does
        # not depend on T2; the restart from the best data time ends 5.5 %
        # lower, with B on its bound
        t, V, V_err = self.series(658)
        assert V_err is None
        rr, _ = self.check(monkeypatch, t, V)
        assert rr <= 0.95 * np.sum((V - V.mean()) ** 2)  # the plateau's r.r


class TestPhaseSeries:
    def test_linear_phase_recovered(self):
        t = np.linspace(0.5e-3, 8e-3, 16)
        delta, delta_bg = TWO_PI * 220.0, -TWO_PI * 135.0
        phi0 = ((delta + delta_bg) * t) % TWO_PI
        Phi, warn = extract_phase_series(t, phi0, delta_bg)
        assert not warn
        assert np.allclose(Phi, delta * t, atol=1e-9)

    def test_branch_warning_on_large_step(self):
        t = np.array([1e-3, 2e-3])
        Phi, warn = extract_phase_series(t, np.array([0.0, 3.0]), 0.0)
        assert warn

    def test_offset_preserved(self):
        t = np.linspace(0.0, 5e-3, 10)
        Phi, _ = extract_phase_series(t, np.full_like(t, 1.2), 0.0)
        assert np.allclose(Phi, 1.2)

    @pytest.mark.parametrize("t, phi0", [([0.0, 1.0], [0.0, 0.0, 3.0]),
                                         ([0.0, 1.0, 2.0], [0.0, 0.0])])
    def test_one_phase_per_time(self, t, phi0):
        # an extra phase raised IndexError, a missing one numpy's broadcast error
        with pytest.raises(ValueError, match=r"one value per point, not \(\d,\) and \(\d,\)"):
            extract_phase_series(t, phi0, 0.0)

    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), start=st.floats(-3.1, 3.1),
           delta_bg=st.floats(-2e3, 2e3), n=st.integers(2, 30))
    def test_invariant_under_2pi_shifts(self, data, start, delta_bg, n):
        # steps below pi/2 are never branch-ambiguous, so each wrapped phase
        # may sit on any branch: only the first one's branch reaches Phi
        steps = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=n - 1,
                                   max_size=n - 1))
        m = np.array(data.draw(st.lists(st.integers(-5, 5), min_size=n,
                                        max_size=n)))
        t = np.linspace(0.1e-3, 8e-3, n)
        phi0 = np.mod(start + np.concatenate([[0.0], np.cumsum(steps)]), TWO_PI)
        Phi, warn = extract_phase_series(t, phi0, delta_bg)
        shifted, warn_shifted = extract_phase_series(t, phi0 + TWO_PI * m,
                                                     delta_bg)
        assert not warn and not warn_shifted
        assert np.allclose(shifted, Phi + TWO_PI * m[0], rtol=0.0, atol=1e-9)


class TestPhaseSlope:
    def test_exact_line(self):
        t = np.linspace(0.2e-3, 6e-3, 20)
        rep = fit_phase_slope(t, 2.0 * t + 0.3, T2=10e-3)
        assert rep.params["delta"] == pytest.approx(2.0, abs=1e-9)
        assert rep.params["intercept"] == pytest.approx(0.3, abs=1e-9)

    def test_window_excludes_late_points(self):
        t = np.linspace(0.2e-3, 10e-3, 30)
        Phi = 5.0 * t
        Phi[t > 4e-3] += 10.0  # corrupt outside the window
        rep = fit_phase_slope(t, Phi, T2=4e-3)
        assert rep.params["delta"] == pytest.approx(5.0, abs=1e-9)
        assert rep.n_points == int(np.count_nonzero(t <= 4e-3))

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.nan, math.inf])
    def test_errors_outside_the_window_unchecked(self, bad):
        t = np.linspace(0.2e-3, 10e-3, 30)
        Phi = 5.0 * t + 0.01 * np.random.default_rng(2).standard_normal(30)
        err = np.full(30, 0.01)
        want = fit_phase_slope(t, Phi, T2=4e-3, Phi_err=err)
        err[-1] = bad
        assert fit_phase_slope(t, Phi, T2=4e-3, Phi_err=err) == want
        err[0] = bad
        with pytest.raises(ValueError, match="sigma"):
            fit_phase_slope(t, Phi, T2=4e-3, Phi_err=err)

    def test_insufficient_points(self):
        with pytest.raises(FitError):
            fit_phase_slope(np.array([1e-3, 2e-3]), np.array([0.1, 0.2]),
                            T2=0.5e-3)


class TestPipeline:
    BATH = BathState(n0=1.5e19, T=850e-9, omega_x=TWO_PI * 100,
                     omega_y=TWO_PI * 100, omega_z=TWO_PI * 100)
    MODEL = ResonanceModel()

    def run(self, bath=None):
        proto = RamseyProtocol.default_grid(t_max_ms=4.0, n_t=20)
        series = synthesize_fringe(proto, bath or self.BATH, self.MODEL)
        return analyze_fringes(series, delta_bg=proto.delta_bg,
                               phase_convention="cos2")

    def test_closed_form_dataset_recovers_parameters(self):
        t = np.linspace(0.3e-3, 12e-3, 24)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        Delta, T2 = TWO_PI * 180.0, 5e-3
        p = np.array([fringe_closed_form(tk, phi, Delta, T2) for tk in t])
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p), delta_bg=0.0)
        assert res.T2 == pytest.approx(T2, rel=1e-6)
        # closed-form data is a pure line in phase: slope equals Delta
        assert res.delta == pytest.approx(Delta, rel=1e-6)

    def test_background_removal(self):
        # same dataset analyzed with the background detuning declared:
        # the extracted slope drops by exactly delta_bg
        t = np.linspace(0.3e-3, 12e-3, 24)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        Delta, T2 = TWO_PI * 180.0, 5e-3
        p = np.array([fringe_closed_form(tk, phi, Delta, T2) for tk in t])
        bg = -TWO_PI * 135.0
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p), delta_bg=bg)
        assert res.delta == pytest.approx(Delta - bg, rel=1e-6)

    def test_forward_engine_dataset(self):
        res = self.run()
        assert math.isfinite(res.T2) and res.T2 > 0
        assert res.delta is not None and res.delta < 0  # a_e < <a_g>

    def test_slope_matches_mean_detuning_at_short_times(self):
        # for windows well inside T2 the fitted slope approaches the
        # ensemble-mean interaction detuning
        from impurityprobe.ramsey import detuning_nodes
        proto = RamseyProtocol(t=np.geomspace(0.01e-3, 4e-3, 60),
                               phi=np.deg2rad(np.arange(0.0, 360.0, 30.0)))
        series = synthesize_fringe(proto, self.BATH, self.MODEL)
        res = analyze_fringes(series, delta_bg=proto.delta_bg,
                              phase_convention="cos2")
        s, wn, x, wE = detuning_nodes(self.BATH, self.MODEL, proto.B)
        d, w = np.outer(s, x), np.outer(wn, wE)
        mean_delta = float(np.sum(w * d))
        short = fit_phase_slope(series.t, res.phase, T2=0.1 * res.T2)
        assert short.params["delta"] == pytest.approx(mean_delta, rel=0.05)

    @staticmethod
    def closed_form_analysis(f_hz, T2):
        t = np.linspace(0.3e-3, 12e-3, 24)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        p = np.array([fringe_closed_form(tk, phi, TWO_PI * f_hz, T2) for tk in t])
        return analyze_fringes(FringeSeries(t=t, phi=phi, p=p), delta_bg=0.0)

    def test_closed_form_190_hz_6_ms(self):
        # the iterative fit used to land in a wrong minimum here
        # (T2 11 % high, delta 74 % low)
        res = self.closed_form_analysis(190.0, 6e-3)
        assert res.T2 == pytest.approx(6e-3, rel=1e-6)
        assert res.delta == pytest.approx(TWO_PI * 190.0, rel=1e-6)

    def test_closed_form_grid(self):
        # criterion 04's round trip on the whole 100-300 Hz x 3-8 ms grid
        misses = []
        for f_hz in np.arange(100.0, 301.0, 10.0):
            for T2 in np.arange(3.0, 8.01, 0.5) * 1e-3:
                res = self.closed_form_analysis(f_hz, T2)
                if not (abs(res.T2 / T2 - 1.0) <= 1e-6
                        and abs(res.delta / (TWO_PI * f_hz) - 1.0) <= 1e-6):
                    misses.append((f_hz, T2))
        assert misses == []

    def test_cos2_convention_maps_phase(self):
        # cos^2[(Delta t + phi)/2] = sin^2[(phi0 - phi)/2] with
        # phi0 = -(Delta t + pi); "cos2" maps phi0 back to Delta t
        t = np.linspace(0.2e-3, 3e-3, 12)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        Delta = TWO_PI * 230.0
        p = np.array([fringe_closed_form(tk, -(phi + math.pi), Delta, 1.0)
                      for tk in t])
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p), delta_bg=0.0,
                              phase_convention="cos2")
        for tk, f in zip(t, res.fringe_fits):
            assert wrapped(f.params["phi0"] + Delta * tk + math.pi) == \
                pytest.approx(0.0, abs=1e-9)
        offset = res.phase[0] - Delta * t[0]
        assert offset / TWO_PI == pytest.approx(round(offset / TWO_PI), abs=1e-9)
        assert np.allclose(res.phase - offset, Delta * t, atol=1e-9)

    def test_unseen_decay_warns(self, svd_errors):
        # the data above: T2 = 1 s on t <= 3 ms, so V falls by 1e-5 and the
        # fitted T2 (about 0.5 s) is not constrained
        t = np.linspace(0.2e-3, 3e-3, 12)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        p = np.array([fringe_closed_form(tk, -(phi + math.pi), TWO_PI * 230.0, 1.0)
                      for tk in t])
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p), delta_bg=0.0,
                              phase_convention="cos2")
        assert math.exp(-((t[-1] / res.T2) ** 2)) > analysis.UNSEEN_DECAY
        assert [w for w in res.warnings if "T2 = " in w and "not constrained" in w]
        # the decay projection takes V0 from the parts orthogonal to the
        # offset column, so it does not cancel here: solving its normal
        # equations directly stalled at |r| = 1.3e-9 (T2 = 0.096 s)
        fit = res.decay_fit
        assert fit.residual_norm < 1e-10
        # the scaled Jacobian's condition number is about 3e10: the closed
        # form declines, and the errors come from the SVD, finite; at this
        # condition the SVD's rounding depends on the column order, so the
        # referee takes the fit's (V0, B, T2)
        J = decay_jacobian(t, *(fit.params[k] for k in ("V0", "T2", "B")))[:, [0, 2, 1]]
        assert fitting._covariance(J) is None
        want = svd_errors(J, fit.residual_norm ** 2 / (len(t) - 3))[[0, 2, 1]]
        assert np.isfinite(want).all()
        assert list(fit.errors.values()) == pytest.approx(want, rel=1e-13)

    def test_seen_decays_do_not_warn(self, tmp_path):
        # criterion 04's round trip and inversion grids, criterion 10's CLI analysis
        from impurityprobe.cli import main as cli_main
        found = list(self.closed_form_analysis(200.0, 5e-3).warnings)
        proto = RamseyProtocol(t=np.geomspace(0.05e-3, 4e-3, 24),
                               phi=np.deg2rad(np.arange(0.0, 360.0, 30.0)))
        for n0, T in ((1.0e19, 850e-9), (1.5e19, 400e-9)):
            series = synthesize_fringe(proto, BathState(n0=n0, T=T), self.MODEL)
            found += analyze_fringes(series, delta_bg=proto.delta_bg,
                                     phase_convention="cos2").warnings
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "bath": {"peak_density_per_cm3": 1.5e13, "temperature_nK": 850.0},
            "protocol": {"t_min_ms": 0.05, "t_max_ms": 3.0, "n_t": 10},
            "quadrature": {"density_order": 96, "energy_order": 96},
            "noise": {"atoms_per_shot": 10, "repetitions": 3}}))
        assert cli_main(["simulate", "--config", str(config), "--out", str(tmp_path),
                         "--seed", "42"]) == 0
        assert cli_main(["analyze", str(tmp_path / "fringes.csv"), "--out", str(tmp_path)]) == 0
        found += json.loads((tmp_path / "analysis.json").read_text())["analysis"]["warnings"]
        assert not [w for w in found if "not constrained" in w]

    def test_bounded_fits_listed_in_warnings(self):
        t = np.array([1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        V = np.exp(-((t / 4e-3) ** 2))
        p = np.array([fringe_values(phi, v, 0.5 - 0.5 * v, 1.0) for v in V])
        p[2] = fringe_values(phi, 0.5, -0.02, 1.0)  # free C < 0 at 3 ms
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p), delta_bg=0.0)
        assert [BOUNDED_FIT in f.warnings for f in res.fringe_fits] == \
            [False, False, True, False, False]
        assert "bounded fringe fit at t_ms = 3" in res.warnings

    def test_bounded_rows_start_at_the_fourier_phase(self):
        # 10 atoms per shot leave seven early rows bounded; the fallback,
        # which used to start at the mirrored phase, stopped at A = 0 at
        # 0.27 ms (V = 0, delta/2pi = -440.5 Hz against -309.1 Hz noiseless)
        proto = RamseyProtocol.default_grid(12.0, 30)
        bath = BathState(n0=1.4e19, T=450e-9)
        series = synthesize_fringe(proto, bath, self.MODEL,
                                   noise={"atoms_per_shot": 10, "repetitions": 1},
                                   seed=1720723811)
        res = analyze_fringes(series, delta_bg=proto.delta_bg, phase_convention="cos2")
        assert "bounded fringe fit at t_ms = 0.1, 0.117949, 0.139121, 0.164092, " \
            "0.193546, 0.228286, 0.269262" in res.warnings
        assert res.t[6] == pytest.approx(0.269e-3, abs=1e-6) and res.visibility.V[6] == 1.0
        assert res.delta / TWO_PI == pytest.approx(-305.3, abs=0.05)

    def test_decay_start_reaches_the_box_face(self, monkeypatch):
        # the decay of test_bounded_fits_listed_in_warnings: the log-T2
        # search reaches B = 0, where the bounded projection holds B on its
        # bound, and ends on that face in no more projections than scipy's
        # TRF took evaluations from the crossing guess (10)
        t = np.array([1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        p = np.array([fringe_values(phi, v, 0.5 - 0.5 * v, 1.0)
                      for v in np.exp(-((t / 4e-3) ** 2))])
        p[2] = fringe_values(phi, 0.5, -0.02, 1.0)
        sols = TestVisibilityDecay.counted(monkeypatch)
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p), delta_bg=0.0)
        (decay,) = sols
        assert decay.nfev <= 10 and decay.success
        rep, V = res.decay_fit, res.visibility.V
        assert rep.params["B"] == 0.0 and rep.warnings == ["B pinned at a bound"]
        trf = least_squares(lambda q: decay_model(t, *q) - V, analysis._crossing_guess(t, V),
                            jac=lambda q: decay_jacobian(t, *q), bounds=DECAY_BOUNDS,
                            xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
        r = decay_model(t, *(rep.params[k] for k in ("V0", "T2", "B"))) - V
        assert r @ r <= trf.fun @ trf.fun + 4.0 * np.finfo(float).eps * np.abs(r) @ np.abs(V)

    def test_pinned_fringe_keeps_its_visibility_error(self):
        # the bounded fit pins C at 3 ms, so its report gives C error 0;
        # V's error there still comes from the unconstrained covariance
        t = np.array([1e-3, 2e-3, 3e-3, 4e-3, 5e-3])
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        V = np.exp(-((t / 4e-3) ** 2))
        p = np.array([fringe_values(phi, v, 0.5 - 0.5 * v, 1.0) for v in V])
        p[2] = fringe_values(phi, 0.5, -0.02, 1.0)
        p += 0.01 * np.random.default_rng(4).standard_normal(p.shape)
        err = np.full_like(p, 0.01)
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p, p_err=err), delta_bg=0.0)
        fit = res.fringe_fits[2]
        assert fit.errors["C"] == 0.0
        A, C, phi0 = (fit.params[k] for k in ("A", "C", "phi0"))
        jac = np.column_stack([np.sin(0.5 * (phi0 - phi)) ** 2, np.ones_like(phi),
                               0.5 * A * np.sin(phi0 - phi)]) / 0.01
        A_err, C_err, _ = np.sqrt(np.diag(np.linalg.inv(jac.T @ jac)))
        assert res.visibility.V_err[2] == \
            pytest.approx(visibility_error(A, C, A_err, C_err), rel=1e-9)
        assert res.visibility.V_err[2] > 1e-3

    def test_constant_late_fringe_keeps_the_slope_weighted(self):
        # a constant fringe has phi0 error 0; at 8 ms it lies beyond T2
        # (about 3 ms), outside the slope window, so the slope stays the
        # same weighted fit
        t = np.linspace(0.4e-3, 8e-3, 20)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        p = np.array([fringe_closed_form(tk, phi, TWO_PI * 200.0, 3e-3) for tk in t])
        p += 0.01 * np.random.default_rng(7).standard_normal(p.shape)
        err = np.full_like(p, 0.01)
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p, p_err=err), delta_bg=0.0)
        p[-1] = 0.5
        late = analyze_fringes(FringeSeries(t=t, phi=phi, p=p, p_err=err), delta_bg=0.0)
        assert late.fringe_fits[-1].params["A"] == 0.0 and late.T2 < 4e-3
        assert late.delta == res.delta

    def test_zero_amplitude_late_fringe_keeps_the_slope_weighted(self):
        # a bounded fit that pins A at 0 keeps its phase, with error 0; at
        # 8 ms, beyond T2, only the errors in the slope window are checked,
        # so the slope stays the same weighted fit (it raised ValueError)
        t = np.linspace(0.4e-3, 8e-3, 20)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        p = np.array([fringe_closed_form(tk, phi, TWO_PI * 200.0, 3e-3) for tk in t])
        p += 0.01 * np.random.default_rng(7).standard_normal(p.shape)
        err = np.full_like(p, 0.01)
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p, p_err=err), delta_bg=0.0)
        p[-1] = [0.032, -0.045, -0.055, 0.002, 0.078, 0.092,
                 0.035, -0.041, -0.057, -0.001, 0.078, 0.094]
        err[-1] = [0.016, 0.029, 0.017, 0.016, 0.021, 0.03,
                   0.029, 0.017, 0.024, 0.017, 0.018, 0.025]
        late = analyze_fringes(FringeSeries(t=t, phi=phi, p=p, p_err=err), delta_bg=0.0)
        fit = late.fringe_fits[-1]
        assert fit.params["A"] == 0.0 and BOUNDED_FIT in fit.warnings
        assert analysis.CONSTANT_FIT not in fit.warnings and math.isfinite(late.phase[-1])
        assert late.T2 < 4e-3 and late.slope_fit is not None
        assert late.delta == res.delta

    @pytest.mark.parametrize("row", [1, 2, 5])
    def test_constant_fringe_in_the_window_has_no_phase(self, row):
        # a constant fringe (0.8, 1.2 or 2.4 ms, inside the slope window)
        # has no phase: it takes no part in the unwrap or the slope, which
        # it used to enter with phi0 = 0 (delta/2pi 224.0, 221.5, 27.8 Hz)
        t = np.linspace(0.4e-3, 8e-3, 20)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        p = np.array([fringe_closed_form(tk, phi, TWO_PI * 200.0, 3e-3) for tk in t])
        p += 0.01 * np.random.default_rng(7).standard_normal(p.shape)
        err = np.full_like(p, 0.01)
        res = analyze_fringes(FringeSeries(t=t, phi=phi, p=p, p_err=err), delta_bg=0.0)
        p[row] = 0.5
        gap = analyze_fringes(FringeSeries(t=t, phi=phi, p=p, p_err=err), delta_bg=0.0)
        assert math.isnan(gap.phase[row])
        assert np.all(np.isfinite(np.delete(gap.phase, row)))
        assert f"constant fringe, no phase, at t_ms = {t[row] * 1e3:.6g}" in gap.warnings
        assert abs(gap.delta - res.delta) / TWO_PI < 0.5  # Hz; its error is about 1 Hz

    def test_bad_convention_rejected(self):
        proto = RamseyProtocol.default_grid(t_max_ms=2.0, n_t=8)
        series = synthesize_fringe(proto, self.BATH, self.MODEL)
        with pytest.raises(ValueError):
            analyze_fringes(series, delta_bg=0.0, phase_convention="tan2")
