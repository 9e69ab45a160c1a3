import math
import os
import subprocess
import sys

import numpy as np
import pytest
from scipy.optimize import least_squares as scipy_least_squares

from impurityprobe import analysis, calibration, fitting
from impurityprobe.constants import CONST
from impurityprobe.fitting import (FitError, distinct, fit_least_squares,
                                   fit_report, fit_scalar, gauss_newton,
                                   linear_fit, standard_errors)
from impurityprobe.ramsey import no_bath_trace

NAMES = ["slope", "intercept"]


def line_data(n=12, seed=5):
    rng = np.random.default_rng(seed)
    x = np.linspace(0.0, 2.0, n)
    sigma = rng.uniform(0.05, 0.2, n)
    y = 3.0 * x - 1.0 + sigma * rng.normal(size=n)
    return np.column_stack([x, np.ones_like(x)]), y, sigma


class TestLinearFit:
    def test_exact_line(self):
        X, _, _ = line_data()
        rep = linear_fit(X, X @ [3.0, -1.0], NAMES)
        assert rep.params["slope"] == pytest.approx(3.0, rel=1e-14)
        assert rep.params["intercept"] == pytest.approx(-1.0, rel=1e-14)
        assert rep.residual_norm < 1e-14
        assert rep.n_points == len(X)

    def test_weighted_errors_are_the_normal_equations_covariance(self):
        X, y, sigma = line_data()
        rep = linear_fit(X, y, NAMES, sigma=sigma)
        Xw = X / sigma[:, None]
        cov = np.linalg.inv(Xw.T @ Xw)
        assert [rep.errors[k] for k in NAMES] == \
            pytest.approx(np.sqrt(np.diag(cov)), rel=1e-12)

    def test_unweighted_errors_scale_with_the_residual(self):
        X, y, _ = line_data()
        rep = linear_fit(X, y, NAMES)
        r = X @ [rep.params[k] for k in NAMES] - y
        cov = np.linalg.inv(X.T @ X) * (r @ r) / (len(y) - 2)
        assert rep.residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-12)
        assert [rep.errors[k] for k in NAMES] == \
            pytest.approx(np.sqrt(np.diag(cov)), rel=1e-12)

    @pytest.mark.parametrize("bad", [0.0, -0.1, np.nan, np.inf],
                             ids=["zero", "negative", "nan", "inf"])
    def test_invalid_sigma_rejected(self, bad):
        X, y, sigma = line_data()
        sigma[3] = bad
        with pytest.raises(ValueError, match="sigma"):
            linear_fit(X, y, NAMES, sigma=sigma)

    def test_nearly_collinear_columns_are_solved(self, svd_errors):
        # x far from 0 against its spread: the closed form declines, lstsq
        # solves the system and the SVD gives finite errors
        x = 1e4 + np.linspace(0.0, 1e-2, 12)
        X = np.column_stack([x, np.ones_like(x)])
        y = 3.0 * x - 1.0 + 1e-6 * np.sin(x)
        assert fitting._covariance(X) is None
        rep = linear_fit(X, y, NAMES)
        coef = np.linalg.lstsq(X, y, rcond=None)[0]
        assert [rep.params[k] for k in NAMES] == coef.tolist()
        r = X @ coef - y
        assert [rep.errors[k] for k in NAMES] == pytest.approx(svd_errors(X, r @ r / 10),
                                                               rel=1e-13)

    @pytest.mark.parametrize("where", ["X", "y"])
    def test_nonfinite_data_rejected(self, where):
        X, y, _ = line_data()
        (X[2] if where == "X" else y[2:3])[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            linear_fit(X, y, NAMES)


class TestDistinct:
    @pytest.mark.parametrize("seed", range(20))
    def test_counts_as_np_unique(self, seed):
        # NaNs count once, -0.0 equals 0.0, infinities are values
        rng = np.random.default_rng(seed)
        x = rng.choice([0.0, -0.0, 1.0, 2.5, np.nan, np.inf, -np.inf], size=rng.integers(0, 9))
        assert distinct(x) == len(np.unique(x))

    def test_leaves_numpy_ma_unloaded(self):
        # np.unique without return_inverse imports numpy.ma, 8-9 ms a process
        code = ("import sys; import numpy as np; from impurityprobe.fitting import distinct; "
                "distinct(np.array([1.0, 2.0, 2.0])); print('numpy.ma' in sys.modules)")
        src = os.path.dirname(os.path.dirname(fitting.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             check=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split() == ["False"]


class TestFitReport:
    def test_weighted_residuals_have_unit_variance(self):
        jac = np.eye(3)
        resid = np.array([2.0, 0.0, 0.0])
        weighted = fit_report(["a", "b", "c"], [1.0, 2.0, 3.0], jac, resid, True)
        assert weighted.errors == {"a": 1.0, "b": 1.0, "c": 1.0}
        assert weighted.residual_norm == 2.0

    def test_unweighted_variance_is_r2_over_dof(self):
        jac = np.vstack([np.eye(2), np.zeros((3, 2))])
        resid = np.array([1.0, 1.0, 1.0, 1.0, 2.0])
        rep = fit_report(["a", "b"], [0.0, 0.0], jac, resid, False)
        assert rep.errors["a"] == pytest.approx(np.sqrt(8.0 / 3.0), rel=1e-15)
        assert rep.n_points == 5

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("m", [4, 12, 24, 37])
    def test_stack_equals_row_calls_bit_for_bit(self, weighted, m):
        # one pass over a stack gives exactly the reports of one call per
        # row, and each residual norm is np.linalg.norm's
        rng = np.random.default_rng(m)
        # (a stack takes closed-form variances, as the fringe grid passes them)
        values, var = rng.normal(size=(7, 3)), rng.uniform(0.1, 2.0, (7, 3))
        resid = rng.normal(size=(7, m)) * rng.uniform(1e-9, 1.0, (7, 1))
        stack = fit_report(["a", "b", "c"], values, None, resid, weighted, var=var)
        for k, rep in enumerate(stack):
            assert rep == fit_report(["a", "b", "c"], values[k], None, resid[k], weighted,
                                     var=var[k])
            assert rep.residual_norm == np.linalg.norm(resid[k])
            assert type(rep.residual_norm) is float and type(rep.params["a"]) is float

    def test_closed_form_variances_stand_in_for_the_jacobian(self, svd_errors):
        rng = np.random.default_rng(8)
        jac, resid = rng.normal(size=(3, 9, 2)), rng.normal(size=(3, 9))
        var = np.einsum("tii->ti", np.linalg.inv(np.einsum("tki,tkj->tij", jac, jac)))
        for weighted in (False, True):
            by_jac = [fit_report(["a", "b"], np.ones(2), J, r, weighted)
                      for J, r in zip(jac, resid)]
            by_var = fit_report(["a", "b"], np.ones((3, 2)), None, resid, weighted, var=var)
            resid_var = 1.0 if weighted else np.sum(resid * resid, axis=1) / 7
            for x, y, want in zip(by_jac, by_var, svd_errors(jac, resid_var)):
                assert list(y.errors.values()) == pytest.approx(list(x.errors.values()),
                                                                rel=1e-13)
                assert list(x.errors.values()) == pytest.approx(want, rel=1e-13)
                assert y.residual_norm == x.residual_norm

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_errors_match_the_svd_referee(self, n, svd_errors):
        # the closed-form covariance, for every parameter count a fit uses
        rng = np.random.default_rng(n)
        jac = rng.normal(size=(20, n)) * rng.uniform(1e-3, 1e3, n)
        resid = rng.normal(size=20)
        rep = fit_report([f"p{k}" for k in range(n)], np.zeros(n), jac, resid, False)
        want = svd_errors(jac, resid @ resid / (20 - n))
        assert list(rep.errors.values()) == pytest.approx(want, rel=1e-13)


class TestStandardErrors:
    def test_stack_matches_each_jacobian(self, svd_errors):
        rng = np.random.default_rng(11)
        jac = rng.normal(size=(5, 20, 3))
        var = rng.uniform(0.5, 2.0, 5)
        for J, v, want in zip(jac, var, svd_errors(jac, var)):  # the referee takes stacks
            got = standard_errors(J, v)
            assert got == pytest.approx(want, rel=1e-13)
            assert got == pytest.approx(np.sqrt(np.diag(np.linalg.inv(J.T @ J)) * v),
                                        rel=1e-10)

    def test_unconstrained_direction_gets_zero(self):
        jac = np.column_stack([np.ones(6), np.zeros(6)])
        got = standard_errors(jac, 1.0)
        assert got[1] == 0.0
        assert got[0] == pytest.approx(1.0 / np.sqrt(6.0), rel=1e-15)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_zero_column_is_exactly_zero(self, n, svd_errors):
        # a pinned parameter's zeroed column: error 0, the others as without it
        rng = np.random.default_rng(n)
        jac = rng.normal(size=(15, n))
        got = standard_errors(np.column_stack([jac[:, :1], np.zeros(15), jac[:, 1:]]), 2.0)
        assert got[1] == 0.0
        assert np.delete(got, 1) == pytest.approx(svd_errors(jac, 2.0), rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_singular_live_columns_give_nan(self, n):
        # two live columns the data cannot tell apart: no finite covariance,
        # so every live parameter's error is NaN and a zero column's stays 0
        rng = np.random.default_rng(n)
        jac = rng.normal(size=(15, n))
        jac[:, -1] = 3.0 * jac[:, 0]
        got = standard_errors(np.column_stack([jac, np.zeros(15)]), 1.0)
        assert np.isnan(got[:-1]).all() and got[-1] == 0.0

    @pytest.mark.parametrize("rho", [0.9999, 0.99995])
    def test_ill_conditioned_columns(self, rho, svd_errors):
        # columns correlated by rho: det C = 1 - rho^2 is 2e-4 (the closed
        # form, within its rounding bound of 3e5 eps) or 1e-4 (the SVD)
        rng = np.random.default_rng(5)
        a, b = np.linalg.qr(rng.normal(size=(20, 2)))[0].T
        jac = np.column_stack([a, rho * a + math.sqrt(1.0 - rho * rho) * b]) * [3.0, 0.02]
        closed = fitting._covariance(jac) is not None
        assert closed == (1.0 - rho * rho > fitting.MIN_DET)
        assert standard_errors(jac, 2.0) == pytest.approx(svd_errors(jac, 2.0),
                                                          rel=1e-10 if closed else 1e-13)

    def test_stacked_reports(self):
        var = np.array([[1.0, 1.0, 1.0], [0.25, 0.25, 0.25]])
        resid = np.zeros((2, 3))
        reps = fit_report(["a", "b", "c"], [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                          None, resid, True, var=var)
        assert [r.params["a"] for r in reps] == [1.0, 4.0]
        assert [r.errors["b"] for r in reps] == [1.0, 0.5]


def decay(x, a, k):
    return a * np.exp(-k * x)


def decay_jac(x, a, k):
    e = np.exp(-k * x)
    return np.column_stack([e, -a * x * e])


def decay_column(x, k):
    """exp(-k x), the column of a exp(-k x) + b, and d(a exp(-k x))/dk."""
    e = np.exp(-k * x)
    return e, lambda a: -a * x * e


def offset_decay(x, a, b, k):
    return decay(x, a, k) + b


def offset_decay_jac(x, a, b, k):
    """d offset_decay / d(a, b, k), the engine's x order."""
    e = np.exp(-k * x)
    return np.column_stack([e, np.ones_like(x), -a * x * e])


class TestFitLeastSquares:
    """fitting.fit_least_squares on a exp(-k x) + b: a projection over k
    with (a, b) solved exactly, against scipy's TRF on all three."""

    X = np.linspace(0.0, 3.0, 15)

    def data(self):
        rng = np.random.default_rng(2)
        sigma = rng.uniform(0.01, 0.03, len(self.X))
        return offset_decay(self.X, 1.3, 0.7, 0.8) + sigma * rng.normal(size=len(self.X)), sigma

    def test_analytic_jacobian_weighted_by_sigma(self):
        y, sigma = self.data()
        free = ((-np.inf, np.inf), (-np.inf, np.inf))
        an = fit_least_squares(decay_column, self.X, y, [1.0], ["a", "b", "k"], sigma=sigma,
                               bounds=free)
        trf = scipy_least_squares(lambda p: (offset_decay(self.X, *p) - y) / sigma,
                                  [1.0, 0.0, 1.0],
                                  jac=lambda p: offset_decay_jac(self.X, *p) / sigma[:, None],
                                  xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
        p = [an.params[k] for k in ("a", "b", "k")]
        r = (offset_decay(self.X, *p) - y) / sigma
        assert r @ r <= trf.fun @ trf.fun + 4.0 * np.finfo(float).eps * np.abs(r) @ np.abs(y / sigma)
        assert p == pytest.approx(trf.x, rel=1e-6)
        Jw = offset_decay_jac(self.X, *p) / sigma[:, None]
        assert [an.errors[k] for k in ("a", "b", "k")] == \
            pytest.approx(np.sqrt(np.diag(np.linalg.inv(Jw.T @ Jw))), rel=1e-10)
        assert an.converged and not an.warnings

    def test_pinned_parameter_reports_zero_error(self):
        # the data have b = 0.7 but b <= 0.5: b ends on its bound, so its
        # error is 0 and (a, k)'s errors are those of a fit with b fixed
        y, sigma = self.data()
        rep = fit_least_squares(decay_column, self.X, y, [1.0], ["a", "b", "k"], sigma=sigma,
                                bounds=((0.0, np.inf), (0.0, 0.5)))
        assert rep.params["b"] == 0.5
        assert rep.errors["b"] == 0.0
        assert rep.warnings == ["b pinned at a bound"]
        a, k = rep.params["a"], rep.params["k"]
        Jw = offset_decay_jac(self.X, a, 0.5, k)[:, [0, 2]] / sigma[:, None]
        assert [rep.errors["a"], rep.errors["k"]] == \
            pytest.approx(np.sqrt(np.diag(np.linalg.inv(Jw.T @ Jw))), rel=1e-10)

    def test_non_finite_jacobian_is_fit_error(self):
        # from T2 = 1e-200 s the decay's derivative at t = 0 is 0/0: the
        # search stops at its start, and the report's SVD would raise
        # numpy's LinAlgError, a ValueError the CLI calls an input error
        t = np.arange(5) * 1e-3
        V = np.array([0.9, 0.7, 0.5, 0.3, 0.2])
        with pytest.raises(FitError, match="Jacobian is not finite at .*'T2': 1e-200"):
            fit_least_squares(analysis._decay_column, t, V, [1e-200], ("V0", "B", "T2"),
                              bounds=((0.0, 2.0), (0.0, 1.0)), log=True)


class TestLeastSquaresSolver:
    """fitting.least_squares, the variable-projection engine, on
    TestFitLeastSquares's data."""

    X = TestFitLeastSquares.X

    def solve(self, bounds, starts=(1.0,), column=decay_column):
        y, sigma = TestFitLeastSquares().data()
        w = 1.0 / sigma

        def weighted(k):
            a, jac = column(self.X, k)
            return w * a, lambda alpha: w * jac(alpha)
        return fitting.least_squares(weighted, list(starts), w, w * y, bounds=bounds)

    def test_nonfinite_start_rejected(self):
        with pytest.raises(FitError, match="not finite"):
            self.solve(((0.0, np.inf), (0.0, np.inf)),
                       column=lambda x, k: (np.full_like(x, np.nan), None))

    def test_exhausted_budget_reports_not_converged(self, monkeypatch):
        monkeypatch.setattr(fitting, "VP_STEPS", 1)
        free = ((-np.inf, np.inf), (-np.inf, np.inf))
        assert not self.solve(free, starts=[5.0]).success
        y, sigma = TestFitLeastSquares().data()
        rep = fit_least_squares(decay_column, self.X, y, [5.0], ["a", "b", "k"], sigma=sigma,
                                bounds=free)
        assert not rep.converged
        monkeypatch.undo()
        assert self.solve(free, starts=[5.0]).success

    def test_several_starts_take_the_lowest(self):
        # from k = 40 the data's decay is lost; the search runs from the
        # start with the lowest projected r.r, so adding that start changes
        # nothing, and every start's projection is counted
        free = ((-np.inf, np.inf), (-np.inf, np.inf))
        one, both = self.solve(free, starts=[1.0]), self.solve(free, starts=[40.0, 1.0])
        assert both.x.tolist() == one.x.tolist() and both.nfev == one.nfev + 1

    @pytest.mark.parametrize("bounds, x0, k, mask", [
        (((0.0, np.inf), (0.0, 0.5)), [1.0], 0.5, [0, 1, 0]),
        (((0.0, np.inf), (1.0, np.inf)), [1.0], 1.0, [0, -1, 0])])
    def test_active_mask_names_the_pinned_bound(self, bounds, x0, k, mask):
        # TestFitLeastSquares's data have b = 0.7: b ends on whichever bound
        # it is held away from, and only that bound is active
        sol = self.solve(bounds, starts=x0)
        assert sol.x[1] == k and sol.success
        assert sol.active_mask.tolist() == mask
        assert sol.jac.shape == (len(self.X), 3)


class TestFitScalar:
    """Gauss-Newton on one parameter: a = 1.3 fixed, only the rate k is fitted."""

    X = np.linspace(0.0, 3.0, 15)

    @staticmethod
    def model(x, k):
        return decay(x, 1.3, k)

    @staticmethod
    def slope(x, k):
        return decay_jac(x, 1.3, k)[:, 1]

    def data(self):
        rng = np.random.default_rng(3)
        sigma = rng.uniform(0.01, 0.03, len(self.X))
        return self.model(self.X, 0.8) + sigma * rng.normal(size=len(self.X)), sigma

    @pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
    def test_stationary_with_the_normal_equations_error(self, log):
        y, sigma = self.data()
        rep = fit_scalar(self.model, self.slope, self.X, y, 0.3, "k", sigma=sigma,
                         log=log)
        k = rep.params["k"]
        j = self.slope(self.X, k) / sigma
        r = (self.model(self.X, k) - y) / sigma
        assert abs(j @ r) <= 1e-12 * np.linalg.norm(j) * np.linalg.norm(r)
        assert rep.errors["k"] == pytest.approx(1.0 / np.linalg.norm(j), rel=1e-12)
        assert rep.residual_norm == pytest.approx(np.linalg.norm(r), rel=1e-12)
        trf = scipy_least_squares(lambda p: (self.model(self.X, p[0]) - y) / sigma, [0.3],
                                  jac=lambda p: (self.slope(self.X, p[0]) / sigma)[:, None],
                                  xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
        assert k == pytest.approx(trf.x[0], rel=1e-9)

    def test_exact_data_recovered(self):
        y = self.model(self.X, 0.8)
        rep = fit_scalar(self.model, self.slope, self.X, y, 2.0, "k", log=True)
        assert rep.params["k"] == pytest.approx(0.8, rel=1e-14)
        assert rep.converged and not rep.warnings

    def test_log_steps_keep_the_parameter_positive(self):
        # the first linear Gauss-Newton step from k = 5 lands below 0
        y = self.model(self.X, 0.05)
        seen = []

        def model(x, k):
            seen.append(k)
            return self.model(x, k)

        rep = fit_scalar(model, self.slope, self.X, y, 5.0, "k", log=True)
        assert min(seen) > 0.0
        assert rep.params["k"] == pytest.approx(0.05, rel=1e-12)

    def test_nonfinite_start_rejected(self):
        y = self.model(self.X, 0.8)
        y[4] = np.nan
        with pytest.raises(ValueError, match="not finite"):
            fit_scalar(self.model, self.slope, self.X, y, 1.0, "k")

    def test_nonfinite_start_residual_rejected(self):
        y = self.model(self.X, 0.8)
        with pytest.raises(ValueError, match="not finite at the start k = nan"):
            fit_scalar(self.model, self.slope, self.X, y, math.nan, "k")

    def test_step_budget_raises(self, monkeypatch):
        monkeypatch.setattr(fitting, "SCALAR_STEPS", 2)
        y, sigma = self.data()
        with pytest.raises(FitError, match="did not converge"):
            fit_scalar(self.model, self.slope, self.X, y, 5.0, "k", sigma=sigma)

    def test_nonfinite_step_raises(self):
        y = self.model(self.X, 0.8)
        with pytest.raises(FitError):
            fit_scalar(self.model, lambda x, k: np.full_like(x, np.nan), self.X, y,
                       1.0, "k")


class TestGaussNewton1d:
    """The search behind fit_scalar, the projection engine and the
    inversion's refinement, with one parameter on r = p - 10 (minimum at
    p = 10)."""

    @staticmethod
    def search(p0, slope=None, fails=math.inf, **kw):
        # Gauss-Newton on r = p - 10 from p0, where a trial above `fails`
        # fails; returns the search's result and every trial p
        seen = []
        log = kw.get("log", False)

        def residual(p):
            seen.append(p)
            return None if p > fails else (np.array([p - 10.0]), None)

        def gauss_newton_step(p, r, _):
            j = p if log else 1.0  # dr/dlog p or dr/dp
            return j * r[0], j * j
        kw = {"rel_step": 1e-12, "steps": 60, **kw}
        out = gauss_newton(residual, slope or gauss_newton_step, p0,
                              (np.array([p0 - 10.0]), None), np.zeros(1), **kw)
        return out, seen

    @pytest.mark.parametrize("log", [False, True], ids=["linear", "log"])
    def test_no_residual_outside_the_bracket(self, log):
        (p, r, _, converged, taken), seen = self.search(1.0, log=log,
                                                        bracket=(0.5, 4.0))
        assert seen and all(0.5 <= x <= 4.0 for x in seen)
        assert p == 4.0 and r.tolist() == [-6.0] and converged
        assert taken == len(seen)  # every trial was accepted

    def test_failed_trial_shrinks_the_bracket(self):
        # above 2.5 every trial fails: 10, 5.5 and 3.25 fail and halve the
        # step, 2.125 is accepted, and the next full step, again to 10,
        # stops at 3.25, the last failure, which is known and not evaluated
        # again; it halves to 2.6875, and no later trial goes beyond 3.25
        (p, _, _, converged, _), seen = self.search(1.0, fails=2.5)
        assert seen[:5] == [10.0, 5.5, 3.25, 2.125, 2.6875]
        assert len(seen) == len(set(seen))
        failed = [x for x in seen if x > 2.5]
        assert all(b <= a for a, b in zip(failed, failed[1:]))
        assert converged and 2.5 - 1e-9 < p <= 2.5

    def test_point_a_step_leaves_bounds_the_bracket(self):
        # 9 -> 10 is accepted; the next slope points back 4 to 6, but the
        # minimum cannot lie behind 9, which the step left: the trial stops
        # at 9, the known start, and the halved ones close in on 10
        slopes = iter([(-1.0, 1.0), (1.0, 0.25)])
        (p, _, _, converged, taken), seen = self.search(
            9.0, slope=lambda p, r, _: next(slopes))
        assert seen[:2] == [10.0, 9.5] and min(seen) == 9.5
        assert len(seen) == len(set(seen))
        assert (p, converged, taken) == (10.0, True, 1)

    def test_log_step_is_at_most_a_factor_e(self):
        # from 0.01 the log-space Gauss-Newton step is 999
        (p, _, _, converged, _), seen = self.search(0.01, log=True)
        assert seen[0] == pytest.approx(0.01 * math.e, rel=1e-15)
        assert converged and p == pytest.approx(10.0, rel=1e-12)

    def test_nonfinite_step_returns_the_last_accepted_point(self):
        slopes = iter([(-1.0, 1.0), (math.nan, 1.0)])
        (p, r, _, converged, taken), seen = self.search(
            1.0, slope=lambda p, r, _: next(slopes))
        assert (p, r.tolist(), converged, taken) == (2.0, [-8.0], False, 1)
        assert seen == [2.0]

    def test_step_budget_returns_not_converged(self):
        # h four times too large: each step covers a quarter of the way
        (p, _, _, converged, taken), seen = self.search(
            2.0, slope=lambda p, r, _: (r[0], 4.0), steps=3)
        assert not converged and taken == 3 and len(seen) == 3
        assert p == pytest.approx(10.0 - 8.0 * 0.75**3, rel=1e-15)


class TestGaussNewtonTwoParameters:
    """The same search on a tuple p, as the bath-free fit runs it: Newton
    steps -h^-1 g on r = (u1 - 3, u2 - 2, u1 + u2 - 5), linear in u = p, or
    in u2 = log p2 where the second flag is set."""

    @staticmethod
    def search(p0, log):
        seen = []
        J = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])  # dr/du

        def residual(p):
            seen.append(p)
            u = np.array([math.log(x) if lg else x for x, lg in zip(p, log)])
            return J @ u - [3.0, 2.0, 5.0], None
        out = gauss_newton(residual, lambda p, r, _: (r @ J, J.T @ J), p0, residual(p0),
                           np.zeros(3), rel_step=1e-12, steps=10, log=log)
        return out, seen[1:]

    def test_linear_residual_in_one_newton_step(self):
        (p, r, _, converged, taken), seen = self.search((0.0, 0.0), (False, False))
        assert seen == [(3.0, 2.0)] and p == (3.0, 2.0)
        assert r.tolist() == [0.0, 0.0, 0.0] and converged and taken == 1

    def test_log_step_is_at_most_a_factor_e(self):
        # the Newton step is 2 in log p2: the first trial moves p2 by e only
        (p, _, _, converged, _), seen = self.search((0.0, 1.0), (False, True))
        assert seen[0] == (3.0, pytest.approx(math.e, rel=1e-15))
        assert converged and p == pytest.approx((3.0, math.exp(2.0)), rel=1e-12)


def _noisy(y, scale, seed=3):
    return y + scale * np.random.default_rng(seed).normal(size=len(y))


def _boundary_fits():
    """name -> (x, y, sigma, fit(x, y, sigma)) for every public fit, on
    valid noisy data: the fits that take their input through fit_inputs."""
    two_pi = 2.0 * math.pi
    Omega0, omega_MW, bg = two_pi * 15.4e3, two_pi * 140e3, two_pi * 0.7e6 * 0.1985
    w = omega_MW - bg + np.linspace(-2.5, 2.5, 41) * Omega0
    t12, t80 = np.linspace(0.0, 4e-3, 12), np.linspace(0.2e-3, 40e-3, 80)
    E0, B = np.linspace(0.1, 6.0, 20) * CONST.k_B * 1.7e-6, np.linspace(0.0, 0.5, 15) * 1e-4
    x10 = np.linspace(0.0, 3.0, 10)
    X, y, sigma = line_data()
    return {
        "linear_fit": (X, y, sigma, lambda x, y, s: linear_fit(x, y, NAMES, sigma=s)),
        "fit_scalar": (x10, _noisy(np.exp(-0.8 * x10), 0.01), np.full(10, 0.01),
                       lambda x, y, s: fit_scalar(lambda x, k: np.exp(-k * x),
                                                  lambda x, k: -x * np.exp(-k * x),
                                                  x, y, 1.0, "k", sigma=s)),
        "fit_least_squares": (
            x10, _noisy(offset_decay(x10, 2.0, 0.3, 0.7), 0.01), np.full(10, 0.01),
            lambda x, y, s: fit_least_squares(decay_column, x, y, [1.0], ["a", "b", "k"],
                                              sigma=s, bounds=((0.0, np.inf), (0.0, np.inf)))),
        "fit_visibility_decay": (
            t12, _noisy(0.8 * np.exp(-(t12 / 2e-3) ** 2) + 0.05, 0.01), np.full(12, 0.01),
            lambda x, y, s: analysis.fit_visibility_decay(x, y, V_err=s)),
        "fit_phase_slope": (t12, _noisy(900.0 * t12 + 0.3, 0.02), np.full(12, 0.02),
                            lambda x, y, s: analysis.fit_phase_slope(x, y, 3e-3, Phi_err=s)),
        "fit_light_shift": (
            np.linspace(0.0, 1.2, 10), _noisy(two_pi * 1083.0 * np.linspace(0.0, 1.2, 10) + 1.0,
                                              5.0), np.full(10, 5.0),
            lambda x, y, s: calibration.fit_light_shift(x, y, delta_err=s)),
        "fit_zeeman": (B, _noisy(two_pi * 417.2e8 * B**2 + 2.0, 0.5), np.full(15, 0.5),
                       lambda x, y, s: calibration.fit_zeeman(x, y, delta_err=s)),
        "fit_bfield": (
            w, _noisy(calibration.rabi_lineshape(w, Omega0, bg, omega_MW), 0.01),
            np.full(41, 0.01),
            lambda x, y, s: calibration.fit_bfield(x, y, Omega0, omega_MW, p_err=s)[0]),
        "fit_release_curve": (E0, _noisy(calibration.release_curve(E0, 1.7e-6), 0.01),
                              np.full(20, 0.01),
                              lambda x, y, s: calibration.fit_release_curve(x, y, s)),
        "fit_no_bath_trace": (
            t80, _noisy(no_bath_trace(t80, 6.0, 2.0, two_pi * 135.0, 27.2e-3), 0.05),
            np.full(80, 0.05), lambda x, y, s: calibration.fit_no_bath_trace(x, y, N_err=s)),
    }


def _decay_and_slope(t, V, phi0, V_err, phi0_err):
    decay, Phi, slope, warnings = analysis.decay_and_slope(t, V, phi0, -500.0, V_err=V_err,
                                                  phi0_err=phi0_err)
    return repr((decay.to_dict(), Phi.tolist(), slope.to_dict(), warnings))


class TestFitInputs:
    """Every public fit takes x, y and sigma through `fitting.fit_inputs`:
    x, y or sigma one value short, and an x or y not finite, raise
    ValueError (short ones raised IndexError, or numpy's broadcast or
    np.interp message, in seven fits), and a scalar sigma is sigma at every
    point (it raised IndexError or TypeError in seven).  decay_and_slope
    also checks the phases and their errors before it masks by them."""

    FITS = _boundary_fits()
    T = np.linspace(0.0, 4e-3, 12)
    V = _noisy(0.8 * np.exp(-(T / 2e-3) ** 2) + 0.05, 0.01)
    PHI0 = _noisy(1200.0 * T + 0.3, 0.02) % (2.0 * math.pi)
    PHI0[4] = math.nan  # a fringe without phase

    @pytest.mark.parametrize("short", ["x", "y", "sigma"])
    @pytest.mark.parametrize("name", sorted(FITS))
    def test_one_value_short_rejected(self, name, short):
        x, y, s, fit = self.FITS[name]
        args = {"x": x, "y": y, "sigma": s}
        args[short] = args[short][:-1]
        with pytest.raises(ValueError, match="one value per point"):
            fit(args["x"], args["y"], args["sigma"])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("where", ["x", "y"])
    @pytest.mark.parametrize("name", sorted(FITS))
    def test_nonfinite_value_rejected(self, name, where, bad):
        x, y, s, fit = self.FITS[name]
        x, y = x.copy(), y.copy()
        (x if where == "x" else y)[3] = bad  # a row of linear_fit's design matrix
        with pytest.raises(ValueError, match="not finite"):
            fit(x, y, s)

    @pytest.mark.parametrize("name", sorted(FITS))
    def test_scalar_sigma_is_sigma_at_every_point(self, name):
        x, y, _, fit = self.FITS[name]
        assert repr(fit(x, y, 0.03).to_dict()) == repr(fit(x, y, np.full(len(y), 0.03)).to_dict())

    @pytest.mark.parametrize("short", ["t", "V", "phi0", "V_err", "phi0_err"])
    def test_decay_and_slope_one_value_short_rejected(self, short):
        args = {"t": self.T, "V": self.V, "phi0": self.PHI0,
                "V_err": np.full(12, 0.01), "phi0_err": np.full(12, 0.02)}
        args[short] = args[short][:-1]
        with pytest.raises(ValueError, match="one"):
            _decay_and_slope(**args)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    @pytest.mark.parametrize("where", ["t", "V"])
    def test_decay_and_slope_nonfinite_value_rejected(self, where, bad):
        args = {"t": self.T.copy(), "V": self.V.copy(), "phi0": self.PHI0,
                "V_err": None, "phi0_err": None}
        args[where][5] = bad
        with pytest.raises(ValueError, match="not finite"):
            _decay_and_slope(**args)

    def test_decay_and_slope_scalar_errors(self):
        got = _decay_and_slope(self.T, self.V, self.PHI0, 0.01, 0.02)
        assert got == _decay_and_slope(self.T, self.V, self.PHI0, np.full(12, 0.01),
                                       np.full(12, 0.02))
