import numpy as np
import pytest

from impurityprobe.fitting import fit_report, linear_fit

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

    @pytest.mark.parametrize("where", ["X", "y"])
    def test_nonfinite_data_rejected(self, where):
        X, y, _ = line_data()
        (X[2] if where == "X" else y[2:3])[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            linear_fit(X, y, NAMES)


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
