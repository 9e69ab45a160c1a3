"""Shared least-squares machinery.

Every fit with errors ends in `fit_report`, which turns a solution, its
weighted Jacobian and its weighted residuals into a FitReport with 1-sigma
uncertainties from the local quadratic model (`standard_errors`).  Models
linear in every parameter go through `linear_fit`, an exact weighted
`lstsq`; nonlinear ones through `fit_least_squares`, a bounded damped
least-squares solver (scipy's trust-region reflective backend with
numerically estimated derivatives).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def least_squares(*args, **kwargs):
    """scipy.optimize.least_squares, imported on the first fit.

    Importing scipy.optimize takes about half a second, which every CLI
    verb would pay at start-up whether it fits or not.
    """
    from scipy.optimize import least_squares as solve
    return solve(*args, **kwargs)


class FitError(RuntimeError):
    """Raised when a fit fails to converge or the data is degenerate."""


@dataclass
class FitReport:
    """Outcome of a least-squares fit.

    params/errors are keyed by parameter name; `residual_norm` is the
    2-norm of the weighted residual vector at the solution.
    """

    params: dict
    errors: dict
    residual_norm: float
    n_points: int
    converged: bool
    warnings: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"params": self.params, "errors": self.errors,
                "residual_norm": self.residual_norm, "n_points": self.n_points,
                "converged": self.converged, "warnings": list(self.warnings)}


def standard_errors(jac, resid_var: float) -> np.ndarray:
    """1-sigma parameter errors sqrt(diag(resid_var * (J^T J)^+)).

    jac is the (weighted) residual Jacobian at the solution.  The
    pseudo-inverse drops singular values below eps * max(shape) * s_max,
    so a direction the data does not constrain gets error 0.
    """
    _, s, VT = np.linalg.svd(jac, full_matrices=False)
    tol = np.finfo(float).eps * max(jac.shape) * (s[0] if len(s) else 1.0)
    s_inv2 = np.where(s > tol, 1.0 / np.maximum(s, tol) ** 2, 0.0)
    cov = (VT.T * s_inv2) @ VT * resid_var
    return np.sqrt(np.clip(np.diag(cov), 0.0, None))


def fit_report(names, values, jac, resid, weighted: bool) -> FitReport:
    """FitReport of the least-squares solution `values`, given the residual
    Jacobian and residuals there.  The residual variance is 1 if they are
    weighted by 1/sigma, else r.r / dof."""
    dof = max(len(resid) - len(values), 1)
    resid_var = 1.0 if weighted else float(resid @ resid) / dof
    errs = standard_errors(jac, resid_var)
    return FitReport(params=dict(zip(names, map(float, values))),
                     errors=dict(zip(names, map(float, errs))),
                     residual_norm=float(np.linalg.norm(resid)),
                     n_points=len(resid), converged=True)


def linear_fit(X, y, names, sigma=None) -> FitReport:
    """Exact least-squares fit of y = X @ p, one X column per name in
    `names`; sigma, when given, weights the rows by 1/sigma."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ValueError("design matrix and data must be finite")
    if sigma is not None:
        sigma = np.asarray(sigma, dtype=float)
        if not np.all(np.isfinite(sigma) & (sigma > 0.0)):
            raise ValueError("sigma must be finite and positive")
    w = np.ones_like(y) if sigma is None else 1.0 / sigma
    Xw = X * w[:, None]
    yw = y * w
    coef, *_ = np.linalg.lstsq(Xw, yw, rcond=None)
    return fit_report(names, coef, Xw, Xw @ coef - yw, sigma is not None)


def fit_least_squares(model, x, y, p0, names, sigma=None,
                      bounds=None) -> FitReport:
    """Fit y = model(x, *p) by damped least squares.

    sigma, when given, weights residuals as (y - model)/sigma.  bounds is
    a (lower, upper) pair of sequences.  Raises FitError on
    non-convergence.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = None if sigma is None else 1.0 / np.asarray(sigma, dtype=float)

    def resid(p):
        r = model(x, *p) - y
        return r if w is None else r * w

    lb, ub = (-np.inf, np.inf) if bounds is None else bounds
    sol = least_squares(resid, np.asarray(p0, dtype=float), bounds=(lb, ub),
                        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
    if not sol.success:
        raise FitError(f"least-squares fit did not converge: {sol.message}")
    return fit_report(names, sol.x, sol.jac, sol.fun, sigma is not None)
