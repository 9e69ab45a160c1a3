"""Shared least-squares machinery.

Every fit with errors ends in `fit_report`, which turns a solution, its
weighted Jacobian and its weighted residuals into a FitReport with 1-sigma
uncertainties from the local quadratic model (`standard_errors`; a stack
of same-shaped fits takes one call).  Models linear in every parameter go
through `linear_fit`, an exact `lstsq`, one-parameter ones through
`fit_scalar`'s Gauss-Newton steps, and the rest (bath-free trace, decay
polish, bounded fringe fallback) through scipy's bounded trust-region
reflective solver in `fit_least_squares`, the only one that loads scipy,
with the model's analytic Jacobian or, without one, finite differences.
A parameter left on a bound is reported pinned, with error 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SCALAR_STEPS = 100  # Gauss-Newton steps of fit_scalar at most
SCALAR_REL_STEP = 1e-13  # relative step below which fit_scalar stops


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


def standard_errors(jac, resid_var) -> np.ndarray:
    """1-sigma parameter errors sqrt(resid_var * diag((J^T J)^+)).

    jac is the (weighted) residual Jacobian at the solution, or a stack
    (..., m, n) with one resid_var each; the diagonal is sum_k V_ik^2/s_k^2
    of J = U S V^T.  The pseudo-inverse drops singular values below
    eps * max(m, n) * s_max, so an unconstrained direction gets error 0.
    """
    _, s, VT = np.linalg.svd(jac, full_matrices=False)
    tol = np.finfo(float).eps * max(np.shape(jac)[-2:]) * s[..., :1]
    s_inv2 = np.where(s > tol, 1.0 / np.maximum(s, tol) ** 2, 0.0)
    var = np.einsum("...ki,...k->...i", VT * VT, s_inv2)
    return np.sqrt(var * np.asarray(resid_var)[..., None])


def fit_report(names, values, jac, resid, weighted: bool):
    """FitReport of the least-squares solution `values`, given the residual
    Jacobian and residuals there.  The residual variance is 1 if they are
    weighted by 1/sigma, else r.r / dof.  Stacked values (k, n), Jacobians
    (k, m, n) and residuals (k, m) give a list of k reports."""
    values, resid = np.asarray(values, dtype=float), np.asarray(resid, dtype=float)
    dof = max(resid.shape[-1] - values.shape[-1], 1)
    resid_var = 1.0 if weighted else np.einsum("...i,...i", resid, resid) / dof
    errs = standard_errors(jac, resid_var)
    reports = [FitReport(params=dict(zip(names, map(float, v))),
                         errors=dict(zip(names, map(float, e))),
                         residual_norm=float(np.linalg.norm(r)),
                         n_points=len(r), converged=True)
               for v, e, r in zip(np.atleast_2d(values), np.atleast_2d(errs),
                                  np.atleast_2d(resid))]
    return reports if values.ndim > 1 else reports[0]


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


def fit_scalar(model, jac, x, y, p0, name, sigma=None, log=False) -> FitReport:
    """Fit y = model(x, p) for one parameter p, given jac(x, p) = dmodel/dp,
    by Gauss-Newton steps -(j.r)/(j.j) on the weighted residual r (in log p
    with log, at most 1 each), halved while r.r rises by more than twice
    its rounding 2 eps |r|.|y/sigma|, up to a step of SCALAR_REL_STEP
    (relative).  Raises ValueError if r is not finite at p0, FitError at a
    step that is not finite or after SCALAR_STEPS steps."""
    y = np.asarray(y, dtype=float)
    w = np.ones_like(y) if sigma is None else 1.0 / np.asarray(sigma, dtype=float)
    p, r = float(p0), (model(x, p0) - y) * w
    if not math.isfinite(r @ r):
        raise ValueError(f"residuals are not finite at the start {name} = {p:g}")
    for _ in range(SCALAR_STEPS):
        j = jac(x, p) * w * (p if log else 1.0)
        step = -float(j @ r) / float(j @ j) if j @ j != 0.0 else 0.0
        step = min(max(step, -1.0), 1.0) if log else step
        if not math.isfinite(step):
            break
        tol = SCALAR_REL_STEP * (1.0 if log else abs(p))
        ceiling = r @ r + 4.0 * np.finfo(float).eps * (np.abs(r) @ np.abs(y * w))
        while True:
            p_t = p * math.exp(step) if log else p + step
            r_t = (model(x, p_t) - y) * w
            if r_t @ r_t <= ceiling or abs(step) <= tol:
                break
            step *= 0.5
        p, r = p_t, r_t
        if abs(step) <= tol:
            return fit_report([name], [p], (jac(x, p) * w)[:, None], r,
                              sigma is not None)
    raise FitError(f"{name} fit did not converge in {SCALAR_STEPS} steps")


def fit_least_squares(model, x, y, p0, names, sigma=None,
                      bounds=None, jac=None) -> FitReport:
    """Fit y = model(x, *p) by damped least squares.

    sigma, when given, weights residuals as (y - model)/sigma.  bounds is
    a (lower, upper) pair of sequences; jac(x, *p), when given, is the
    model's (len(x), len(p)) derivative.  A parameter left on a bound is
    pinned: error 0 (the others get the free-parameter covariance) and a
    warning naming it.  Raises FitError on non-convergence.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    w = np.ones_like(y) if sigma is None else 1.0 / np.asarray(sigma, dtype=float)
    lb, ub = (-np.inf, np.inf) if bounds is None else bounds
    sol = least_squares(lambda p: (model(x, *p) - y) * w,
                        np.asarray(p0, dtype=float), bounds=(lb, ub),
                        jac="2-point" if jac is None else
                        lambda p: np.asarray(jac(x, *p), dtype=float) * w[:, None],
                        xtol=1e-14, ftol=1e-14, gtol=1e-14, max_nfev=2000)
    if not sol.success:
        raise FitError(f"least-squares fit did not converge: {sol.message}")
    pinned = sol.active_mask != 0
    rep = fit_report(names, sol.x, np.where(pinned, 0.0, sol.jac), sol.fun,
                     sigma is not None)
    rep.warnings += [f"{name} pinned at a bound" for name, on in zip(names, pinned) if on]
    return rep
