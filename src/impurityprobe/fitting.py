"""Shared least-squares machinery.

Nonlinear fits go through `fit_least_squares`, a bounded damped
least-squares solver (scipy's trust-region reflective backend with
numerically estimated derivatives) that returns a FitReport with 1-sigma
uncertainties from the local quadratic model.  Fits solved in closed form
(the fringe fit in `analysis`) take their uncertainties from the same
`standard_errors`.
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

    # covariance from the local quadratic model, J^T J
    dof = max(len(y) - len(sol.x), 1)
    resid_var = 2.0 * sol.cost / dof if sigma is None else 1.0
    errs = standard_errors(sol.jac, resid_var)

    return FitReport(params=dict(zip(names, map(float, sol.x))),
                     errors=dict(zip(names, map(float, errs))),
                     residual_norm=float(np.linalg.norm(resid(sol.x))),
                     n_points=len(y), converged=True)
