"""Shared least-squares machinery.

Every fit with errors ends in `fit_report`, which turns a solution, its
weighted Jacobian (or a closed-form covariance diagonal) and its weighted
residuals into a FitReport with 1-sigma uncertainties from the local
quadratic model (`standard_errors`: the inverse of the Gram matrix in closed
form, `_covariance`, where it is well conditioned, else the SVD); every
fit's x, y and sigma pass `fit_inputs`.  Linear models go through
`linear_fit`, the normal equations solved by the same closed form (else
`lstsq`), one-parameter searches (and the projected ones of analysis)
through `gauss_newton_1d`, and the bath-free trace and the decay polish
through `fit_least_squares`, on `least_squares`, a bounded Levenberg-
Marquardt solver in numpy, always with the model's analytic Jacobian.  A
parameter left on a bound is reported pinned, with error 0.  No module
loads scipy, and `distinct` counts values without loading numpy.ma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

SCALAR_STEPS = 100  # Gauss-Newton steps of fit_scalar at most
SCALAR_REL_STEP = 1e-13  # relative step below which fit_scalar stops
LSQ_XTOL = 1e-14  # relative step below which least_squares stops
LSQ_MAX_NFEV = 2000  # residual evaluations of least_squares at most
_EPS4 = 4.0 * np.finfo(float).eps  # rounding of r.r: 2 * 2 eps |r|.|y|
MIN_DET = 1e-4  # scaled Gram determinant above which the closed form is used


class FitError(RuntimeError):
    """Raised when a fit fails to converge or the data is degenerate."""


def least_squares(fun, x0, *, bounds, jac, y):
    """Minimise r.r, r = fun(x), in the box bounds by bounded Levenberg-
    Marquardt (More 1978), with scipy's result fields x, fun, jac, nfev (every
    call of fun) and active_mask; jac(x) is the analytic dr/dx.  A parameter
    on a bound, its gradient pointing out, is held (Lawson & Hanson's active
    set; active_mask -1 lower, 1 upper); the step, damped in the free
    columns' norms, is solved on the rest, projected into the box and kept
    if it lowers r.r.  Stops when the undamped step lowers r.r by at most
    its rounding 4 eps |r|.|y| (y the weighted data) or moves x by at most
    LSQ_XTOL (LSQ_XTOL + |x|).  Raises ValueError for x0 outside the bounds
    or r not finite there, FitError after LSQ_MAX_NFEV evaluations."""
    x = np.array(x0, dtype=float)
    lb, ub = (np.asarray(b, dtype=float) for b in bounds)
    if not ((lb <= x) & (x <= ub)).all():
        raise ValueError("x0 is outside the bounds")
    r = np.asarray(fun(x), dtype=float)
    if not np.isfinite(r).all():
        raise ValueError("residuals are not finite at x0")
    edges = list(zip((lb + 0.0 * x).tolist(), (ub + 0.0 * x).tolist()))  # per parameter
    J, nfev, lam, done = jac(x), 1, 1e-3, False
    while True:
        active = [-1 if xk <= lo and gk > 0.0 else 1 if xk >= hi and gk < 0.0 else 0
                  for xk, gk, (lo, hi) in zip(x.tolist(), (J.T @ r).tolist(), edges)]
        if done:
            break
        free = [k == 0 for k in active]
        Jf, s = J[:, free], np.zeros_like(x)
        # column norms and |t - x| as np.linalg.norm sums them, same bits
        A = np.concatenate((Jf, np.diag(math.sqrt(lam) * np.sqrt(np.add.reduce(Jf * Jf, axis=0)))))
        s[free] = np.linalg.lstsq(A, np.concatenate((-r, np.zeros(Jf.shape[1]))), rcond=None)[0]
        t = (x + s).clip(lb, ub)
        dx = t - x
        if math.sqrt(dx @ dx) <= LSQ_XTOL * (LSQ_XTOL + math.sqrt(x @ x)):
            break
        if nfev >= LSQ_MAX_NFEV:
            raise FitError(f"no convergence in {LSQ_MAX_NFEV} residual evaluations")
        rt, nfev = np.asarray(fun(t), dtype=float), nfev + 1
        lowered = r @ r - rt @ rt  # NaN for a non-finite trial
        within = abs(lowered) <= _EPS4 * np.abs(r * y).sum()
        done = lam == 0.0 and within  # the undamped step gains only rounding
        if lowered > 0.0:
            x, r, lam = t, rt, 0.1 * lam if lam > 1e-3 else 0.0
            J = jac(x)
        else:  # a first trial within rounding: x0 is a minimum, so try undamped
            lam = 0.0 if within and nfev == 2 else max(10.0 * lam, 1e-3)
    return SimpleNamespace(x=x, fun=r, jac=J, nfev=nfev, active_mask=np.array(active))


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


def _adjugate(c):
    """(adj C, det C) of a symmetric 1 x 1, 2 x 2 or 3 x 3 C given as rows of
    floats: explicit products in one fixed order, no BLAS."""
    if len(c) == 1:
        return [[1.0]], c[0][0]
    if len(c) == 2:
        (a, b), (_, e) = c
        return [[e, -b], [-b, a]], a * e - b * b
    (a, b, d), (_, e, f), (_, _, k) = c
    u, v, w = e * k - f * f, d * f - b * k, b * f - d * e
    x, y, z = a * k - d * d, b * d - a * f, a * e - b * b
    return [[u, v, w], [v, x, y], [w, y, z]], a * u + b * v + d * w


def _covariance(J):
    """(J^T J)^-1 for the columns of J (m x n, n <= 3) in closed form, as rows
    of floats: the Gram matrix (one einsum, no BLAS) of the unit-scaled
    columns, C, inverted by its adjugate and scaled back.  A zero column, a
    pinned parameter, gets a zero row and column.  None for n > 3, and where
    det C <= MIN_DET: above it cond C <= 27/det C, so the inverse keeps its
    rounding below about 3e5 eps (relative)."""
    if J.shape[1] > 3:
        return None
    g = np.einsum("ki,kj->ij", J, J).tolist()
    s = [1.0 / math.sqrt(row[i]) if row[i] > 0.0 else 0.0 for i, row in enumerate(g)]
    adj, det = _adjugate([[1.0 if i == j else x * s[i] * s[j] for j, x in enumerate(row)]
                          for i, row in enumerate(g)])
    if not det > MIN_DET:
        return None
    return [[a / det * si * sj for a, sj in zip(row, s)] for row, si in zip(adj, s)]


def standard_errors(jac, resid_var) -> np.ndarray:
    """1-sigma parameter errors sqrt(resid_var * diag((J^T J)^-1)).

    jac is the (weighted) residual Jacobian at the solution.  The covariance
    comes in closed form (`_covariance`), else from the SVD of the live
    columns, J = U S V^T: sum_k V_ik^2 / s_k^2.  A zero column, a pinned
    parameter, gets error exactly 0; where the live columns are singular (an
    s_k at most eps max(m, n) s_1) their errors are NaN.
    """
    jac = np.asarray(jac, dtype=float)
    cov = _covariance(jac)
    if cov is not None:
        return np.sqrt(np.array([row[i] for i, row in enumerate(cov)]) * resid_var)
    live, var = jac.any(axis=0), np.zeros(jac.shape[1])
    _, s, VT = np.linalg.svd(jac[:, live], full_matrices=False)
    singular = (s[-1:] <= np.finfo(float).eps * max(jac.shape) * s[:1]).any()  # none live: no
    var[live] = math.nan if singular else np.einsum("ki,k->i", VT * VT, 1.0 / s**2)
    return np.sqrt(var * resid_var)


def fit_report(names, values, jac, resid, weighted: bool, var=None):
    """FitReport of the least-squares solution `values`, given the residual
    Jacobian and residuals there.  The residual variance is 1 if they are
    weighted by 1/sigma, else r.r / dof; var, given for jac = None, is a
    closed-form diag((J^T J)^-1).  Stacked values (k, n), residuals (k, m)
    and var (k, n) give a list of k reports, built in one pass."""
    values, resid = np.asarray(values, dtype=float), np.asarray(resid, dtype=float)
    n = values.shape[-1]
    resid_var = np.asarray(1.0 if weighted else np.einsum("...i,...i", resid, resid)
                           / max(resid.shape[-1] - n, 1))
    errs = standard_errors(jac, resid_var) if var is None else np.sqrt(var * resid_var[..., None])
    rr = resid[..., None, :] @ resid[..., :, None]  # np.linalg.norm's dot, not einsum's sum
    reports = [FitReport(dict(zip(names, v)), dict(zip(names, e)), r, resid.shape[-1], True)
               for v, e, r in zip(values.reshape(-1, n).tolist(), errs.reshape(-1, n).tolist(),
                                  np.sqrt(rr).ravel().tolist())]
    return reports if values.ndim > 1 else reports[0]


def distinct(x) -> int:
    """The number of distinct values in x, NaNs counted once, as np.unique
    counts them (whose first call imports numpy.ma)."""
    values = np.ravel(x).tolist()
    return len({v for v in values if v == v}) + any(v != v for v in values)


def weights(y, sigma, name="sigma") -> np.ndarray:
    """Row weights 1/sigma, or ones like y; refuses a sigma not finite and
    > 0, or not shaped like y (a scalar is the same sigma everywhere)."""
    if sigma is None:
        return np.ones_like(y)
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape not in ((), y.shape):
        raise ValueError(f"{name} needs one value per point or one for all, not {sigma.shape}")
    if not (np.isfinite(sigma) & (sigma > 0.0)).all():
        raise ValueError(f"{name} must be finite and positive")
    return 1.0 / np.broadcast_to(sigma, y.shape)


def fit_inputs(x, y, sigma=None, *, at_least, what):
    """A fit's x (one value or row per point) and y as float arrays, and
    their `weights`; refuses (ValueError, naming `what`) x, y or sigma
    without one value per point, fewer than at_least points and an x or y
    not finite."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    if y.ndim != 1 or x.shape[:1] != y.shape:
        raise ValueError(f"{what}: need one value per point, not {x.shape} and {y.shape}")
    if len(y) < at_least:
        raise ValueError(f"{what}: need at least {at_least} points, not {len(y)}")
    if not (np.isfinite(x).all() and np.isfinite(y).all()):
        raise ValueError(f"{what}: a value is not finite")
    return x, y, weights(y, sigma, f"{what}: sigma")


def linear_fit(X, y, names, sigma=None, *, what="design matrix and data") -> FitReport:
    """Exact least-squares fit of y = X @ p, one X column per name in `names`,
    rows weighted by 1/sigma if given (`what` names the data in refusals).  The
    normal equations are solved in closed form (`_covariance`), whose inverse
    gives the errors; where it declines, `lstsq` solves the system."""
    X, y, w = fit_inputs(X, y, sigma, at_least=len(names), what=what)
    Xw, yw = X * w[:, None], y * w
    cov = _covariance(Xw)
    if cov is None:
        coef = np.linalg.lstsq(Xw, yw, rcond=None)[0]
        return fit_report(names, coef, Xw, Xw @ coef - yw, sigma is not None)

    def solve(v):  # (Xw^T Xw)^-1 Xw^T v
        b = np.einsum("ki,k->i", Xw, v).tolist()
        return np.array([sum(c * x for c, x in zip(row, b)) for row in cov])
    coef = solve(yw)
    coef -= solve(np.einsum("ki,i->k", Xw, coef) - yw)  # one refinement: lstsq's accuracy
    return fit_report(names, coef, None, np.einsum("ki,i->k", Xw, coef) - yw,
                      sigma is not None, var=np.array([row[i] for i, row in enumerate(cov)]))


def gauss_newton_1d(residual, slope, p, at_p, y, *, rel_step, steps, log=False,
                    bracket=(-math.inf, math.inf)):
    """Minimise r.r over one parameter p by steps -g/h (in log p with log).

    residual(p) is (r, state), r weighted, or None where p fails; at_p is
    that pair at the start p, y the weighted data.  slope(p, r, state),
    asked at accepted points only, gives g = j.r and h (j.j for Gauss-Newton),
    j = dr/dp or dr/dlog p.  A step (at most 1 in log p) is clipped to the
    bracket and halved while r.r rises by more than its rounding
    2 * 2 eps |r|.|y|; failed or rising trials, and the points steps leave,
    bound the bracket.  Every evaluated point (the start too) is kept, so no
    p is evaluated twice.  Returns (p, r, state, converged, steps taken):
    not converged after a non-finite step or `steps` steps, converged at
    h = 0 or a step of at most rel_step (relative, or in log p).
    """
    (lo, hi), (r, state), seen, abs_y = bracket, at_p, {p: at_p}, np.abs(y)
    for taken in range(steps):
        g, h = slope(p, r, state)
        step = -float(g) / float(h) if h != 0.0 else 0.0
        if not math.isfinite(step):
            return p, r, state, False, taken
        step = min(max(step, -1.0), 1.0) if log else step
        tol = rel_step * (1.0 if log else abs(p))
        ceiling = r @ r + _EPS4 * (np.abs(r) @ abs_y)
        while True:
            t = p * math.exp(step) if log else p + step
            if not lo <= t <= hi:
                t = min(max(t, lo), hi)
                step = math.log(t / p) if log else t - p
            if abs(step) <= tol:
                return p, r, state, True, taken
            trial = seen[t] = seen[t] if t in seen else residual(t)
            if trial is not None and trial[0] @ trial[0] <= ceiling:
                break
            lo, hi = (lo, t) if t > p else (t, hi)
            step *= 0.5
        lo, hi = (p, hi) if t > p else (lo, p)
        p, (r, state) = t, trial
    return p, r, state, False, steps


def fit_scalar(model, jac, x, y, p0, name, sigma=None, log=False) -> FitReport:
    """Fit y = model(x, p) for one parameter p, given jac(x, p) = dmodel/dp,
    by `gauss_newton_1d` (in log p with log).  Raises ValueError if the
    residual is not finite at p0, FitError if the search does not converge."""
    x, y, w = fit_inputs(x, y, sigma, at_least=1, what="x and y")

    def residual(p):
        return (model(x, p) - y) * w, None

    def slope(p, r, _):
        j = jac(x, p) * w * (p if log else 1.0)
        return j @ r, j @ j
    at_p = residual(float(p0))
    if not math.isfinite(at_p[0] @ at_p[0]):
        raise ValueError(f"residuals are not finite at the start {name} = {p0:g}")
    p, r, _, converged, _ = gauss_newton_1d(
        residual, slope, float(p0), at_p, y * w, log=log,
        rel_step=SCALAR_REL_STEP, steps=SCALAR_STEPS)
    if not converged:
        raise FitError(f"{name} fit did not converge")
    return fit_report([name], [p], (jac(x, p) * w)[:, None], r, sigma is not None)


def fit_least_squares(model, x, y, p0, names, sigma=None, *, bounds, jac) -> FitReport:
    """Fit y = model(x, *p) by damped least squares (`least_squares`).

    sigma, when given, weights residuals as (y - model)/sigma.  bounds is
    a (lower, upper) pair of sequences; jac(x, *p) is the model's analytic
    (len(x), len(p)) derivative.  A parameter left on a bound is pinned:
    error 0 (the others get the free-parameter covariance) and a warning
    naming it.  Raises FitError on non-convergence.
    """
    x, y, w = fit_inputs(x, y, sigma, at_least=len(names), what="x and y")
    sol = least_squares(lambda p: (model(x, *p) - y) * w, p0, bounds=bounds,
                        jac=lambda p: jac(x, *p) * w[:, None], y=y * w)
    pinned = sol.active_mask != 0
    rep = fit_report(names, sol.x, np.where(pinned, 0.0, sol.jac), sol.fun,
                     sigma is not None)
    rep.warnings += [f"{name} pinned at a bound" for name, on in zip(names, pinned) if on]
    return rep
