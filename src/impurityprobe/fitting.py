"""Shared least-squares machinery.

Every fit with errors ends in `fit_report`, which turns a solution, its
weighted Jacobian (or a closed-form covariance diagonal) and its weighted
residuals into a FitReport with 1-sigma uncertainties from the local
quadratic model (`standard_errors`: the inverse of the Gram matrix in closed
form, `_covariance`, where it is well conditioned, else the SVD); every
fit's x, y and sigma pass `fit_inputs`.  Linear models go through
`linear_solve`, the normal equations solved by the same closed form (else
`lstsq`), which `linear_fit` checks and reports, one-parameter models
through `fit_scalar`, and every model linear in two coefficients, alpha
a(p) + beta, through one nonlinear engine: `least_squares`, the bounded
variable projection (Golub & Pereyra; Kaufman's projected Jacobian) behind
the bounded fringe fit, the decay fit and the bath-free trace fit, checked
and reported by `fit_least_squares`.  The solves run without a report where
only their numbers are needed (the inversion's forward model).
All of them search with `gauss_newton`, on one parameter or a pair, always
with the model's analytic derivatives.  A coefficient left on a bound is
reported pinned, with error 0.  No module loads scipy, and `distinct`
counts values without loading numpy.ma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

SCALAR_STEPS = 100  # Gauss-Newton steps of fit_scalar at most
SCALAR_REL_STEP = 1e-13  # relative step below which fit_scalar stops
VP_STEPS = 50  # steps of a least_squares search at most
VP_REL_STEP = 1e-14  # least_squares' default step (relative, or in log p) at which it stops
_EPS4 = 4.0 * np.finfo(float).eps  # rounding of r.r: 2 * 2 eps |r|.|y|
MIN_DET = 1e-4  # scaled Gram determinant above which the closed form is used


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
    reports = [FitReport(dict(zip(names, v)), dict(zip(names, e)), r, resid.shape[-1], True)
               for v, e, r in zip(values.reshape(-1, n).tolist(), errs.reshape(-1, n).tolist(),
                                  residual_norms(resid).tolist())]
    return reports if values.ndim > 1 else reports[0]


def residual_norms(resid) -> np.ndarray:
    """sqrt(r.r) of each residual vector r of resid (m,) or (k, m), flat:
    np.linalg.norm's dot, not einsum's sum."""
    return np.sqrt(resid[..., None, :] @ resid[..., :, None]).ravel()


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
    rows weighted by 1/sigma if given (`what` names the data in refusals):
    `linear_solve`, reported by `linear_report`."""
    X, y, w = fit_inputs(X, y, sigma, at_least=len(names), what=what)
    return linear_report(names, *linear_solve(X, y, w), sigma is not None)


def linear_solve(X, y, w):
    """(Xw, yw, coef, cov): the rows of X and y weighted by w, the
    least-squares coef of Xw @ coef = yw and cov = (Xw^T Xw)^-1 as rows of
    floats.  The normal equations are solved in closed form (`_covariance`)
    with one refinement, lstsq's accuracy; where the closed form declines,
    `lstsq` solves the system and cov is None.  The callers check X, y, w."""
    Xw, yw = X * w[:, None], y * w
    cov = _covariance(Xw)
    if cov is None:
        return Xw, yw, np.linalg.lstsq(Xw, yw, rcond=None)[0], None

    def solve(v):  # (Xw^T Xw)^-1 Xw^T v
        b = np.einsum("ki,k->i", Xw, v).tolist()
        return np.array([sum(c * x for c, x in zip(row, b)) for row in cov])
    coef = solve(yw)
    coef -= solve(np.einsum("ki,i->k", Xw, coef) - yw)
    return Xw, yw, coef, cov


def linear_report(names, Xw, yw, coef, cov, weighted: bool) -> FitReport:
    """FitReport of `linear_solve`'s solution: the errors from cov, else
    from the SVD of Xw."""
    if cov is None:
        return fit_report(names, coef, Xw, Xw @ coef - yw, weighted)
    return fit_report(names, coef, None, np.einsum("ki,i->k", Xw, coef) - yw, weighted,
                      var=np.array([row[i] for i, row in enumerate(cov)]))


def gauss_newton(residual, slope, p, at_p, y, *, rel_step, steps, log=False,
                 bracket=(-math.inf, math.inf)):
    """Minimise r.r over p, a float or a pair of floats, by steps -h^-1 g
    (in log p with log, a flag per parameter for a pair).

    residual(p) is (r, state), r weighted, or None where p fails; at_p is
    that pair at the start p, y the weighted data.  slope(p, r, state),
    asked at accepted points only, gives g = J.r and h (J.J for Gauss-Newton),
    J = dr/dp or dr/dlog p: floats for a float p, else a vector and a 2 x 2
    matrix (`_newton_step`).  A step, at most 1 in each log p, is halved while r.r rises by more than its rounding
    2 * 2 eps |r|.|y|; for a float p it is also clipped to the bracket, and
    failed or rising trials, and the points steps leave, bound the bracket.
    Every evaluated point (the start too) is kept, so no p is evaluated
    twice.  Returns (p, r, state, converged, steps taken): not converged
    after a non-finite step or `steps` steps, converged at a singular h or a
    step of at most rel_step (relative, or in log p) in every parameter.
    """
    one = not isinstance(p, tuple)
    logs = (log,) if one else log
    (lo, hi), (r, state), seen, abs_y = bracket, at_p, {p: at_p}, np.abs(y)
    for taken in range(steps):
        step = _newton_step(*slope(p, r, state))
        if not all(map(math.isfinite, step)):
            return p, r, state, False, taken
        q = [p] if one else p
        step = [min(max(s, -1.0), 1.0) if lg else s for s, lg in zip(step, logs)]
        ceiling = r @ r + _EPS4 * (np.abs(r) @ abs_y)
        while True:
            t = [x * math.exp(s) if lg else x + s for x, s, lg in zip(q, step, logs)]
            if one and not lo <= t[0] <= hi:
                t[0] = min(max(t[0], lo), hi)
                step[0] = math.log(t[0] / p) if log else t[0] - p
            if all([abs(s) <= rel_step * (1.0 if lg else abs(x))
                    for x, s, lg in zip(q, step, logs)]):
                return p, r, state, True, taken
            t = t[0] if one else tuple(t)
            trial = seen[t] = seen[t] if t in seen else residual(t)
            if trial is not None and trial[0] @ trial[0] <= ceiling:
                break
            if one:
                lo, hi = (lo, t) if t > p else (t, hi)
            step = [0.5 * s for s in step]
        if one:
            lo, hi = (p, hi) if t > p else (lo, p)
        p, (r, state) = t, trial
    return p, r, state, False, steps


def _newton_step(g, h):
    """-h^-1 g by `_adjugate`, for floats or for a vector and a 2 x 2
    matrix, as a list of floats; zeros for a singular h."""
    g, h = (g.tolist(), h.tolist()) if isinstance(h, np.ndarray) else ([float(g)], [[float(h)]])
    adj, det = _adjugate(h)
    # each row's sum starts at -0.0, the identity of +, so a zero keeps its sign
    return [sum([-c * x for c, x in zip(row, g)], -0.0) / det if det != 0.0 else 0.0
            for row in adj]


def least_squares(column, starts, w, y, *, bounds, log=False, rel_step=VP_REL_STEP):
    """Variable projection (Golub & Pereyra) of weighted data y onto
    alpha a(p) + beta w, the package's nonlinear least-squares engine.

    column(p) gives the weighted column a and j(alpha) = dr/dp, (len(y),)
    for a float p, (len(y), 2) for a pair.  bounds gives the (lo, hi)
    box of alpha and of beta, which may be half-open.  At each p, (alpha,
    beta) is the exact least-squares solution in the box: the free one if it
    lies inside (alpha from a's and y's parts orthogonal to w, which do not
    cancel as a nears w), else the best edge (one coefficient held at a
    finite bound, the other clipped, which covers the corners).  A p fails
    where the system is singular.  `gauss_newton` searches p (log p where
    log) with `_projected_slope`, from the start with the lowest projected
    r.r, to rel_step or VP_STEPS steps; no step raises a numpy warning.
    Returns scipy's fields: x = (alpha, beta, *p), fun = r, jac = dr/dx,
    nfev (projections evaluated), active_mask (-1 for a coefficient on its
    lower bound, 1 on its upper) and success (converged).  Raises FitError
    if the system is singular at every start."""
    (la, ha), (lb, hb) = bounds
    ea, eb = (np.array([e for e in box if math.isfinite(e)]) for box in bounds)
    ww, wy = w @ w, w @ y
    yc = y - wy / ww * w  # y's part orthogonal to w
    one, nfev = not isinstance(starts[0], tuple), 0
    outer = (lambda x, z: x * z) if one else np.multiply.outer

    def project(p):  # the 2x2 algebra on floats, in one fixed order
        nonlocal nfev
        nfev += 1
        a, jac = column(p)
        aw = a @ w
        u = a - aw / ww * w
        uu = u @ u
        alpha = (u @ yc) / uu
        beta = (wy - aw * alpha) / ww
        if not (math.isfinite(alpha) and math.isfinite(beta)):  # singular
            return None
        if not (la <= alpha <= ha and lb <= beta <= hb):  # the best edge
            aa, ay = a @ a, a @ y
            edges = np.array([[*ea, *np.clip((ay - aw * eb) / aa, la, ha)],
                              [*np.clip((wy - aw * ea) / ww, lb, hb), *eb]]).T
            alpha, beta = edges[np.argmin(np.sum((edges @ [a, w] - y) ** 2, axis=1))]
        free = (la < alpha < ha, lb < beta < hb)
        # J_K.J_K is J.J less its projection on the free columns: w, and u
        # (orthogonal to w) or a alone
        c, J = u if all(free) else a, jac(alpha)
        wj, cj = w @ J, c @ J
        h = (J.T @ J - (outer(wj / ww, wj) if free[1] else 0.0)
             - (outer(cj / (c @ c), cj) if free[0] else 0.0))
        return alpha * a + beta * w - y, (alpha, beta, a, J, h)

    with np.errstate(all="ignore"):  # every value is checked
        at = [(p, s) for p in starts if (s := project(p)) is not None]
        if not at:
            raise FitError("the projection is singular or not finite at every start")
        p, s = min(at, key=lambda start: start[1][0] @ start[1][0])
        p, r, (alpha, beta, a, J, _), converged, _ = gauss_newton(
            project, _projected_slope(log, one, outer), p, s, y, log=log, rel_step=rel_step,
            steps=VP_STEPS)
    x = np.array([alpha, beta, *([p] if one else p)])
    return SimpleNamespace(
        x=x, fun=r, jac=np.column_stack([a, w, J]), nfev=nfev, success=converged,
        active_mask=np.array([int(c >= hi) - int(c <= lo) for c, (lo, hi) in
                              zip((alpha, beta), bounds)] + [0] * (len(x) - 2)))


def _projected_slope(log, one, outer):
    """`gauss_newton`'s slope for a projected search whose state ends in
    J = dr/dp and h = J_K.J_K, Kaufman's projected Jacobian J_K = J less its
    projection on the free linear columns: g = J.r, which is J_K.r, the exact
    gradient, as r is orthogonal to those columns, and h, both taken to log p
    where log.  For one parameter h serves the first step only, then the
    secant of g (in log p with log): with large residuals Gauss-Newton's h
    (no r . d2r) converges only linearly.  outer(x, z) is x z^T."""
    last = []  # p (or log p) and g at the previous accepted point

    def slope(p, r, state):
        s = (p if log else 1.0) if one else np.where(log, p, 1.0)
        g, h = (r @ state[-2]) * s, state[-1] * outer(s, s)
        if one:
            u = math.log(p) if log else p
            if last:
                secant = (g - last[1]) / (u - last[0])
                h = secant if secant > 0.0 else h
            last[:] = u, g
        return g, h
    return slope


def fit_scalar(model, jac, x, y, p0, name, sigma=None, log=False) -> FitReport:
    """Fit y = model(x, p) for one parameter p, given jac(x, p) = dmodel/dp,
    by `gauss_newton` (in log p with log).  Raises ValueError if the
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
    p, r, _, converged, _ = gauss_newton(
        residual, slope, float(p0), at_p, y * w, log=log,
        rel_step=SCALAR_REL_STEP, steps=SCALAR_STEPS)
    if not converged:
        raise FitError(f"{name} fit did not converge")
    return fit_report([name], [p], (jac(x, p) * w)[:, None], r, sigma is not None)


def fit_least_squares(column, x, y, starts, names, sigma=None, *, bounds, log=False,
                      rel_step=VP_REL_STEP) -> FitReport:
    """Fit y = alpha a(x, p) + beta by `least_squares` from the starts.

    column(x, p) gives a and j(alpha) = d(alpha a)/dp, which sigma, when
    given, weights with the residuals (y - model)/sigma; bounds are the
    boxes of alpha and beta, names those of (alpha, beta, *p); the report
    is `projection_report`'s.
    """
    x, y, w = fit_inputs(x, y, sigma, at_least=len(names), what="x and y")

    def weighted(p):
        a, jac = column(x, p)
        return w * a, lambda alpha: (jac(alpha).T * w).T
    return projection_report(names, least_squares(
        weighted if sigma is not None else lambda p: column(x, p), starts, w, y * w,
        bounds=bounds, log=log, rel_step=rel_step), sigma is not None)


def projection_report(names, sol, weighted) -> FitReport:
    """FitReport of a `least_squares` solution, names those of its x: a
    coefficient on a bound is pinned, with error 0 (the others get the
    free-parameter covariance) and a warning naming it; converged if the
    search is; `finite_solution` refuses it first."""
    pinned = finite_solution(names, sol).active_mask != 0
    rep = fit_report(names, sol.x, np.where(pinned, 0.0, sol.jac), sol.fun, weighted)
    rep.converged = sol.success
    rep.warnings += [f"{name} pinned at a bound" for name, on in zip(names, pinned) if on]
    return rep


def finite_solution(names, sol):
    """sol, a `least_squares` solution whose x has the names; raises
    FitError where r or dr/dx is not finite (a search stopped at a
    non-finite step)."""
    if not (np.isfinite(sol.fun).all() and np.isfinite(sol.jac).all()):
        raise FitError("the residual or its Jacobian is not finite at "
                       f"{dict(zip(names, sol.x.tolist()))}")
    return sol
