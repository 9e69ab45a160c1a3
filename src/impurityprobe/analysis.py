"""Fringe extraction pipeline: normalization, per-time fringe fits,
visibility decay (T2), and interaction-phase slope (delta).

Fringes are fitted with A sin^2[(phi0 - phi)/2] + C, the whole
(times, phases) grid in one stacked solve of its weighted normal equations,
whose matrices give the errors in closed form.  The visibility,
V = A/(A + 2C), decays as V0 exp(-t^2/T2^2) + B.  Both models are linear in
a pair of coefficients at a fixed phi0 or T2, so the package's one
variable projection, `fitting.least_squares`, serves a fringe row whose
solution leaves the physical range (searching phi0, a coefficient on a
bound reported pinned) and the decay fit (searching log T2 through
`fitting.fit_least_squares`, whose projected minimum is the reported fit,
with its errors from the analytic Jacobian).  The interaction phase is
`np.unwrap` of the non-constant fringes' phase minus the background
delta_bg * t; its slope is `fitting.linear_fit` on [t, 1] for t below the
dephasing time, weighted if every fringe there has a phase error.  Every
fitted report is built by `fitting.fit_report`.  The steps after the fringe
fits are `decay_and_slope`, which the inversion's forward model runs on the
visibility and phase it reads from the coherence trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import TWO_PI
from .fitting import (FitError, FitReport, distinct, fit_inputs, fit_least_squares,
                      fit_report, least_squares, linear_fit, projection_report, weights)
from .ramsey import FringeSeries


def normalize_counts(N_bath, N0_max: float, N0_min: float):
    """Relative atom number (N_bath - N0_min) / (N0_max - N0_min)."""
    if not 0.0 <= N0_min < N0_max:
        raise ValueError("need N0_max > N0_min >= 0 for normalization")
    out = (np.asarray(N_bath, dtype=float) - N0_min) / (N0_max - N0_min)
    return float(out) if np.ndim(out) == 0 else out


def _fringe_normal(phi, W):
    """Rows W [1, cos phi, sin phi] of the linear fringe model, their N."""
    Xw = W[:, :, None] * np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)])
    return Xw, np.einsum("tki,tkj->tij", Xw, Xw)


def _fringe_variances(N, A, phi0):
    """diag(G N^-1 G^T), the (A, C, phi0) variances at per-time (A, phi0) of
    the linear fit with normal matrices N, G the Jacobian of A = 2 hypot(c1,
    c2), C = c0 - A/2, phi0 = atan2(-c2, -c1); phi0's is 0 where A = 0."""
    c, s, z = np.cos(phi0), np.sin(phi0), np.zeros_like(A)
    k = np.divide(2.0, A, out=z.copy(), where=A != 0.0)
    G = np.array([[z, -2.0 * c, -2.0 * s], [z + 1.0, c, s], [z, k * s, -k * c]])
    return np.einsum("ijt,tjk,ikt->ti", G, np.linalg.inv(N), G)


BOUNDED_FIT = "free fringe solution left A <= 2, 0 <= C <= 2: bounded fit"
CONSTANT_FIT = "constant fringe: amplitude pinned to zero"


def fit_fringe(phi, p, p_err=None):
    """Fit fixed-time fringes with A sin^2[(phi0 - phi)/2] + C.

    p is one fringe (one report) or a (times, phases) grid on the shared
    phi (one report per row); p_err has the shape of p, or is one value.  The model is
    linear in (A/2 + C, A cos phi0, A sin phi0), so the grid is one
    stacked solve of the 3x3 weighted normal equations, one system per
    row (weights 1/p_err, or 1 without p_err), with errors in (A, C, phi0)
    from the same normal matrices (`_fringe_variances`).  Two masks pick
    the rows that need more: a constant row returns a zero-amplitude
    report, and a row whose solution leaves A <= 2, 0 <= C <= 2 gets the
    bounded fit of `_bounded_fringe`, a projected search in phi0, and
    carries BOUNDED_FIT.  phi0 is reported in [0, 2 pi).
    """
    phi = np.asarray(phi, dtype=float)
    p = np.asarray(p, dtype=float)
    if len(phi) < 4 or distinct(phi) < 3:
        raise ValueError("need at least 4 phase points, 3 of them distinct")
    if not (np.isfinite(phi).all() and np.isfinite(p).all()):
        raise ValueError("phases and populations must be finite")
    if phi.max() - phi.min() <= math.pi:
        raise ValueError("phase points must span more than pi")
    P = np.atleast_2d(p)
    W = weights(p, p_err, "p_err").reshape(P.shape)

    # A sin^2[(phi0 - phi)/2] + C = (A/2 + C) - (A/2) cos(phi0) cos(phi)
    #                                         - (A/2) sin(phi0) sin(phi)
    Xw, N = _fringe_normal(phi, W)
    coef = np.linalg.solve(N, np.einsum("tki,tk->ti", Xw, P * W)[..., None])[..., 0]
    A = 2.0 * np.hypot(coef[:, 1], coef[:, 2])
    C = coef[:, 0] - 0.5 * A
    phi0 = np.arctan2(-coef[:, 2], -coef[:, 1]) % TWO_PI
    s2 = np.sin(0.5 * (phi0[:, None] - phi)) ** 2
    reports = fit_report(("A", "C", "phi0"), np.column_stack([A, C, phi0]), None,
                         (A[:, None] * s2 + C[:, None] - P) * W, p_err is not None,
                         var=_fringe_variances(N, A, phi0))
    constant = P.max(axis=1) == P.min(axis=1)
    bounded = ~constant & ~((A <= 2.0) & (0.0 <= C) & (C <= 2.0))
    for k in np.flatnonzero(constant):
        reports[k] = FitReport(
            params={"A": 0.0, "C": float(P[k, 0]), "phi0": 0.0},
            errors={"A": 0.0, "C": 0.0, "phi0": float("nan")},
            residual_norm=0.0, n_points=P.shape[1], converged=True,
            warnings=[CONSTANT_FIT])
    for k in np.flatnonzero(bounded):
        reports[k] = _bounded_fringe(phi, P[k], W[k], p_err is not None)
    return reports if p.ndim > 1 else reports[0]


def _bounded_fringe(phi, p, w, weighted) -> FitReport:
    """Bounded fit of one fringe, weights w: `fitting.least_squares` in
    phi0 with (A, C) in [0, 2] x [0, 2], from the data's Fourier phase."""

    def column(phi0):
        return w * np.sin(0.5 * (phi0 - phi)) ** 2, lambda A: 0.5 * A * w * np.sin(phi0 - phi)

    # the data's 1-cycle Fourier coefficient is -(A/2) e^{-i phi0}; the search
    # runs one period up, so its step tolerance is at least 2 pi PHI0_REL_STEP
    phi0 = float(-np.angle(-np.mean(p * np.exp(-1j * phi)))) % TWO_PI + TWO_PI
    sol = least_squares(column, [phi0], w, w * p, bounds=((0.0, 2.0), (0.0, 2.0)),
                        rel_step=PHI0_REL_STEP)
    sol.x[2] %= TWO_PI
    rep = projection_report(("A", "C", "phi0"), sol, weighted)
    rep.warnings.append(BOUNDED_FIT)
    return rep


def visibility(A, C):
    """Fringe visibility V = A / (A + 2C), elementwise; a float for scalars."""
    A, C = np.asarray(A, dtype=float), np.asarray(C, dtype=float)
    if (A < 0.0).any() or (C < 0.0).any():
        raise ValueError("amplitude and offset must be nonnegative")
    D = A + 2.0 * C
    if (D == 0.0).any():
        raise ValueError("degenerate fringe: A + 2C = 0")
    V = A / D
    return float(V) if V.ndim == 0 else V


def visibility_error(A, C, A_err, C_err):
    d = (A + 2.0 * C) ** 2
    return np.hypot(2.0 * C * A_err, 2.0 * A * C_err) / d


@dataclass
class VisibilitySeries:
    t: np.ndarray
    V: np.ndarray
    V_err: np.ndarray | None = None


def _decay_column(t, T2):
    """exp(-t^2/T2^2), the decay's column, and d(V0 exp(-t^2/T2^2))/dT2."""
    e = np.exp(-((t / T2) ** 2))
    return e, lambda V0: 2.0 * V0 * e * t**2 / T2**3


DECAY_REL_STEP = 1e-10  # step in log T2 below which the decay fit stops
PHI0_REL_STEP = 1e-13  # relative step in phi0 below which the bounded fringe fit stops
UNSEEN_DECAY = 0.99  # exp(-(t_max/T2)^2) above which the data cannot fix T2


def _crossing_guess(t, V):
    """(V0, T2, B) from the data: B its minimum, V0 the first point above
    it, T2 the first time V falls to B + V0/e."""
    B0 = max(float(V.min()), 0.0)
    V00 = max(float(V[0]) - B0, 1e-6)
    below = np.nonzero(V <= B0 + V00 / math.e)[0]
    T20 = float(t[below[0]]) if len(below) and t[below[0]] > 0 else float(np.median(t))
    return np.array([V00, T20, B0])


def fit_visibility_decay(t, V, V_err=None) -> FitReport:
    """Gaussian visibility decay fit V(t) = V0 exp(-t^2/T2^2) + B.

    The fit is `fitting.fit_least_squares`' bounded variable projection in
    log T2 from the first crossing of B + V0/e, with (V0, B) in [0, 2] x
    [0, 1], errors from the analytic Jacobian and any coefficient on a bound
    pinned.  With V0 = 0, r.r does not depend on T2, so a fit that ends
    there restarts from the data time with the lowest projected r.r, kept
    if it ends lower.  It warns where exp(-(t_max/T2)^2) > UNSEEN_DECAY.
    Constant visibility yields a 'no decay detected' report with T2
    infinite; a monotonically increasing series is rejected.
    """
    t, V, _ = fit_inputs(t, V, V_err, at_least=4, what="times and visibilities")
    if (t < 0.0).any():
        raise ValueError("times must be nonnegative")
    if V.max() - V.min() < 1e-12:
        return FitReport(params={"V0": 0.0, "T2": float("inf"), "B": float(V[0])},
                         errors={"V0": 0.0, "T2": float("nan"), "B": 0.0},
                         residual_norm=0.0, n_points=len(V), converged=True,
                         warnings=["no decay detected"])
    if (V[1:] >= V[:-1]).all():
        raise FitError("visibility increases monotonically: unphysical decay")

    def fit(starts):
        return fit_least_squares(_decay_column, t, V, starts, ("V0", "B", "T2"), sigma=V_err,
                                 bounds=((0.0, 2.0), (0.0, 1.0)), log=True,
                                 rel_step=DECAY_REL_STEP)
    rep = fit([_crossing_guess(t, V)[1]])
    if rep.params["V0"] == 0.0:
        again = fit(t[t > 0.0].tolist())
        rep = again if again.residual_norm < rep.residual_norm else rep
    rep.params, rep.errors = ({k: d[k] for k in ("V0", "T2", "B")} for d in (rep.params, rep.errors))
    if math.exp(-((t.max() / rep.params["T2"]) ** 2)) > UNSEEN_DECAY:
        rep.warnings.append(f"T2 = {rep.params['T2']:.3g} s is not constrained: the fitted "
                            f"decay is under 1% by t = {t.max():.3g} s")
    return rep


def extract_phase_series(t, phi0, delta_bg: float):
    """Interaction phase Phi(t) = unwrap(phi0(t)) - delta_bg * t.

    Unwrapping (`np.unwrap`) follows the nearest branch between
    consecutive times; a step whose wrapped magnitude exceeds pi/2 is
    branch-ambiguous and appends a warning.  t and phi0 pass `fit_inputs`:
    one finite phase per time.
    """
    t, phi0, _ = fit_inputs(t, phi0, at_least=0, what="times and phases")
    unwrapped = np.unwrap(phi0)
    steps = np.diff(unwrapped)
    warnings = [f"branch-ambiguous phase step of {steps[k]:.3f} rad at "
                f"t={t[k + 1]:.4g} s"
                for k in np.flatnonzero(np.abs(steps) > 0.5 * math.pi)]
    return unwrapped - delta_bg * t, warnings


def _errors_at(err, keep):
    """err (None, one for all points or one per point of the mask keep) at keep's points."""
    if np.ndim(err) == 0:
        return err
    err = np.asarray(err, dtype=float)
    if err.shape != keep.shape:
        raise ValueError(f"errors need one value per point or one for all, not {err.shape}")
    return err[keep]


def fit_phase_slope(t, Phi, T2: float, Phi_err=None) -> FitReport:
    """Weighted linear fit Phi = delta * t + const on the points t <= T2 and their errors."""
    t, Phi, _ = fit_inputs(t, Phi, at_least=0, what="times and phases")
    mask = t <= T2
    sigma = _errors_at(Phi_err, mask)
    if np.count_nonzero(mask) < 2:
        raise FitError("fewer than 2 phase points below the dephasing time")
    tm = t[mask]
    return linear_fit(np.column_stack([tm, np.ones_like(tm)]), Phi[mask],
                      ["delta", "intercept"], sigma=sigma)


@dataclass
class AnalysisResult:
    """Full pipeline output for one fringe dataset."""

    t: np.ndarray
    fringe_fits: list
    visibility: VisibilitySeries
    decay_fit: FitReport
    phase: np.ndarray
    slope_fit: FitReport | None
    warnings: list = field(default_factory=list)

    @property
    def T2(self) -> float:
        return self.decay_fit.params["T2"]

    @property
    def delta(self) -> float | None:
        return None if self.slope_fit is None else self.slope_fit.params["delta"]

    def to_dict(self) -> dict:
        return {
            "t_ms": (self.t * 1e3).tolist(),
            "fringe_fits": [f.to_dict() for f in self.fringe_fits],
            "visibility": self.visibility.V.tolist(),
            "visibility_err": (None if self.visibility.V_err is None
                               else self.visibility.V_err.tolist()),
            "decay_fit": self.decay_fit.to_dict(),
            "phase_rad": self.phase.tolist(),
            "slope_fit": None if self.slope_fit is None else self.slope_fit.to_dict(),
            "warnings": list(self.warnings),
        }


def analyze_fringes(series: FringeSeries, delta_bg: float,
                    phase_convention: str = "sin2") -> AnalysisResult:
    """Run the full extraction pipeline on a fringe dataset.

    phase_convention selects how fitted fringe phases map onto the
    accumulated phase Delta * t: "sin2" for data following the
    sin^2[(Delta t - phi)/2] convention, "cos2" for forward-engine data
    following cos^2[(Delta t + phi)/2] (mapped via phi0 -> -(phi0 + pi)).
    The slope window is the T2 estimated from this dataset's own
    visibility fit (two-pass pipeline).
    """
    if phase_convention not in ("sin2", "cos2"):
        raise ValueError("phase_convention must be 'sin2' or 'cos2'")
    warnings = []
    fits = fit_fringe(series.phi, series.p, p_err=series.p_err)
    for flag, text in ((BOUNDED_FIT, "bounded fringe fit"),
                       (CONSTANT_FIT, "constant fringe, no phase,")):
        at = [f"{t * 1e3:.6g}" for t, f in zip(series.t, fits) if flag in f.warnings]
        if at:
            warnings.append(f"{text} at t_ms = " + ", ".join(at))

    A, C, phi0 = np.array([[f.params[k] for k in ("A", "C", "phi0")]
                           for f in fits]).T
    V = visibility(A, C)
    V_err = phi0_err = None
    if series.p_err is not None:
        # V and phi0 take every fringe's unconstrained errors: a report
        # gives a pinned A or C error 0, but the data scatter about it
        N = _fringe_normal(series.phi, 1.0 / series.p_err)[1]
        A_err, C_err, phi0_err = np.sqrt(_fringe_variances(N, A, phi0)).T
        V_err = np.clip(visibility_error(A, C, A_err, C_err), 1e-6, None)
    if phase_convention == "cos2":
        phi0 = (-(phi0 + math.pi)) % TWO_PI
    phi0[np.array([CONSTANT_FIT in f.warnings for f in fits], dtype=bool)] = math.nan
    decay, Phi, slope, tail = decay_and_slope(series.t, V, phi0, delta_bg,
                                              V_err=V_err, phi0_err=phi0_err)
    return AnalysisResult(t=series.t, fringe_fits=fits,
                          visibility=VisibilitySeries(t=series.t, V=V, V_err=V_err),
                          decay_fit=decay, phase=Phi, slope_fit=slope,
                          warnings=warnings + tail)


def decay_and_slope(t, V, phi0, delta_bg: float, V_err=None, phi0_err=None):
    """The pipeline after its fringe fits: the decay fit of V, the
    interaction phase from the fringe phases phi0 (NaN where a fringe has
    none, which then stays NaN in Phi) and its slope below the fitted T2, or
    below t_max where T2 is infinite, weighted if every phase there has an
    error.  Returns (decay, Phi, slope, warnings), slope None, with a
    warning, where the window holds fewer than 2 phases.  phi0 and
    phi0_err (or a scalar) need one value per time."""
    decay = fit_visibility_decay(t, V, V_err=V_err)
    t, phi0 = np.asarray(t, dtype=float), np.asarray(phi0, dtype=float)
    if phi0.shape != t.shape:
        raise ValueError(f"need one fringe phase per time, not {phi0.shape}")
    warnings = list(decay.warnings)
    phased = ~np.isnan(phi0)
    err = _errors_at(phi0_err, phased)
    tp, Phi = t[phased], np.full(len(t), math.nan)
    Phi[phased], phase_warnings = extract_phase_series(tp, phi0[phased], delta_bg)
    warnings += phase_warnings
    slope = None
    T2 = decay.params["T2"]
    try:
        window = T2 if math.isfinite(T2) else float(t[-1])
        use = err is not None and np.all((err > 0) | (tp > window))
        slope = fit_phase_slope(tp, Phi[phased], window,  # weighted if every error > 0
                                Phi_err=err if use else None)
    except FitError as exc:
        warnings.append(f"phase slope not extracted: {exc}")
    return decay, Phi, slope, warnings
