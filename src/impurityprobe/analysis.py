"""Fringe extraction pipeline: normalization, per-time fringe fits,
visibility decay (T2), and interaction-phase slope (delta).

Fringes are fitted with A sin^2[(phi0 - phi)/2] + C, solved in closed
form as a linear least-squares problem (a bounded nonlinear fit runs only
where the free solution leaves the physical range); the visibility is
V = A/(A + 2C) and decays as V0 exp(-t^2/T2^2) + B, a nonlinear fit.  The
interaction phase is the unwrapped fringe phase minus the background
delta_bg * t; its slope is `fitting.linear_fit` on [t, 1] for t below the
dephasing time.  Every fitted report is built by `fitting.fit_report`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fitting import (FitError, FitReport, fit_least_squares, fit_report,
                      linear_fit)
from .ramsey import FringeSeries

TWO_PI = 2.0 * math.pi


def normalize_counts(N_bath, N0_max: float, N0_min: float):
    """Relative atom number (N_bath - N0_min) / (N0_max - N0_min)."""
    if N0_min < 0 or N0_max <= N0_min:
        raise ValueError("need N0_max > N0_min >= 0 for normalization")
    out = (np.asarray(N_bath, dtype=float) - N0_min) / (N0_max - N0_min)
    return float(out) if np.ndim(out) == 0 else out


def _fringe_model(phi, A, C, phi0):
    return A * np.sin(0.5 * (phi0 - phi)) ** 2 + C


BOUNDED_FIT = "free fringe solution left A <= 2, 0 <= C <= 2: bounded fit"


def fit_fringe(phi, p, p_err=None) -> FitReport:
    """Fit one fixed-time fringe with A sin^2[(phi0 - phi)/2] + C.

    The model is linear in (A/2 + C, A cos phi0, A sin phi0), so this is a
    weighted linear least-squares solve, with errors from the analytic
    Jacobian in (A, C, phi0).  Only when that solution leaves A <= 2,
    0 <= C <= 2 does a bounded nonlinear fit run, started from the
    1-cycle Fourier component, and the report then carries BOUNDED_FIT.
    Constant data returns a zero-amplitude report rather than an error;
    phi0 is reported in [0, 2 pi).
    """
    phi = np.asarray(phi, dtype=float)
    p = np.asarray(p, dtype=float)
    if len(phi) < 4:
        raise ValueError("need at least 4 phase points")
    if not (np.all(np.isfinite(phi)) and np.all(np.isfinite(p))):
        raise ValueError("phases and populations must be finite")
    if np.ptp(phi) <= math.pi:
        raise ValueError("phase points must span more than pi")
    w = np.ones_like(p)
    if p_err is not None:
        p_err = np.asarray(p_err, dtype=float)
        if not np.all(np.isfinite(p_err) & (p_err > 0.0)):
            raise ValueError("p_err must be finite and positive")
        w = 1.0 / p_err

    if np.ptp(p) == 0.0:
        return FitReport(params={"A": 0.0, "C": float(p[0]), "phi0": 0.0},
                         errors={"A": 0.0, "C": 0.0, "phi0": float("nan")},
                         residual_norm=0.0, n_points=len(p), converged=True,
                         warnings=["constant fringe: amplitude pinned to zero"])

    # A sin^2[(phi0 - phi)/2] + C = (A/2 + C) - (A/2) cos(phi0) cos(phi)
    #                                         - (A/2) sin(phi0) sin(phi)
    X = np.column_stack([np.ones_like(phi), np.cos(phi), np.sin(phi)]) * w[:, None]
    (c0, a, b), *_ = np.linalg.lstsq(X, p * w, rcond=None)
    A = 2.0 * math.hypot(a, b)
    C = float(c0) - 0.5 * A
    if A <= 2.0 and 0.0 <= C <= 2.0:
        phi0 = math.atan2(-b, -a) % TWO_PI
        s2 = np.sin(0.5 * (phi0 - phi)) ** 2
        jac = np.column_stack([s2, np.ones_like(phi),
                               0.5 * A * np.sin(phi0 - phi)]) * w[:, None]
        return fit_report(("A", "C", "phi0"), (A, C, phi0), jac,
                          (A * s2 + C - p) * w, p_err is not None)

    # the 1-cycle Fourier coefficient of the data is -(A/2) e^{-i phi0}
    c1 = 2.0 * np.mean(p * np.exp(-1j * phi))
    A0 = min(max(2.0 * abs(c1), 1e-6), 2.0)
    phi0_0 = float(np.angle(-c1)) % TWO_PI
    C0 = max(float(np.mean(p)) - 0.5 * A0, 1e-9)
    rep = fit_least_squares(_fringe_model, phi, p, p0=[A0, C0, phi0_0],
                            names=["A", "C", "phi0"], sigma=p_err,
                            bounds=([0.0, 0.0, phi0_0 - TWO_PI],
                                    [2.0, 2.0, phi0_0 + TWO_PI]))
    rep.params["phi0"] %= TWO_PI
    rep.warnings.append(BOUNDED_FIT)
    return rep


def visibility(A: float, C: float) -> float:
    """Fringe visibility V = A / (A + 2C)."""
    if A < 0.0 or C < 0.0:
        raise ValueError("amplitude and offset must be nonnegative")
    if A + 2.0 * C == 0.0:
        raise ValueError("degenerate fringe: A + 2C = 0")
    return A / (A + 2.0 * C)


def visibility_error(A, C, A_err, C_err) -> float:
    d = (A + 2.0 * C) ** 2
    return math.hypot(2.0 * C * A_err, 2.0 * A * C_err) / d


@dataclass
class VisibilitySeries:
    t: np.ndarray
    V: np.ndarray
    V_err: np.ndarray | None = None


def _decay_model(t, V0, T2, B):
    return V0 * np.exp(-((t / T2) ** 2)) + B


def fit_visibility_decay(t, V, V_err=None) -> FitReport:
    """Gaussian visibility decay fit V(t) = V0 exp(-t^2/T2^2) + B.

    Constant visibility yields a 'no decay detected' report with T2 set
    to infinity; a monotonically increasing series is rejected as
    unphysical.
    """
    t = np.asarray(t, dtype=float)
    V = np.asarray(V, dtype=float)
    if len(t) < 4:
        raise ValueError("need at least 4 time points")
    if np.any(t < 0.0):
        raise ValueError("times must be nonnegative")
    if np.ptp(V) < 1e-12:
        return FitReport(params={"V0": 0.0, "T2": float("inf"), "B": float(V[0])},
                         errors={"V0": 0.0, "T2": float("nan"), "B": 0.0},
                         residual_norm=0.0, n_points=len(V), converged=True,
                         warnings=["no decay detected"])
    if np.all(np.diff(V) >= 0.0):
        raise FitError("visibility increases monotonically: unphysical decay")

    B0 = max(float(np.min(V)), 0.0)
    V00 = max(float(V[0]) - B0, 1e-6)
    # first crossing of B + V0/e sets the T2 scale
    thresh = B0 + V00 / math.e
    below = np.nonzero(V <= thresh)[0]
    T20 = float(t[below[0]]) if len(below) and t[below[0]] > 0 else float(np.median(t))
    rep = fit_least_squares(_decay_model, t, V, p0=[V00, T20, B0],
                            names=["V0", "T2", "B"], sigma=V_err,
                            bounds=([0.0, 1e-12, 0.0], [2.0, np.inf, 1.0]))
    return rep


def extract_phase_series(t, phi0, delta_bg: float):
    """Interaction phase Phi(t) = unwrap(phi0(t)) - delta_bg * t.

    Unwrapping follows the nearest branch between consecutive times; a
    step whose wrapped magnitude exceeds pi/2 is branch-ambiguous and
    appends a warning.
    """
    t = np.asarray(t, dtype=float)
    phi0 = np.asarray(phi0, dtype=float)
    warnings = []
    unwrapped = np.array(phi0, dtype=float)
    for k in range(1, len(phi0)):
        step = (phi0[k] - unwrapped[k - 1] + math.pi) % TWO_PI - math.pi
        if abs(step) > 0.5 * math.pi:
            warnings.append(
                f"branch-ambiguous phase step of {step:.3f} rad at t={t[k]:.4g} s")
        unwrapped[k] = unwrapped[k - 1] + step
    return unwrapped - delta_bg * t, warnings


def fit_phase_slope(t, Phi, T2: float, Phi_err=None) -> FitReport:
    """Weighted linear fit Phi = delta * t + const restricted to t <= T2."""
    t = np.asarray(t, dtype=float)
    Phi = np.asarray(Phi, dtype=float)
    mask = t <= T2
    if np.count_nonzero(mask) < 2:
        raise FitError("fewer than 2 phase points below the dephasing time")
    tm = t[mask]
    return linear_fit(np.column_stack([tm, np.ones_like(tm)]), Phi[mask],
                      ["delta", "intercept"],
                      sigma=None if Phi_err is None else np.asarray(Phi_err)[mask])


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
    fits = []
    for k in range(len(series.t)):
        err = None if series.p_err is None else series.p_err[k]
        fits.append(fit_fringe(series.phi, series.p[k], p_err=err))
    bounded = [t for t, f in zip(series.t, fits) if BOUNDED_FIT in f.warnings]
    if bounded:
        warnings.append("bounded fringe fit at t_ms = "
                        + ", ".join(f"{t * 1e3:.6g}" for t in bounded))

    V = np.array([visibility(f.params["A"], f.params["C"]) for f in fits])
    V_err = None
    if series.p_err is not None:
        V_err = np.array([visibility_error(f.params["A"], f.params["C"],
                                           f.errors["A"], f.errors["C"])
                          for f in fits])
        V_err = np.clip(V_err, 1e-6, None)
    vis = VisibilitySeries(t=series.t, V=V, V_err=V_err)
    decay = fit_visibility_decay(series.t, V, V_err=V_err)
    warnings += decay.warnings

    phi0 = np.array([f.params["phi0"] for f in fits])
    if phase_convention == "cos2":
        phi0 = (-(phi0 + math.pi)) % TWO_PI
    Phi, phase_warnings = extract_phase_series(series.t, phi0, delta_bg)
    warnings += phase_warnings

    slope = None
    T2 = decay.params["T2"]
    try:
        window = T2 if math.isfinite(T2) else float(series.t[-1])
        phi0_err = np.array([f.errors["phi0"] for f in fits])
        use_err = (series.p_err is not None
                   and np.all(np.isfinite(phi0_err)) and np.all(phi0_err > 0))
        slope = fit_phase_slope(series.t, Phi, window,
                                Phi_err=phi0_err if use_err else None)
    except FitError as exc:
        warnings.append(f"phase slope not extracted: {exc}")

    return AnalysisResult(t=series.t, fringe_fits=fits, visibility=vis,
                          decay_fit=decay, phase=Phi, slope_fit=slope,
                          warnings=warnings)
