"""Calibration procedures: microwave B-field spectroscopy, light-shift
slope and quadratic Zeeman fit (both linear, solved exactly), and
release-curve thermometry in closed form.  The B-field and release fits
are `fitting.gauss_newton` searches; the bath-free trace fit is the
package's one variable projection, `fitting.fit_least_squares`, linear in
(A, C) and searched in (delta, log T2) on its analytic Jacobian.  None
loads scipy.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import CONST, TWO_PI
from .fitting import (FitError, FitReport, distinct, fit_inputs, fit_least_squares,
                      fit_scalar, linear_fit)
from .ramsey import no_bath_trace

# linear Zeeman conversion for the Rb calibration transition
ZEEMAN_HZ_PER_G = 0.7e6
LIGHT_SHIFT_THEORY = TWO_PI * 1104.0  # rad/s per W
LIGHT_SHIFT_TOLERANCE = 0.05  # flagged relative deviation from the theory


def rabi_lineshape(omega_coil, Omega0: float, omega_bg: float, omega_MW: float):
    """Population transferred by a microwave pi pulse of duration pi/Omega0.

    With detuning D = omega_coil + omega_bg - omega_MW and generalized
    Rabi frequency W = sqrt(Omega0^2 + D^2), standard Rabi flopping gives
    p = Omega0^2/W^2 * sin^2(W * (pi/Omega0) / 2), written below as
    sin^2(0.5 * 2 pi W / (2 Omega0)).
    """
    if not (math.isfinite(Omega0) and Omega0 > 0.0):
        raise ValueError("Rabi frequency must be finite and positive")
    D = np.asarray(omega_coil, dtype=float) + omega_bg - omega_MW
    if not np.all(np.isfinite(D)):  # np.isfinite: omega_bg may be a complex step
        raise ValueError("coil, background and microwave frequencies must be finite")
    W = np.sqrt(Omega0**2 + D * D)
    pre = Omega0**2 / (W * W)
    out = pre * np.sin(0.5 * TWO_PI * W / (2.0 * Omega0)) ** 2
    return float(out) if out.ndim == 0 else out


def fit_bfield(omega_coil, p, Omega0: float, omega_MW: float,
               p_err=None) -> tuple[FitReport, float]:
    """Fit the microwave spectrum for omega_bg and resolve B_coil.

    Returns (report, B_coil in T) where B_coil solves
    omega_coil + omega_bg = omega_MW so that the total field equals the
    designated resonance field.  Requires the transfer peak to be
    bracketed by the scanned points.
    """
    omega_coil, p, _ = fit_inputs(omega_coil, p, p_err, at_least=5, what="spectrum")
    k = int(np.argmax(p))
    if k == 0 or k == len(p) - 1:
        raise ValueError("transfer peak not bracketed by the scan")

    def slope(w, bg):  # d rabi_lineshape / d bg = dp/dW * D/W; a = pi/(2 Omega0)
        D = w + bg - omega_MW
        W, a = np.sqrt(Omega0**2 + D * D), 0.5 * math.pi / Omega0
        return Omega0**2 * D / W**3 * (a * np.sin(2 * a * W) - 2 * np.sin(a * W)**2 / W)
    rep = fit_scalar(lambda w, bg: rabi_lineshape(w, Omega0, bg, omega_MW), slope,
                     omega_coil, p, omega_MW - omega_coil[k], "omega_bg",
                     sigma=p_err)
    omega_coil_res = omega_MW - rep.params["omega_bg"]
    B_coil = omega_coil_res / TWO_PI / ZEEMAN_HZ_PER_G * 1e-4  # G -> T
    return rep, B_coil


def fit_light_shift(P, delta, delta_err=None) -> FitReport:
    """Linear least squares of detuning vs beam power (intercept allowed).

    Flags the report when the slope deviates from the theoretical
    2 pi x 1104 Hz/W expectation by more than LIGHT_SHIFT_TOLERANCE.
    """
    if distinct(P) < 2:
        raise ValueError("need at least 2 distinct powers")
    rep = linear_fit(np.column_stack([P, np.ones_like(P)]), delta, ["slope", "intercept"],
                     sigma=delta_err, what="powers and detunings")
    dev = abs(rep.params["slope"] - LIGHT_SHIFT_THEORY) / LIGHT_SHIFT_THEORY
    if dev > LIGHT_SHIFT_TOLERANCE:
        rep.warnings.append(
            f"light-shift slope deviates {100*dev:.1f}% from the theory value")
    return rep


def fit_zeeman(B, delta, delta_err=None) -> FitReport:
    """Linear fit delta = a B^2 + c; a in rad/s/T^2, c in rad/s.

    The offset c absorbs the field-independent light shift.  The report
    also carries the coefficient in Hz/G^2 for comparison against the
    theory value.
    """
    if distinct(np.abs(B)) < 3:
        raise ValueError("need at least 3 distinct field magnitudes")
    rep = linear_fit(np.column_stack([np.square(B), np.ones_like(B)]), delta, ["a", "c"],
                     sigma=delta_err, what="fields and detunings")
    rep.params["a_hz_per_G2"] = rep.params["a"] / TWO_PI * 1e-8
    rep.errors["a_hz_per_G2"] = rep.errors["a"] / TWO_PI * 1e-8
    return rep


def _no_bath_column(t, p):
    """0.5 (1 - exp(-t^2/T2^2) cos(delta t)), A's column of `no_bath_trace`,
    and d(A column)/d(delta, T2) at p = (delta, T2)."""
    delta, T2 = p
    e = np.exp(-((t / T2) ** 2))
    ec = e * np.cos(delta * t)
    return 0.5 * (1.0 - ec), lambda A: np.column_stack(
        [0.5 * A * e * t * np.sin(delta * t), -A * ec * t**2 / T2**3])


def fit_no_bath_trace(t, N, N_err=None) -> FitReport:
    """Fit a bath-free Ramsey time trace for the background fringe.

    Model: N(t) = 0.5 A (1 - exp(-t^2/T2^2) cos(delta t)) + C with
    amplitude A >= 0, offset C, detuning delta (rad/s) and Gaussian
    dephasing time T2 (s): `fitting.fit_least_squares`' variable projection
    over (delta, log T2), from the dominant Fourier component and half the
    time span, with (A, C) solved exactly at each point.  The model is even
    in delta, so delta is reported as |delta|.
    """
    t, N, _ = fit_inputs(t, N, N_err, at_least=6, what="times and atom numbers")
    if np.any(np.diff(t) <= 0.0):
        raise ValueError("times must be strictly increasing")
    if N.max() == N.min():
        raise FitError("trace carries no oscillation")
    # dominant nonzero frequency of the mean-subtracted trace on a
    # uniform resampling of the time axis
    tu = np.linspace(t[0], t[-1], 4 * len(t))
    yu = np.interp(tu, t, N - N.mean())
    spec = np.abs(np.fft.rfft(yu))
    freqs = np.fft.rfftfreq(len(tu), tu[1] - tu[0])
    delta0 = TWO_PI * float(freqs[1 + np.argmax(spec[1:])])
    rep = fit_least_squares(_no_bath_column, t, N, [(delta0, 0.5 * float(t[-1] - t[0]))],
                            ("A", "C", "delta", "T2"), sigma=N_err,
                            bounds=((0.0, math.inf), (-math.inf, math.inf)), log=(False, True))
    rep.params["delta"] = abs(rep.params["delta"])
    return rep


def release_curve(E0, T: float):
    """Fraction of trapped atoms remaining at final trap depth E0.

    Cumulative 3D Maxwell-Boltzmann energy distribution, the regularized
    lower incomplete gamma function P(3/2, x) at x = E0 / kB T: for x >= 1
    erf(sqrt x) - 2 sqrt(x/pi) e^-x, and below that, where the difference
    cancels, the series e^-x sum_n x^(n+3/2) / Gamma(n+5/2) to n = 19.
    """
    if not (math.isfinite(T) and T > 0.0):
        raise ValueError("temperature must be finite and positive")
    E0 = np.asarray(E0, dtype=float)
    if not np.all(np.isfinite(E0) & (E0 >= 0.0)):
        raise ValueError("trap depth must be finite and nonnegative")
    x = E0 / (CONST.k_B * T)
    s, b, n = np.minimum(x, 1.0), np.maximum(x, 1.0), np.arange(20) + 1.5
    series = np.exp(-s) * (s[..., None] ** n / np.cumprod(n)).sum(-1) / math.gamma(1.5)
    closed = np.vectorize(math.erf)(np.sqrt(b)) - 2.0 * np.sqrt(b / math.pi) * np.exp(-b)
    out = np.where(x < 1.0, series, closed)
    return float(out) if out.ndim == 0 else out


def fit_release_curve(E0, fraction, fraction_err=None) -> FitReport:
    """One-parameter temperature fit of the release curve.

    Data sitting entirely near full retention carries no temperature
    information and is flagged as unbounded.
    """
    E0, fraction, _ = fit_inputs(E0, fraction, fraction_err, at_least=3, what="release curve")
    if np.min(fraction) > 0.95:
        return FitReport(params={"T": float("inf")}, errors={"T": float("nan")},
                         residual_norm=0.0, n_points=len(E0), converged=False,
                         warnings=["release curve saturated: temperature unbounded"])

    # depth at half retention sets the scale: P(3/2, x) = 0.5 at x ~ 1.16
    order = np.argsort(fraction)
    E_half = float(np.interp(0.5, fraction[order], E0[order]))
    T0 = max(E_half / (1.16 * CONST.k_B), 1e-9)

    def slope(E, T):  # d release_curve / dT
        x = E / (CONST.k_B * T)
        return -2.0 / math.sqrt(math.pi) * x**1.5 * np.exp(-x) / T
    return fit_scalar(release_curve, slope, E0, fraction, T0, "T",
                      sigma=fraction_err, log=True)
