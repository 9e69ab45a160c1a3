"""Calibration procedures: microwave B-field spectroscopy, light-shift
slope, quadratic Zeeman fit, and release-curve thermometry.
"""

from __future__ import annotations

import math

import numpy as np

from .constants import CONST, TWO_PI
from .fitting import FitError, FitReport, fit_least_squares
from .thermal import zeeman_coefficient_hz_per_G2

# linear Zeeman conversion for the Rb calibration transition
ZEEMAN_HZ_PER_G = 0.7e6
LIGHT_SHIFT_THEORY = TWO_PI * 1104.0  # rad/s per W


def rabi_lineshape(omega_coil, Omega0: float, omega_bg: float, omega_MW: float):
    """Population transferred by a microwave pi pulse of duration pi/Omega0.

    With detuning D = omega_coil + omega_bg - omega_MW and generalized
    Rabi frequency W = sqrt(Omega0^2 + D^2), standard Rabi flopping gives
    p = Omega0^2/W^2 * sin^2(W * (pi/Omega0) / 2), written below as
    sin^2(0.5 * 2 pi W / (2 Omega0)).
    """
    if Omega0 <= 0.0:
        raise ValueError("Rabi frequency must be positive")
    D = np.asarray(omega_coil, dtype=float) + omega_bg - omega_MW
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
    omega_coil = np.asarray(omega_coil, dtype=float)
    p = np.asarray(p, dtype=float)
    if len(p) < 5:
        raise ValueError("need at least 5 spectrum points")
    k = int(np.argmax(p))
    if k == 0 or k == len(p) - 1:
        raise ValueError("transfer peak not bracketed by the scan")

    def model(w, omega_bg):
        return rabi_lineshape(w, Omega0, omega_bg, omega_MW)

    bg0 = omega_MW - omega_coil[k]
    rep = fit_least_squares(model, omega_coil, p, p0=[bg0],
                            names=["omega_bg"], sigma=p_err)
    omega_coil_res = omega_MW - rep.params["omega_bg"]
    B_coil = omega_coil_res / TWO_PI / ZEEMAN_HZ_PER_G * 1e-4  # G -> T
    return rep, B_coil


def fit_light_shift(P, delta, delta_err=None,
                    theory_tolerance: float = 0.05) -> FitReport:
    """Ordinary least squares of detuning vs beam power (intercept allowed).

    Flags the report when the slope deviates from the theoretical
    2 pi x 1104 Hz/W expectation by more than `theory_tolerance`.
    """
    P = np.asarray(P, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if len(np.unique(P)) < 2:
        raise ValueError("need at least 2 distinct powers")

    def model(x, slope, intercept):
        return slope * x + intercept

    rep = fit_least_squares(model, P, delta, p0=[0.0, float(np.mean(delta))],
                            names=["slope", "intercept"], sigma=delta_err)
    dev = abs(rep.params["slope"] - LIGHT_SHIFT_THEORY) / LIGHT_SHIFT_THEORY
    if dev > theory_tolerance:
        rep.warnings.append(
            f"light-shift slope deviates {100*dev:.1f}% from the theory value")
    return rep


def fit_zeeman(B, delta, delta_err=None) -> FitReport:
    """Quadratic fit delta = a B^2 + c; a in rad/s/T^2, c in rad/s.

    The offset c absorbs the field-independent light shift.  The report
    also carries the coefficient in Hz/G^2 for comparison against the
    theory value.
    """
    B = np.asarray(B, dtype=float)
    delta = np.asarray(delta, dtype=float)
    if len(np.unique(np.abs(B))) < 3:
        raise ValueError("need at least 3 distinct field magnitudes")

    def model(x, a, c):
        return a * x * x + c

    a0 = zeeman_coefficient_hz_per_G2() * TWO_PI * 1e8  # theory init, rad/s/T^2
    rep = fit_least_squares(model, B, delta, p0=[a0, float(np.mean(delta))],
                            names=["a", "c"], sigma=delta_err)
    rep.params["a_hz_per_G2"] = rep.params["a"] / TWO_PI * 1e-8
    rep.errors["a_hz_per_G2"] = rep.errors["a"] / TWO_PI * 1e-8
    return rep


def fit_no_bath_trace(t, N, N_err=None) -> FitReport:
    """Fit a bath-free Ramsey time trace for the background fringe.

    Model: N(t) = 0.5 A (1 - exp(-t^2/T2^2) cos(delta t)) + C with
    amplitude A, offset C, detuning delta (rad/s) and Gaussian dephasing
    time T2 (s).  Initial values come from the trace extrema and the
    dominant Fourier component.
    """
    t = np.asarray(t, dtype=float)
    N = np.asarray(N, dtype=float)
    if len(t) < 6:
        raise ValueError("need at least 6 trace points")
    span = float(N.max() - N.min())
    if span == 0.0:
        raise FitError("trace carries no oscillation")
    A0 = span
    C0 = float(N.min())
    # dominant nonzero frequency of the mean-subtracted trace on a
    # uniform resampling of the time axis
    tu = np.linspace(t[0], t[-1], 4 * len(t))
    yu = np.interp(tu, t, N - N.mean())
    spec = np.abs(np.fft.rfft(yu))
    freqs = np.fft.rfftfreq(len(tu), tu[1] - tu[0])
    delta0 = TWO_PI * float(freqs[1 + np.argmax(spec[1:])])
    if delta0 == 0.0:
        delta0 = TWO_PI / (t[-1] - t[0])
    T20 = 0.5 * (t[-1] - t[0])

    def model(x, A, C, delta, T2):
        return 0.5 * A * (1.0 - np.exp(-((x / T2) ** 2)) * np.cos(delta * x)) + C

    return fit_least_squares(
        model, t, N, p0=[A0, C0, delta0, T20],
        names=["A", "C", "delta", "T2"], sigma=N_err,
        bounds=([0.0, -np.inf, 0.0, 1e-9], [np.inf, np.inf, np.inf, np.inf]))


def release_curve(E0, T: float):
    """Fraction of trapped atoms remaining at final trap depth E0.

    Cumulative 3D Maxwell-Boltzmann energy distribution, the regularized
    lower incomplete gamma function gammainc(3/2, E0 / kB T).
    """
    if T <= 0.0:
        raise ValueError("temperature must be positive")
    E0 = np.asarray(E0, dtype=float)
    if np.any(E0 < 0.0):
        raise ValueError("trap depth must be nonnegative")
    from scipy.special import gammainc
    out = gammainc(1.5, E0 / (CONST.k_B * T))
    return float(out) if out.ndim == 0 else out


def fit_release_curve(E0, fraction, fraction_err=None) -> FitReport:
    """One-parameter temperature fit of the release curve.

    Data sitting entirely near full retention carries no temperature
    information and is flagged as unbounded.
    """
    E0 = np.asarray(E0, dtype=float)
    fraction = np.asarray(fraction, dtype=float)
    if len(E0) < 3:
        raise ValueError("need at least 3 release points")
    if np.min(fraction) > 0.95:
        return FitReport(params={"T": float("inf")}, errors={"T": float("nan")},
                         residual_norm=0.0, n_points=len(E0), converged=False,
                         warnings=["release curve saturated: temperature unbounded"])

    # depth at half retention sets the scale: gammainc(1.5, x)=0.5 at x~1.16
    order = np.argsort(fraction)
    E_half = float(np.interp(0.5, fraction[order], E0[order]))
    T0 = max(E_half / (1.16 * CONST.k_B), 1e-9)
    return fit_least_squares(release_curve, E0, fraction, p0=[T0], names=["T"],
                             sigma=fraction_err, bounds=([1e-12], [np.inf]))
