"""Inversion of the forward model: bath density from delta and/or T2,
bath temperature from T2, and collision-count diagnostics.

Inversions are pipeline-consistent: trial forward values are obtained by
synthesizing a noiseless signal and pushing it through the same fringe
analysis applied to the data, mirroring how the measured observables were
produced.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .analysis import analyze_fringes
from .bath import BathState
from .ramsey import (DENSITY_ORDER, ENERGY_ORDER, RamseyProtocol,
                     synthesize_fringe)
from .scattering import mean_a
from .thermal import effective_collision_temperature, mean_relative_speed

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
BRACKET_SAMPLES = 12  # coarse objective samples before the golden search
GOLDEN_REL_TOL = 1e-4  # relative bracket width at which the search stops


class InferenceError(RuntimeError):
    """Bracket or sensitivity failure during inversion."""

    def __init__(self, message, flag):
        super().__init__(message)
        self.flag = flag


@dataclass
class Posterior1D:
    """1D inversion result with its misfit curve."""

    estimate: float
    interval: tuple
    curve: list                      # (parameter, misfit) samples
    flags: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"estimate": self.estimate, "interval": list(self.interval),
                "curve": [[a, b] for a, b in self.curve], "flags": list(self.flags)}


def forward_observables(n0: float, T: float, model, protocol: RamseyProtocol,
                        density_order: int = DENSITY_ORDER,
                        energy_order: int = ENERGY_ORDER,
                        include_background: bool = True) -> dict:
    """Synthesize a noiseless signal and analyze it; returns {delta, T2}."""
    omega = 2.0 * math.pi * 100.0  # isotropic reference trap; measure is shape-free
    bath = BathState(n0=n0, T=T, omega_x=omega, omega_y=omega, omega_z=omega)
    series = synthesize_fringe(protocol, bath, model, noise=None,
                               density_order=density_order,
                               energy_order=energy_order,
                               include_background=include_background)
    res = analyze_fringes(series, delta_bg=protocol.delta_bg
                          if include_background else 0.0,
                          phase_convention="cos2")
    return {"delta": res.delta, "T2": res.T2}


def _golden_minimize(f, lo: float, hi: float):
    """Golden-section minimization with a coarse-sample bracket pass.

    Returns (x_min, f_min, samples) where samples holds the coarse
    objective curve.
    """
    xs = np.linspace(lo, hi, BRACKET_SAMPLES)
    fs = np.array([f(x) for x in xs])
    samples = list(zip(xs.tolist(), fs.tolist()))
    span = max(np.max(fs) - np.min(fs), 0.0)
    if span < 1e-10 * (1.0 + abs(float(np.min(fs)))):
        raise InferenceError("objective is flat over the bracket",
                             flag="insensitive")
    k = int(np.argmin(fs))
    if k == 0 or k == BRACKET_SAMPLES - 1:
        raise InferenceError("objective minimum not inside the bracket",
                             flag="bracket")
    a, b = xs[k - 1], xs[k + 1]
    c = b - GOLDEN * (b - a)
    d = a + GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > GOLDEN_REL_TOL * max(abs(a), abs(b)):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + GOLDEN * (b - a)
            fd = f(d)
        samples.append((float(c), float(fc)) if fc < fd else (float(d), float(fd)))
    x = 0.5 * (a + b)
    return float(x), float(f(x)), samples


def _interval_from_curve(x_min, f_min, samples, chi2: bool):
    """1-sigma interval from a local quadratic model of the misfit.

    With chi^2 misfits (chi2: uncertainties supplied) the interval is the
    f_min + 1 crossing; otherwise it scales with the residual misfit and
    collapses to ~0 width for a perfect noiseless fit.
    """
    xs = np.array([s[0] for s in samples])
    fs = np.array([s[1] for s in samples])
    # the refinement history clusters exponentially around the minimum;
    # keep the nearest samples but drop near-duplicates so the quadratic
    # fit stays well conditioned
    order = np.argsort(np.abs(xs - x_min))
    dx, fsel = [], []
    for i in order:
        d = xs[i] - x_min
        if all(abs(d - prev) > 0.3 * (abs(d) + abs(prev)) + 1e-300
               for prev in dx) or not dx:
            dx.append(d)
            fsel.append(fs[i])
        if len(dx) >= 7:
            break
    dx, fsel = np.array(dx), np.array(fsel)
    scale = float(np.max(np.abs(dx)))
    if scale == 0.0 or len(dx) < 3:
        return (x_min, x_min)
    try:
        coef = np.polyfit(dx / scale, fsel, 2)
        curv = max(coef[0] / scale**2, 0.0)
    except np.linalg.LinAlgError:
        curv = 0.0
    if curv <= 0.0:
        return (x_min, x_min)
    rise = 1.0 if chi2 else max(f_min, 1e-16)
    half = math.sqrt(rise / curv)
    return (x_min - half, x_min + half)


def _misfit(observed: dict, forward: dict, errors: dict) -> float:
    total = 0.0
    for key, obs in observed.items():
        fwd = forward.get(key)
        if fwd is None or not math.isfinite(fwd):
            total += 1e6
            continue
        if key in errors:
            total += ((fwd - obs) / errors[key]) ** 2
        else:
            total += ((fwd - obs) / obs) ** 2
    return total


def _invert(forward, observed: dict, errors: dict | None, bracket):
    """Minimise the misfit of forward(x), the observables at trial x, over
    bracket; returns the Posterior1D and forward memoized per x."""
    errors = {k: v for k, v in (errors or {}).items() if v is not None}
    unobserved = set(errors) - set(observed)
    if unobserved:
        raise ValueError(f"errors given for unobserved {sorted(unobserved)}")
    for key, obs in observed.items():
        err = errors.get(key)
        if not math.isfinite(obs):
            raise ValueError(f"observed {key} must be finite")
        if err is not None and not (math.isfinite(err) and err > 0.0):
            raise ValueError(f"error of {key} must be finite and positive")
        if obs == 0.0 and err is None:
            raise ValueError(f"observed {key} is 0: its misfit needs an error")
    forward = functools.cache(forward)
    x, fmin, samples = _golden_minimize(
        lambda x: _misfit(observed, forward(x), errors), bracket[0], bracket[1])
    # every error key is observed: the chi^2 rule needs one with an error
    interval = _interval_from_curve(x, fmin, samples, bool(errors))
    return Posterior1D(estimate=x, interval=interval, curve=samples), forward


def infer_density(observed: dict, T_known: float, model,
                  protocol: RamseyProtocol, errors: dict | None = None,
                  bracket=(0.05e19, 5.0e19),
                  density_order: int = DENSITY_ORDER,
                  energy_order: int = ENERGY_ORDER) -> Posterior1D:
    """Estimate the peak density n0 (m^-3) from observed delta and/or T2.

    observed maps observable names ("delta" in rad/s, "T2" in s) to
    values; errors optionally maps observed names to 1-sigma
    uncertainties (enabling a chi^2 interval), and None to no error.
    """
    observed = {k: v for k, v in observed.items() if v is not None}
    if not observed:
        raise ValueError("need at least one observable")
    if T_known <= 0.0:
        raise ValueError("known temperature must be positive")
    post, _ = _invert(lambda n0: forward_observables(
        n0, T_known, model, protocol, density_order=density_order,
        energy_order=energy_order), observed, errors, bracket)
    return post


def infer_temperature(T2_observed: float, n0_known: float, model,
                      protocol: RamseyProtocol, T2_error: float | None = None,
                      bracket=(100e-9, 1500e-9),
                      density_order: int = DENSITY_ORDER,
                      energy_order: int = ENERGY_ORDER) -> Posterior1D:
    """Estimate the bath temperature (K) from the observed T2 (s)."""
    if T2_observed <= 0.0:
        raise ValueError("observed T2 must be positive")
    post, forward = _invert(lambda T: forward_observables(
        n0_known, T, model, protocol, density_order=density_order,
        energy_order=energy_order), {"T2": T2_observed},
        None if T2_error is None else {"T2": T2_error}, bracket)
    # monotonicity of the forward curve over the bracket (coarse check); the
    # probe's end points are coarse-curve points, which the memo serves
    vals = [forward(T)["T2"] for T in np.linspace(bracket[0], bracket[1], 5)]
    diffs = np.diff(vals)
    if not (np.all(diffs > 0) or np.all(diffs < 0)):
        post.flags.append("forward T2(T) not monotone over the bracket")
    return post


def collision_counts(bath: BathState, model, T2: float,
                     T_Cs: float = 1.7e-6, B: float | None = None) -> tuple:
    """Elastic collision numbers (N_g, N_e) accumulated over one T2.

    N_i = <n> sigma_i v_rel T2 with sigma_i = 4 pi a_i^2, using the
    thermal-mean ground-state scattering length and the constant
    excited-state one; <n> is the impurity-sampled mean density and the
    relative speed uses the reduced-mass-weighted temperature of bath
    and impurity.  The field B defaults to the model's resonance position
    B0; a model without one (TabulatedModel) needs B given explicitly.
    """
    if T2 <= 0.0:
        raise ValueError("T2 must be positive")
    if B is None:
        if not hasattr(model, "B0"):
            raise ValueError("B is required for a model without a resonance "
                             "position B0")
        B = model.B0
    a_g_bar = mean_a(B, bath.T, model, order=1024)
    n_mean = bath.n0 / 2.0**1.5
    T_eff = effective_collision_temperature(bath.T, T_Cs)
    v_rel = mean_relative_speed(T_eff)
    N_g = n_mean * 4.0 * math.pi * a_g_bar**2 * v_rel * T2
    N_e = n_mean * 4.0 * math.pi * model.a_e**2 * v_rel * T2
    return N_g, N_e
