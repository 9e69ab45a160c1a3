"""Inversion of the forward model: bath density from delta and/or T2,
bath temperature from T2, and collision-count diagnostics.

Inversions are pipeline-consistent: a trial's forward values are what the
fringe analysis applied to the data recovers from a noiseless signal.
`forward_observables` reads the fringes' visibility and phase straight
from the coherence trace (`ramsey.visibility_phase`) and runs the solves of
the analysis's own decay and slope fits on them
(`analysis.solve_decay_and_slope`: `analysis.decay_and_slope`'s numbers
without its reports), which agrees with synthesizing the grid and
analyzing it to round-off.
Each inversion checks that at its estimate: `pipeline_observables` runs
the full synthesis and analysis there once, and the posterior is flagged
if delta or T2 differs by more than PIPELINE_RTOL.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .analysis import analyze_fringes, solve_decay_and_slope
from .bath import BathState
from .fitting import gauss_newton
from .ramsey import (DENSITY_ORDER, ENERGY_ORDER, RamseyProtocol,
                     synthesize_fringe, visibility_phase)
from .scattering import mean_a
from .thermal import effective_collision_temperature, mean_relative_speed

BRACKET_SAMPLES = 12  # coarse misfit samples before the Gauss-Newton steps
GN_STEPS = 30  # Gauss-Newton steps at most
GN_REL_STEP = 1e-7  # relative step below which the refinement stops
SLOPE_REL_STEP = 1e-4  # relative forward-difference step of the slope
DENSITY_BRACKET = (0.05e19, 5.0e19)  # m^-3, searched by infer_density
TEMPERATURE_BRACKET = (100e-9, 1500e-9)  # K, searched by infer_temperature
T_CS = 1.7e-6  # K, impurity temperature in the collision counts
PIPELINE_RTOL = 1e-9  # relative shortcut-vs-pipeline gap flagged at the estimate


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
    curve: list                      # (parameter, misfit) at every forward call
    iterations: int = 0              # Gauss-Newton steps taken
    flags: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"estimate": self.estimate, "interval": list(self.interval),
                "curve": [[a, b] for a, b in self.curve],
                "iterations": self.iterations, "flags": list(self.flags)}


def forward_observables(n0: float, T: float, model, protocol: RamseyProtocol,
                        density_order: int = DENSITY_ORDER,
                        energy_order: int = ENERGY_ORDER) -> dict:
    """{delta, T2} that analyzing the noiseless signal, background included,
    would give, from the visibility and fringe phase of the coherence trace
    (`ramsey.visibility_phase`) through the solves of the analysis's
    unweighted decay and slope fits (`analysis.solve_decay_and_slope`):
    `pipeline_observables` to round-off, without the population grid, its
    fringe fits and any fit report."""
    V, phi0 = visibility_phase(protocol, BathState(n0=n0, T=T), model,
                               density_order=density_order,
                               energy_order=energy_order)
    T2, delta = solve_decay_and_slope(protocol.t, V, phi0, protocol.delta_bg)
    return {"delta": delta, "T2": T2}


def pipeline_observables(n0: float, T: float, model, protocol: RamseyProtocol,
                         density_order: int = DENSITY_ORDER,
                         energy_order: int = ENERGY_ORDER) -> dict:
    """Synthesize a noiseless signal, background included, and analyze it;
    returns {delta, T2}."""
    series = synthesize_fringe(protocol, BathState(n0=n0, T=T), model,
                               noise=None, density_order=density_order,
                               energy_order=energy_order)
    res = analyze_fringes(series, delta_bg=protocol.delta_bg,
                          phase_convention="cos2")
    return {"delta": res.delta, "T2": res.T2}


def _residuals(observed: dict, forward: dict, errors: dict) -> np.ndarray:
    """Scaled residuals (fwd - obs)/sigma, or /|obs| where no error is
    given; a missing or non-finite forward value counts 1e3.  The misfit is
    their sum of squares."""
    r = []
    for key, obs in observed.items():
        fwd = forward.get(key)
        if fwd is None or not math.isfinite(fwd):
            r.append(1e3)
        else:
            r.append((fwd - obs) / errors.get(key, abs(obs)))
    return np.array(r)


def _invert(forward, observed: dict, errors: dict | None, bracket, name: str):
    """Minimise the misfit of forward(x, forward_observables), the
    observables at trial x, over bracket, the range of the parameter
    `name`; returns the Posterior1D.

    One memo keeps the observables and scaled residuals at every x the
    forward model ran at (the curve).  A coarse scan brackets the lowest of
    its minima, `fitting.gauss_newton` refines it between the scan's
    neighbours of it, and the interval is x +- sqrt(rise/JtJ): the f_min + 1
    crossing of the locally quadratic chi^2 when an observed key has an
    error, else scaled by the residual misfit.  Where JtJ is so small that this
    half-width exceeds the searched bracket (a residual stationary at a
    nonzero value), the interval is the bracket and the posterior is
    flagged unbounded.  A refinement that stops unconverged (after GN_STEPS
    steps, or at a non-finite step) is flagged with the steps it took.  A
    single observable is flagged unreached if its residual has one sign at
    every memoized x, and reached more than once if it changes sign more
    than once on the coarse scan.  At the estimate, forward(x,
    pipeline_observables) runs the full pipeline once, and the posterior is
    flagged if its delta or T2 differs from the memo's by more than
    PIPELINE_RTOL (relative), or is None where the memo's is not.
    """
    errors = {k: v for k, v in (errors or {}).items() if v is not None}
    unobserved = set(errors) - set(observed)
    if unobserved:
        raise ValueError(f"errors given for unobserved {sorted(unobserved)}")
    for what, values in (("observed {}", observed), ("error of {}", errors)):
        for key, value in values.items():
            if not isinstance(value, numbers.Real):
                raise ValueError(f"{what.format(key)} must be a number, not {value!r}")
    if observed.get("T2", 1.0) <= 0.0:
        raise ValueError("observed T2 must be positive")
    for key, obs in observed.items():
        err = errors.get(key)
        if not math.isfinite(obs):
            raise ValueError(f"observed {key} must be finite")
        if err is not None and not (math.isfinite(err) and err > 0.0):
            raise ValueError(f"error of {key} must be finite and positive")
        if obs == 0.0 and err is None:
            raise ValueError(f"observed {key} is 0: its misfit needs an error")
    memo = {}  # x -> (observables, scaled residuals) at every forward call

    def residuals(x):
        if x not in memo:
            fwd = forward(x, forward_observables)
            memo[x] = fwd, _residuals(observed, fwd, errors)
        return memo[x][1]

    xs = np.linspace(bracket[0], bracket[1], BRACKET_SAMPLES).tolist()
    rs = [residuals(x) for x in xs]
    fs = np.array([r @ r for r in rs])
    if np.max(fs) - np.min(fs) < 1e-10 * (1.0 + abs(float(np.min(fs)))):
        raise InferenceError("objective is flat over the bracket",
                             flag="insensitive")
    k = int(np.argmin(fs))
    if k == 0 or k == BRACKET_SAMPLES - 1:
        raise InferenceError("objective minimum not inside the bracket",
                             flag="bracket")

    def slope(x, r, _):
        # forward difference: while delta is discontinuous in the bath
        # (ROADMAP defect 5) it sees only the continuous piece it lands on
        h = SLOPE_REL_STEP * x
        J = (residuals(x + h) - r) / h
        return J @ r, J @ J

    y = np.array([obs / errors.get(key, abs(obs)) for key, obs in observed.items()])
    x, r, _, converged, steps = gauss_newton(
        lambda x: (residuals(x), None), slope, xs[k], (rs[k], None), y,
        bracket=(xs[k - 1], xs[k + 1]), rel_step=GN_REL_STEP, steps=GN_STEPS)
    jtj = float(slope(x, r, None)[1])  # memoized, unless the steps ran out
    # every error key is observed: the chi^2 rule needs one with an error
    rise = 1.0 if errors else max(float(r @ r), 1e-16)
    half = math.sqrt(rise / jtj) if jtj > 0.0 else math.inf
    post = Posterior1D(estimate=x, interval=(x - half, x + half),
                       curve=sorted((x, float(r @ r)) for x, (_, r) in memo.items()),
                       iterations=steps)
    if not converged:
        post.flags.append(f"refinement not converged: stopped after {steps} Gauss-Newton "
                          f"steps (GN_STEPS = {GN_STEPS}) at {name} {x!r}")
    if half > bracket[1] - bracket[0]:
        post.interval = tuple(bracket)
        post.flags.append("interval unbounded: the residuals are stationary "
                          "at the estimate, so the interval is the searched "
                          "bracket")
    if len(observed) == 1:
        (key,) = observed
        if len({np.sign(r[0]) for _, r in memo.values()}) == 1:
            post.flags.append(f"observed {key} is not reached in the bracket: "
                              "every forward value lies on one side")
        side = np.sign(np.ravel(rs))  # on the coarse scan
        if np.count_nonzero(np.diff(side[side != 0])) > 1:
            post.flags.append(f"observed {key} is reached at more than one "
                              f"{name} in the bracket")
    full = forward(x, pipeline_observables)
    for key, value in memo[x][0].items():
        ref = full[key]
        if (value is None) != (ref is None) or (
                ref is not None and abs(value - ref) > PIPELINE_RTOL * abs(ref)):
            post.flags.append(f"pipeline check: {key} at the estimate is {ref!r} "
                              f"from synthesize_fringe + analyze_fringes but "
                              f"{value!r} from the coherence trace, more than "
                              f"PIPELINE_RTOL = {PIPELINE_RTOL:g} apart")
    return post


def infer_density(observed: dict, T_known: float, model,
                  protocol: RamseyProtocol, errors: dict | None = None,
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
    if not (math.isfinite(T_known) and T_known > 0.0):
        raise ValueError(f"infer_density: T_known = {T_known!r} must be finite and positive")
    return _invert(lambda n0, observables: observables(
        n0, T_known, model, protocol, density_order=density_order,
        energy_order=energy_order), observed, errors, DENSITY_BRACKET, "density")


def infer_temperature(T2_observed: float, n0_known: float, model,
                      protocol: RamseyProtocol, T2_error: float | None = None,
                      density_order: int = DENSITY_ORDER,
                      energy_order: int = ENERGY_ORDER) -> Posterior1D:
    """Estimate the bath temperature (K) from the observed T2 (s).

    T2(T) need not be monotone (it has a minimum near 230 nK at high
    density); the posterior is flagged when the coarse forward curve
    crosses the observed T2 more than once.
    """
    if not (math.isfinite(n0_known) and n0_known > 0.0):
        raise ValueError(f"infer_temperature: n0_known = {n0_known!r} must be finite and positive")
    return _invert(lambda T, observables: observables(
        n0_known, T, model, protocol, density_order=density_order,
        energy_order=energy_order), {"T2": T2_observed},
        None if T2_error is None else {"T2": T2_error}, TEMPERATURE_BRACKET,
        "temperature")


def collision_counts(bath: BathState, model, T2: float,
                     B: float | None = None) -> tuple:
    """Elastic collision numbers (N_g, N_e) accumulated over one T2.

    N_i = <n> sigma_i v_rel T2 with sigma_i = 4 pi a_i^2, using the
    thermal-mean ground-state scattering length and the constant
    excited-state one; <n> is the impurity-sampled mean density and the
    relative speed uses the reduced-mass-weighted temperature of the bath
    and of the impurity at T_CS.  The field B defaults to the model's
    resonance position B0; a model without one (TabulatedModel) needs B
    given explicitly.
    """
    if not T2 > 0.0:
        raise ValueError("T2 must be positive")
    if B is None:
        if not hasattr(model, "B0"):
            raise ValueError("B is required for a model without a resonance "
                             "position B0")
        B = model.B0
    a_g_bar = mean_a(B, bath.T, model, order=1024)
    n_mean = bath.n0 / 2.0**1.5
    T_eff = effective_collision_temperature(bath.T, T_CS)
    v_rel = mean_relative_speed(T_eff)
    N_g = n_mean * 4.0 * math.pi * a_g_bar**2 * v_rel * T2
    N_e = n_mean * 4.0 * math.pi * model.a_e**2 * v_rel * T2
    return N_g, N_e
