"""Forward synthesis of Ramsey interference signals.

The microscopic model averages cos^2(delta_Rb(n, B, E) t / 2 + phi / 2)
over the impurity-sampled density measure and the Maxwell-Boltzmann
collision-energy distribution.  Because the node average of
cos^2((theta + phi)/2) separates as
1/2 + (1/2)(<cos theta> cos phi - <sin theta> sin phi), the double
quadrature is computed once per evolution time, from a Taylor table of
the density average, and the full phase fringe follows analytically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bath import BathState, density_weight_measure, interaction_detuning
from .scattering import delta_a
from .thermal import mb_quadrature, QuadratureError

# default node budgets of the density and energy panel rules
DENSITY_ORDER = 384
ENERGY_ORDER = 512


@dataclass(frozen=True)
class RamseyProtocol:
    """Ramsey sequence parameters (SI units).

    t: free-evolution times, s, strictly increasing and nonnegative.
    phi: second-pulse phases, rad.
    B: magnetic field at the atoms, T.
    delta_bg: bath-independent detuning (light shift + quadratic Zeeman), rad/s.
    T2_bg: dephasing time without bath, s.
    Omega0: Rabi frequency of the pi/2 pulses, rad/s (metadata only; pulses
    are treated as ideal instantaneous rotations).
    """

    t: np.ndarray
    phi: np.ndarray
    B: float = 198.5e-7
    delta_bg: float = -2.0 * math.pi * 135.0
    T2_bg: float = 27.2e-3
    Omega0: float = 2.0 * math.pi * 15.4e3

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        scalars = (self.B, self.delta_bg, self.T2_bg, self.Omega0)
        if not all(np.all(np.isfinite(x)) for x in (t, phi, scalars)):
            raise ValueError("protocol parameters must be finite")
        if t.size and (np.any(t < 0.0) or np.any(np.diff(t) <= 0.0)):
            raise ValueError("times must be nonnegative and strictly increasing")
        if self.T2_bg <= 0.0:
            raise ValueError("T2_bg must be positive")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def default_grid(cls, t_max_ms: float = 12.0, n_t: int = 30,
                     phi_step_deg: float = 30.0, **kw) -> "RamseyProtocol":
        """Grid mirroring the measurement: t in [0.1, t_max] ms, phases
        every `phi_step_deg` degrees over [0, 360)."""
        t = np.geomspace(0.1e-3, t_max_ms * 1e-3, n_t)
        phi = np.deg2rad(np.arange(0.0, 360.0, phi_step_deg))
        return cls(t=t, phi=phi, **kw)


@dataclass
class FringeSeries:
    """Populations on a rectangular (t, phi) grid."""

    t: np.ndarray          # s, shape (Nt,)
    phi: np.ndarray        # rad, shape (Nphi,)
    p: np.ndarray          # shape (Nt, Nphi), values in [0, 1]
    p_err: np.ndarray | None = None
    source_hash: str | None = None  # SHA-256 of the CSV it was read from

    def __post_init__(self):
        if self.p.shape != (len(self.t), len(self.phi)):
            raise ValueError("population grid shape mismatch")


def fringe_closed_form(t, phi, Delta: float, T2: float):
    """Phenomenological Ramsey fringe with Gaussian dephasing.

    p = 1/2 + (sin^2[(Delta t - phi)/2] - 1/2) exp(-t^2 / T2^2)
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be nonnegative")
    if T2 <= 0.0:
        raise ValueError("T2 must be positive")
    env = np.exp(-((t / T2) ** 2))
    out = 0.5 + (np.sin(0.5 * (Delta * t - np.asarray(phi))) ** 2 - 0.5) * env
    return float(out) if np.ndim(out) == 0 else out


def detuning_nodes(bath: BathState, model, B: float,
                   density_order: int = DENSITY_ORDER,
                   energy_order: int = ENERGY_ORDER):
    """Factored detuning rule delta_ij = x_j s_i with weights wn_i wE_j.

    Returns (s, wn, x, wE): the density fractions s = n / n0 in (0, 1]
    with their weights, and the peak-density detunings
    x = delta_Rb(n0, B, E_j) with the energy weights; each weight vector
    sums to 1.  Both factors use composite panel rules: the integrand
    oscillates at long evolution times, which global Gauss rules cannot
    track.
    """
    n, wn = density_weight_measure(bath, order=density_order)
    E, wE = mb_quadrature(bath.T, order=energy_order)
    x = interaction_detuning(bath.n0, delta_a(B, E, model))
    return n / bath.n0, wn, x, wE


# Taylor terms per table row: with s <= 1 and |d| <= 1/2 the first term
# left out is at most (1/2)^14 / 14! ~ 7e-16.
_TAYLOR_TERMS = 14
_INV_FACTORIALS = 1.0 / np.cumprod([1.0, *range(1, _TAYLOR_TERMS)])
# table rows built per block, so the (rows, Nd) trig matrices stay small
_ROW_BLOCK = 64


def _coherence_trace(ts, s, wn, x, wE):
    """<cos(delta t)>, <sin(delta t)> over the rule delta_ij = x_j s_i.

    Returns two arrays shaped like the array `ts`.  The density average
    g(q) = sum_i wn_i exp(i q s_i) is read from a Taylor table on integer
    q: row m holds c_mk = sum_i wn_i s_i^k exp(i m s_i) / k!, and
    g(m + d) = sum_k c_mk (i d)^k for |d| <= 1/2; g(-q) = conj g(q)
    covers x < 0.  Then <exp(i delta t)> = sum_j wE_j g(x_j t).  Only the
    rows the queries use are built.  Every sum is an einsum loop, not
    BLAS, so the bits depend neither on the BLAS thread count nor on the
    other times in the call.
    """
    q = np.abs(np.multiply.outer(ts, x))
    m = np.rint(q)
    d = q - m
    rows, row_of = np.unique(m, return_inverse=True)
    row_of = row_of.reshape(q.shape)
    moments = (s[None, :] ** np.arange(_TAYLOR_TERMS)[:, None]
               * wn[None, :] * _INV_FACTORIALS[:, None])
    re, im = np.empty((2, rows.size, _TAYLOR_TERMS))
    for b in range(0, rows.size, _ROW_BLOCK):
        phase = np.multiply.outer(rows[b:b + _ROW_BLOCK], s)
        re[b:b + _ROW_BLOCK] = np.einsum("ri,ki->rk", np.cos(phase), moments)
        im[b:b + _ROW_BLOCK] = np.einsum("ri,ki->rk", np.sin(phase), moments)
    # Horner in i d: (gr + i gi) i d + c = (c_r - gi d) + i (c_i + gr d)
    gr, gi = re[row_of, -1], im[row_of, -1]
    for k in range(_TAYLOR_TERMS - 2, -1, -1):
        gr, gi = re[row_of, k] - gi * d, im[row_of, k] + gr * d
    return (np.einsum("...j,j->...", gr, wE),
            np.einsum("...j,j->...", gi, np.where(x < 0.0, -wE, wE)))


def ramsey_population(t, phi, bath: BathState, model, protocol: RamseyProtocol,
                      density_order: int = DENSITY_ORDER,
                      energy_order: int = ENERGY_ORDER,
                      include_background: bool = False,
                      nodes=None, check_convergence: bool = False):
    """Ground-state population of the microscopic dephasing model.

    Averages cos^2(delta_Rb t / 2 + phi / 2) over the density measure and
    the collision-energy distribution.  t and phi broadcast against each
    other (t[:, None] with phi[None, :] gives a (t, phi) grid); the node
    average is taken once per element of t.  Two scalars return a float.
    With include_background=True the oscillatory part is additionally
    damped by exp(-t^2/T2_bg^2) and the phase shifted by delta_bg * t.

    `nodes` may supply a factored rule from detuning_nodes, or any
    (delta, weights) pair of equal shape, e.g. a degenerate single-node
    measure, which is read as one density fraction s = 1.  Otherwise the
    nodes come from detuning_nodes, and check_convergence=True repeats
    the average at twice the density and twice the energy order:
    QuadratureError is raised if <cos>, <sin> move by more than 1e-4 at
    any time, else the refined values are used.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if np.any(ts < 0.0):
        raise ValueError("time must be nonnegative")
    refine = check_convergence and nodes is None
    if nodes is None:
        nodes = detuning_nodes(bath, model, protocol.B,
                               density_order=density_order,
                               energy_order=energy_order)
    elif len(nodes) == 2:
        delta, w = (np.asarray(a, dtype=float).ravel() for a in nodes)
        nodes = (np.ones(1), np.ones(1), delta, w)
    C, S = _coherence_trace(ts, *nodes)
    if refine:
        C2, S2 = _coherence_trace(ts, *detuning_nodes(
            bath, model, protocol.B, density_order=2 * density_order,
            energy_order=2 * energy_order))
        if np.max(np.hypot(C2 - C, S2 - S)) > 1e-4:
            raise QuadratureError("Ramsey quadrature not converged")
        C, S = C2, S2
    phase = np.asarray(phi, dtype=float)
    env = 1.0
    if include_background:
        phase = phase + protocol.delta_bg * ts
        env = np.exp(-((ts / protocol.T2_bg) ** 2))
    out = 0.5 + 0.5 * env * (C * np.cos(phase) - S * np.sin(phase))
    if np.ndim(t) == 0 and np.ndim(phi) == 0:
        return float(out.reshape(-1)[0])
    return out


def population_grid(protocol: RamseyProtocol, bath: BathState, model,
                    density_order: int = DENSITY_ORDER,
                    energy_order: int = ENERGY_ORDER,
                    include_background: bool = True,
                    check_convergence: bool = False) -> np.ndarray:
    """Noiseless population over the protocol's full (t, phi) grid."""
    return ramsey_population(protocol.t[:, None], protocol.phi[None, :],
                             bath, model, protocol,
                             density_order=density_order,
                             energy_order=energy_order,
                             include_background=include_background,
                             check_convergence=check_convergence)


def noise_trials(noise: dict) -> int:
    """Binomial trials per grid cell of a noise spec, which must be exactly
    {"atoms_per_shot": n, "repetitions": m} with positive integers n, m."""
    if not (isinstance(noise, dict) and set(noise) == {"atoms_per_shot", "repetitions"}
            and all(type(v) is int and v > 0 for v in noise.values())):
        raise ValueError("noise must be null or {atoms_per_shot, repetitions} "
                         f"with positive integer values, not {noise!r}")
    return noise["atoms_per_shot"] * noise["repetitions"]


def synthesize_fringe(protocol: RamseyProtocol, bath: BathState, model,
                      noise: dict | None = None, seed: int = 0,
                      density_order: int = DENSITY_ORDER,
                      energy_order: int = ENERGY_ORDER,
                      include_background: bool = True) -> FringeSeries:
    """Synthesize a FringeSeries, optionally with binomial counting noise.

    noise = {"atoms_per_shot": int, "repetitions": int} replaces each
    population by a binomial draw over atoms_per_shot * repetitions
    trials.  Each grid cell draws from its own RNG, seeded by
    (seed, it, iphi), so a seeded noisy CSV stays byte-stable.
    """
    trials = None if noise is None else noise_trials(noise)
    p = population_grid(protocol, bath, model, density_order=density_order,
                        energy_order=energy_order,
                        include_background=include_background)
    p_err = None
    if trials is not None:
        draws = np.empty_like(p)
        for it in range(p.shape[0]):
            for ip in range(p.shape[1]):
                rng = np.random.default_rng(np.random.SeedSequence([seed, it, ip]))
                draws[it, ip] = rng.binomial(trials, p[it, ip]) / trials
        p_err = np.sqrt(np.clip(draws * (1.0 - draws), 1.0 / trials**2, None) / trials)
        p = draws
    return FringeSeries(t=protocol.t.copy(), phi=protocol.phi.copy(),
                        p=p, p_err=p_err)


def no_bath_trace(t, A: float, C: float, delta: float, T2: float):
    """Detected atom number without bath:
    N(t) = 0.5 A (1 - exp(-t^2/T2^2) cos(delta t)) + C."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be nonnegative")
    if T2 <= 0.0:
        raise ValueError("T2 must be positive")
    out = 0.5 * A * (1.0 - np.exp(-((t / T2) ** 2)) * np.cos(delta * t)) + C
    return float(out) if out.ndim == 0 else out
