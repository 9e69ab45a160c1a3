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

import functools
import math
import threading
from dataclasses import dataclass

import numpy as np

from .bath import BathState, density_weight_measure, interaction_detuning
from .constants import TWO_PI
from .scattering import delta_a
from .thermal import mb_quadrature

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

    The pi/2 pulses are ideal instantaneous rotations.  A run without
    background is delta_bg = 0 with T2_bg = 1e30 s, whose envelope
    exp(-t^2/T2_bg^2) rounds to exactly 1.
    """

    t: np.ndarray
    phi: np.ndarray
    B: float = 198.5e-7
    delta_bg: float = -2.0 * math.pi * 135.0
    T2_bg: float = 27.2e-3

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        phi = np.asarray(self.phi, dtype=float)
        scalars = (self.B, self.delta_bg, self.T2_bg)
        if not all(np.all(np.isfinite(x)) for x in (t, phi, scalars)):
            raise ValueError("protocol parameters must be finite")
        if t.size and (np.any(t < 0.0) or np.any(np.diff(t) <= 0.0)):
            raise ValueError("times must be nonnegative and strictly increasing")
        if self.T2_bg <= 0.0:
            raise ValueError("T2_bg must be positive")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "phi", phi)

    @classmethod
    def default_grid(cls, t_max_ms: float = 12.0,
                     n_t: int = 30) -> "RamseyProtocol":
        """Grid mirroring the measurement: t in [0.1, t_max] ms, phases
        every 30 degrees over [0, 360)."""
        t = np.geomspace(0.1e-3, t_max_ms * 1e-3, n_t)
        phi = np.deg2rad(np.arange(0.0, 360.0, 30.0))
        return cls(t=t, phi=phi)


@dataclass
class FringeSeries:
    """Populations on a rectangular (t, phi) grid."""

    t: np.ndarray          # s, shape (Nt,)
    phi: np.ndarray        # rad, shape (Nphi,)
    p: np.ndarray          # shape (Nt, Nphi), values in [0, 1]
    p_err: np.ndarray | None = None  # shape of p
    source_hash: str | None = None  # SHA-256 of the CSV it was read from

    def __post_init__(self):
        if self.p.shape != (len(self.t), len(self.phi)):
            raise ValueError("population grid shape mismatch")
        if self.p_err is not None and np.shape(self.p_err) != self.p.shape:
            raise ValueError(f"p_err has the shape {np.shape(self.p_err)}, "
                             f"p {self.p.shape}")
        if not (np.isfinite(self.t).all() and (np.diff(self.t) > 0.0).all()):
            raise ValueError("times must be finite and strictly increasing")


def fringe_closed_form(t, phi, Delta: float, T2: float):
    """Phenomenological Ramsey fringe with Gaussian dephasing.

    p = 1/2 + (sin^2[(Delta t - phi)/2] - 1/2) exp(-t^2 / T2^2)
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0.0):
        raise ValueError("time must be nonnegative")
    if not T2 > 0.0:
        raise ValueError("T2 must be positive")
    env = np.exp(-((t / T2) ** 2))
    out = 0.5 + (np.sin(0.5 * (Delta * t - np.asarray(phi))) ** 2 - 0.5) * env
    return float(out) if np.ndim(out) == 0 else out


def detuning_nodes(bath: BathState, model, B: float,
                   density_order: int = DENSITY_ORDER,
                   energy_order: int = ENERGY_ORDER):
    """Factored detuning rule delta_ij = x_j s_i with weights wn_i wE_j.

    Returns (s, wn, x, wE): the density fractions s = n / n0 in (0, 1]
    with their weights, the same bytes for every bath, and the
    peak-density detunings x = delta_Rb(n0, B, E_j) with the energy
    weights; each weight vector sums to 1.  Both factors use composite
    panel rules: the integrand oscillates at long evolution times, which
    global Gauss rules cannot track.
    """
    s, wn = density_weight_measure(order=density_order)
    E, wE = mb_quadrature(bath.T, order=energy_order)
    x = interaction_detuning(bath.n0, delta_a(B, E, model))
    return s, wn, x, wE


# Table rows per unit of q, and Taylor terms per row: with s <= 1 and
# |d| <= 1/16 the first term left out is at most (1/16)^9 / 9! ~ 4e-17.
# Scaling q by 8 and d by 1/8 is exact in binary.
_ROWS_PER_UNIT = 8
_TAYLOR_TERMS = 9
_INV_FACTORIALS = 1.0 / np.cumprod([1.0, *range(1, _TAYLOR_TERMS)])
# table rows built per block, so the (rows, Nd) trig matrices stay small
_ROW_BLOCK = 64


_SCRATCH = threading.local()


def _scratch(shape):
    """This thread's trace work arrays, viewed to `shape`: three float, row
    indices and three complex.  They only grow, to fit the largest call so
    far, so a warm call allocates none of them and takes no page faults."""
    n = math.prod(shape)
    bufs = getattr(_SCRATCH, "bufs", None)
    if bufs is None or bufs[0].size < n:
        bufs = _SCRATCH.bufs = [np.empty(n, dtype) for dtype in
                                (float, float, float, np.intp,
                                 complex, complex, complex)]
    return [b[:n].reshape(shape) for b in bufs]


@functools.lru_cache(maxsize=4)
def _rule_table(rule_bytes):
    """[rows 0..M of one density rule's table], kept per (s, wn) bytes:
    (9, M + 1) complex, row m at q = m / 8 (765 kB for 5e19 m^-3 at 12 ms),
    a view of the buffer (its base) that the rows are written into.  The
    buffer's capacity at least doubles when it grows, so an ascending scan
    copies the table O(log M) times."""
    return [np.empty((_TAYLOR_TERMS, 0), complex)]


def _coherence_trace(ts, s, wn, x, wE):
    """<cos(delta t)>, <sin(delta t)> over the rule delta_ij = x_j s_i.

    Returns two arrays shaped like the array `ts`.  The density average
    g(q) = sum_i wn_i exp(i q s_i) is read from a Taylor table on q = m / 8:
    row m holds c_mk = sum_i wn_i s_i^k exp(i m s_i / 8) / k!, and
    g(m / 8 + d) = sum_k c_mk (i d)^k for |d| <= 1/16, k < 9; g(-q) =
    conj g(q) covers x < 0.  Then <exp(i delta t)> = sum_j wE_j g(x_j t).
    Row m depends on the density rule alone, so the tables of the last four
    rules are kept, each extended from its end to the highest row a call
    needs (rows too sparse for that are sorted and built for the call
    alone).  The table is complex and term-major, so each Horner term is
    one contiguous gather.  Every sum is an einsum loop, not BLAS, so a
    row's bits depend neither on the BLAS thread count nor on the block it
    was built in: the trace does not depend on what was called before.
    Its (times x nodes) work arrays are this thread's `_scratch`, so a warm
    call allocates none and threads may call it at once.
    """
    # the outer product by einsum and i d by a copy: a broadcast ufunc and
    # 1j * d would each take numpy's 128 kB iterator buffers every call;
    # q and d are in rows, 8 |x t| and 8 d, until i d scales d back
    q, m, d, row_of, i_d, g, term = _scratch(np.shape(ts) + np.shape(x))
    np.abs(np.einsum("...,j->...j", ts, x * _ROWS_PER_UNIT, out=q), out=q)
    np.rint(q, out=m)
    np.subtract(q, m, out=d)
    if m.max(initial=0.0) >= 8 * m.size + 4096:  # sparse rows: sort them
        new, row_of = np.unique(m, return_inverse=True)
        table, built = [None], np.empty((_TAYLOR_TERMS, 0), complex)
        row_of = row_of.reshape(m.shape)
    else:
        np.copyto(row_of, m, casting="unsafe")
        table = _rule_table((s.tobytes(), wn.tobytes()))
        built = table[0]  # read once: another thread may replace it
        new = np.arange(built.shape[-1], row_of.max(initial=0) + 1)
    if new.size:
        # rows 0..n - 1 of the buffer are final and the ones after are
        # written only here, each with the same bits by every thread, so a
        # thread may extend a buffer another thread reads or extends
        n, buf = built.shape[-1], built if built.base is None else built.base
        if n + new.size > buf.shape[-1]:
            buf = np.empty((_TAYLOR_TERMS, max(n + new.size, 2 * buf.shape[-1])), complex)
            buf[:, :n] = built
        moments = (s[None, :] ** np.arange(_TAYLOR_TERMS)[:, None]
                   * wn[None, :] * _INV_FACTORIALS[:, None])
        # phase, cos and sin blocks once per extension, not per block: at 384
        # nodes each is 196 kB, which glibc maps fresh and faults in again
        phase, cos, sin = np.empty((3, min(new.size, _ROW_BLOCK), s.size))
        for b in range(0, new.size, _ROW_BLOCK):
            rows = new[b:b + _ROW_BLOCK]
            at, r = slice(n + b, n + b + rows.size), slice(rows.size)
            np.multiply.outer(rows / _ROWS_PER_UNIT, s, out=phase[r])
            buf.real[:, at] = np.einsum("ri,ki->rk", np.cos(phase[r], out=cos[r]), moments).T
            buf.imag[:, at] = np.einsum("ri,ki->rk", np.sin(phase[r], out=sin[r]), moments).T
        built = table[0] = buf[:, :n + new.size]
    # Horner in i d, in place; the sums read contiguous copies of the real
    # and imaginary parts (einsum sums strided views in another order),
    # made in q and m, which are free by then
    np.copyto(i_d, d)
    i_d *= 1j / _ROWS_PER_UNIT
    np.take(built[-1], row_of, out=g, mode="clip")
    for k in range(_TAYLOR_TERMS - 2, -1, -1):
        g *= i_d
        g += np.take(built[k], row_of, out=term, mode="clip")
    np.copyto(q, g.real)
    np.copyto(m, g.imag)
    return (np.einsum("...j,j->...", q, wE),
            np.einsum("...j,j->...", m, np.where(x < 0.0, -wE, wE)))


def ramsey_population(t, phi, bath: BathState, model, protocol: RamseyProtocol,
                      density_order: int = DENSITY_ORDER,
                      energy_order: int = ENERGY_ORDER, nodes=None):
    """Ground-state population of the microscopic dephasing model.

    Averages cos^2(delta_Rb t / 2 + phi / 2) over the density measure and
    the collision-energy distribution.  t and phi broadcast against each
    other (t[:, None] with phi[None, :] gives a (t, phi) grid); the node
    average is taken once per element of t.  Two scalars return a float.
    The protocol's background damps the oscillatory part by
    exp(-t^2/T2_bg^2) and shifts its phase by delta_bg * t.

    `nodes` may supply a factored rule from detuning_nodes, or any
    (delta, weights) pair of equal shape, e.g. a degenerate single-node
    measure, which is read as one density fraction s = 1.  Otherwise the
    nodes come from detuning_nodes; quadrature_error estimates their error.
    """
    ts = np.atleast_1d(np.asarray(t, dtype=float))
    if not np.all(np.isfinite(ts) & (ts >= 0.0)):
        raise ValueError("time must be finite and nonnegative")
    if nodes is None:
        nodes = detuning_nodes(bath, model, protocol.B,
                               density_order=density_order,
                               energy_order=energy_order)
    elif len(nodes) == 2:
        delta, w = (np.asarray(a, dtype=float).ravel() for a in nodes)
        nodes = (np.ones(1), np.ones(1), delta, w)
    C, S = _coherence_trace(ts, *nodes)
    phase = np.asarray(phi, dtype=float) + protocol.delta_bg * ts
    env = np.exp(-((ts / protocol.T2_bg) ** 2))
    out = 0.5 + 0.5 * env * (C * np.cos(phase) - S * np.sin(phase))
    if np.ndim(t) == 0 and np.ndim(phi) == 0:
        return float(out.reshape(-1)[0])
    return out


def population_grid(protocol: RamseyProtocol, bath: BathState, model,
                    density_order: int = DENSITY_ORDER,
                    energy_order: int = ENERGY_ORDER) -> np.ndarray:
    """Noiseless population over the protocol's full (t, phi) grid."""
    return ramsey_population(protocol.t[:, None], protocol.phi[None, :],
                             bath, model, protocol,
                             density_order=density_order,
                             energy_order=energy_order)


def visibility_phase(protocol: RamseyProtocol, bath: BathState, model,
                     density_order: int = DENSITY_ORDER,
                     energy_order: int = ENERGY_ORDER):
    """What the fringe fits of the noiseless population grid recover, read
    from the coherence trace: with C + iS = R exp(i theta), the fringe at t
    is 1/2 + (V/2) cos(phi + theta + delta_bg t), so its visibility is
    V(t) = exp(-t^2/T2_bg^2) R and its phase, as analysis.analyze_fringes
    passes it on for "cos2" data, phi0(t) = (theta + delta_bg t) mod 2 pi.
    Returns (V, phi0) at the protocol's times."""
    t = protocol.t
    C, S = _coherence_trace(t, *detuning_nodes(bath, model, protocol.B,
                                               density_order=density_order,
                                               energy_order=energy_order))
    V = np.exp(-((t / protocol.T2_bg) ** 2)) * np.hypot(C, S)
    return V, (np.arctan2(S, C) + protocol.delta_bg * t) % TWO_PI


def quadrature_error(protocol: RamseyProtocol, bath: BathState, model,
                     density_order: int = DENSITY_ORDER,
                     energy_order: int = ENERGY_ORDER) -> float:
    """Largest change of (<cos>, <sin>), as hypot(dC, dS), over the
    protocol's times when both node budgets are doubled; a population moves
    by at most half of it.  Warm, it costs about three population grids;
    the first call on a doubled rule also builds that rule's table, about
    60 warm grids for 30 times to 12 ms at 1.5e13 cm^-3.  No forward or
    inversion path calls it."""
    (C, S), (C2, S2) = (_coherence_trace(protocol.t, *detuning_nodes(
        bath, model, protocol.B, density_order=k * density_order,
        energy_order=k * energy_order)) for k in (1, 2))
    return float(np.max(np.hypot(C2 - C, S2 - S), initial=0.0))


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
                      energy_order: int = ENERGY_ORDER) -> FringeSeries:
    """Synthesize a FringeSeries, optionally with binomial counting noise.

    noise = {"atoms_per_shot": int, "repetitions": int} replaces each
    population by a binomial draw over atoms_per_shot * repetitions
    trials.  Each grid cell draws from its own RNG, seeded by
    (seed, it, iphi), so a seeded noisy CSV stays byte-stable.
    """
    trials = None if noise is None else noise_trials(noise)
    p = population_grid(protocol, bath, model, density_order=density_order,
                        energy_order=energy_order)
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
    if not T2 > 0.0:
        raise ValueError("T2 must be positive")
    out = 0.5 * A * (1.0 - np.exp(-((t / T2) ** 2)) * np.cos(delta * t)) + C
    return float(out) if out.ndim == 0 else out
