"""Elementary thermal and atomic formulas shared by all modules.

Covers the Maxwell-Boltzmann collision-energy distribution and its
quadrature discretization, the reduced mass, and the bath-independent
quadratic Zeeman shift.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .constants import CONST

# sqrt(pi)/2, normalization of sqrt(E) e^-E, and the 8-point Gauss-Legendre
# rule on [-1, 1], both bit-equal to scipy.special's gamma(1.5) and
# roots_legendre(8); math.gamma(1.5) and numpy's leggauss(8) are not
_GAMMA_3_2 = 0.8862269254527579
_LEGENDRE_8_X = np.array([-0.9602898564975363, -0.7966664774136267,
                          -0.525532409916329, -0.18343464249564984,
                          0.18343464249564984, 0.525532409916329,
                          0.7966664774136267, 0.9602898564975363])
_LEGENDRE_8_W = np.array([0.10122853629037562, 0.22238103445337473,
                          0.3137066458778876, 0.36268378337836205,
                          0.36268378337836205, 0.3137066458778876,
                          0.22238103445337473, 0.10122853629037562])


class QuadratureError(RuntimeError):
    """Raised when a quadrature rule fails its convergence contract."""


def reduced_mass(m1: float, m2: float) -> float:
    """Two-body reduced mass m1*m2/(m1+m2) in kg."""
    if not (m1 > 0.0 and m2 > 0.0):
        raise ValueError("masses must be positive")
    return m1 * m2 / (m1 + m2)


MU_RBCS = reduced_mass(CONST.m_Rb, CONST.m_Cs)


def panel_nodes(edges):
    """Composite 8-point Gauss-Legendre rule on the panels between `edges`.

    Returns flat (nodes, weights) for integrating over [edges[0],
    edges[-1]]; callers multiply the weights by their density.
    """
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * _LEGENDRE_8_X[None, :]).ravel()
    w = (half[:, None] * _LEGENDRE_8_W[None, :]).ravel()
    return x, w


def mb_pdf(E, T: float):
    """Maxwell-Boltzmann pdf of the collision energy, in 1/J.

    p(E) = 2 pi (pi kB T)^(-3/2) sqrt(E) exp(-E / kB T), normalized on
    [0, inf).  Accepts scalar or array E.
    """
    if not T > 0.0:
        raise ValueError("temperature must be positive")
    E = np.asarray(E, dtype=float)
    if np.any(E < 0.0):
        raise ValueError("collision energy must be nonnegative")
    kT = CONST.k_B * T
    out = 2.0 * np.pi * (np.pi * kT) ** -1.5 * np.sqrt(E) * np.exp(-E / kT)
    return float(out) if out.ndim == 0 else out


def mb_quadrature(T: float, order: int = 64):
    """Discretize the MB energy average into (nodes, weights).

    Returns arrays (E, w) with E strictly increasing, w > 0 and
    sum(w) = 1, such that sum(w_i f(E_i)) approximates the MB average
    of f.  The rule is composite 8-point Gauss-Legendre panels on a
    quadratically graded grid over [0, 30 kB T], which resolve sharp
    structure (e.g. near-resonant scattering lengths) far better than a
    global Gauss rule; `order` is the total node budget.  The rule in
    E / kB T is built once per order, so every T shares the read-only w.
    """
    if order < 2:
        raise ValueError("quadrature order must be >= 2")
    if not T > 0.0:
        raise ValueError("temperature must be positive")
    x, w = _mb_unit_rule(order)
    return x * (CONST.k_B * T), w


@functools.lru_cache(maxsize=16)
def _mb_unit_rule(order: int):
    n_panels = max(4, order // 8)
    # quadratic grading concentrates panels at small E where both the
    # MB weight and near-threshold resonance structure live
    x, w = panel_nodes(30.0 * (np.arange(n_panels + 1) / n_panels) ** 2)
    w = w * np.sqrt(x) * np.exp(-x) / _GAMMA_3_2
    w = w / w.sum()  # absorb the ~1e-13 tail truncation
    x.flags.writeable = w.flags.writeable = False
    return x, w


def quadratic_zeeman(B: float) -> float:
    """Second-order Zeeman shift of the Cs clock transition, rad/s.

    delta_B = (g_J - g_I)^2 mu_B^2 / (2 hbar DeltaE_hfs) * B^2, which
    evaluates to 2 pi x 427.45 Hz/G^2.
    """
    if not B >= 0.0:
        raise ValueError("magnetic field magnitude must be nonnegative")
    g = CONST.g_J - CONST.g_I
    return (g * CONST.mu_B) ** 2 / (2.0 * CONST.hbar * CONST.delta_E_hfs) * B**2


def zeeman_coefficient_hz_per_G2() -> float:
    """Quadratic Zeeman coefficient in Hz/G^2 (theory value ~427.5)."""
    return quadratic_zeeman(1e-4) / (2.0 * math.pi)


def mean_relative_speed(T_eff: float) -> float:
    """Mean thermal Rb-Cs relative speed sqrt(8 kB T_eff / (pi mu)), m/s."""
    return math.sqrt(8.0 * CONST.k_B * T_eff / (math.pi * MU_RBCS))


def effective_collision_temperature(T_bath: float, T_imp: float) -> float:
    """Temperature governing the Rb-Cs relative-velocity distribution.

    For two independent thermal species the relative velocity is thermal
    at T_eff = mu (T_bath/m_Rb + T_imp/m_Cs).
    """
    return MU_RBCS * (T_bath / CONST.m_Rb + T_imp / CONST.m_Cs)
