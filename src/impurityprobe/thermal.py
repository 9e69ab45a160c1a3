"""Elementary thermal and atomic formulas shared by all modules.

Covers the Maxwell-Boltzmann collision-energy distribution and its
quadrature discretization, the reduced mass, and the two bath-independent
frequency shifts (quadratic Zeeman, differential light shift).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import roots_genlaguerre, roots_legendre, gamma as gamma_fn

from .constants import CONST

_GAMMA_3_2 = gamma_fn(1.5)  # sqrt(pi)/2, normalization of sqrt(E) e^-E


class QuadratureError(RuntimeError):
    """Raised when a quadrature rule fails its convergence contract."""


def reduced_mass(m1: float, m2: float) -> float:
    """Two-body reduced mass m1*m2/(m1+m2) in kg."""
    if m1 <= 0.0 or m2 <= 0.0:
        raise ValueError("masses must be positive")
    return m1 * m2 / (m1 + m2)


MU_RBCS = reduced_mass(CONST.m_Rb, CONST.m_Cs)


@dataclass(frozen=True)
class EnergyDistribution:
    """Maxwell-Boltzmann distribution of collision energies at temperature T."""

    T: float  # K

    def __post_init__(self):
        if self.T <= 0.0:
            raise ValueError("temperature must be positive")

    def pdf(self, E):
        return mb_pdf(E, self.T)


def panel_nodes(edges):
    """Composite 8-point Gauss-Legendre rule on the panels between `edges`.

    Returns flat (nodes, weights) for integrating over [edges[0],
    edges[-1]]; callers multiply the weights by their density.
    """
    xg, wg = roots_legendre(8)
    a, b = edges[:-1], edges[1:]
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    x = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel()
    return x, w


def mb_pdf(E, T: float):
    """Maxwell-Boltzmann pdf of the collision energy, in 1/J.

    p(E) = 2 pi (pi kB T)^(-3/2) sqrt(E) exp(-E / kB T), normalized on
    [0, inf).  Accepts scalar or array E.
    """
    if T <= 0.0:
        raise ValueError("temperature must be positive")
    E = np.asarray(E, dtype=float)
    if np.any(E < 0.0):
        raise ValueError("collision energy must be nonnegative")
    kT = CONST.k_B * T
    out = 2.0 * np.pi * (np.pi * kT) ** -1.5 * np.sqrt(E) * np.exp(-E / kT)
    return float(out) if out.ndim == 0 else out


def mb_quadrature(T: float, order: int = 64, method: str = "gauss"):
    """Discretize the MB energy average into (nodes, weights).

    Returns arrays (E, w) with E strictly increasing, w > 0 and
    sum(w) = 1, such that sum(w_i f(E_i)) approximates the MB average
    of f.

    method="gauss" uses the generalized Gauss-Laguerre rule for the
    weight sqrt(x) e^-x (exact MB moments at any order).  method="panel"
    uses composite 8-point Gauss-Legendre panels on a quadratically
    graded grid over [0, 30 kB T]; the panels resolve sharp structure
    (e.g. near-resonant scattering lengths) far better than the global
    Gauss rule.  `order` is the node count for "gauss" and the total
    node budget for "panel".
    """
    if order < 2:
        raise ValueError("quadrature order must be >= 2")
    if T <= 0.0:
        raise ValueError("temperature must be positive")
    kT = CONST.k_B * T
    if method == "gauss":
        x, w = roots_genlaguerre(order, 0.5)
        w = w / _GAMMA_3_2
        return x * kT, w
    if method == "panel":
        n_panels = max(4, order // 8)
        # quadratic grading concentrates panels at small E where both the
        # MB weight and near-threshold resonance structure live
        x, w = panel_nodes(30.0 * (np.arange(n_panels + 1) / n_panels) ** 2)
        w = w * np.sqrt(x) * np.exp(-x) / _GAMMA_3_2
        w = w / w.sum()  # absorb the ~1e-13 tail truncation
        return x * kT, w
    raise ValueError(f"unknown quadrature method {method!r}")


def quadratic_zeeman(B: float) -> float:
    """Second-order Zeeman shift of the Cs clock transition, rad/s.

    delta_B = (g_J - g_I)^2 mu_B^2 / (2 hbar DeltaE_hfs) * B^2, which
    evaluates to 2 pi x 427.45 Hz/G^2.
    """
    if B < 0.0:
        raise ValueError("magnetic field magnitude must be nonnegative")
    g = CONST.g_J - CONST.g_I
    return (g * CONST.mu_B) ** 2 / (2.0 * CONST.hbar * CONST.delta_E_hfs) * B**2


def zeeman_coefficient_hz_per_G2() -> float:
    """Quadratic Zeeman coefficient in Hz/G^2 (theory value ~427.5)."""
    return quadratic_zeeman(1e-4) / (2.0 * math.pi)


def light_shift(P: float, slope: float) -> float:
    """Differential dipole-trap light shift, rad/s, linear in beam power P."""
    if P < 0.0:
        raise ValueError("beam power must be nonnegative")
    return slope * P


def mean_relative_speed(T_eff: float, mu: float = MU_RBCS) -> float:
    """Mean thermal relative speed sqrt(8 kB T_eff / (pi mu)), m/s."""
    return math.sqrt(8.0 * CONST.k_B * T_eff / (math.pi * mu))


def effective_collision_temperature(T_bath: float, T_imp: float,
                                    m_bath: float = CONST.m_Rb,
                                    m_imp: float = CONST.m_Cs) -> float:
    """Temperature governing the relative-velocity distribution.

    For two independent thermal species the relative velocity is thermal
    at T_eff = mu (T_bath/m_bath + T_imp/m_imp).
    """
    mu = reduced_mass(m_bath, m_imp)
    return mu * (T_bath / m_bath + T_imp / m_imp)
