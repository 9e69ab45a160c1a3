"""Thermal Rb cloud: Gaussian density profile and its self-weighted measure.

The impurity samples the cloud with probability proportional to the bath
density itself, so the spatial average in the dephasing integral depends
on position only through the local density n(r).  That lets the 3D
integral collapse to a 1D measure over density values: with standard
normal coordinates y_i = x_i / sigma_i the density is n = n0 e^{-u}
where u = |y|^2 / 2 ~ Gamma(3/2), the same law as the collision energy
in units of kB T.  One composite panel rule in s = sqrt(u) integrates
that measure at every order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONST
from .thermal import MU_RBCS, _GAMMA_3_2, panel_nodes


@dataclass(frozen=True)
class BathState:
    """Thermal Rb cloud in a harmonic trap (SI units).

    Either the peak density n0 or the atom number N may be given; the
    other is filled in from n0 = N / ((2 pi)^{3/2} sx sy sz).
    """

    n0: float                 # peak density, m^-3
    T: float                  # K
    omega_x: float            # rad/s
    omega_y: float
    omega_z: float
    N: float | None = None    # atom number

    def __post_init__(self):
        given = (self.n0, self.T, self.omega_x, self.omega_y, self.omega_z,
                 0.0 if self.N is None else self.N)
        if not np.all(np.isfinite(given)):
            raise ValueError("bath parameters must be finite")
        if self.T <= 0.0:
            raise ValueError("bath temperature must be positive")
        if min(self.omega_x, self.omega_y, self.omega_z) <= 0.0:
            raise ValueError("trap frequencies must be positive")
        if self.n0 <= 0.0:
            raise ValueError("peak density must be positive")
        vol = (2.0 * math.pi) ** 1.5 * np.prod(self.sigmas())
        if self.N is None:
            object.__setattr__(self, "N", self.n0 * vol)
        elif abs(self.N - self.n0 * vol) > 1e-6 * self.N:
            raise ValueError("atom number inconsistent with peak density")

    def sigmas(self) -> np.ndarray:
        """Gaussian cloud radii sigma_i = sqrt(kB T / (m_Rb omega_i^2)), m."""
        w = np.array([self.omega_x, self.omega_y, self.omega_z])
        return np.sqrt(CONST.k_B * self.T / CONST.m_Rb) / w


def density_at(r, bath: BathState):
    """Bath density at position r = (x, y, z), m^-3.

    n(r) = n0 exp(-m_Rb sum_i omega_i^2 x_i^2 / (2 kB T)).  r may carry
    leading batch dimensions (..., 3).
    """
    r = np.asarray(r, dtype=float)
    if not np.all(np.isfinite(r)):
        raise ValueError("coordinates must be finite")
    s = bath.sigmas()
    q = np.sum((r / s) ** 2, axis=-1)
    out = bath.n0 * np.exp(-0.5 * q)
    return float(out) if out.ndim == 0 else out


def density_weight_measure(bath: BathState, order: int = 48):
    """Quadrature (densities, weights) for the impurity-sampled density.

    Positions drawn with probability n(r)/N see the local density
    n = n0 e^{-u} with u ~ Gamma(3/2, 1).  Substituting u = s^2 turns the
    measure into the smooth weight 2 s^2 e^{-s^2}, integrated with
    composite 8-point Gauss-Legendre panels on s in [0, sqrt(30)]; the
    panels track the rapidly oscillating integrands of long evolution
    times.  `order` is the total node budget.  Weights are positive and
    sum to 1.
    """
    if order < 2:
        raise ValueError("measure order must be >= 2")
    n_panels = max(4, order // 8)
    s, w = panel_nodes(math.sqrt(30.0) * np.arange(n_panels + 1) / n_panels)
    w = w * 2.0 * s**2 * np.exp(-(s**2)) / _GAMMA_3_2
    w = w / w.sum()  # absorb the ~1e-13 tail truncation
    return bath.n0 * np.exp(-(s**2)), w


def interaction_detuning(n, d_a):
    """Mean-field clock-state detuning 2 pi hbar n (a_e - a_g) / mu, rad/s.

    Bilinear in density n and scattering-length difference d_a; the sign
    follows d_a.  Broadcasts over array arguments.
    """
    n = np.asarray(n, dtype=float)
    if np.any(n < 0.0):
        raise ValueError("density must be nonnegative")
    out = 2.0 * math.pi * CONST.hbar / MU_RBCS * n * np.asarray(d_a, dtype=float)
    return float(out) if out.ndim == 0 else out
