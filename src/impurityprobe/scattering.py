"""Field- and energy-dependent Rb-Cs s-wave scattering length.

The ground-state scattering length near the low-field Feshbach resonance
is modeled by a regularized dispersive profile whose resonance position
slides linearly with collision energy,

    a_g(B, E) = a_bg * [1 - dB * (B - B_res(E)) / ((B - B_res(E))^2 + g^2)]
    B_res(E)  = B0 + (dB/dE) * E,

so |a_g| <= |a_bg| (1 + dB / 2g).  The excited-state scattering length
is constant.
Thermal statistics (mean, variance, histogram) follow by averaging over
the Maxwell-Boltzmann collision-energy distribution.

A tabulated a(B, E) grid (CSV) can replace the parametric form when
coupled-channel data is available.
"""

from __future__ import annotations

from dataclasses import astuple, dataclass

import numpy as np

from .constants import CONST
from .thermal import mb_quadrature, QuadratureError

A0 = CONST.a_0
K_B = CONST.k_B


@dataclass(frozen=True)
class ResonanceModel:
    """Parameters of the regularized dispersive resonance (SI units).

    Defaults are tuned so that the thermally averaged ground-state
    scattering length at the operating field (198.5 mG) and 850 nK is
    ~1900 a0, which puts the ground/excited collision-count ratio in the
    10-15x window.  B0 and a_e are measured anchors; the remaining shape
    parameters are model choices.
    """

    a_bg: float = 650.0 * A0        # background scattering length, m
    B0: float = 198.5e-7            # resonance position at E=0, T
    delta_B: float = 50.0e-7        # dispersive width, T
    dB_dE: float = 25.0e-7 / (K_B * 1e-6)   # resonance drift, T/J
    gamma_B: float = 6.0e-7         # regularization width, T
    a_e: float = 539.0 * A0         # excited-state scattering length, m

    def __post_init__(self):
        if not np.all(np.isfinite(astuple(self))):
            raise ValueError("resonance parameters must be finite")
        if self.gamma_B <= 0.0:
            raise ValueError("gamma_B must be positive")


@dataclass(frozen=True)
class TabulatedModel:
    """Bilinear interpolation of a tabulated a_g(B, E) grid.

    Grids must be strictly increasing; queries are clamped to the table
    edges.  `a_e` plays the same role as in ResonanceModel.
    """

    B_grid: np.ndarray   # T, shape (nB,)
    E_grid: np.ndarray   # J, shape (nE,)
    a_grid: np.ndarray   # m, shape (nB, nE)
    a_e: float = 539.0 * A0

    def __post_init__(self):
        if np.any(np.diff(self.B_grid) <= 0) or np.any(np.diff(self.E_grid) <= 0):
            raise ValueError("table grids must be strictly increasing")
        if self.a_grid.shape != (len(self.B_grid), len(self.E_grid)):
            raise ValueError("table shape mismatch")


def a_ground(B: float, E_c, model) -> float | np.ndarray:
    """Ground-state scattering length at field B and collision energy E_c (m).

    Vectorized over E_c.
    """
    E_c = np.asarray(E_c, dtype=float)
    if np.any(E_c < 0.0):
        raise ValueError("collision energy must be nonnegative")
    if isinstance(model, TabulatedModel):
        Bq = np.clip(B, model.B_grid[0], model.B_grid[-1])
        Eq = np.clip(E_c, model.E_grid[0], model.E_grid[-1])
        iB = np.clip(np.searchsorted(model.B_grid, Bq) - 1, 0, len(model.B_grid) - 2)
        iE = np.clip(np.searchsorted(model.E_grid, Eq) - 1, 0, len(model.E_grid) - 2)
        fB = (Bq - model.B_grid[iB]) / (model.B_grid[iB + 1] - model.B_grid[iB])
        fE = (Eq - model.E_grid[iE]) / (model.E_grid[iE + 1] - model.E_grid[iE])
        a = ((1 - fB) * (1 - fE) * model.a_grid[iB, iE]
             + fB * (1 - fE) * model.a_grid[iB + 1, iE]
             + (1 - fB) * fE * model.a_grid[iB, iE + 1]
             + fB * fE * model.a_grid[iB + 1, iE + 1])
    else:
        b = B - (model.B0 + model.dB_dE * E_c)
        a = model.a_bg * (1.0 - model.delta_B * b / (b * b + model.gamma_B**2))
    return float(a) if np.ndim(a) == 0 else a


def delta_a(B: float, E_c, model) -> float | np.ndarray:
    """Scattering-length difference a_e - a_g(B, E_c) driving the detuning."""
    return model.a_e - a_ground(B, E_c, model)


def _thermal_nodes(B, T_bath, model, order):
    """a_g on the panel MB energy rule, with its weights."""
    E, w = mb_quadrature(T_bath, order=order)
    return a_ground(B, E, model), w


def mean_a(B: float, T_bath: float, model, order: int = 512) -> float:
    """Thermal mean of a_g (m) at twice `order`, checked against `order`."""
    a, w = _thermal_nodes(B, T_bath, model, order)
    m1 = float(np.dot(w, a))
    a2, w2 = _thermal_nodes(B, T_bath, model, 2 * order)
    m1b = float(np.dot(w2, a2))
    scale = max(abs(m1b), abs(model.a_bg) if hasattr(model, "a_bg") else abs(m1b))
    if abs(m1b - m1) > 1e-4 * scale:
        raise QuadratureError(
            f"mean_a not converged at order {order}: {m1} vs {m1b}")
    return m1b


def var_a(B: float, T_bath: float, model, order: int = 512) -> float:
    """Thermal variance of a_g (m^2) at twice `order`, checked against `order`."""
    def centered_var(a, w):
        m1 = float(np.dot(w, a))
        return float(np.dot(w, (a - m1) ** 2)), m1

    a, w = _thermal_nodes(B, T_bath, model, order)
    v, _ = centered_var(a, w)
    a2, w2 = _thermal_nodes(B, T_bath, model, 2 * order)
    vb, m1b = centered_var(a2, w2)
    scale = max(vb, (1e-2 * abs(m1b)) ** 2)
    if abs(vb - v) > 1e-4 * scale and abs(vb - v) > 1e-3 * vb:
        raise QuadratureError(
            f"var_a not converged at order {order}: {v} vs {vb}")
    return vb


def a_histogram(B: float, T_bath: float, model, bins: int = 50,
                order: int = 2048):
    """Probability mass of a_g over `bins` equal-width bins.

    Returns (bin_edges, masses) with masses summing to 1; computed by
    pushing the MB quadrature weights through a_ground.
    """
    if bins < 2:
        raise ValueError("need at least 2 bins")
    a, w = _thermal_nodes(B, T_bath, model, order)
    lo, hi = float(np.min(a)), float(np.max(a))
    if hi == lo:  # constant scattering length: single occupied bin
        hi = lo + max(abs(lo), A0) * 1e-12
    edges = np.linspace(lo, hi, bins + 1)
    idx = np.clip(np.searchsorted(edges, a, side="right") - 1, 0, bins - 1)
    masses = np.bincount(idx, weights=w, minlength=bins)
    masses = masses / masses.sum()
    return edges, masses
