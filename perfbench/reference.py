"""Independent high-order reference for the forward population grid.

The package averages cos^2((delta t + phi)/2) over the impurity-sampled
density and the Maxwell-Boltzmann collision energy.  Both laws are
Gamma(3/2) in a scaled variable: n = n0 exp(-u) and E = kB T x with
u, x ~ Gamma(3/2).  Substituting u = y^2 turns each into the smooth weight
2 y^2 exp(-y^2) / Gamma(3/2) on y in [0, inf).  This module integrates that
weight with its own composite 16-point Gauss-Legendre panels and never calls
the package's quadrature helpers, so the reference does not move when those
helpers are rewritten.  Only the physics (`delta_a`, `interaction_detuning`)
and the phase/envelope convention of the model are shared.
"""

from __future__ import annotations

import math

import numpy as np

from impurityprobe import bath as _bath
from impurityprobe import scattering as _scattering
from impurityprobe.constants import CONST

# 16-point panels; 48 x 16 = 768 density nodes, 64 x 16 = 1024 energy nodes.
PANEL_POINTS = 16
DENSITY_PANELS = 48
ENERGY_PANELS = 64
Y_MAX = math.sqrt(36.0)  # exp(-36) ~ 2e-16: the truncated tail is negligible


def gamma32_rule(n_panels: int):
    """Nodes y and weights w with sum(w f(y^2)) ~ E[f(u)], u ~ Gamma(3/2)."""
    xg, wg = np.polynomial.legendre.leggauss(PANEL_POINTS)
    edges = np.linspace(0.0, Y_MAX, n_panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1:] - edges[:-1])
    y = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    w = (half[:, None] * wg[None, :]).ravel() * 2.0 * y**2 * np.exp(-(y**2))
    w /= math.gamma(1.5)
    return y, w / w.sum()


def reference_population(protocol, bath, model, density_panels: int = DENSITY_PANELS,
                         energy_panels: int = ENERGY_PANELS) -> np.ndarray:
    """Noiseless population on the protocol's (t, phi) grid, background included.

    The node sum runs over blocks of density nodes, so the reference never
    holds more than a few hundred KiB of node arrays and does not set the
    workload's peak memory.
    """
    yd, wd = gamma32_rule(density_panels)
    ye, we = gamma32_rule(energy_panels)
    n = bath.n0 * np.exp(-(yd**2))
    da = _scattering.delta_a(protocol.B, CONST.k_B * bath.T * ye**2, model)
    t = np.asarray(protocol.t, dtype=float)
    C = np.zeros(t.shape)
    S = np.zeros(t.shape)
    for block in range(0, len(n), PANEL_POINTS * 4):
        rows = slice(block, block + PANEL_POINTS * 4)
        delta = _bath.interaction_detuning(n[rows, None], da[None, :]).ravel()
        w = (wd[rows, None] * we[None, :]).ravel()
        for k, tk in enumerate(t):
            th = delta * tk
            C[k] += w @ np.cos(th)
            S[k] += w @ np.sin(th)
    psi = protocol.phi[None, :] + (protocol.delta_bg * t)[:, None]
    env = np.exp(-((t / protocol.T2_bg) ** 2))[:, None]
    return 0.5 + 0.5 * env * (C[:, None] * np.cos(psi) - S[:, None] * np.sin(psi))
