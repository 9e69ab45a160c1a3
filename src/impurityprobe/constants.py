"""Physical constants and Rb/Cs atomic data.

All internal computation is done in strict SI units (J, s, m, T, kg,
rad/s).  Convenience units used at CLI boundaries (nK, mG, Hz, cm^-3,
Bohr radii) are converted at the boundary, in `serialization` and
`cli`.  Constants are frozen at CODATA 2018 values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Constants:
    """Fundamental constants and Rb/Cs atomic data (SI units).

    The Cs hyperfine splitting is exact by the SI definition of the
    second; the Lande factors carry their physical signs (g_I < 0).
    """

    hbar: float = 1.054571817e-34          # J s
    h: float = 6.62607015e-34              # J s
    k_B: float = 1.380649e-23              # J / K
    mu_B: float = 9.2740100783e-24         # J / T
    a_0: float = 5.29177210903e-11         # m, Bohr radius
    amu: float = 1.66053906660e-27         # kg
    m_Rb: float = 86.909180531 * 1.66053906660e-27   # kg, 87Rb
    m_Cs: float = 132.905451961 * 1.66053906660e-27  # kg, 133Cs
    # Cs clock transition, nu_hfs = 9 192 631 770 Hz exactly
    delta_E_hfs: float = 6.62607015e-34 * 9.192631770e9  # J
    g_J: float = 2.00254032                # Cs 6S1/2 fine-structure g
    g_I: float = -0.00039885395            # Cs nuclear g factor

    def __post_init__(self):
        for name in ("hbar", "h", "k_B", "mu_B", "a_0", "amu",
                     "m_Rb", "m_Cs", "delta_E_hfs", "g_J"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"constant {name} must be positive")


CONST = Constants()

