"""Print how far the inversion's forward shortcut is from the full pipeline.

`inference.forward_observables` reads the visibility and fringe phase
from the coherence trace; `inference.pipeline_observables` synthesizes
the noiseless population grid and analyzes it.  Over a grid of baths
(0.3-5e19 m^-3, 150-1200 nK) on the criterion-04 protocol (24 times to
4 ms) and the 12-ms default grid, this prints the worst relative gap in
delta and in T2, and exits 1 if either exceeds
`inference.PIPELINE_RTOL`, the gap an inversion flags at its estimate,
or if one path has a value where the other has none:

    PYTHONPATH=src python3 scripts/forward_agreement.py
"""

import sys

import numpy as np

from impurityprobe import inference
from impurityprobe.ramsey import RamseyProtocol
from impurityprobe.scattering import ResonanceModel

DENSITIES = (0.3e19, 0.8e19, 1.5e19, 3e19, 5e19)  # m^-3
TEMPERATURES = (150e-9, 400e-9, 800e-9, 1200e-9)  # K
PROTOCOLS = (RamseyProtocol(t=np.geomspace(0.05e-3, 4e-3, 24),
                            phi=np.deg2rad(np.arange(0.0, 360.0, 30.0))),
             RamseyProtocol.default_grid())

model = ResonanceModel()
worst = {"delta": 0.0, "T2": 0.0}
mismatched = []
for protocol in PROTOCOLS:
    for n0 in DENSITIES:
        for T in TEMPERATURES:
            fast = inference.forward_observables(n0, T, model, protocol)
            full = inference.pipeline_observables(n0, T, model, protocol)
            for key, ref in full.items():
                if (fast[key] is None) != (ref is None):
                    mismatched.append(f"{key} at {n0:.3g} m^-3, {T * 1e9:.0f} nK, "
                                      f"t_max {protocol.t[-1] * 1e3:g} ms")
                elif ref is not None and ref != fast[key]:
                    worst[key] = max(worst[key], abs(fast[key] / ref - 1.0))
print(f"forward shortcut vs pipeline over {len(PROTOCOLS) * len(DENSITIES) * len(TEMPERATURES)} "
      f"baths: delta {worst['delta']:.2g}, T2 {worst['T2']:.2g} relative at most "
      f"(tolerance {inference.PIPELINE_RTOL:g})"
      + "".join(f"; None on one path only: {m}" for m in mismatched))
sys.exit(1 if mismatched or max(worst.values()) > inference.PIPELINE_RTOL else 0)
