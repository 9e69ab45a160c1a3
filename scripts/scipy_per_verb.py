"""Print a Markdown table of which scipy modules, and numpy.ma, each CLI
verb loads.

Every verb runs once, in a fresh interpreter, on small inputs that this
script writes to a temporary directory (a 96 x 96 node config with 10
times, and calibration spectra of the CLI's default settings).  The
table lists the exit code and whether `scipy`, `scipy.optimize`,
`scipy.special` and `numpy.ma` were in `sys.modules` when the verb
returned.  None of them is needed: scipy is the tests' referee, and
numpy.ma (8-9 ms of import) comes only with calls such as `np.unique`
without `return_inverse`.  The script exits 1 if any verb loads one of
them or exits non-zero.

    PYTHONPATH=src python3 scripts/scipy_per_verb.py
"""

import json
import math
import os
import subprocess
import sys
import tempfile

import numpy as np

from impurityprobe.calibration import rabi_lineshape, release_curve
from impurityprobe.constants import CONST

MODULES = ("scipy", "scipy.optimize", "scipy.special", "numpy.ma")
CONFIG = {"bath": {"peak_density_per_cm3": 1.5e13, "temperature_nK": 850.0},
          "protocol": {"t_min_ms": 0.05, "t_max_ms": 3.0, "n_t": 10},
          "quadrature": {"density_order": 96, "energy_order": 96},
          "noise": {"atoms_per_shot": 10, "repetitions": 3},
          "sweep": {"parameter": "temperature_nK", "values": [400.0, 800.0]}}


def write_csv(path, header, x, y):
    with open(path, "w") as fh:
        fh.write(header + "\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, y)))


def inputs(d):
    """Write the config and calibration CSVs to d; return {name: path}."""
    paths = {name: os.path.join(d, name) for name in
             ("config.json", "bfield.csv", "lightshift.csv", "zeeman.csv",
              "release.csv")}
    with open(paths["config.json"], "w") as fh:
        json.dump(CONFIG, fh)
    mw = 0.7e6 * 0.1985  # the CLI's default --mw-hz, with --rabi-hz 1 kHz
    f = mw + np.linspace(-2.5, 2.5, 41) * 1e3
    write_csv(paths["bfield.csv"], "f_Hz,p", f,
              rabi_lineshape(2 * math.pi * f, 2 * math.pi * 1e3, 0.0, 2 * math.pi * mw))
    P = np.linspace(0.0, 1.2, 10)
    write_csv(paths["lightshift.csv"], "P_W,delta_Hz", P, 1104.0 * P + 1.0)
    B = np.linspace(0.0, 0.5, 15)
    write_csv(paths["zeeman.csv"], "B_G,delta_Hz", B, 427.5 * B**2 + 2.0)
    depth = np.linspace(0.2, 10.0, 20)
    write_csv(paths["release.csv"], "depth_kB_uK,fraction", depth,
              release_curve(depth * CONST.k_B * 1e-6, 1.7e-6))
    return paths


def loaded(argv):
    """(exit code, {module: loaded}) of `impurityprobe argv` in a fresh process."""
    code = ("import json, sys; from impurityprobe.cli import main; rc = main("
            f"{argv!r}); print(json.dumps([rc] + [m in sys.modules for m in {MODULES!r}]))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, timeout=600)
    if out.returncode != 0:
        return out.returncode, {}
    rc, *flags = json.loads(out.stdout.strip().splitlines()[-1])
    return rc, dict(zip(MODULES, flags))


def main():
    with tempfile.TemporaryDirectory() as d:
        p = inputs(d)
        cfg, out = ["--config", p["config.json"]], ["--out", os.path.join(d, "out")]
        runs = [("simulate", ["simulate", *cfg, *out]),
                ("analyze", ["analyze", os.path.join(d, "out", "fringes.csv"), *out]),
                ("sweep", ["sweep", *cfg, *out])]
        runs += [(f"calibrate {k}", ["calibrate", k, p[f"{k}.csv"], *out])
                 for k in ("bfield", "lightshift", "zeeman", "release")]
        runs += [("infer density", ["infer", "density", *cfg, *out, "--t2-ms", "0.6"]),
                 ("infer temperature", ["infer", "temperature", *cfg, *out,
                                        "--t2-ms", "0.6"])]
        print("| verb | exit | " + " | ".join(MODULES) + " |")
        print("| --- | --- |" + " --- |" * len(MODULES))
        status = 0
        for name, argv in runs:
            rc, flags = loaded(argv)
            cells = [("loaded" if flags[m] else "-") if flags else "?" for m in MODULES]
            print(f"| {name} | {rc} | " + " | ".join(cells) + " |")
            if rc != 0 or not flags or any(flags.values()):
                status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
