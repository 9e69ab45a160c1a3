"""Print one SHA-256 per output of a fixed set of runs, and one over them all.

  PYTHONPATH=src python3 scripts/artifact_digests.py >> "$GITHUB_STEP_SUMMARY"

Two checkouts that print the same combined digest on one host produce the
same bytes on every artifact below, so a change that claims to keep every
output bit for bit can be checked by running this script before and after
it.  The digests depend on the BLAS kernels, so the first line names the
OpenBLAS core numpy runs on; compare digests on one host only.

The artifacts:
  - the CLI verbs on criterion-10 inputs at 96 x 96 nodes: simulate,
    analyze in both phase conventions, sweep, calibrate release, infer
    density and infer temperature (every file each verb writes);
  - default-order fringe CSVs at four forward points, noiseless and
    noisy, and the JSON of their analysis;
  - the four inversion kinds of the benchmark's invert workload on the
    criterion-04 protocol (24 times to 4 ms, 12 phases);
  - mean_a, var_a, a_histogram and collision_counts at three baths;
  - the five calibration fits on noiseless data.

Needs only numpy and the package; writes its CLI outputs to a temporary
directory that it removes.
"""

import contextlib
import ctypes
import glob
import hashlib
import io
import json
import os
import tempfile

import numpy as np

from impurityprobe import analysis, calibration, cli, inference, ramsey
from impurityprobe.bath import BathState
from impurityprobe.constants import CONST, TWO_PI
from impurityprobe.scattering import ResonanceModel, a_histogram, mean_a, var_a
from impurityprobe.serialization import canonical_json, fringe_to_csv

CONFIG = {"bath": {"peak_density_per_cm3": 1.5e13, "temperature_nK": 850.0},
          "protocol": {"t_min_ms": 0.05, "t_max_ms": 3.0, "n_t": 10},
          "quadrature": {"density_order": 96, "energy_order": 96},
          "noise": {"atoms_per_shot": 10, "repetitions": 3},
          "sweep": {"parameter": "temperature_nK", "values": [400.0, 800.0]}}
# (t_max ms, n_t, n0 in 1e19 m^-3, T in nK, atoms per shot of the noisy run)
FORWARD = [(4.0, 24, 0.5, 1000.0, 10), (4.0, 24, 2.1, 800.0, 100),
           (12.0, 30, 0.85, 950.0, 30), (12.0, 30, 1.2, 400.0, 300)]
# (target, observables, 2 % errors supplied, n0 in 1e19 m^-3, T in nK)
INVERSIONS = [("density", ("delta", "T2"), False, 1.0, 850.0),
              ("density", ("delta",), False, 0.8, 700.0),
              ("density", ("T2",), True, 2.0, 950.0),
              ("temperature", ("T2",), True, 1.8, 500.0)]
BATHS = [(198.5e-7, 850e-9), (199.0e-7, 400e-9), (197.0e-7, 1500e-9)]  # (B in T, T in K)


def openblas_core() -> str:
    """The core name of numpy's bundled OpenBLAS, else "unknown"."""
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        try:
            get = ctypes.CDLL(path).scipy_openblas_get_corename64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_char_p
        return get().decode()
    return "unknown"


def sha(data) -> str:
    """SHA-256 of bytes, of a str, or of an object's canonical JSON."""
    if isinstance(data, (dict, list, tuple)):
        data = canonical_json(data)
    return hashlib.sha256(data if isinstance(data, bytes) else data.encode()).hexdigest()


def array_sha(*arrays) -> str:
    return sha(b"".join(np.ascontiguousarray(a, dtype=float).tobytes() for a in arrays))


def cli_digests(d):
    """{name: digest} of every file the CLI verbs write; a name holds its
    verb's exit code."""
    config = os.path.join(d, "config.json")
    with open(config, "w") as fh:
        json.dump(CONFIG, fh)
    release = os.path.join(d, "release.csv")
    depth = np.linspace(0.2, 10.0, 20)
    frac = calibration.release_curve(depth * CONST.k_B * 1e-6, 1.7e-6)
    with open(release, "w") as fh:
        fh.write("depth_kB_uK,fraction\n"
                 + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(depth, frac)))
    fringes = os.path.join(d, "simulate", "fringes.csv")
    runs = {"simulate": ["simulate", "--config", config, "--seed", "7"],
            "analyze cos2": ["analyze", fringes],
            "analyze sin2": ["analyze", fringes, "--phase-convention", "sin2"],
            "sweep": ["sweep", "--config", config, "--seed", "7"],
            "calibrate release": ["calibrate", "release", release],
            "infer density": ["infer", "density", "--config", config, "--t2-ms", "0.6"],
            "infer temperature": ["infer", "temperature", "--config", config,
                                  "--t2-ms", "0.6"]}
    digests = {}
    for name, argv in runs.items():
        out = os.path.join(d, name.replace(" ", "_"))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv + ["--out", out])
        for path in sorted(glob.glob(os.path.join(out, "*"))):
            with open(path, "rb") as fh:
                digests[f"cli {name} (exit {code}): {os.path.basename(path)}"] = sha(fh.read())
    return digests


def forward_digests():
    model, digests = ResonanceModel(), {}
    for t_max, n_t, n0, T, atoms in FORWARD:
        protocol = ramsey.RamseyProtocol.default_grid(t_max_ms=t_max, n_t=n_t)
        bath = BathState(n0=n0 * 1e19, T=T * 1e-9)
        for noise in (None, {"atoms_per_shot": atoms, "repetitions": 1}):
            series = ramsey.synthesize_fringe(protocol, bath, model, noise=noise, seed=11)
            res = analysis.analyze_fringes(series, delta_bg=protocol.delta_bg,
                                           phase_convention="cos2")
            name = f"forward {t_max:g} ms {n0:g}e19 {T:g} nK {'noisy' if noise else 'noiseless'}"
            digests[f"{name}: csv"] = sha(fringe_to_csv(series))
            digests[f"{name}: analysis"] = sha(res.to_dict())
    return digests


def inversion_digests():
    model, digests = ResonanceModel(), {}
    protocol = ramsey.RamseyProtocol(t=np.geomspace(0.05e-3, 4e-3, 24),
                                     phi=np.deg2rad(np.arange(0.0, 360.0, 30.0)))
    for target, keys, with_errors, n0, T in INVERSIONS:
        n0, T = n0 * 1e19, T * 1e-9
        obs = inference.forward_observables(n0, T, model, protocol)
        errors = {k: 0.02 * abs(obs[k]) for k in keys} if with_errors else None
        if target == "density":
            post = inference.infer_density({k: obs[k] for k in keys}, T, model, protocol,
                                           errors=errors)
        else:
            post = inference.infer_temperature(obs["T2"], n0, model, protocol,
                                               T2_error=errors["T2"])
        digests[f"infer {target} from {'+'.join(keys)}"] = sha(post.to_dict())
    return digests


def scattering_digests():
    model, digests = ResonanceModel(), {}
    for B, T in BATHS:
        name = f"{B * 1e7:g} mG {T * 1e9:g} nK"
        digests[f"mean_a {name}"] = array_sha(mean_a(B, T, model))
        digests[f"var_a {name}"] = array_sha(var_a(B, T, model))
        digests[f"a_histogram {name}"] = array_sha(*a_histogram(B, T, model))
        digests[f"collision_counts {name}"] = array_sha(inference.collision_counts(
            BathState(n0=1.5e19, T=T), model, 5e-3, B=B))
    return digests


def calibration_digests():
    E0 = np.linspace(0.1, 6.0, 20) * CONST.k_B * 1.7e-6
    B = np.linspace(0.0, 0.5, 15) * 1e-4
    Omega0, omega_MW, bg = TWO_PI * 15.4e3, TWO_PI * 140e3, TWO_PI * 0.7e6 * 0.1985
    w = omega_MW - bg + np.linspace(-2.5, 2.5, 41) * Omega0
    P = np.linspace(0.0, 1.2, 10)
    t = np.linspace(0.2e-3, 40e-3, 80)
    fits = {"release": calibration.fit_release_curve(E0, calibration.release_curve(E0, 1.7e-6)),
            "zeeman": calibration.fit_zeeman(B, 417.2 * TWO_PI * 1e8 * B**2 + 2.0),
            "bfield": calibration.fit_bfield(
                w, calibration.rabi_lineshape(w, Omega0, bg, omega_MW), Omega0, omega_MW)[0],
            "lightshift": calibration.fit_light_shift(P, TWO_PI * 1083.0 * P + 1.0),
            "no-bath trace": calibration.fit_no_bath_trace(
                t, ramsey.no_bath_trace(t, 6.0, 2.0, TWO_PI * 135.0, 27.2e-3))}
    return {f"calibration {name}": sha(rep.to_dict()) for name, rep in fits.items()}


def main():
    with tempfile.TemporaryDirectory() as d:
        digests = cli_digests(d)
    for part in (forward_digests, inversion_digests, scattering_digests,
                 calibration_digests):
        digests.update(part())
    combined = sha("".join(f"{name} {value}\n" for name, value in digests.items()))
    print(f"### Artifact digests: {len(digests)} artifacts, OpenBLAS core {openblas_core()}")
    print("```")
    print("\n".join(f"{value}  {name}" for name, value in digests.items()))
    print(f"{combined}  combined")
    print("```")


if __name__ == "__main__":
    main()
