"""Config parsing, unit conversion at the boundary, and artifact I/O.

Configs are JSON with unit-explicit key names (temperature_nK,
peak_density_per_cm3, bfield_mG, ...).  Every artifact records a
schema_version and the SHA-256 hash of the canonical config so runs are
reproducible and cross-referenced.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math

import numpy as np

from .bath import BathState
from .constants import CONST, TWO_PI
from .ramsey import DENSITY_ORDER, ENERGY_ORDER, FringeSeries, RamseyProtocol
from .scattering import ResonanceModel, TabulatedModel

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed or out-of-range configuration input."""


DEFAULT_CONFIG = {
    "schema_version": SCHEMA_VERSION,
    "scenario": "default",
    "bath": {
        "peak_density_per_cm3": 1.0e13,
        "temperature_nK": 850.0,
        "trap_freq_Hz": [100.0, 100.0, 100.0],
    },
    "model": {
        "a_bg_a0": 650.0,
        "B0_mG": 198.5,
        "delta_B_mG": 50.0,
        "gamma_B_mG": 6.0,
        "dB_dE_mG_per_kB_uK": 25.0,
        "a_cap_a0": 25000.0,
        "a_e_a0": 539.0,
        "table_csv": None,
    },
    "protocol": {
        "t_min_ms": 0.1,
        "t_max_ms": 12.0,
        "n_t": 30,
        "t_spacing": "log",
        "phi_step_deg": 30.0,
        "bfield_mG": 198.5,
        "delta_bg_Hz": -135.0,
        "T2_bg_ms": 27.2,
        "rabi_freq_kHz": 15.4,
    },
    "quadrature": {"density_order": DENSITY_ORDER, "energy_order": ENERGY_ORDER},
    "noise": None,
    "include_background": True,
    "seed": 0,
}


def merge_config(user: dict) -> dict:
    """Overlay a user config onto the defaults (one level deep)."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))
    for key, value in user.items():
        if isinstance(value, dict) and isinstance(cfg.get(key), dict):
            cfg[key].update(value)
        else:
            cfg[key] = value
    return cfg


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            user = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(user, dict):
        raise ConfigError("config root must be a JSON object")
    cfg = merge_config(user)
    validate_config(cfg)
    return cfg


def validate_config(cfg: dict) -> None:
    # json accepts NaN and Infinity, and NaN passes every "<= 0" check below
    for section in ("bath", "model", "protocol", "quadrature"):
        if not isinstance(cfg[section], dict):
            raise ConfigError(f"{section} must be a JSON object")
        for key, value in cfg[section].items():
            for v in value if isinstance(value, list) else [value]:
                if isinstance(v, float) and not math.isfinite(v):
                    raise ConfigError(f"{section}.{key} must be finite")
    b = cfg["bath"]
    if b["peak_density_per_cm3"] <= 0:
        raise ConfigError("bath.peak_density_per_cm3 must be positive")
    if b["temperature_nK"] <= 0:
        raise ConfigError("bath.temperature_nK must be positive")
    p = cfg["protocol"]
    if p["t_min_ms"] <= 0 or p["t_max_ms"] <= p["t_min_ms"]:
        raise ConfigError("protocol times must satisfy 0 < t_min_ms < t_max_ms")
    if int(p["n_t"]) < 2:
        raise ConfigError("protocol.n_t must be >= 2")
    if p["T2_bg_ms"] <= 0:
        raise ConfigError("protocol.T2_bg_ms must be positive")
    q = cfg["quadrature"]
    if int(q["density_order"]) < 2 or int(q["energy_order"]) < 2:
        raise ConfigError("quadrature orders must be >= 2")


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def config_hash(cfg: dict) -> str:
    return hashlib.sha256(canonical_json(cfg).encode()).hexdigest()


def hash_bytes(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# --- config -> domain objects ---

def bath_from_config(cfg: dict) -> BathState:
    b = cfg["bath"]
    wx, wy, wz = (TWO_PI * f for f in b["trap_freq_Hz"])
    return BathState(n0=b["peak_density_per_cm3"] * 1e6,
                     T=b["temperature_nK"] * 1e-9,
                     omega_x=wx, omega_y=wy, omega_z=wz)


def model_from_config(cfg: dict):
    m = cfg["model"]
    if m.get("table_csv"):
        return TabulatedModel.from_csv(m["table_csv"], a_e=m["a_e_a0"] * CONST.a_0)
    return ResonanceModel(
        a_bg=m["a_bg_a0"] * CONST.a_0,
        B0=m["B0_mG"] * 1e-7,
        delta_B=m["delta_B_mG"] * 1e-7,
        gamma_B=m["gamma_B_mG"] * 1e-7,
        dB_dE=m["dB_dE_mG_per_kB_uK"] * 1e-7 / (CONST.k_B * 1e-6),
        a_cap=m["a_cap_a0"] * CONST.a_0,
        a_e=m["a_e_a0"] * CONST.a_0,
    )


def protocol_from_config(cfg: dict) -> RamseyProtocol:
    p = cfg["protocol"]
    if p["t_spacing"] == "log":
        t = np.geomspace(p["t_min_ms"], p["t_max_ms"], int(p["n_t"])) * 1e-3
    elif p["t_spacing"] == "linear":
        t = np.linspace(p["t_min_ms"], p["t_max_ms"], int(p["n_t"])) * 1e-3
    else:
        raise ConfigError("protocol.t_spacing must be 'log' or 'linear'")
    phi = np.deg2rad(np.arange(0.0, 360.0, p["phi_step_deg"]))
    return RamseyProtocol(t=t, phi=phi, B=p["bfield_mG"] * 1e-7,
                          delta_bg=TWO_PI * p["delta_bg_Hz"],
                          T2_bg=p["T2_bg_ms"] * 1e-3,
                          Omega0=TWO_PI * p["rabi_freq_kHz"] * 1e3)


# --- fringe CSV ---

def _fmt(x) -> str:
    return "" if x is None else format(float(x), ".17g")


def fringe_to_csv(series: FringeSeries) -> str:
    buf = io.StringIO()
    buf.write("t_ms,phase_deg,p,p_err\n")
    for i, t in enumerate(series.t):
        for j, phi in enumerate(series.phi):
            err = None if series.p_err is None else series.p_err[i, j]
            buf.write(f"{_fmt(t*1e3)},{_fmt(math.degrees(phi))},"
                      f"{_fmt(series.p[i, j])},{_fmt(err)}\n")
    return buf.getvalue()


def fringe_from_csv(path) -> FringeSeries:
    rows = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        required = {"t_ms", "phase_deg", "p"}
        if reader.fieldnames is None or not required.issubset(reader.fieldnames):
            raise ConfigError(f"{path}: expected columns t_ms,phase_deg,p[,p_err]")
        for k, row in enumerate(reader, start=2):
            try:
                t, phi, p = (float(row[c]) for c in ("t_ms", "phase_deg", "p"))
                err = float(row["p_err"]) if row.get("p_err") else None
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"{path}: malformed row {k}: {exc}") from exc
            # float() accepts "nan" and "inf", and NaN passes every "< 0" check
            if not all(map(math.isfinite, (t, phi, p, 0.0 if err is None else err))):
                raise ConfigError(f"{path}: row {k}: values must be finite")
            if t < 0.0:
                raise ConfigError(f"{path}: row {k}: t_ms must be nonnegative")
            if err is not None and err <= 0.0:
                raise ConfigError(f"{path}: row {k}: p_err must be positive")
            if (t, phi) in rows:
                raise ConfigError(f"{path}: row {k}: repeats (t_ms, phase_deg) "
                                  f"of row {rows[t, phi][0]}")
            rows[t, phi] = (k, p, err)
    if not rows:
        raise ConfigError(f"{path}: no data rows")
    # empty p_err fields mean no weighting only if the whole column is empty
    empty = [k for k, _, err in rows.values() if err is None]
    if empty and len(empty) < len(rows):
        raise ConfigError(f"{path}: row {empty[0]}: p_err is empty but "
                          "other rows have one")
    ts = sorted({t for t, _ in rows})
    phis = sorted({phi for _, phi in rows})
    p = np.full((len(ts), len(phis)), np.nan)
    perr = np.full((len(ts), len(phis)), np.nan)
    t_idx = {t: i for i, t in enumerate(ts)}
    phi_idx = {f: j for j, f in enumerate(phis)}
    for (t, phi), (_, val, err) in rows.items():
        p[t_idx[t], phi_idx[phi]] = val
        perr[t_idx[t], phi_idx[phi]] = err  # None reads as NaN
    if np.any(np.isnan(p)):
        raise ConfigError(f"{path}: (t, phase) grid is not rectangular")
    return FringeSeries(t=np.array(ts) * 1e-3, phi=np.deg2rad(np.array(phis)),
                        p=p, p_err=None if empty else perr)


def write_json(path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")
