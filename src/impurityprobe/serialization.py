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
import os

import numpy as np

from .bath import BathState
from .constants import CONST, TWO_PI
from .ramsey import (DENSITY_ORDER, ENERGY_ORDER, FringeSeries,
                     RamseyProtocol, noise_trials)
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


def _read_json_object(path, what: str) -> dict:
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return obj


def load_config(path) -> dict:
    cfg = merge_config(_read_json_object(path, "config"))
    validate_config(cfg)
    return cfg


def _number(v) -> bool:
    # json accepts NaN and Infinity, and NaN passes every "<= 0" check below
    return type(v) in (int, float) and math.isfinite(v)


def _check(name: str, value, default) -> None:
    """Refuse a config value of another type than its default's: an int
    passes for a float, and a None default is an optional string."""
    if isinstance(default, dict):
        if not isinstance(value, dict):
            raise ConfigError(f"{name} must be a JSON object")
        for key, v in value.items():
            if key not in default:
                raise ConfigError(f"unknown config key {name}.{key}")
            _check(f"{name}.{key}", v, default[key])
        return
    if isinstance(default, list):
        ok = (isinstance(value, list) and len(value) == len(default)
              and all(map(_number, value)))
    elif isinstance(default, float):
        ok = _number(value)
    else:
        ok = type(value) is type(default) or (default is None
                                              and type(value) is str)
    if not ok:
        raise ConfigError(f"{name} must have the type of its default "
                          f"{default!r}, not {value!r}")


def validate_config(cfg: dict) -> None:
    """Refuse unknown keys, values of another type than the default's and
    out-of-range values.  `sweep` is a section only the user writes, and
    the sweep verb checks it."""
    for key, value in cfg.items():
        if key not in DEFAULT_CONFIG and key != "sweep":
            raise ConfigError(f"unknown config key {key!r}")
        if key == "noise" and value is not None:
            noise_trials(value)
        elif key != "sweep":
            _check(key, value, DEFAULT_CONFIG[key])
    b = cfg["bath"]
    if b["peak_density_per_cm3"] <= 0:
        raise ConfigError("bath.peak_density_per_cm3 must be positive")
    if b["temperature_nK"] <= 0:
        raise ConfigError("bath.temperature_nK must be positive")
    p = cfg["protocol"]
    if p["t_min_ms"] <= 0 or p["t_max_ms"] <= p["t_min_ms"]:
        raise ConfigError("protocol times must satisfy 0 < t_min_ms < t_max_ms")
    if p["n_t"] < 2:
        raise ConfigError("protocol.n_t must be >= 2")
    if p["t_spacing"] not in ("log", "linear"):
        raise ConfigError("protocol.t_spacing must be 'log' or 'linear'")
    if p["T2_bg_ms"] <= 0:
        raise ConfigError("protocol.T2_bg_ms must be positive")
    q = cfg["quadrature"]
    if q["density_order"] < 2 or q["energy_order"] < 2:
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
    space = np.geomspace if p["t_spacing"] == "log" else np.linspace
    t = space(p["t_min_ms"], p["t_max_ms"], p["n_t"]) * 1e-3
    phi = np.deg2rad(np.arange(0.0, 360.0, p["phi_step_deg"]))
    return RamseyProtocol(t=t, phi=phi, B=p["bfield_mG"] * 1e-7,
                          delta_bg=TWO_PI * p["delta_bg_Hz"],
                          T2_bg=p["T2_bg_ms"] * 1e-3,
                          Omega0=TWO_PI * p["rabi_freq_kHz"] * 1e3)


# --- CSV readers ---

def _read_csv(path, columns, expected: str):
    """Parse the CSV at path by the rules every reader shares.

    Row 1 is the header; columns(header) picks the indices of the value
    columns and of the optional error column (None if absent).  Every row
    has the header's length, every value is a finite float, and an error
    is positive and filled on every row or on none.  Returns the values,
    the errors (or None) and the file's SHA-256; blank rows are skipped
    and not counted.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    rows = [r for r in csv.reader(io.StringIO(data.decode(), newline="")) if r]
    header = rows[0] if rows else []
    try:
        idx, err_col = columns(header)
        if max(idx) >= len(header) or all(map(_is_float, header)):
            raise ValueError
    except ValueError:
        raise ConfigError(f"{path}: row 1 must be the header {expected}") from None
    values, errors = [], []
    for k, row in enumerate(rows[1:], start=2):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, the header has {len(header)}")
            vals = [float(row[i]) for i in idx]
            err = float(row[err_col]) if err_col is not None and row[err_col] else None
            # float() accepts "nan" and "inf", and NaN passes every "<= 0" check
            if not all(map(math.isfinite, vals + [err or 0.0])):
                raise ValueError("values must be finite")
            if err is not None and err <= 0.0:
                raise ValueError(f"{header[err_col]} must be positive")
        except ValueError as exc:
            raise ConfigError(f"{path}: row {k}: {exc}") from None
        values.append(vals)
        errors.append(err)
    if not values:
        raise ConfigError(f"{path}: no data rows")
    empty = [k for k, err in enumerate(errors, start=2) if err is None]
    if 0 < len(empty) < len(errors):
        raise ConfigError(f"{path}: row {empty[0]}: {header[err_col]} is empty "
                          "but other rows have one")
    return np.array(values), None if empty else np.array(errors), hash_bytes(data)


def _is_float(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def fringe_from_csv(path) -> FringeSeries:
    """The fringe series in the CSV at path: columns t_ms, phase_deg, p and
    an optional p_err, in any order, on a rectangular (t, phase) grid."""
    v, errors, digest = _read_csv(
        path, lambda h: ([h.index(c) for c in ("t_ms", "phase_deg", "p")],
                         h.index("p_err") if "p_err" in h else None),
        "t_ms,phase_deg,p[,p_err]")
    seen = {}
    for k, (t, phi) in enumerate(v[:, :2].tolist(), start=2):
        if t < 0.0:
            raise ConfigError(f"{path}: row {k}: t_ms must be nonnegative")
        if (t, phi) in seen:
            raise ConfigError(f"{path}: row {k}: repeats (t_ms, phase_deg) "
                              f"of row {seen[t, phi]}")
        seen[t, phi] = k
    ts, it = np.unique(v[:, 0], return_inverse=True)
    phis, ip = np.unique(v[:, 1], return_inverse=True)
    if len(v) != len(ts) * len(phis):
        raise ConfigError(f"{path}: (t, phase) grid is not rectangular")
    p, p_err = np.empty((2, len(ts), len(phis)))
    p[it, ip] = v[:, 2]
    if errors is not None:
        p_err[it, ip] = errors
    return FringeSeries(t=ts * 1e-3, phi=np.deg2rad(phis), p=p,
                        p_err=None if errors is None else p_err,
                        source_hash=digest)


def xy_from_csv(path):
    """Calibration data x, y, y_err (None without errors) and the file's
    SHA-256 from a CSV with a header and the columns x, y[, y_err]."""
    v, y_err, digest = _read_csv(
        path, lambda h: ([0, 1], 2 if len(h) > 2 else None), "x,y[,y_err]")
    return v[:, 0], v[:, 1], y_err, digest


# --- artifacts ---

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


def _write_text(path, text: str) -> None:
    """Write text to path atomically: to a temporary file in the same
    directory, then os.replace, so no reader sees a partial artifact."""
    tmp = f"{path}.{os.urandom(6).hex()}.tmp"
    try:
        with open(tmp, "x") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_json(path, obj) -> None:
    _write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


def write_artifacts(out_dir, files: dict, merge: bool = False) -> list:
    """Create out_dir and write each of files (name -> text, or a JSON
    object) into it atomically; returns the paths.  With merge, a JSON
    artifact that exists keeps its other entries (the calibration ledger)."""
    paths = [os.path.join(out_dir, name) for name in files]
    contents = [{**_read_json_object(path, "artifact"), **obj}
                if merge and os.path.exists(path) else obj
                for path, obj in zip(paths, files.values())]
    os.makedirs(out_dir, exist_ok=True)
    for path, content in zip(paths, contents):
        if isinstance(content, str):
            _write_text(path, content)
        else:
            write_json(path, content)
    return paths
