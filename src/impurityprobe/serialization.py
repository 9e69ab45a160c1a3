"""Config parsing, unit conversion at the boundary, and artifact I/O.

Configs are JSON with unit-explicit key names (temperature_nK,
peak_density_per_cm3, bfield_mG, ...).  Every artifact records a
schema_version and the SHA-256 of its input (the canonical config or the
CSV's bytes), so runs are reproducible and cross-referenced.  A JSON
artifact is written in the canonical form itself: sorted keys and no
whitespace (`python -m json.tool` pretty-prints it).
"""

from __future__ import annotations

import csv
import hashlib
import io
import itertools
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
    "bath": {
        "peak_density_per_cm3": 1.0e13,
        "temperature_nK": 850.0,
    },
    "model": {
        "a_bg_a0": 650.0,
        "B0_mG": 198.5,
        "delta_B_mG": 50.0,
        "gamma_B_mG": 6.0,
        "dB_dE_mG_per_kB_uK": 25.0,
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
    },
    "quadrature": {"density_order": DENSITY_ORDER, "energy_order": ENERGY_ORDER},
    "noise": None,
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
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # not JSON, or not UTF-8
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{what} {path} must hold a JSON object")
    return obj


def load_config(path) -> dict:
    cfg = merge_config(_read_json_object(path, "config"))
    validate_config(cfg)
    return cfg


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
    if isinstance(default, float):
        # json accepts NaN and Infinity, and NaN passes every "<= 0" check below
        ok = type(value) in (int, float) and math.isfinite(value)
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
    if cfg["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"schema_version must be {SCHEMA_VERSION}")
    if cfg["seed"] < 0:
        raise ConfigError("seed must be nonnegative")
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
    if not 0 < p["phi_step_deg"] <= 90:
        # at least the 4 phases per time that a fringe fit needs
        raise ConfigError("protocol.phi_step_deg must be in (0, 90]")
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
    return BathState(n0=b["peak_density_per_cm3"] * 1e6,
                     T=b["temperature_nK"] / 1e9)


def model_from_config(cfg: dict):
    m = cfg["model"]
    if m["table_csv"]:
        return _table_from_csv(m["table_csv"], a_e=m["a_e_a0"] * CONST.a_0)
    return ResonanceModel(
        a_bg=m["a_bg_a0"] * CONST.a_0,
        B0=m["B0_mG"] / 1e7,
        delta_B=m["delta_B_mG"] / 1e7,
        gamma_B=m["gamma_B_mG"] / 1e7,
        dB_dE=m["dB_dE_mG_per_kB_uK"] / 1e7 / (CONST.k_B * 1e-6),
        a_e=m["a_e_a0"] * CONST.a_0,
    )


def protocol_from_config(cfg: dict) -> RamseyProtocol:
    p = cfg["protocol"]
    space = np.geomspace if p["t_spacing"] == "log" else np.linspace
    t = space(p["t_min_ms"] / 1e3, p["t_max_ms"] / 1e3, p["n_t"])
    phi = np.deg2rad(np.arange(0.0, 360.0, p["phi_step_deg"]))
    return RamseyProtocol(t=t, phi=phi, B=p["bfield_mG"] / 1e7,
                          delta_bg=TWO_PI * p["delta_bg_Hz"],
                          T2_bg=p["T2_bg_ms"] / 1e3)


# --- CSV readers ---

def _read_csv(path, columns, expected: str):
    """Parse the CSV at path by the rules every reader shares.

    Row 1 is the header; columns(header) picks the indices of the value
    columns and of the optional error column (None if absent).  Every row
    has the header's length, every value is a finite float, and an error
    is positive and filled on every row or on none.  Returns the values,
    the errors (or None) and the file's SHA-256; blank rows are skipped
    and not counted.  The rows are checked as arrays; only a failed check
    walks them one by one, for the message that names the first bad row.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        rows = [r for r in csv.reader(io.StringIO(data.decode(), newline="")) if r]
    except (UnicodeDecodeError, csv.Error) as exc:  # not UTF-8, or a field over 128 KiB
        raise ConfigError(f"{path}: {exc}") from None
    header, body = (rows[0], rows[1:]) if rows else ([], [])
    try:
        idx, err_col = columns(header)
        if max(idx) >= len(header) or all(map(_is_float, header)):
            raise ValueError
    except ValueError:
        raise ConfigError(f"{path}: row 1 must be the header {expected}") from None
    if not body:
        raise ConfigError(f"{path}: no data rows")
    try:
        if set(map(len, body)) != {len(header)}:
            raise ValueError
        fields = [row[i] for row in body for i in idx]
        filled = [] if err_col is None else [r[err_col] for r in body if r[err_col]]
        # float() once per distinct field: t and phase repeat on every row
        parsed = {x: float(x) for x in dict.fromkeys(fields + filled)}
        values = np.array([parsed[x] for x in fields]).reshape(len(body), len(idx))
        errors = np.array([parsed[x] for x in filled])
        # float() accepts "nan" and "inf", and NaN passes every "<= 0" check
        if not (np.isfinite(values).all() and np.isfinite(errors).all()
                and (errors > 0.0).all()) or 0 < len(errors) < len(body):
            raise ValueError
    except ValueError:
        raise ConfigError(f"{path}: {_first_bad_row(header, body, idx, err_col)}"
                          ) from None
    return values, errors if len(errors) else None, hash_bytes(data)


def _first_bad_row(header, body, idx, err_col) -> str:
    """'row k: why' for the first data row that breaks a rule of `_read_csv`."""
    for k, row in enumerate(body, start=2):
        try:
            if len(row) != len(header):
                raise ValueError(f"{len(row)} fields, the header has {len(header)}")
            vals = [float(row[i]) for i in idx]
            err = float(row[err_col]) if err_col is not None and row[err_col] else None
            if not all(map(math.isfinite, vals + [err or 0.0])):
                raise ValueError("values must be finite")
            if err is not None and err <= 0.0:
                raise ValueError(f"{header[err_col]} must be positive")
        except ValueError as exc:
            return f"row {k}: {exc}"
    k = next(k for k, row in enumerate(body, start=2) if not row[err_col])
    return f"row {k}: {header[err_col]} is empty but other rows have one"


def _is_float(field: str) -> bool:
    try:
        float(field)
    except ValueError:
        return False
    return True


def _grid(path, keys, names: str):
    """The sorted axes of the rows' key pairs keys[:, 0], keys[:, 1] and
    each row's indices on them; refuses a repeated pair, naming the row,
    and a grid that is not rectangular, naming a missing pair."""
    (x, ix), (y, iy) = (np.unique(c, return_inverse=True) for c in keys.T)
    # as many rows as cells and none twice: every cell once
    if len(keys) == len(x) * len(y) and np.bincount(ix * len(y) + iy).max() == 1:
        return x, y, ix, iy
    seen = {}
    for k, pair in enumerate(map(tuple, keys.tolist()), start=2):
        if pair in seen:
            raise ConfigError(f"{path}: row {k}: repeats {names} of row "
                              f"{seen[pair]}")
        seen[pair] = k
    gap = next(p for p in itertools.product(x.tolist(), y.tolist())
               if p not in seen)
    raise ConfigError(f"{path}: grid is not rectangular: no row with "
                      f"{names} = ({gap[0]:g}, {gap[1]:g})")


def _table_from_csv(path, a_e: float) -> TabulatedModel:
    """The scattering table in the CSV at path, with the columns B_mG,
    E_over_kB_nK and a_over_a0 in any order, on a rectangular (B, E) grid."""
    names = ("B_mG", "E_over_kB_nK", "a_over_a0")
    v, _, _ = _read_csv(path, lambda h: ([h.index(c) for c in names], None),
                        ",".join(names))
    B, E, iB, iE = _grid(path, v[:, :2], "(B_mG, E_over_kB_nK)")
    a = np.empty((len(B), len(E)))
    a[iB, iE] = v[:, 2] * CONST.a_0
    return TabulatedModel(B_grid=B * 1e-7, E_grid=E * CONST.k_B * 1e-9,
                          a_grid=a, a_e=a_e)


def fringe_from_csv(path) -> FringeSeries:
    """The fringe series in the CSV at path: columns t_ms, phase_deg, p and
    an optional p_err, in any order, on a rectangular (t, phase) grid."""
    v, errors, digest = _read_csv(
        path, lambda h: ([h.index(c) for c in ("t_ms", "phase_deg", "p")],
                         h.index("p_err") if "p_err" in h else None),
        "t_ms,phase_deg,p[,p_err]")
    if np.any(v[:, 0] < 0.0):
        raise ConfigError(f"{path}: row {np.argmax(v[:, 0] < 0.0) + 2}: "
                          "t_ms must be nonnegative")
    ts, phis, it, ip = _grid(path, v[:, :2], "(t_ms, phase_deg)")
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

def fringe_to_csv(series: FringeSeries) -> str:
    """The fringe CSV of series: the header t_ms,phase_deg,p,p_err and one
    row per (t, phase) cell, time-major.  Every number has 17 significant
    digits, so p and p_err read back bit for bit and a series always gives
    the same bytes; p_err is empty without errors.  t in ms and phases in
    degrees read back only to 1e-15, and re-writing a read series can
    change its t_ms bytes (ROADMAP defect 3)."""
    # each time, phase and value formatted once, the rows in one %-format
    t_ms = ["%.17g," % x for x in (series.t * 1e3).tolist()]
    deg = ["%.17g," % math.degrees(x) for x in series.phi.tolist()]
    cols = [[t + d for t in t_ms for d in deg], series.p.ravel().tolist()]
    if series.p_err is not None:
        cols.append(series.p_err.ravel().tolist())
    flat = [None] * (len(cols) * len(cols[1]))  # cell by cell, field by field
    for k, col in enumerate(cols):
        flat[k::len(cols)] = col
    row = "%s%.17g,\n" if series.p_err is None else "%s%.17g,%.17g\n"
    return "t_ms,phase_deg,p,p_err\n" + (row * len(cols[1])) % tuple(flat)


def rows_to_csv(header: str, rows) -> str:
    """A header line, then rows of numbers at 17 significant digits as in
    `fringe_to_csv`, with None as an empty field."""
    lines = [",".join("" if v is None else "%.17g" % float(v) for v in row)
             for row in rows]
    return "\n".join([header, *lines]) + "\n"


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
    _write_text(path, canonical_json(obj) + "\n")


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
