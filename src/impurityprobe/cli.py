"""Batch command-line interface.

Verbs: simulate, analyze, sweep, calibrate, infer.  Exit codes: 0 ok,
2 input error, 3 numeric error, 4 inference flag raised.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .analysis import analyze_fringes
from .calibration import (fit_bfield, fit_light_shift, fit_release_curve,
                          fit_zeeman)
from .constants import CONST, TWO_PI
from .fitting import FitError
from .inference import InferenceError, infer_density, infer_temperature
from .ramsey import synthesize_fringe
from .serialization import (ConfigError, bath_from_config, config_hash,
                            fringe_from_csv, fringe_to_csv, hash_bytes,
                            load_config, merge_config, model_from_config,
                            protocol_from_config, validate_config,
                            write_artifacts, xy_from_csv)
from .thermal import QuadratureError

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_NUMERIC = 3
EXIT_INFERENCE = 4


def _prepare(args):
    cfg = load_config(args.config) if args.config else merge_config({})
    if args.seed is not None:
        cfg["seed"] = args.seed
    return cfg


def _synthesize(cfg):
    """Build the bath, model and protocol of `cfg` and synthesize its
    fringe; returns (protocol, series)."""
    bath = bath_from_config(cfg)
    model = model_from_config(cfg)
    protocol = protocol_from_config(cfg)
    series = synthesize_fringe(
        protocol, bath, model, noise=cfg["noise"], seed=cfg["seed"],
        density_order=cfg["quadrature"]["density_order"],
        energy_order=cfg["quadrature"]["energy_order"],
        include_background=cfg["include_background"])
    return protocol, series


def cmd_simulate(args) -> int:
    cfg = _prepare(args)
    _, series = _synthesize(cfg)
    csv_text = fringe_to_csv(series)
    sidecar = {"schema_version": cfg["schema_version"], "config": cfg,
               "config_hash": config_hash(cfg),
               "csv_hash": hash_bytes(csv_text.encode()),
               "tool_version": __version__}
    paths = write_artifacts(args.out, {"fringes.csv": csv_text,
                                       "fringes.meta.json": sidecar})
    print(f"wrote {paths[0]} ({len(series.t)}x{len(series.phi)} grid)")
    return EXIT_OK


def cmd_analyze(args) -> int:
    series = fringe_from_csv(args.fringes)
    delta_bg = TWO_PI * args.delta_bg_hz
    result = analyze_fringes(series, delta_bg=delta_bg,
                             phase_convention=args.phase_convention)
    out = {"schema_version": 1, "input_hash": series.source_hash,
           "delta_bg_Hz": args.delta_bg_hz,
           "phase_convention": args.phase_convention,
           "analysis": result.to_dict(),
           "delta_Hz": (None if result.delta is None
                        else result.delta / TWO_PI),
           "T2_ms": (None if not math.isfinite(result.T2)
                     else result.T2 * 1e3),
           "warning_count": len(result.warnings)}
    (path,) = write_artifacts(args.out, {"analysis.json": out})
    print(f"wrote {path} ({len(result.warnings)} warnings)")
    return EXIT_OK


def cmd_sweep(args) -> int:
    cfg = _prepare(args)
    sweep = cfg.get("sweep")
    if not isinstance(sweep, dict) or set(sweep) != {"parameter", "values"} \
            or not isinstance(sweep["values"], list):
        raise ConfigError("sweep config needs {'parameter':..., 'values':[...]}")
    param = sweep["parameter"]
    values = sweep["values"]
    if len(values) < 2:
        raise ConfigError("sweep needs at least 2 values")
    if param not in ("peak_density_per_cm3", "temperature_nK"):
        raise ConfigError(f"unsupported sweep parameter {param!r}")

    rows = []
    for value in values:
        cfg_i = {**cfg, "bath": {**cfg["bath"], param: value}}
        validate_config(cfg_i)
        protocol, series = _synthesize(cfg_i)
        res = analyze_fringes(series, delta_bg=protocol.delta_bg
                              if cfg_i["include_background"] else 0.0,
                              phase_convention="cos2")
        slope = res.slope_fit
        rows.append((value,
                     None if slope is None else slope.params["delta"] / TWO_PI,
                     None if slope is None else slope.errors["delta"] / TWO_PI,
                     res.T2 * 1e3, res.decay_fit.errors["T2"] * 1e3))

    lines = [f"{param},delta_Hz,delta_err_Hz,T2_ms,T2_err_ms"]
    for row in rows:
        lines.append(",".join("" if v is None else format(float(v), ".17g")
                              for v in row))
    text = "\n".join(lines) + "\n"
    meta = {"schema_version": cfg["schema_version"], "config": cfg,
            "config_hash": config_hash(cfg), "csv_hash": hash_bytes(text.encode())}
    paths = write_artifacts(args.out, {"sweep.csv": text, "sweep.meta.json": meta})
    print(f"wrote {paths[0]} ({len(rows)} points)")
    return EXIT_OK


def cmd_calibrate(args) -> int:
    x, y, y_err, input_hash = xy_from_csv(args.data)
    if args.kind == "bfield":
        rep, B_coil = fit_bfield(TWO_PI * x, y, Omega0=TWO_PI * args.rabi_hz,
                                 omega_MW=TWO_PI * args.mw_hz, p_err=y_err)
        payload = {"kind": "bfield", "fit": rep.to_dict(),
                   "omega_bg_Hz": rep.params["omega_bg"] / TWO_PI,
                   "B_coil_mG": B_coil * 1e7}
    elif args.kind == "lightshift":
        rep = fit_light_shift(x, TWO_PI * y, delta_err=None if y_err is None
                              else TWO_PI * y_err)
        payload = {"kind": "lightshift", "fit": rep.to_dict(),
                   "slope_Hz_per_W": rep.params["slope"] / TWO_PI}
    elif args.kind == "zeeman":
        rep = fit_zeeman(x * 1e-4, TWO_PI * y, delta_err=None if y_err is None
                         else TWO_PI * y_err)
        payload = {"kind": "zeeman", "fit": rep.to_dict(),
                   "a_Hz_per_G2": rep.params["a_hz_per_G2"]}
    else:  # release
        rep = fit_release_curve(x * CONST.k_B * 1e-6, y, fraction_err=y_err)
        payload = {"kind": "release", "fit": rep.to_dict(),
                   "T_uK": rep.params["T"] * 1e6}
    payload["input_hash"] = input_hash
    payload["schema_version"] = 1
    (path,) = write_artifacts(args.out, {"calibration.json": {input_hash: payload}},
                              merge=True)
    print(f"wrote {path} entry {input_hash[:12]}")
    return EXIT_OK


def cmd_infer(args) -> int:
    cfg = _prepare(args)
    if not cfg["include_background"]:
        raise ConfigError("infer always models the background detuning and "
                          "dephasing; include_background must be true")
    model = model_from_config(cfg)
    protocol = protocol_from_config(cfg)
    qd = cfg["quadrature"]["density_order"]
    qe = cfg["quadrature"]["energy_order"]
    if args.kind == "density":
        observed = {}
        if args.delta_hz is not None:
            observed["delta"] = TWO_PI * args.delta_hz
        if args.t2_ms is not None:
            observed["T2"] = args.t2_ms * 1e-3
        if not observed:
            raise ConfigError("density inference needs --delta-hz and/or --t2-ms")
        post = infer_density(observed, cfg["bath"]["temperature_nK"] * 1e-9,
                             model, protocol, density_order=qd, energy_order=qe)
        payload = {"kind": "density", "estimate_per_cm3": post.estimate / 1e6,
                   "interval_per_cm3": [v / 1e6 for v in post.interval]}
    else:  # temperature
        if args.t2_ms is None:
            raise ConfigError("temperature inference needs --t2-ms")
        post = infer_temperature(args.t2_ms * 1e-3,
                                 cfg["bath"]["peak_density_per_cm3"] * 1e6,
                                 model, protocol, density_order=qd,
                                 energy_order=qe)
        payload = {"kind": "temperature", "estimate_nK": post.estimate * 1e9,
                   "interval_nK": [v * 1e9 for v in post.interval]}

    payload.update({"schema_version": 1, "config_hash": config_hash(cfg),
                    "posterior": post.to_dict(), "flags": post.flags})
    (path,) = write_artifacts(args.out, {"inference.json": payload})
    print(f"wrote {path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impurityprobe",
        description="Simulate and analyze Ramsey signals of a single "
                    "impurity probing a thermal gas.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("simulate", help="synthesize a fringe dataset")
    common(p)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="run the extraction pipeline on a fringe CSV")
    p.add_argument("fringes", help="fringe CSV (t_ms,phase_deg,p,p_err)")
    p.add_argument("--out", default=".")
    p.add_argument("--delta-bg-hz", type=float, default=-135.0,
                   help="background detuning to subtract, Hz")
    p.add_argument("--phase-convention", choices=["sin2", "cos2"],
                   default="cos2")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("sweep", help="sweep one bath parameter")
    common(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("calibrate", help="fit a calibration dataset")
    p.add_argument("kind", choices=["bfield", "lightshift", "zeeman", "release"])
    p.add_argument("data", help="CSV with a header row, then columns x,y[,y_err]")
    p.add_argument("--out", default=".")
    p.add_argument("--rabi-hz", type=float, default=1.0e3,
                   help="bare Rabi frequency for bfield spectra, Hz")
    p.add_argument("--mw-hz", type=float, default=0.7e6 * 0.1985,
                   help="applied microwave frequency offset, Hz")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("infer", help="invert observables for density or temperature")
    common(p)
    p.add_argument("kind", choices=["density", "temperature"])
    p.add_argument("--delta-hz", type=float, default=None)
    p.add_argument("--t2-ms", type=float, default=None)
    p.set_defaults(func=cmd_infer)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, ValueError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (QuadratureError, FitError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except InferenceError as exc:
        print(f"inference flag [{exc.flag}]: {exc}", file=sys.stderr)
        return EXIT_INFERENCE


if __name__ == "__main__":
    sys.exit(main())
