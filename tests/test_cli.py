import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import impurityprobe
from impurityprobe.cli import main
from impurityprobe.ramsey import FringeSeries, no_bath_trace
from impurityprobe.serialization import (ConfigError, DEFAULT_CONFIG,
                                         canonical_json, config_hash,
                                         fringe_from_csv, fringe_to_csv,
                                         load_config, merge_config,
                                         validate_config)

TWO_PI = 2 * math.pi

FAST_CONFIG = {
    "bath": {"peak_density_per_cm3": 1.5e13, "temperature_nK": 850.0},
    "protocol": {"t_min_ms": 0.05, "t_max_ms": 3.0, "n_t": 12},
    "quadrature": {"density_order": 128, "energy_order": 128},
}


def write_config(tmp_path, extra=None, name="config.json"):
    cfg = json.loads(json.dumps(FAST_CONFIG))
    for key, value in (extra or {}).items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_defaults_merge(self):
        cfg = merge_config({"seed": 7, "bath": {"temperature_nK": 500.0}})
        assert cfg["seed"] == 7
        assert cfg["bath"]["temperature_nK"] == 500.0
        assert cfg["bath"]["peak_density_per_cm3"] == \
            DEFAULT_CONFIG["bath"]["peak_density_per_cm3"]

    def test_hash_key_order_invariant(self):
        a = {"x": 1, "y": {"b": 2, "a": 3}}
        b = {"y": {"a": 3, "b": 2}, "x": 1}
        assert config_hash(a) == config_hash(b)
        assert canonical_json(a) == canonical_json(b)

    def test_invalid_values_rejected(self, tmp_path):
        path = write_config(tmp_path, {"bath": {"temperature_nK": -1.0}})
        with pytest.raises(ConfigError):
            load_config(path)

    def test_non_object_section_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"bath": 5}))
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_integers_accepted_for_numbers(self):
        validate_config(merge_config({"bath": {"temperature_nK": 850,
                                               "trap_freq_Hz": [90, 100, 110]},
                                      "noise": {"atoms_per_shot": 10,
                                                "repetitions": 3}}))

    # (user config, the key the message must name)
    @pytest.mark.parametrize("extra, key", [
        ({"bath": {"temprature_nK": 400.0}}, "bath.temprature_nK"),
        ({"bth": {"temperature_nK": 400.0}}, "'bth'"),
        ({"bath": {"temperature_nK": "850"}}, "bath.temperature_nK"),
        ({"bath": {"temperature_nK": True}}, "bath.temperature_nK"),
        ({"bath": {"temperature_nK": None}}, "bath.temperature_nK"),
        ({"protocol": {"n_t": 10.5}}, "protocol.n_t"),
        ({"quadrature": {"density_order": 96.0}}, "quadrature.density_order"),
        ({"seed": 1.5}, "seed"),
        ({"bath": {"trap_freq_Hz": [100.0, 100.0]}}, "bath.trap_freq_Hz"),
        ({"bath": {"trap_freq_Hz": [100.0, "100", 100.0]}}, "bath.trap_freq_Hz"),
        ({"include_background": "false"}, "include_background"),
        ({"protocol": {"t_spacing": "cubic"}}, "protocol.t_spacing"),
        ({"model": {"table_csv": 5}}, "model.table_csv"),
        ({"noise": {"atoms": 1000, "repetitions": 1}}, "noise"),
        ({"noise": {"atoms_per_shot": 10.9, "repetitions": 1}}, "noise"),
    ], ids=["unknown-key", "unknown-section", "string", "bool", "null",
            "fractional-n_t", "float-order", "fractional-seed", "trap-length",
            "trap-string", "string-bool", "spacing", "table-type",
            "noise-key", "noise-fraction"])
    def test_bad_key_or_type_is_input_error(self, tmp_path, capsys, extra,
                                             key):
        cfg = write_config(tmp_path, extra)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert key in capsys.readouterr().err
        assert not out.exists()


class TestFringeCsv:
    def test_roundtrip(self, tmp_path):
        from impurityprobe.ramsey import FringeSeries
        t = np.array([0.5e-3, 1.0e-3, 2.0e-3])
        phi = np.deg2rad([0.0, 90.0, 180.0, 270.0])
        rng = np.random.default_rng(0)
        p = rng.uniform(size=(3, 4))
        series = FringeSeries(t=t, phi=phi, p=p, p_err=0.01 * np.ones((3, 4)))
        text = fringe_to_csv(series)
        path = tmp_path / "f.csv"
        path.write_text(text)
        back = fringe_from_csv(str(path))
        assert np.allclose(back.t, t, rtol=1e-15)
        assert np.allclose(back.phi, phi, rtol=1e-15)
        assert np.array_equal(back.p, p)
        assert np.allclose(back.p_err, 0.01)

    def test_non_rectangular_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_ms,phase_deg,p,p_err\n"
                        "1,0,0.5,\n1,90,0.6,\n2,0,0.4,\n")
        with pytest.raises(ConfigError):
            fringe_from_csv(str(path))

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(ConfigError):
            fringe_from_csv(str(path))

    def test_repeated_row_rejected(self, tmp_path):
        # a second (t, phase 0) row would overwrite the first: p = 0.7, not 0.1
        path = tmp_path / "dup.csv"
        path.write_text("t_ms,phase_deg,p\n1,0,0.1\n1,90,0.5\n1,180,0.9\n"
                        "1,270,0.5\n1,0,0.7\n")
        with pytest.raises(ConfigError, match="row 6: repeats .* of row 2"):
            fringe_from_csv(str(path))

    @pytest.mark.parametrize("text, match", [
        ("1,0,0.1\n1,90,0.5\n", "row 1 must be the header"),
        ("t_ms,phase_deg,p\n1,0,0.1\n1,90\n", "row 3: 2 fields"),
        ("", "row 1 must be the header"),
    ], ids=["headerless", "short-row", "empty"])
    def test_malformed_layout_rejected(self, tmp_path, text, match):
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with pytest.raises(ConfigError, match=match):
            fringe_from_csv(str(path))

    def test_partly_filled_p_err_rejected(self, tmp_path):
        # dropping the column would run the analysis unweighted
        path = tmp_path / "half.csv"
        path.write_text("t_ms,phase_deg,p,p_err\n1,0,0.1,0.01\n1,90,0.5,\n"
                        "1,180,0.9,0.01\n1,270,0.5,0.01\n")
        with pytest.raises(ConfigError, match="row 3: p_err is empty"):
            fringe_from_csv(str(path))


class TestStartup:
    def test_import_leaves_scipy_optimize_unloaded(self):
        # every verb imports the cli; only the fitting ones need the solver
        src = os.path.dirname(os.path.dirname(impurityprobe.__file__))
        code = "import sys, impurityprobe.cli; print('scipy.optimize' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_import_leaves_scipy_special_unloaded(self):
        # the forward model's rules are module constants; only the
        # release-curve calibration needs scipy.special
        src = os.path.dirname(os.path.dirname(impurityprobe.__file__))
        code = "import sys, impurityprobe.cli; print('scipy.special' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    @pytest.mark.parametrize("kind", ["lightshift", "zeeman"])
    def test_linear_calibration_leaves_scipy_optimize_unloaded(self, tmp_path,
                                                               kind):
        # both models are linear in their parameters: one exact lstsq
        src = os.path.dirname(os.path.dirname(impurityprobe.__file__))
        path = tmp_path / "cal.csv"
        path.write_text("x,y\n" + "".join(f"{x},{400.0 * x * x + 2.0 * x}\n"
                                          for x in np.linspace(0.0, 1.0, 10)))
        argv = ["calibrate", kind, str(path), "--out", str(tmp_path / "cal")]
        code = ("import sys; from impurityprobe.cli import main; "
                f"rc = main({argv!r}); print(rc, 'scipy.optimize' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split()[-2:] == ["0", "False"]


class TestSimulate:
    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": {"atoms_per_shot": 10,
                                                "repetitions": 3}})
        out1, out2 = tmp_path / "run1", tmp_path / "run2"
        assert main(["simulate", "--config", cfg, "--out", str(out1),
                     "--seed", "42"]) == 0
        assert main(["simulate", "--config", cfg, "--out", str(out2),
                     "--seed", "42"]) == 0
        csv1 = (out1 / "fringes.csv").read_bytes()
        csv2 = (out2 / "fringes.csv").read_bytes()
        assert csv1 == csv2
        meta1 = json.loads((out1 / "fringes.meta.json").read_text())
        meta2 = json.loads((out2 / "fringes.meta.json").read_text())
        assert meta1 == meta2
        assert meta1["csv_hash"] == meta2["csv_hash"]

    def test_seed_changes_output(self, tmp_path):
        cfg = write_config(tmp_path, {"noise": {"atoms_per_shot": 10,
                                                "repetitions": 3}})
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", cfg, "--out", str(out1), "--seed", "1"])
        main(["simulate", "--config", cfg, "--out", str(out2), "--seed", "2"])
        assert (out1 / "fringes.csv").read_bytes() != \
            (out2 / "fringes.csv").read_bytes()

    @pytest.mark.parametrize("section,key,value", [
        ("bath", "temperature_nK", float("nan")),
        ("bath", "trap_freq_Hz", [100.0, float("inf"), 100.0]),
        ("model", "a_bg_a0", float("-inf")),
        ("protocol", "t_max_ms", float("nan")),
        ("quadrature", "energy_order", float("inf")),
    ])
    def test_nonfinite_config_is_input_error(self, tmp_path, section, key,
                                             value):
        cfg = write_config(tmp_path, {section: {key: value}})
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 2
        assert not (out / "fringes.csv").exists()

    def test_missing_config_is_input_error(self, tmp_path):
        assert main(["simulate", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path)]) == 2

    def test_meta_hashes_artifacts(self, tmp_path):
        import hashlib
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        meta = json.loads((out / "fringes.meta.json").read_text())
        digest = hashlib.sha256((out / "fringes.csv").read_bytes()).hexdigest()
        assert meta["csv_hash"] == digest
        assert meta["config_hash"] == config_hash(meta["config"])


class TestAnalyze:
    def test_simulate_then_analyze(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["analyze", str(out / "fringes.csv"),
                     "--out", str(out)]) == 0
        result = json.loads((out / "analysis.json").read_text())
        assert result["T2_ms"] is not None and result["T2_ms"] > 0
        assert result["delta_Hz"] is not None and result["delta_Hz"] < 0

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["analyze", str(tmp_path / "nope.csv"),
                     "--out", str(tmp_path)]) == 2

    # (column, value) written into the fifth data row (CSV line 6)
    @pytest.mark.parametrize("column, value", [
        ("p_err", "-0.01"), ("p_err", "0"), ("p_err", "nan"),
        ("p", "inf"), ("p", "nan"), ("t_ms", "nan"), ("t_ms", "-1"),
        ("phase_deg", "inf"),
    ])
    def test_bad_fringe_value_is_input_error(self, tmp_path, capsys, column,
                                             value):
        t = np.linspace(0.5e-3, 3e-3, 6)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        p = 0.5 - 0.4 * np.cos(phi[None, :] - 1.0 - 900.0 * t[:, None])
        lines = fringe_to_csv(FringeSeries(t=t, phi=phi, p=p,
                                           p_err=np.full_like(p, 0.02))
                              ).splitlines()
        cols = lines[0].split(",")
        cells = lines[5].split(",")
        cells[cols.index(column)] = value
        lines[5] = ",".join(cells)
        path = tmp_path / "fringes.csv"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "run"
        assert main(["analyze", str(path), "--out", str(out)]) == 2
        assert "row 6" in capsys.readouterr().err
        assert not (out / "analysis.json").exists()


class TestSweep:
    def test_density_trend(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {
            "parameter": "peak_density_per_cm3",
            "values": [0.5e13, 1.0e13, 2.0e13]}})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        data = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
        assert np.all(np.diff(data["T2_ms"]) < 0)
        assert np.all(np.diff(np.abs(data["delta_Hz"])) > 0)

    def test_temperature_trend(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {
            "parameter": "temperature_nK",
            "values": [300.0, 600.0, 1000.0]}})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        data = np.genfromtxt(out / "sweep.csv", delimiter=",", names=True)
        assert np.all(np.diff(data["T2_ms"]) > 0)

    def test_single_value_is_input_error(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {
            "parameter": "temperature_nK", "values": [300.0]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_bad_value_is_input_error(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {
            "parameter": "temperature_nK", "values": [300.0, "hot"]}})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
        assert not out.exists()

    def test_unknown_parameter_is_input_error(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {
            "parameter": "rabi_freq_kHz", "values": [1.0, 2.0]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2


class TestCalibrate:
    def test_release_curve(self, tmp_path):
        from impurityprobe.calibration import release_curve
        from impurityprobe.constants import CONST
        T_true = 1.7e-6
        depth_uK = np.linspace(0.2, 10.0, 20)
        frac = release_curve(depth_uK * CONST.k_B * 1e-6, T_true)
        path = tmp_path / "release.csv"
        path.write_text("depth_kB_uK,fraction\n" + "\n".join(
            f"{d},{f}" for d, f in zip(depth_uK, frac)) + "\n")
        out = tmp_path / "cal"
        assert main(["calibrate", "release", str(path),
                     "--out", str(out)]) == 0
        ledger = json.loads((out / "calibration.json").read_text())
        (entry,) = ledger.values()
        assert entry["T_uK"] == pytest.approx(1.7, rel=0.01)

    def test_zeeman(self, tmp_path):
        B_G = np.linspace(0.0, 0.5, 12)
        shift_hz = 417.2 * B_G**2 + 3.0
        path = tmp_path / "zeeman.csv"
        path.write_text("B_G,shift_Hz\n" + "\n".join(
            f"{b},{s}" for b, s in zip(B_G, shift_hz)) + "\n")
        out = tmp_path / "cal"
        assert main(["calibrate", "zeeman", str(path), "--out", str(out)]) == 0
        ledger = json.loads((out / "calibration.json").read_text())
        (entry,) = ledger.values()
        assert entry["a_Hz_per_G2"] == pytest.approx(417.2, rel=1e-6)

    def test_lightshift(self, tmp_path):
        P = np.linspace(0.0, 1.0, 10)
        shift_hz = 1083.0 * P + 2.0
        path = tmp_path / "ls.csv"
        path.write_text("P_W,shift_Hz\n" + "\n".join(
            f"{p},{s}" for p, s in zip(P, shift_hz)) + "\n")
        out = tmp_path / "cal"
        assert main(["calibrate", "lightshift", str(path),
                     "--out", str(out)]) == 0
        ledger = json.loads((out / "calibration.json").read_text())
        (entry,) = ledger.values()
        assert entry["slope_Hz_per_W"] == pytest.approx(1083.0, rel=1e-9)

    def test_bfield(self, tmp_path):
        from impurityprobe.calibration import rabi_lineshape
        rabi_hz = 1.0e3
        mw_hz = 0.7e6 * 0.1985
        omega_bg = TWO_PI * 0.7e6 * 0.150  # coil supplies the remaining field
        f_hz = mw_hz - omega_bg / TWO_PI + np.linspace(-2.5, 2.5, 41) * rabi_hz
        p = rabi_lineshape(TWO_PI * f_hz, TWO_PI * rabi_hz, omega_bg,
                           TWO_PI * mw_hz)
        path = tmp_path / "bfield.csv"
        path.write_text("f_Hz,p\n" + "\n".join(
            f"{f},{v}" for f, v in zip(f_hz, p)) + "\n")
        out = tmp_path / "cal"
        assert main(["calibrate", "bfield", str(path), "--out", str(out),
                     "--rabi-hz", str(rabi_hz), "--mw-hz", str(mw_hz)]) == 0
        ledger = json.loads((out / "calibration.json").read_text())
        (entry,) = ledger.values()
        assert entry["B_coil_mG"] == pytest.approx(198.5 - 150.0, rel=1e-6)

    def test_ledger_accumulates(self, tmp_path):
        P = np.linspace(0.0, 1.0, 10)
        out = tmp_path / "cal"
        for k, slope in enumerate((1083.0, 1104.0)):
            path = tmp_path / f"ls{k}.csv"
            path.write_text("P_W,shift_Hz\n" + "\n".join(
                f"{p},{slope * p}" for p in P) + "\n")
            assert main(["calibrate", "lightshift", str(path),
                         "--out", str(out)]) == 0
        ledger = json.loads((out / "calibration.json").read_text())
        assert len(ledger) == 2

    @pytest.mark.parametrize("text", ["", "0.1,1083\n0.2,1094\n0.3,1105\n"
                                      "0.4,1116\n"], ids=["empty", "headerless"])
    def test_csv_without_header_is_input_error(self, tmp_path, capsys, text):
        # read as a header, a data row would silently drop out of the fit
        path = tmp_path / "ls.csv"
        path.write_text(text)
        out = tmp_path / "cal"
        assert main(["calibrate", "lightshift", str(path),
                     "--out", str(out)]) == 2
        assert f"{path}: row 1 must be the header" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_replace_keeps_ledger(self, tmp_path, monkeypatch):
        P = np.linspace(0.0, 1.0, 10)
        out = tmp_path / "cal"
        paths = []
        for k, slope in enumerate((1083.0, 1104.0)):
            paths.append(tmp_path / f"ls{k}.csv")
            paths[-1].write_text("P_W,shift_Hz\n" + "".join(
                f"{p},{slope * p}\n" for p in P))
        assert main(["calibrate", "lightshift", str(paths[0]),
                     "--out", str(out)]) == 0
        ledger = (out / "calibration.json").read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError, match="disk full"):
            main(["calibrate", "lightshift", str(paths[1]), "--out", str(out)])
        assert (out / "calibration.json").read_bytes() == ledger
        assert os.listdir(out) == ["calibration.json"]

    def test_malformed_csv_is_input_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x,y\noops,data\n")
        assert main(["calibrate", "release", str(path),
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("bad_err", ["-0.1", "inf", ""],
                             ids=["negative", "inf", "half-filled"])
    def test_bad_y_err_is_input_error(self, tmp_path, bad_err):
        rows = [[f"{p}", f"{1083.0 * p + 2.0}", "0.5"]
                for p in np.linspace(0.0, 1.0, 8)]
        rows[3][2] = bad_err
        path = tmp_path / "ls.csv"
        path.write_text("P_W,shift_Hz,err_Hz\n"
                        + "\n".join(",".join(r) for r in rows) + "\n")
        out = tmp_path / "cal"
        assert main(["calibrate", "lightshift", str(path),
                     "--out", str(out)]) == 2
        assert not (out / "calibration.json").exists()


class TestInfer:
    def test_density_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["simulate", "--config", cfg, "--out", str(out)]) == 0
        assert main(["analyze", str(out / "fringes.csv"),
                     "--out", str(out)]) == 0
        ana = json.loads((out / "analysis.json").read_text())
        assert main(["infer", "density", "--config", cfg, "--out", str(out),
                     "--delta-hz", str(ana["delta_Hz"]),
                     "--t2-ms", str(ana["T2_ms"])]) == 0
        result = json.loads((out / "inference.json").read_text())
        assert result["estimate_per_cm3"] == pytest.approx(1.5e13, rel=0.05)

    def test_flat_objective_is_inference_error(self, tmp_path):
        # a_g == a_e: no density dependence anywhere in the signal
        cfg = write_config(tmp_path, {"model": {"delta_B_mG": 0.0,
                                                "a_bg_a0": 539.0}})
        assert main(["infer", "density", "--config", cfg,
                     "--out", str(tmp_path), "--t2-ms", "1.0"]) == 4

    def test_without_background_is_input_error(self, tmp_path, capsys):
        # the forward model behind every inversion includes the background
        cfg = write_config(tmp_path, {"include_background": False})
        out = tmp_path / "run"
        assert main(["infer", "density", "--config", cfg, "--out", str(out),
                     "--t2-ms", "0.6"]) == 2
        assert "include_background" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_observable_is_input_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["infer", "density", "--config", cfg,
                     "--out", str(tmp_path)]) == 2

    @pytest.mark.parametrize("kind,flag,value", [
        ("density", "--delta-hz", "nan"), ("density", "--t2-ms", "inf"),
        ("density", "--delta-hz", "0"), ("temperature", "--t2-ms", "nan")])
    def test_bad_observable_is_input_error(self, tmp_path, kind, flag, value):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["infer", kind, "--config", cfg, "--out", str(out),
                     flag, value]) == 2
        assert not (out / "inference.json").exists()

    def test_failed_run_creates_no_output_directory(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "run"
        assert main(["infer", "density", "--config", cfg, "--out", str(out),
                     "--delta-hz", "nan"]) == 2
        assert main(["infer", "density", "--config", cfg,
                     "--out", str(out)]) == 2
        assert not out.exists()
