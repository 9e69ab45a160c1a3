import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import impurityprobe
from impurityprobe import cli, serialization
from impurityprobe.cli import main
from impurityprobe.inference import forward_observables
from impurityprobe.ramsey import FringeSeries, fringe_closed_form, no_bath_trace
from impurityprobe.serialization import (ConfigError, DEFAULT_CONFIG,
                                         canonical_json, config_hash,
                                         fringe_from_csv, fringe_to_csv,
                                         load_config, merge_config,
                                         model_from_config,
                                         protocol_from_config,
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

    def test_array_config_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "config.json"
        path.write_text(json.dumps([FAST_CONFIG]))
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert "must hold a JSON object" in capsys.readouterr().err

    def test_bad_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            load_config(str(path))

    def test_integers_accepted_for_numbers(self):
        validate_config(merge_config({"bath": {"temperature_nK": 850},
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
        # there is no trap key (the forward model reads only n0 and T), so
        # both trap cases are refused as unknown keys
        ({"bath": {"trap_freq_Hz": [100.0, 100.0]}}, "bath.trap_freq_Hz"),
        ({"bath": {"trap_freq_Hz": [100.0, "100", 100.0]}}, "bath.trap_freq_Hz"),
        ({"include_background": "false"}, "include_background"),
        ({"protocol": {"t_spacing": "cubic"}}, "protocol.t_spacing"),
        ({"model": {"table_csv": 5}}, "model.table_csv"),
        ({"protocol": {"phi_step_deg": 0.0}}, "protocol.phi_step_deg"),
        ({"protocol": {"phi_step_deg": 200.0}}, "protocol.phi_step_deg"),
        ({"noise": {"atoms": 1000, "repetitions": 1}}, "noise"),
        ({"noise": {"atoms_per_shot": 10.9, "repetitions": 1}}, "noise"),
        ({"scenario": "default"}, "scenario"),
        ({"protocol": {"rabi_freq_kHz": 15.4}}, "protocol.rabi_freq_kHz"),
        ({"include_background": True}, "include_background"),
        ({"schema_version": 2}, "schema_version"),
        # the profile is bounded by its width: the model has no cap
        ({"model": {"a_cap_a0": 25000.0}}, "model.a_cap_a0"),
        ({"bath": {"peak_density_per_cm3": 0.0}},
         "bath.peak_density_per_cm3 must be positive"),
        ({"protocol": {"t_min_ms": 5.0, "t_max_ms": 1.0}}, "0 < t_min_ms < t_max_ms"),
        ({"protocol": {"n_t": 1}}, "protocol.n_t must be >= 2"),
        ({"protocol": {"T2_bg_ms": 0.0}}, "protocol.T2_bg_ms must be positive"),
        ({"quadrature": {"energy_order": 1}}, "quadrature orders must be >= 2"),
    ], ids=["unknown-key", "unknown-section", "string", "bool", "null",
            "fractional-n_t", "float-order", "fractional-seed", "trap-length",
            "trap-string", "string-bool", "spacing", "table-type",
            "phi-step-zero", "phi-step-wide",
            "noise-key", "noise-fraction", "scenario", "rabi-freq",
            "background-true", "schema-version", "a-cap", "density-zero",
            "times-reversed", "one-time", "t2-bg-zero", "order-one"])
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
        # the forward model's rules are module constants, and the release
        # curve is evaluated in closed form: no verb needs scipy.special
        src = os.path.dirname(os.path.dirname(impurityprobe.__file__))
        code = "import sys, impurityprobe.cli; print('scipy.special' in sys.modules)"
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.strip() == "False"

    def test_no_verb_loads_scipy(self):
        # scripts/scipy_per_verb.py runs every verb on criterion-10 inputs,
        # each in a fresh interpreter, and exits 1 if one loads scipy or fails
        src = os.path.dirname(os.path.dirname(impurityprobe.__file__))
        script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                              "scripts", "scipy_per_verb.py")
        run = subprocess.run([sys.executable, script], capture_output=True, text=True,
                             timeout=600, env={**os.environ, "PYTHONPATH": src})
        assert run.returncode == 0, run.stdout + run.stderr

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

    @pytest.mark.parametrize("kind", ["release", "bfield"])
    def test_nonlinear_calibration_leaves_scipy_unloaded(self, tmp_path, kind):
        # one-parameter fits: Gauss-Newton steps on a closed-form model
        from impurityprobe.calibration import rabi_lineshape, release_curve
        from impurityprobe.constants import CONST
        src = os.path.dirname(os.path.dirname(impurityprobe.__file__))
        if kind == "release":
            x = np.linspace(0.2, 10.0, 20)  # depth, kB uK
            y = release_curve(x * CONST.k_B * 1e-6, 1.7e-6)
        else:
            mw = 0.7e6 * 0.1985  # the CLI's default --mw-hz and --rabi-hz
            x = mw + np.linspace(-2.5, 2.5, 41) * 1e3
            y = rabi_lineshape(TWO_PI * x, TWO_PI * 1e3, 0.0, TWO_PI * mw)
        path = tmp_path / "cal.csv"
        path.write_text("x,y\n" + "".join(f"{a:.17g},{b:.17g}\n" for a, b in zip(x, y)))
        argv = ["calibrate", kind, str(path), "--out", str(tmp_path / "cal")]
        code = ("import sys; from impurityprobe.cli import main; "
                f"rc = main({argv!r}); print(rc, 'scipy.optimize' in sys.modules, "
                "'scipy.special' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                             text=True, check=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": src})
        assert out.stdout.split()[-3:] == ["0", "False", "False"]


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
        # refused as an unknown key: a config has no trap
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

    @staticmethod
    def write_fringes(tmp_path, p):
        # fringes at t = 0.05, 0.3, ..., 1.3 ms on 12 phases
        t = np.arange(0.05e-3, 1.4e-3, 0.25e-3)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        path = tmp_path / "fringes.csv"
        path.write_text(fringe_to_csv(FringeSeries(t=t, phi=phi, p=p(t, phi))))
        return str(path)

    def test_no_slope_below_t2_writes_null_delta(self, tmp_path):
        # T2 = 0.1 ms leaves one fringe inside the slope window
        path = self.write_fringes(tmp_path, lambda t, phi: np.array(
            [fringe_closed_form(tk, phi, TWO_PI * 200.0, 0.1e-3) for tk in t]))
        assert main(["analyze", path, "--out", str(tmp_path)]) == 0
        result = json.loads((tmp_path / "analysis.json").read_text())
        assert result["delta_Hz"] is None and result["analysis"]["slope_fit"] is None
        assert result["T2_ms"] == pytest.approx(0.1, rel=1e-6)
        assert any(w.startswith("phase slope not extracted")
                   for w in result["analysis"]["warnings"])

    def test_rising_visibility_is_numeric_error(self, tmp_path, capsys):
        path = self.write_fringes(tmp_path, lambda t, phi: 0.5 - 0.5 * np.outer(
            np.linspace(0.2, 0.9, len(t)), np.cos(phi - 1.0)))
        out = tmp_path / "run"
        assert main(["analyze", path, "--out", str(out)]) == 3
        assert "visibility increases monotonically" in capsys.readouterr().err
        assert not out.exists()


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

    @pytest.mark.parametrize("sweep", [
        None, [300.0, 600.0], {"parameter": "temperature_nK", "values": 300.0},
        {"parameter": "temperature_nK", "values": [300.0, 600.0], "step": 1}],
        ids=["missing", "list", "scalar-values", "extra-key"])
    def test_malformed_section_is_input_error(self, tmp_path, capsys, sweep):
        cfg = write_config(tmp_path, {} if sweep is None else {"sweep": sweep})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path / "run")]) == 2
        assert "sweep config needs" in capsys.readouterr().err

    def test_unknown_parameter_is_input_error(self, tmp_path):
        cfg = write_config(tmp_path, {"sweep": {
            "parameter": "rabi_freq_kHz", "values": [1.0, 2.0]}})
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == 2

    def test_table_model_read_once(self, tmp_path, monkeypatch):
        # the model and protocol are built once per verb: the table was
        # read and parsed again for every swept value
        table = tmp_path / "table.csv"
        table.write_text("B_mG,E_over_kB_nK,a_over_a0\n" + "".join(
            f"{b},{e},{650.0 + 0.01 * e - b}\n"
            for b in (190.0, 200.0, 210.0) for e in (0.0, 500.0, 5000.0)))
        reads = []

        def counting(path, a_e):
            reads.append(path)
            return table_from_csv(path, a_e)

        table_from_csv = serialization._table_from_csv
        monkeypatch.setattr(serialization, "_table_from_csv", counting)
        cfg = write_config(tmp_path, {"model": {"table_csv": str(table)}, "sweep": {
            "parameter": "temperature_nK", "values": [300.0, 600.0, 1000.0]}})
        out = tmp_path / "sweep"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert len(out.joinpath("sweep.csv").read_text().splitlines()) == 4
        assert reads == [str(table)]


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

    def test_failed_replace_keeps_ledger(self, tmp_path, monkeypatch, capsys):
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
        assert main(["calibrate", "lightshift", str(paths[1]), "--out", str(out)]) == 2
        assert "input error: disk full" in capsys.readouterr().err
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

    def test_temperature_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path)
        loaded = load_config(cfg)
        obs = forward_observables(1.5e19, 850e-9, model_from_config(loaded),
                                  protocol_from_config(loaded),
                                  density_order=128, energy_order=128)
        blobs = []
        for run in ("run1", "run2"):
            out = tmp_path / run
            assert main(["infer", "temperature", "--config", cfg, "--out", str(out),
                         "--t2-ms", repr(obs["T2"] * 1e3)]) == 0
            blobs.append((out / "inference.json").read_bytes())
        result = json.loads(blobs[0])
        assert result["kind"] == "temperature"
        assert result["estimate_nK"] == pytest.approx(850.0, rel=0.02)
        assert blobs[0] == blobs[1]

    @pytest.mark.parametrize("kind", ["density", "temperature"])
    def test_known_bath_is_the_simulated_bath(self, tmp_path, monkeypatch, kind):
        # at 800 nK, 800 * 1e-9 is 1 ulp above the 800 / 1e9 that simulate
        # synthesizes with; infer takes its bath from the same conversion
        cfg = write_config(tmp_path, {"bath": {"temperature_nK": 800.0,
                                               "peak_density_per_cm3": 1.7e13}})
        bath = serialization.bath_from_config(load_config(cfg))
        known = []

        def capture(observed, value, *args, **kwargs):
            known.append(value)
            raise cli.InferenceError("captured", "test")
        monkeypatch.setattr(cli, f"infer_{kind}", capture)
        assert main(["infer", kind, "--config", cfg, "--out", str(tmp_path / "run"),
                     "--t2-ms", "0.6"]) == 4
        assert known == [bath.T if kind == "density" else bath.n0]

    def test_flat_objective_is_inference_error(self, tmp_path):
        # a_g == a_e: no density dependence anywhere in the signal
        cfg = write_config(tmp_path, {"model": {"delta_B_mG": 0.0,
                                                "a_bg_a0": 539.0}})
        assert main(["infer", "density", "--config", cfg,
                     "--out", str(tmp_path), "--t2-ms", "1.0"]) == 4

    def test_without_background_is_input_error(self, tmp_path, capsys):
        # there is no such key: the protocol's delta_bg_Hz and T2_bg_ms
        # alone describe the background, so the switch is an unknown key
        cfg = write_config(tmp_path, {"include_background": False})
        out = tmp_path / "run"
        assert main(["infer", "density", "--config", cfg, "--out", str(out),
                     "--t2-ms", "0.6"]) == 2
        assert "include_background" in capsys.readouterr().err
        assert not out.exists()

    def test_seed_is_not_an_infer_option(self, tmp_path, capsys):
        # no inversion draws noise: --seed only changed the config hash
        cfg = write_config(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(["infer", "density", "--config", cfg, "--out", str(tmp_path / "run"),
                  "--t2-ms", "0.6", "--seed", "1"])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_missing_observable_is_input_error(self, tmp_path):
        cfg = write_config(tmp_path)
        assert main(["infer", "density", "--config", cfg,
                     "--out", str(tmp_path)]) == 2

    def test_temperature_without_t2_is_input_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["infer", "temperature", "--config", cfg,
                     "--out", str(tmp_path / "run"), "--delta-hz", "-50"]) == 2
        assert "temperature inference needs --t2-ms" in capsys.readouterr().err

    def test_minimum_at_the_bracket_edge_is_inference_error(self, tmp_path, capsys):
        # no density in the bracket dephases as slowly as 1 s: the misfit
        # falls toward the lowest density, the bracket's edge
        cfg = write_config(tmp_path)
        assert main(["infer", "density", "--config", cfg,
                     "--out", str(tmp_path / "run"), "--t2-ms", "1000"]) == 4
        assert "[bracket]: objective minimum not inside the bracket" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("kind,flag,value", [
        ("density", "--delta-hz", "nan"), ("density", "--t2-ms", "inf"),
        ("density", "--delta-hz", "0"), ("temperature", "--t2-ms", "nan"),
        ("density", "--t2-ms", "-0.6"), ("density", "--t2-ms", "0")])
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


class TestNumberArguments:
    """Numbers given on the command line are checked before any work, and
    the message names the flag or key: float() parses "nan" and "inf", and
    numpy refuses a negative seed only when it draws noise."""

    NOISY = {"noise": {"atoms_per_shot": 10, "repetitions": 3}}

    @pytest.mark.parametrize("argv, name", [
        (["analyze", "{fringes}", "--delta-bg-hz", "nan"], "--delta-bg-hz"),
        # finite in Hz, but 2 pi times it overflows
        (["analyze", "{fringes}", "--delta-bg-hz", "1e308"], "--delta-bg-hz"),
        # finite in rad/s, but the background phase (2e305 rad at 3 ms)
        # keeps no phase information
        (["analyze", "{fringes}", "--delta-bg-hz", "1e307"], "--delta-bg-hz"),
        (["calibrate", "bfield", "{spectrum}", "--rabi-hz", "nan"], "--rabi-hz"),
        (["calibrate", "bfield", "{spectrum}", "--mw-hz", "inf"], "--mw-hz"),
        (["infer", "density", "--config", "{config}", "--delta-hz", "inf"],
         "--delta-hz"),
        (["infer", "temperature", "--config", "{config}", "--t2-ms", "nan"],
         "--t2-ms"),
        (["simulate", "--config", "{config}", "--seed", "-5"], "--seed"),
        (["simulate", "--config", "{seed_config}"], "seed must be"),
    ], ids=["delta-bg-hz", "delta-bg-hz-overflow", "delta-bg-hz-phase", "rabi-hz", "mw-hz", "delta-hz", "t2-ms", "seed",
            "config-seed"])
    def test_bad_number_is_input_error(self, tmp_path, capsys, argv, name):
        t = np.linspace(0.5e-3, 3e-3, 6)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        p = 0.5 - 0.4 * np.cos(phi[None, :] - 1.0 - 900.0 * t[:, None])
        fringes = tmp_path / "fringes.csv"
        fringes.write_text(fringe_to_csv(FringeSeries(t=t, phi=phi, p=p)))
        spectrum = tmp_path / "bfield.csv"
        spectrum.write_text("f_Hz,p\n" + "".join(
            f"{f},{np.exp(-(f / 500.0) ** 2)}\n"
            for f in np.linspace(-2500.0, 2500.0, 41)))
        files = {"fringes": fringes, "spectrum": spectrum,
                 "config": write_config(tmp_path, self.NOISY),
                 "seed_config": write_config(tmp_path, {**self.NOISY,
                                                        "seed": -5},
                                             name="seed.json")}
        out = tmp_path / "run"
        args = [a.format(**files) for a in argv] + ["--out", str(out)]
        assert main(args) == 2
        assert name in capsys.readouterr().err
        assert not out.exists()


class TestPathErrors:
    """A path of the wrong kind is an input error (exit 2) whose message
    names the path: a directory or a non-UTF-8 file where a file is read,
    a file where the output directory goes, and a name of 300 characters
    (ENAMETOOLONG, an OSError of no narrower class) in either place."""

    @pytest.mark.parametrize("argv, name", [
        (["analyze", "{dir}", "--out", "{out}"], "{dir}"),
        (["analyze", "{latin1_csv}", "--out", "{out}"], "{latin1_csv}"),
        (["simulate", "--config", "{dir}", "--out", "{out}"], "{dir}"),
        (["simulate", "--config", "{latin1_json}", "--out", "{out}"], "{latin1_json}"),
        (["simulate", "--config", "{table_config}", "--out", "{out}"], "{dir}"),
        (["calibrate", "lightshift", "{cal}", "--out", "{file}"], "{file}"),
        (["calibrate", "lightshift", "{cal}", "--out", "{file}/sub"], "{file}/sub"),
        (["analyze", "{fringes}", "--out", "{file}"], "{file}"),
        (["calibrate", "lightshift", "{cal}", "--out", "{long}"], "{long}"),
        (["analyze", "{long}.csv", "--out", "{out}"], "{long}.csv"),
    ], ids=["analyze-directory", "analyze-non-utf8", "config-directory",
            "config-non-utf8", "table-directory", "out-is-a-file",
            "out-under-a-file", "analyze-out-is-a-file", "out-name-too-long",
            "analyze-name-too-long"])
    def test_wrong_kind_of_path_is_input_error(self, tmp_path, capsys, argv, name):
        t = np.linspace(0.5e-3, 3e-3, 6)
        phi = np.linspace(0.0, TWO_PI, 12, endpoint=False)
        p = 0.5 - 0.4 * np.cos(phi[None, :] - 1.0 - 900.0 * t[:, None])
        fringes = tmp_path / "fringes.csv"
        fringes.write_text(fringe_to_csv(FringeSeries(t=t, phi=phi, p=p)))
        (tmp_path / "dir").mkdir()
        (tmp_path / "file").write_text("not a directory\n")
        (tmp_path / "cal.csv").write_text("P_W,shift_Hz\n" + "".join(
            f"{x},{1083.0 * x}\n" for x in np.linspace(0.0, 1.0, 10)))
        (tmp_path / "latin1.csv").write_bytes(fringes.read_bytes() + b"\xe9\n")
        (tmp_path / "latin1.json").write_bytes(b'{"seed": 1, "x": "\xe9"}')
        files = {"dir": tmp_path / "dir", "file": tmp_path / "file",
                 "cal": tmp_path / "cal.csv", "fringes": fringes,
                 "latin1_csv": tmp_path / "latin1.csv",
                 "latin1_json": tmp_path / "latin1.json",
                 "table_config": write_config(tmp_path, {"model": {
                     "table_csv": str(tmp_path / "dir")}}, name="table.json"),
                 "out": tmp_path / "run", "long": tmp_path / ("x" * 300)}
        assert main([a.format(**files) for a in argv]) == 2
        assert name.format(**files) in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "not a directory\n"
        assert not (tmp_path / "run").exists()

    def test_permission_error_is_input_error(self, tmp_path, capsys, monkeypatch):
        # a directory the CLI may not create (file modes cannot show it to
        # a root user, so os.makedirs raises it here)
        def refuse(path, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(path))
        monkeypatch.setattr(serialization.os, "makedirs", refuse)
        cal = tmp_path / "cal.csv"
        cal.write_text("P_W,shift_Hz\n" + "".join(
            f"{x},{1083.0 * x}\n" for x in np.linspace(0.0, 1.0, 10)))
        out = tmp_path / "run"
        assert main(["calibrate", "lightshift", str(cal), "--out", str(out)]) == 2
        assert f"input error: [Errno 13] Permission denied: '{out}'" in capsys.readouterr().err
        assert not out.exists()
