"""The file boundary: the shared CSV reader's messages and bits, and the
canonical JSON form of every artifact."""

import json
import math
import re
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from impurityprobe import serialization
from impurityprobe.calibration import release_curve
from impurityprobe.cli import main
from impurityprobe.constants import CONST
from impurityprobe.ramsey import FringeSeries, RamseyProtocol
from impurityprobe.scattering import ResonanceModel
from impurityprobe.serialization import (ConfigError, canonical_json,
                                         fringe_from_csv, fringe_to_csv,
                                         xy_from_csv)

# (header, valid data rows, reader) of each reader; a fringe CSV is a 2 x 4
# (t, phase) grid, a calibration CSV x, y and y_err by position
READERS = {
    "fringe": ("t_ms,phase_deg,p,p_err",
               [f"{t},{phase},{0.5 + 0.1 * t},0.02" for t in (1, 2)
                for phase in (0, 90, 180, 270)], fringe_from_csv),
    "xy": ("x,y,y_err", [f"{x},{2.0 * x + 1.0},0.1" for x in range(8)], xy_from_csv),
}


def set_field(rows, k, col, value):
    """rows with field col of CSV row k (the header is row 1) set to value."""
    rows = list(rows)
    cells = rows[k - 2].split(",")
    cells[col] = value
    rows[k - 2] = ",".join(cells)
    return rows


def read(tmp_path, reader, lines):
    """The arrays the reader returns for a CSV of lines (None for no errors)."""
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n")
    out = READERS[reader][2](str(path))
    return ((out.t, out.phi, out.p, out.p_err) if isinstance(out, FringeSeries)
            else out[:3])


@pytest.mark.parametrize("reader", READERS)
class TestReaderMessages:
    """Each rule of the shared reader names the first data row that breaks
    it, counting the header as row 1 and not counting blank lines."""

    # (CSV row, column, value) written into the valid rows, and the message;
    # column -1 is the error column
    CASES = {
        "unparseable": ([(4, 1, "abc")], "row 4: could not convert string to float: 'abc'"),
        "empty-value": ([(3, 0, "")], "row 3: could not convert string to float: ''"),
        "nan-value": ([(5, 1, "nan")], "row 5: values must be finite"),
        "inf-value": ([(2, 0, "-inf")], "row 2: values must be finite"),
        "nan-error": ([(6, -1, "nan")], "row 6: values must be finite"),
        "inf-error": ([(3, -1, "inf")], "row 3: values must be finite"),
        "zero-error": ([(3, -1, "0")], "row 3: {err} must be positive"),
        "negative-error": ([(7, -1, "-0.5")], "row 7: {err} must be positive"),
        "half-filled-error": ([(5, -1, "")], "row 5: {err} is empty but other rows have one"),
        # the first bad row wins, whichever rule it breaks
        "nan-before-unparseable": ([(3, 1, "nan"), (4, 0, "x")],
                                   "row 3: values must be finite"),
        "unparseable-before-nan": ([(3, 0, "x"), (4, 1, "nan")],
                                   "row 3: could not convert string to float: 'x'"),
        "empty-error-before-negative": ([(3, -1, ""), (8, -1, "-1")],
                                        "row 8: {err} must be positive"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_names_the_first_bad_row(self, tmp_path, reader, case):
        header, rows, _ = READERS[reader]
        edits, message = self.CASES[case]
        for k, col, value in edits:
            rows = set_field(rows, k, col, value)
        err = header.split(",")[-1]
        with pytest.raises(ConfigError) as info:
            read(tmp_path, reader, [header, *rows])
        assert str(info.value) == f"{tmp_path / 'data.csv'}: {message.format(err=err)}"

    def test_no_data_rows(self, tmp_path, reader):
        with pytest.raises(ConfigError, match=": no data rows$"):
            read(tmp_path, reader, [READERS[reader][0], "", ""])

    def test_blank_lines_are_skipped_and_not_counted(self, tmp_path, reader):
        header, rows, _ = READERS[reader]
        plain = read(tmp_path, reader, [header, *rows])
        blank = read(tmp_path, reader, [header, rows[0], "", *rows[1:], ""])
        for a, b in zip(plain, blank):
            assert a.tobytes() == b.tobytes()
        # the blank line after row 2 does not move the bad row's number
        bad = set_field(rows, 4, 1, "nan")
        with pytest.raises(ConfigError, match=": row 4: values must be finite$"):
            read(tmp_path, reader, [header, bad[0], "", *bad[1:]])

    def test_nonfinite_row_before_a_short_row_is_reported(self, tmp_path, reader):
        header, rows, _ = READERS[reader]
        rows = set_field(rows, 3, 1, "inf")
        rows[2] = "1,2"   # row 4 has 2 fields
        with pytest.raises(ConfigError, match=": row 3: values must be finite$"):
            read(tmp_path, reader, [header, *rows])
        rows = set_field(rows, 3, 1, "1")
        n = len(header.split(","))
        with pytest.raises(ConfigError, match=f": row 4: 2 fields, the header has {n}$"):
            read(tmp_path, reader, [header, *rows])

    @pytest.mark.parametrize("tail, match", [
        (b"\xff\n", "'utf-8' codec can't decode byte 0xff"),
        (b"1," + b"2" * (1 << 18) + b"\n", "field larger than field limit"),
    ], ids=["non-utf8", "oversize-field"])
    def test_unreadable_text_names_the_file(self, tmp_path, reader, tail, match):
        header, rows, read_csv = READERS[reader]
        path = tmp_path / "data.csv"
        path.write_bytes(("\n".join([header, *rows]) + "\n").encode() + tail)
        with pytest.raises(ConfigError, match=f"^{re.escape(str(path))}: .*{match}"):
            read_csv(str(path))


def test_repeat_with_as_many_rows_as_cells_is_named(tmp_path):
    # 2 x 4 cells and 8 rows, but (2, 270) is missing and (1, 0) comes twice
    header, rows, _ = READERS["fringe"]
    with pytest.raises(ConfigError, match=r": row 9: repeats \(t_ms, phase_deg\) "
                                          "of row 2$"):
        read(tmp_path, "fringe", [header, *rows[:-1], rows[0]])


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n_t=st.integers(2, 30), n_phi=st.integers(4, 16),
       noisy=st.booleans(), phase0=st.floats(0.0, 1.0))
def test_fringe_csv_round_trip(tmp_path_factory, fringe_csv_referee, data, n_t,
                               n_phi, noisy, phase0):
    """fringe_to_csv then fringe_from_csv: p and p_err come back bit for bit,
    t and phi (stored in ms and degrees) to 1e-15, and every array equals
    the per-row float() referee's bit for bit."""
    t = np.cumsum(data.draw(arrays(np.float64, n_t, elements=st.floats(1e-6, 1e-3))))
    phi = (phase0 + np.arange(n_phi)) * (2.0 * math.pi / n_phi)
    p = data.draw(arrays(np.float64, (n_t, n_phi), elements=st.floats(0.0, 1.0)))
    p_err = data.draw(arrays(np.float64, (n_t, n_phi), elements=st.floats(
        0.0, 1.0, exclude_min=True))) if noisy else None
    path = tmp_path_factory.mktemp("csv") / "fringes.csv"
    path.write_text(fringe_to_csv(FringeSeries(t=t, phi=phi, p=p, p_err=p_err)))
    back = fringe_from_csv(str(path))
    assert back.p.tobytes() == p.tobytes()
    assert (back.p_err is None if p_err is None
            else back.p_err.tobytes() == p_err.tobytes())
    np.testing.assert_allclose(back.t, t, rtol=1e-15, atol=0.0)
    np.testing.assert_allclose(back.phi, phi, rtol=1e-15, atol=0.0)
    for mine, ref in zip((back.t, back.phi, back.p, back.p_err), fringe_csv_referee(path)):
        assert mine is None and ref is None or mine.tobytes() == ref.tobytes()


# round p as well as arbitrary: 17 digits write 0 and 1 as "0" and "1",
# where a float's repr adds ".0"
P_VALUES = st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n_t=st.integers(1, 30), n_phi=st.integers(1, 16),
       noisy=st.booleans(), t0=st.booleans())
def test_fringe_csv_matches_the_cell_by_cell_writer(fringe_csv_writer_referee,
                                                    data, n_t, n_phi, noisy, t0):
    """fringe_to_csv's one-pass text equals the per-cell referee's byte for
    byte: times from t = 0, phases negative, past 2 pi and unsorted, p
    arbitrary and round, p_err over 300 decades."""
    t = np.cumsum(data.draw(arrays(np.float64, n_t, elements=st.floats(1e-9, 1e-2))))
    t -= t[0] if t0 else 0.0
    phi = data.draw(arrays(np.float64, n_phi, elements=st.floats(-20.0, 20.0)))
    p = data.draw(arrays(np.float64, (n_t, n_phi), elements=P_VALUES))
    p_err = data.draw(arrays(np.float64, (n_t, n_phi), elements=st.floats(
        1e-300, 1.0))) if noisy else None
    series = FringeSeries(t=t, phi=phi, p=p, p_err=p_err)
    assert fringe_to_csv(series) == fringe_csv_writer_referee(series)


def test_rows_to_csv_writes_17_digits_and_none_as_empty():
    # the sweep table: an int from the config, a missing slope, a numpy float
    assert (serialization.rows_to_csv("x,y,z", [(400, None, 0.1),
                                                 (np.float64(2.5), 1e-300, None)])
            == "x,y,z\n400,,0.10000000000000001\n2.5,1e-300,\n")


def write_json_indented(path, obj):
    """The JSON writer before artifacts were canonical: sorted keys, indent 2."""
    serialization._write_text(path, json.dumps(obj, sort_keys=True, indent=2) + "\n")


# criterion 10's artifacts, by verb
ARTIFACTS = ("fringes.csv", "fringes.meta.json", "analysis.json", "sweep.csv",
             "sweep.meta.json", "calibration.json", "inference.json")


def run_every_verb(tmp_path, out):
    """Criterion 10's five verbs on its inputs; returns {artifact: bytes}."""
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({
        "bath": {"peak_density_per_cm3": 1.5e13, "temperature_nK": 850.0},
        "protocol": {"t_min_ms": 0.05, "t_max_ms": 3.0, "n_t": 10},
        "quadrature": {"density_order": 96, "energy_order": 96},
        "noise": {"atoms_per_shot": 10, "repetitions": 3},
        "sweep": {"parameter": "temperature_nK", "values": [400.0, 800.0]},
    }))
    release = tmp_path / "release.csv"
    depth = np.linspace(0.2, 10.0, 20)
    frac = release_curve(depth * CONST.k_B * 1e-6, 1.7e-6)
    release.write_text("depth_kB_uK,fraction\n" + "".join(
        f"{d},{f}\n" for d, f in zip(depth, frac)))
    for argv in (["simulate", "--config", str(cfg), "--seed", "42"],
                 ["analyze", str(out / "fringes.csv")],
                 ["sweep", "--config", str(cfg), "--seed", "42"],
                 ["calibrate", "release", str(release)],
                 ["infer", "density", "--config", str(cfg), "--t2-ms", "0.6"]):
        assert main(argv + ["--out", str(out)]) == 0
    return {name: (out / name).read_bytes() for name in ARTIFACTS}


class TestJsonArtifacts:
    def test_every_artifact_is_canonical_and_keeps_its_content(self, tmp_path,
                                                                monkeypatch):
        # the same runs with the indented writer: the CSVs are the same
        # bytes, and each JSON artifact holds the same content in the one
        # form that config_hash hashes
        canonical = run_every_verb(tmp_path, tmp_path / "canonical")
        monkeypatch.setattr(serialization, "write_json", write_json_indented)
        indented = run_every_verb(tmp_path, tmp_path / "indented")
        for name in ARTIFACTS:
            if name.endswith(".csv"):
                assert canonical[name] == indented[name]
                continue
            obj = json.loads(canonical[name])
            assert canonical[name].decode() == canonical_json(obj) + "\n"
            # canonical_json, not ==, so that a NaN compares equal to itself
            assert canonical_json(json.loads(indented[name])) == canonical_json(obj)
            assert len(canonical[name]) < len(indented[name])

    def test_ledger_in_the_indented_form_is_merged(self, tmp_path):
        out = tmp_path / "cal"
        out.mkdir()
        old = {"0" * 64: {"kind": "lightshift", "slope_Hz_per_W": 1083.0}}
        write_json_indented(str(out / "calibration.json"), old)
        path = tmp_path / "ls.csv"
        path.write_text("P_W,shift_Hz\n" + "".join(
            f"{p},{1104.0 * p + 2.0}\n" for p in np.linspace(0.0, 1.0, 10)))
        assert main(["calibrate", "lightshift", str(path), "--out", str(out)]) == 0
        text = (out / "calibration.json").read_text()
        ledger = json.loads(text)
        assert text == canonical_json(ledger) + "\n"
        assert len(ledger) == 2 and ledger["0" * 64] == old["0" * 64]
        (new,) = (v for k, v in ledger.items() if k != "0" * 64)
        assert new["slope_Hz_per_W"] == pytest.approx(1104.0, rel=1e-9)


def test_empty_config_is_the_library_defaults():
    # units are converted by dividing by exact powers of ten, and times
    # spaced in seconds, as default_grid spaces them; multiplying by the
    # inexact 1e-7 and 1e-3 moved B0 and 22 of the 30 times by an ulp
    cfg = serialization.merge_config({})
    model, protocol = serialization.model_from_config(cfg), serialization.protocol_from_config(cfg)
    assert [x.hex() for x in astuple(model)] == [x.hex() for x in astuple(ResonanceModel())]
    default = RamseyProtocol.default_grid()
    for name in ("t", "phi", "B", "delta_bg", "T2_bg"):
        got, want = np.asarray(getattr(protocol, name)), np.asarray(getattr(default, name))
        assert [x.hex() for x in got.ravel().tolist()] == [x.hex() for x in want.ravel().tolist()]
