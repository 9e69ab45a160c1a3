"""Referees shared by the test modules."""

import io
import math

import numpy as np
import pytest


def svd_errors(jac, resid_var):
    """1-sigma errors sqrt(resid_var * diag((J^T J)^-1)) from the SVD
    J = U S V^T, as sum_k V_ik^2 / s_k^2, for a Jacobian or a stack (..., m, n)
    with one resid_var each: the independent referee of
    `fitting.standard_errors`' closed form (full-rank Jacobians only)."""
    _, s, VT = np.linalg.svd(jac, full_matrices=False)
    var = np.einsum("...ki,...k->...i", VT * VT, 1.0 / s**2)
    return np.sqrt(var * np.asarray(resid_var)[..., None])


@pytest.fixture(name="svd_errors")
def svd_errors_fixture():
    return svd_errors


def fringe_csv_referee(path):
    """t (s), phi (rad), p and p_err (None where the column is empty) of a
    fringe CSV in the layout `serialization.fringe_to_csv` writes (plain
    comma-separated fields, no quoting), converted row by row with float():
    the independent referee of `serialization.fringe_from_csv`."""
    with open(path, encoding="utf-8") as fh:
        header, *lines = [line for line in fh.read().split("\n") if line]
    rows = []
    for line in lines:
        row = dict(zip(header.split(","), line.split(",")))
        rows.append([float(row["t_ms"]), float(row["phase_deg"]), float(row["p"]),
                     float(row["p_err"]) if row.get("p_err") else None])
    t_ms = sorted({r[0] for r in rows})
    deg = sorted({r[1] for r in rows})
    p = np.full((len(t_ms), len(deg)), np.nan)
    p_err = np.full_like(p, np.nan)
    for t, phase, value, err in rows:
        i, j = t_ms.index(t), deg.index(phase)
        p[i, j] = value
        p_err[i, j] = np.nan if err is None else err
    return (np.array(t_ms) * 1e-3, np.deg2rad(deg), p,
            None if rows[0][3] is None else p_err)


@pytest.fixture(name="fringe_csv_referee", scope="session")
def fringe_csv_referee_fixture():
    return fringe_csv_referee


def fringe_csv_writer_referee(series):
    """The fringe CSV of series written cell by cell, each number through
    format(float(x), ".17g") and a missing p_err as an empty field: the
    independent referee of `serialization.fringe_to_csv`."""
    def fmt(x):
        return "" if x is None else format(float(x), ".17g")
    buf = io.StringIO()
    buf.write("t_ms,phase_deg,p,p_err\n")
    for i, t in enumerate(series.t):
        for j, phi in enumerate(series.phi):
            err = None if series.p_err is None else series.p_err[i, j]
            buf.write(f"{fmt(t*1e3)},{fmt(math.degrees(phi))},"
                      f"{fmt(series.p[i, j])},{fmt(err)}\n")
    return buf.getvalue()


@pytest.fixture(name="fringe_csv_writer_referee", scope="session")
def fringe_csv_writer_referee_fixture():
    return fringe_csv_writer_referee
