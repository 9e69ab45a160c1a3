"""Referees shared by the test modules."""

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
