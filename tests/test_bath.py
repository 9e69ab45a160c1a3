import math

import numpy as np
import pytest
from hypothesis import given, strategies as st
from scipy.integrate import quad

from impurityprobe.bath import (BathState, density_at, density_weight_measure,
                                interaction_detuning)
from impurityprobe.constants import CONST

TWO_PI = 2 * math.pi


def make_bath(n0=1.0e19, T=850e-9, freqs=(120.0, 90.0, 40.0)):
    wx, wy, wz = (TWO_PI * f for f in freqs)
    return BathState(n0=n0, T=T, omega_x=wx, omega_y=wy, omega_z=wz)


class TestBathState:
    def test_atom_number_autofill(self):
        b = make_bath()
        sx, sy, sz = b.sigmas()
        assert b.N == pytest.approx(b.n0 * (TWO_PI) ** 1.5 * sx * sy * sz,
                                    rel=1e-12)

    def test_non_finite_atom_number_rejected(self):
        b = make_bath()
        with pytest.raises(ValueError):
            BathState(n0=b.n0, T=b.T, omega_x=b.omega_x, omega_y=b.omega_y,
                      omega_z=b.omega_z, N=math.nan)

    def test_inconsistent_atom_number_rejected(self):
        b = make_bath()
        with pytest.raises(ValueError):
            BathState(n0=b.n0, T=b.T, omega_x=b.omega_x, omega_y=b.omega_y,
                      omega_z=b.omega_z, N=b.N * 1.01)

    @pytest.mark.parametrize("kw", [{"n0": -1.0}, {"T": 0.0},
                                    {"freqs": (0.0, 10.0, 10.0)},
                                    {"n0": math.nan}, {"T": math.inf},
                                    {"freqs": (10.0, math.nan, 10.0)}])
    def test_invalid_parameters(self, kw):
        with pytest.raises(ValueError):
            make_bath(**kw)


class TestDensityAt:
    def test_peak_at_origin(self):
        b = make_bath()
        assert density_at((0.0, 0.0, 0.0), b) == b.n0

    def test_one_sigma_point(self):
        b = make_bath()
        sx = b.sigmas()[0]
        assert density_at((sx, 0.0, 0.0), b) == pytest.approx(
            b.n0 * math.exp(-0.5), rel=1e-12)

    def test_integral_equals_atom_number(self):
        # numeric 1D integrals per separable axis
        b = make_bath()
        total = b.n0
        for sigma in b.sigmas():
            integral, _ = quad(lambda x: math.exp(-0.5 * (x / sigma) ** 2),
                               -12 * sigma, 12 * sigma, limit=200)
            total *= integral
        assert total == pytest.approx(b.N, rel=1e-9)

    def test_axis_permutation_invariance(self):
        b = make_bath(freqs=(120.0, 90.0, 40.0))
        bp = make_bath(freqs=(40.0, 120.0, 90.0))
        r = (3e-6, -2e-6, 5e-6)
        rp = (r[2], r[0], r[1])
        assert density_at(r, b) == pytest.approx(density_at(rp, bp), rel=1e-12)

    def test_nonfinite_coordinates_rejected(self):
        with pytest.raises(ValueError):
            density_at((math.nan, 0.0, 0.0), make_bath())


class TestDensityWeightMeasure:
    # 384 is the forward model's default order; the rule must stay finite
    # at it and above
    @pytest.mark.parametrize("order", [48, 384, 768])
    def test_weights_normalized(self, order):
        b = make_bath()
        n, w = density_weight_measure(b, order=order)
        assert np.all(np.isfinite(n)) and np.all(np.isfinite(w))
        assert abs(w.sum() - 1.0) < 1e-9
        assert np.all(w > 0)
        assert np.max(n) <= b.n0

    @pytest.mark.parametrize("order", [48, 384, 768])
    def test_mean_density_analytic(self, order):
        # impurity-sampled mean density is n0 / 2^(3/2)
        b = make_bath()
        n, w = density_weight_measure(b, order=order)
        assert np.dot(w, n) == pytest.approx(b.n0 / 2**1.5, rel=1e-10)

    def test_moments_against_3d_monte_carlo(self):
        b = make_bath()
        rng = np.random.default_rng(77)
        n_samples = 1_000_000
        # positions drawn from the normalized density (Gaussian per axis)
        pos = rng.normal(size=(n_samples, 3)) * b.sigmas()
        n_mc = density_at(pos, b)
        n_nodes, w = density_weight_measure(b, order=48)
        for k in (1, 2):
            mc = (n_mc**k).mean()
            sem = (n_mc**k).std(ddof=1) / math.sqrt(n_samples)
            assert abs(np.dot(w, n_nodes**k) - mc) < 3.0 * sem

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            density_weight_measure(make_bath(), order=1)


class TestInteractionDetuning:
    def test_zero_density(self):
        assert interaction_detuning(0.0, 500 * CONST.a_0) == 0.0

    def test_zero_delta_a(self):
        assert interaction_detuning(1e19, 0.0) == 0.0

    def test_plug_in_value(self):
        val = interaction_detuning(1e19, 500 * CONST.a_0)
        assert val == pytest.approx(2.01e3, rel=2e-3)
        assert val / TWO_PI == pytest.approx(320.0, rel=2e-3)

    @given(st.floats(0, 1e20), st.floats(-1e-7, 1e-7), st.floats(0.1, 5))
    def test_bilinearity(self, n, da, lam):
        base = interaction_detuning(n, da)
        assert interaction_detuning(lam * n, da) == pytest.approx(
            lam * base, rel=1e-12, abs=1e-12)
        assert interaction_detuning(n, lam * da) == pytest.approx(
            lam * base, rel=1e-12, abs=1e-12)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            interaction_detuning(-1.0, 1e-9)
