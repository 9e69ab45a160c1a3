import math

import numpy as np
import pytest
from scipy.integrate import quad

from impurityprobe import analysis, bath, inference, ramsey, scattering, thermal
from impurityprobe.bath import BathState
from impurityprobe.constants import CONST
from impurityprobe.scattering import ResonanceModel
from impurityprobe.thermal import (mb_pdf, mb_quadrature, quadratic_zeeman,
                                   reduced_mass, zeeman_coefficient_hz_per_G2)

K_B = CONST.k_B


class TestReducedMass:
    def test_equal_masses(self):
        assert reduced_mass(3.0, 3.0) == pytest.approx(1.5, rel=1e-15)

    def test_rbcs_value(self):
        # direct arithmetic from the CODATA masses
        m1 = 86.909180531 * CONST.amu
        m2 = 132.905451961 * CONST.amu
        expected = m1 * m2 / (m1 + m2)
        assert expected == pytest.approx(8.726e-26, rel=1e-3)
        assert reduced_mass(CONST.m_Rb, CONST.m_Cs) == pytest.approx(expected)

    def test_heavy_partner_limit(self):
        assert reduced_mass(1.0, 1e12) == pytest.approx(1.0, rel=1e-11)

    @pytest.mark.parametrize("m1,m2", [(0.0, 1.0), (1.0, -2.0)])
    def test_nonpositive_mass_rejected(self, m1, m2):
        with pytest.raises(ValueError):
            reduced_mass(m1, m2)


class TestMBPdf:
    def test_zero_energy(self):
        assert mb_pdf(0.0, 500e-9) == 0.0

    def test_normalization(self):
        T = 600e-9
        total, _ = quad(lambda E: mb_pdf(E, T), 0.0, 40 * K_B * T, limit=200)
        assert total == pytest.approx(1.0, abs=1e-9)

    def test_mode_at_half_kT(self):
        # d/dE [sqrt(E) e^{-E/kT}] = 0 at E = kT/2
        T = 850e-9
        E_star = 0.5 * K_B * T
        eps = 1e-6 * E_star
        assert mb_pdf(E_star, T) > mb_pdf(E_star - eps, T)
        assert mb_pdf(E_star, T) > mb_pdf(E_star + eps, T)

    def test_scale_invariance(self):
        # p(E, T) * kT depends only on E / kT
        x = np.array([0.2, 0.7, 1.9, 4.2])
        for T1, T2 in [(200e-9, 900e-9), (400e-9, 1.7e-6)]:
            f1 = mb_pdf(x * K_B * T1, T1) * K_B * T1
            f2 = mb_pdf(x * K_B * T2, T2) * K_B * T2
            assert np.allclose(f1, f2, rtol=1e-12)

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            mb_pdf(-1e-30, 500e-9)


class TestMBQuadrature:
    def test_weights_normalized(self):
        E, w = mb_quadrature(500e-9, order=64)
        assert np.all(np.diff(E) > 0)
        assert np.all(w > 0)
        assert abs(w.sum() - 1.0) < 1e-9

    def test_mean_energy(self):
        T = 850e-9
        E, w = mb_quadrature(T, order=32)
        assert np.dot(w, E) == pytest.approx(1.5 * K_B * T, rel=1e-6)

    def test_second_moment(self):
        T = 400e-9
        E, w = mb_quadrature(T, order=64)
        assert np.dot(w, E**2) == pytest.approx(3.75 * (K_B * T) ** 2, rel=1e-6)

    def test_order_too_small(self):
        with pytest.raises(ValueError):
            mb_quadrature(500e-9, order=1)

    def test_convergence_monotone(self):
        # error of a non-polynomial moment shrinks with order
        T = 600e-9
        exact = math.gamma(2.0) / math.gamma(1.5) * math.sqrt(K_B * T)
        errs = []
        for order in (8, 16, 32, 64):
            E, w = mb_quadrature(T, order=order)
            errs.append(abs(np.dot(w, np.sqrt(E)) - exact))
        for lo, hi in zip(errs[1:], errs[:-1]):
            assert lo <= hi * (1.0 + 1e-9) + 1e-18


class TestRuleConstants:
    def test_bit_equal_to_scipy(self):
        # the module carries scipy's values so that importing it does not
        # load scipy.special; numpy's leggauss(8) is not bit-equal
        from scipy.special import gamma, roots_legendre
        x, w = roots_legendre(8)
        assert np.array_equal(thermal._LEGENDRE_8_X, x)
        assert np.array_equal(thermal._LEGENDRE_8_W, w)
        assert thermal._GAMMA_3_2 == gamma(1.5)


class TestZeeman:
    def test_zero_field(self):
        assert quadratic_zeeman(0.0) == 0.0

    def test_coefficient_theory_value(self):
        assert zeeman_coefficient_hz_per_G2() == pytest.approx(427.5, rel=5e-3)

    def test_plug_in_at_operating_field(self):
        # B = 198.5 mG = 0.1985 G
        val = quadratic_zeeman(198.5e-7)
        expected = 2.0 * math.pi * 427.5 * 0.1985**2
        assert val == pytest.approx(expected, rel=5e-3)
        assert val == pytest.approx(2 * math.pi * 16.85, rel=6e-3)

    def test_quadratic_scaling(self):
        assert quadratic_zeeman(2e-5) == pytest.approx(4 * quadratic_zeeman(1e-5),
                                                       rel=1e-14)

    def test_negative_field_rejected(self):
        with pytest.raises(ValueError):
            quadratic_zeeman(-1e-5)



MODEL = ResonanceModel()
# a public call per "must be positive" (or nonnegative) check, given NaN
# where it looks: NaN fails every comparison, so `x <= 0` lets it through
NAN_CALLS = {
    "mb_pdf T": lambda: mb_pdf(1e-30, math.nan),
    "mb_quadrature T": lambda: mb_quadrature(math.nan),
    "reduced_mass m1": lambda: reduced_mass(math.nan, 1.0),
    "reduced_mass m2": lambda: reduced_mass(1.0, math.nan),
    "quadratic_zeeman B": lambda: quadratic_zeeman(math.nan),
    "fringe_closed_form T2": lambda: ramsey.fringe_closed_form(1e-3, 0.0, 1.0, math.nan),
    "no_bath_trace T2": lambda: ramsey.no_bath_trace(1e-3, 1.0, 0.0, 1.0, math.nan),
    "collision_counts T2": lambda: inference.collision_counts(
        BathState(n0=1e19, T=500e-9), MODEL, math.nan),
    "interaction_detuning n": lambda: bath.interaction_detuning([1e19, math.nan], 1e-9),
    "mean_a T": lambda: scattering.mean_a(MODEL.B0, math.nan, MODEL),
    "normalize_counts N0_min": lambda: analysis.normalize_counts(0.5, 1.0, math.nan),
    "normalize_counts N0_max": lambda: analysis.normalize_counts(0.5, math.nan, 0.0),
}


@pytest.mark.parametrize("case", list(NAN_CALLS))
def test_nan_argument_rejected(case):
    with pytest.raises(ValueError):
        NAN_CALLS[case]()
