import math

import numpy as np
import pytest
from scipy.integrate import quad

from impurityprobe.calibration import (LIGHT_SHIFT_THEORY, ZEEMAN_HZ_PER_G,
                                       fit_bfield, fit_light_shift,
                                       fit_no_bath_trace, fit_release_curve,
                                       fit_zeeman, rabi_lineshape,
                                       release_curve)
from impurityprobe.constants import CONST
from impurityprobe.fitting import FitError
from impurityprobe.ramsey import no_bath_trace
from impurityprobe.thermal import mb_pdf, zeeman_coefficient_hz_per_G2

TWO_PI = 2 * math.pi
K_B = CONST.k_B
OMEGA0 = TWO_PI * 15.4e3


class TestRabiLineshape:
    def test_resonant_transfer_is_unity(self):
        # on resonance the pulse area is pi/2 * 2 = full transfer
        assert rabi_lineshape(0.0, OMEGA0, 0.0, 0.0) == pytest.approx(1.0)

    def test_far_detuned_vanishes(self):
        assert rabi_lineshape(1e4 * OMEGA0, OMEGA0, 0.0, 0.0) < 1e-6

    def test_zero_at_sqrt3(self):
        # generalized flopping null: W = 2 Omega0 makes the sine argument pi
        D = math.sqrt(3.0) * OMEGA0
        assert rabi_lineshape(D, OMEGA0, 0.0, 0.0) == pytest.approx(0.0,
                                                                    abs=1e-20)

    def test_detuning_composition(self):
        # only the combination omega_coil + omega_bg - omega_MW matters
        a = rabi_lineshape(1000.0, OMEGA0, 500.0, 200.0)
        b = rabi_lineshape(1300.0, OMEGA0, 0.0, 0.0)
        assert a == pytest.approx(b, rel=1e-12)

    def test_invalid_rabi_frequency(self):
        with pytest.raises(ValueError):
            rabi_lineshape(0.0, 0.0, 0.0, 0.0)


class TestFitBfield:
    def test_roundtrip(self):
        omega_bg_true = TWO_PI * 0.7e6 * 0.1985  # 198.5 mG on the coil axis
        omega_MW = TWO_PI * 140e3
        w = omega_MW - omega_bg_true + np.linspace(-2.5, 2.5, 41) * OMEGA0
        p = rabi_lineshape(w, OMEGA0, omega_bg_true, omega_MW)
        rep, B_coil = fit_bfield(w, p, OMEGA0, omega_MW)
        assert rep.params["omega_bg"] == pytest.approx(omega_bg_true, rel=1e-6)
        assert B_coil * 1e7 == pytest.approx(
            (omega_MW - omega_bg_true) / TWO_PI / ZEEMAN_HZ_PER_G * 1e3,
            rel=1e-6)

    def test_zero_background_field(self):
        omega_MW = TWO_PI * ZEEMAN_HZ_PER_G * 0.1985
        w = omega_MW + np.linspace(-2.5, 2.5, 41) * OMEGA0
        _, B_coil = fit_bfield(w, rabi_lineshape(w, OMEGA0, 0.0, omega_MW),
                               OMEGA0, omega_MW)
        assert B_coil == pytest.approx(198.5e-7, rel=1e-6)

    def test_unbracketed_peak_rejected(self):
        w = np.linspace(1.0, 2.0, 11) * OMEGA0
        p = rabi_lineshape(w, OMEGA0, 0.0, 0.0)
        with pytest.raises(ValueError):
            fit_bfield(w, p, OMEGA0, 0.0)


class TestLightShift:
    def test_fixture_slope(self):
        P = np.linspace(0.0, 1.2, 10)
        slope = TWO_PI * 1083.0
        rep = fit_light_shift(P, slope * P + 3.0)
        assert rep.params["slope"] == pytest.approx(slope, rel=1e-9)
        assert rep.params["intercept"] == pytest.approx(3.0, abs=1e-6)

    def test_theory_deviation_flagged(self):
        P = np.linspace(0.0, 1.2, 10)
        rep = fit_light_shift(P, TWO_PI * 900.0 * P)
        assert any("theory" in w for w in rep.warnings)
        rep_ok = fit_light_shift(P, LIGHT_SHIFT_THEORY * P)
        assert not rep_ok.warnings

    def test_single_power_rejected(self):
        with pytest.raises(ValueError):
            fit_light_shift(np.ones(5), np.ones(5))


class TestZeeman:
    def test_fixture_coefficient(self):
        B = np.linspace(0.0, 0.5, 12) * 1e-4  # 0..0.5 G in T
        a_true = 417.2 * TWO_PI * 1e8  # rad/s/T^2
        rep = fit_zeeman(B, a_true * B**2 + 5.0)
        assert rep.params["a_hz_per_G2"] == pytest.approx(417.2, rel=1e-9)
        assert rep.params["c"] == pytest.approx(5.0, abs=1e-6)

    def test_field_sign_invariance(self):
        B = np.linspace(0.05, 0.5, 10) * 1e-4
        a_true = 427.5 * TWO_PI * 1e8
        delta = a_true * B**2 + 1.0
        rep_pos = fit_zeeman(B, delta)
        rep_neg = fit_zeeman(-B, delta)
        assert rep_pos.params["a"] == pytest.approx(rep_neg.params["a"],
                                                    rel=1e-10)

    def test_theory_cross_check(self):
        # data generated from the microscopic coefficient fits back to it
        from impurityprobe.thermal import quadratic_zeeman
        B = np.linspace(0.0, 0.5, 15) * 1e-4
        rep = fit_zeeman(B, np.array([quadratic_zeeman(b) for b in B]))
        assert rep.params["a_hz_per_G2"] == pytest.approx(
            zeeman_coefficient_hz_per_G2(), rel=1e-9)
        assert rep.params["a_hz_per_G2"] == pytest.approx(427.5, rel=5e-3)

    def test_too_few_fields(self):
        with pytest.raises(ValueError):
            fit_zeeman(np.array([0.0, 1e-5]), np.array([0.0, 1.0]))


class TestReleaseCurve:
    def test_zero_depth(self):
        assert release_curve(0.0, 1.7e-6) == 0.0

    def test_deep_trap_retains_all(self):
        assert release_curve(100 * K_B * 1.7e-6, 1.7e-6) == pytest.approx(1.0)

    def test_against_pdf_integral(self):
        # retention equals the integral of the energy pdf up to the depth
        T = 1.7e-6
        E0 = 1.5 * K_B * T
        ref, _ = quad(lambda E: mb_pdf(E, T), 0.0, E0, limit=200)
        assert release_curve(E0, T) == pytest.approx(ref, rel=1e-9)
        assert release_curve(E0, T) == pytest.approx(0.608, abs=2e-3)

    def test_monotone_in_depth(self):
        E0 = np.linspace(0.0, 8.0, 50) * K_B * 1.7e-6
        f = release_curve(E0, 1.7e-6)
        assert np.all(np.diff(f) > 0)

    def test_negative_depth_rejected(self):
        with pytest.raises(ValueError):
            release_curve(-1e-30, 1.7e-6)


class TestFitReleaseCurve:
    def test_temperature_roundtrip(self):
        T_true = 1.7e-6
        E0 = np.linspace(0.1, 6.0, 20) * K_B * T_true
        rep = fit_release_curve(E0, release_curve(E0, T_true))
        assert rep.params["T"] == pytest.approx(T_true, rel=0.01)

    def test_saturated_curve_flagged(self):
        E0 = np.linspace(50.0, 80.0, 10) * K_B * 1.7e-6
        rep = fit_release_curve(E0, release_curve(E0, 1.7e-6))
        assert not rep.converged
        assert rep.params["T"] == math.inf
        assert any("unbounded" in w for w in rep.warnings)

    def test_scale_covariance(self):
        # scaling all depths by lambda scales the fitted temperature
        T_true = 800e-9
        E0 = np.linspace(0.1, 6.0, 25) * K_B * T_true
        base = fit_release_curve(E0, release_curve(E0, T_true))
        lam = 2.5
        scaled = fit_release_curve(lam * E0, release_curve(E0, T_true))
        assert scaled.params["T"] == pytest.approx(lam * base.params["T"],
                                                   rel=1e-6)


class TestNoBathTrace:
    def test_parameter_roundtrip(self):
        t = np.linspace(0.2e-3, 40e-3, 80)
        N = no_bath_trace(t, 6.0, 2.0, TWO_PI * 135.0, 27.2e-3)
        rep = fit_no_bath_trace(t, N)
        assert rep.params["A"] == pytest.approx(6.0, rel=1e-6)
        assert rep.params["C"] == pytest.approx(2.0, rel=1e-6)
        assert rep.params["delta"] == pytest.approx(TWO_PI * 135.0, rel=1e-6)
        assert rep.params["T2"] == pytest.approx(27.2e-3, rel=1e-6)

    def test_flat_trace_rejected(self):
        t = np.linspace(0.0, 10e-3, 10)
        with pytest.raises(FitError):
            fit_no_bath_trace(t, np.full_like(t, 3.0))

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            fit_no_bath_trace(np.linspace(0, 1e-3, 4), np.zeros(4))
