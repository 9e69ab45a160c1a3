import math

import numpy as np
import pytest

from impurityprobe.bath import BathState
from impurityprobe.fitting import FitError
from impurityprobe.inference import (InferenceError, bootstrap_fit,
                                     collision_counts, forward_observables,
                                     infer_density, infer_temperature)
from impurityprobe.ramsey import RamseyProtocol
from impurityprobe.scattering import ResonanceModel

TWO_PI = 2 * math.pi
MODEL = ResonanceModel()


def make_protocol():
    return RamseyProtocol(t=np.geomspace(0.05e-3, 4e-3, 24),
                          phi=np.deg2rad(np.arange(0.0, 360.0, 30.0)))


def make_bath(n0=1.5e19, T=850e-9):
    w = TWO_PI * 100.0
    return BathState(n0=n0, T=T, omega_x=w, omega_y=w, omega_z=w)


class TestForwardObservables:
    def test_returns_finite_observables(self):
        obs = forward_observables(1.5e19, 850e-9, MODEL, make_protocol())
        assert math.isfinite(obs["delta"]) and math.isfinite(obs["T2"])
        assert obs["T2"] > 0

    def test_t2_decreases_with_density(self):
        proto = make_protocol()
        T2s = [forward_observables(n0, 850e-9, MODEL, proto)["T2"]
               for n0 in (0.5e19, 1.0e19, 2.0e19, 3.0e19)]
        assert np.all(np.diff(T2s) < 0)

    def test_delta_magnitude_increases_with_density(self):
        proto = make_protocol()
        d = [abs(forward_observables(n0, 850e-9, MODEL, proto)["delta"])
             for n0 in (0.5e19, 1.0e19, 2.0e19, 3.0e19)]
        assert np.all(np.diff(d) > 0)

    def test_t2_increases_with_temperature(self):
        # warming the bath detunes the energy-dependent resonance, which
        # narrows the scattering-length spread and slows the dephasing
        proto = make_protocol()
        T2s = [forward_observables(1.5e19, T, MODEL, proto)["T2"]
               for T in (200e-9, 400e-9, 700e-9, 1000e-9)]
        assert np.all(np.diff(T2s) > 0)


class TestInferDensity:
    def test_roundtrip(self):
        proto = make_protocol()
        n_true = 1.5e19
        obs = forward_observables(n_true, 850e-9, MODEL, proto)
        post = infer_density(obs, 850e-9, MODEL, proto)
        assert post.estimate == pytest.approx(n_true, rel=0.02)
        assert not post.flags

    def test_roundtrip_from_t2_only(self):
        proto = make_protocol()
        n_true = 2.2e19
        obs = forward_observables(n_true, 850e-9, MODEL, proto)
        post = infer_density({"T2": obs["T2"]}, 850e-9, MODEL, proto)
        assert post.estimate == pytest.approx(n_true, rel=0.02)

    def test_chi2_interval_brackets_truth(self):
        proto = make_protocol()
        n_true = 1.2e19
        obs = forward_observables(n_true, 850e-9, MODEL, proto)
        errors = {"delta": 0.05 * abs(obs["delta"]), "T2": 0.05 * obs["T2"]}
        post = infer_density(obs, 850e-9, MODEL, proto, errors=errors)
        lo, hi = post.interval
        assert lo < n_true < hi
        assert lo < post.estimate < hi

    def test_insensitive_objective_flagged(self):
        # with a_g = a_e the detuning vanishes at every density and the
        # misfit carries no information
        flat = ResonanceModel(delta_B=0.0, a_bg=MODEL.a_e, a_e=MODEL.a_e)
        proto = make_protocol()
        with pytest.raises(InferenceError) as exc:
            infer_density({"T2": 1e-3}, 850e-9, flat, proto)
        assert exc.value.flag in ("insensitive", "bracket")

    def test_requires_observable(self):
        with pytest.raises(ValueError):
            infer_density({}, 850e-9, MODEL, make_protocol())


class TestInferTemperature:
    def test_roundtrip(self):
        proto = make_protocol()
        T_true = 700e-9
        obs = forward_observables(1.5e19, T_true, MODEL, proto)
        post = infer_temperature(obs["T2"], 1.5e19, MODEL, proto)
        assert post.estimate == pytest.approx(T_true, rel=0.02)
        assert not post.flags

    def test_interval_brackets_truth_with_error(self):
        proto = make_protocol()
        T_true = 500e-9
        obs = forward_observables(1.5e19, T_true, MODEL, proto)
        post = infer_temperature(obs["T2"], 1.5e19, MODEL, proto,
                                 T2_error=0.05 * obs["T2"])
        lo, hi = post.interval
        assert lo < T_true < hi

    def test_invalid_t2(self):
        with pytest.raises(ValueError):
            infer_temperature(-1.0, 1.5e19, MODEL, make_protocol())


class TestBootstrap:
    def slope(self, x, y):
        coef = np.polyfit(x, y, 1)
        return float(coef[0])

    def test_noiseless_interval_is_tight(self):
        x = np.linspace(0.0, 1.0, 30)
        y = 2.0 * x + 0.5
        lo, hi = bootstrap_fit(self.slope, x, y, y, resamples=200, seed=0)
        assert hi - lo < 1e-9
        assert lo <= 2.0 <= hi

    def test_seed_determinism(self):
        rng = np.random.default_rng(5)
        x = np.linspace(0.0, 1.0, 40)
        y = 2.0 * x + 0.5 + 0.1 * rng.normal(size=len(x))
        yhat = np.polyval(np.polyfit(x, y, 1), x)
        a = bootstrap_fit(self.slope, x, y, yhat, resamples=200, seed=9)
        b = bootstrap_fit(self.slope, x, y, yhat, resamples=200, seed=9)
        assert a == b
        c = bootstrap_fit(self.slope, x, y, yhat, resamples=200, seed=10)
        assert a != c

    def test_coverage_near_68_percent(self):
        # repeated noisy experiments: the bootstrap interval should cover
        # the true slope in roughly 68% of them
        true_slope, sigma = 2.0, 0.3
        x = np.linspace(0.0, 1.0, 25)
        master = np.random.default_rng(2024)
        hits = 0
        n_trials = 200
        for _ in range(n_trials):
            y = true_slope * x + 0.5 + sigma * master.normal(size=len(x))
            yhat = np.polyval(np.polyfit(x, y, 1), x)
            lo, hi = bootstrap_fit(self.slope, x, y, yhat, resamples=120,
                                   seed=int(master.integers(1 << 30)))
            hits += lo <= true_slope <= hi
        # binomial 3-sigma window around 0.68 for 200 trials
        assert 0.58 <= hits / n_trials <= 0.78

    def test_too_few_resamples(self):
        with pytest.raises(ValueError):
            bootstrap_fit(self.slope, np.arange(5.0), np.arange(5.0),
                          np.arange(5.0), resamples=10)


class TestCollisionCounts:
    def test_zero_scattering_gives_zero(self):
        tiny = ResonanceModel(delta_B=0.0, a_bg=1e-30, a_e=1e-30)
        N_g, N_e = collision_counts(make_bath(), tiny, T2=1e-3)
        assert N_g == pytest.approx(0.0, abs=1e-12)
        assert N_e == pytest.approx(0.0, abs=1e-12)

    def test_ratio_is_exact_cross_section_ratio(self):
        from impurityprobe.scattering import mean_a
        bath = make_bath()
        N_g, N_e = collision_counts(bath, MODEL, T2=0.6e-3)
        a_bar = mean_a(MODEL.B0, bath.T, MODEL, check_convergence=False,
                       order=2048)
        assert N_g / N_e == pytest.approx((a_bar / MODEL.a_e) ** 2, rel=1e-12)

    def test_operating_point_windows(self):
        # few ground-state and ~1 excited-state collision per coherence
        # time at the nominal density and temperature
        proto = make_protocol()
        bath = make_bath(1.5e19, 850e-9)
        T2 = forward_observables(bath.n0, bath.T, MODEL, proto)["T2"]
        N_g, N_e = collision_counts(bath, MODEL, T2=T2)
        assert 6.0 <= N_g <= 18.0
        assert 0.4 <= N_e <= 1.8
        assert 10.0 <= N_g / N_e <= 15.0

    def test_linear_in_t2(self):
        bath = make_bath()
        N1 = collision_counts(bath, MODEL, T2=1e-3)
        N2 = collision_counts(bath, MODEL, T2=2e-3)
        assert N2[0] == pytest.approx(2 * N1[0], rel=1e-12)
        assert N2[1] == pytest.approx(2 * N1[1], rel=1e-12)

    def test_invalid_t2(self):
        with pytest.raises(ValueError):
            collision_counts(make_bath(), MODEL, T2=0.0)

    def test_explicit_zero_field_is_used(self):
        from impurityprobe.scattering import mean_a
        bath = make_bath()
        N_zero = collision_counts(bath, MODEL, T2=1e-3, B=0.0)
        a_zero = mean_a(0.0, bath.T, MODEL, check_convergence=False,
                        order=2048)
        assert N_zero[0] / N_zero[1] == \
            pytest.approx((a_zero / MODEL.a_e) ** 2, rel=1e-12)
        assert N_zero[0] != pytest.approx(
            collision_counts(bath, MODEL, T2=1e-3)[0], rel=1e-3)

    def test_tabulated_model_needs_field(self):
        from impurityprobe.scattering import TabulatedModel
        B = np.array([190e-7, 200e-7])
        E = np.array([0.0, 1e-29])
        table = TabulatedModel(B_grid=B, E_grid=E,
                               a_grid=np.full((2, 2), 1000.0 * 5.29e-11))
        with pytest.raises(ValueError):
            collision_counts(make_bath(), table, T2=1e-3)
        N_g, N_e = collision_counts(make_bath(), table, T2=1e-3, B=195e-7)
        assert N_g / N_e == pytest.approx((1000.0 * 5.29e-11 / table.a_e) ** 2,
                                          rel=1e-12)
