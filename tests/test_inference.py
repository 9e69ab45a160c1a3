import math

import numpy as np
import pytest

from impurityprobe import inference
from impurityprobe.bath import BathState
from impurityprobe.inference import (InferenceError, collision_counts,
                                     forward_observables, infer_density,
                                     infer_temperature)
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

    def test_flags_t2_reached_on_both_sides_of_the_minimum(self):
        # at 1.8e19 m^-3 the coarse T2(T) is 0.3435, 0.3154 and 0.3465 ms at
        # 100, 227 and 355 nK: 0.32 ms is reached twice, once below 227 nK
        post = infer_temperature(0.32e-3, 1.8e19, MODEL, make_protocol())
        assert any("more than one temperature" in f for f in post.flags)


def invert_density(value, error=None):
    return infer_density({"delta": value}, 850e-9, MODEL, make_protocol(),
                         errors=None if error is None else {"delta": error})


def invert_temperature(value, error=None):
    return infer_temperature(value, 1.5e19, MODEL, make_protocol(),
                             T2_error=error)


# each wrapper with a valid observed value
WRAPPERS = [pytest.param(invert_density, -TWO_PI * 300.0, id="density"),
            pytest.param(invert_temperature, 1e-3, id="temperature")]


class TestInvert:
    """The engine behind both wrappers: its memo and its input checks."""

    @pytest.mark.parametrize("target", ["density", "temperature"])
    def test_each_forward_point_computed_once(self, monkeypatch, target):
        proto = make_protocol()
        kw = {"density_order": 96, "energy_order": 96}
        obs = forward_observables(1.5e19, 700e-9, MODEL, proto, **kw)
        seen = []

        def counting(n0, T, *args, **kw):
            seen.append(n0 if target == "density" else T)
            return forward_observables(n0, T, *args, **kw)

        monkeypatch.setattr(inference, "forward_observables", counting)
        if target == "density":
            post = infer_density(obs, 700e-9, MODEL, proto, **kw)
            truth, bracket = 1.5e19, (0.05e19, 5.0e19)
        else:
            post = infer_temperature(obs["T2"], 1.5e19, MODEL, proto, **kw)
            truth, bracket = 700e-9, (100e-9, 1500e-9)
        assert post.estimate == pytest.approx(truth, rel=0.02)
        assert len(seen) == len(set(seen))
        assert set(bracket) <= set(seen)

    @pytest.mark.parametrize("target", ["density", "temperature"])
    def test_forward_calls_per_inversion(self, monkeypatch, target):
        # 12 coarse samples, the 2 golden start points, 1 per refinement
        # (each adds a curve point) and the estimate: the temperature
        # ambiguity check reads the memo and costs no call of its own
        proto = make_protocol()
        kw = {"density_order": 96, "energy_order": 96}
        obs = forward_observables(1.5e19, 700e-9, MODEL, proto, **kw)
        calls = []

        def counting(*args, **kw):
            calls.append(args)
            return forward_observables(*args, **kw)

        monkeypatch.setattr(inference, "forward_observables", counting)
        if target == "density":
            post = infer_density(obs, 700e-9, MODEL, proto, **kw)
        else:
            post = infer_temperature(obs["T2"], 1.5e19, MODEL, proto, **kw)
        assert len(calls) == len(post.curve) + 3

    @pytest.fixture
    def no_forward(self, monkeypatch):
        def fail(*args, **kw):
            raise AssertionError("inputs must be checked before any forward call")

        monkeypatch.setattr(inference, "forward_observables", fail)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("invert,valid", WRAPPERS)
    def test_nonfinite_observable_rejected(self, no_forward, invert, valid,
                                           value):
        with pytest.raises(ValueError):
            invert(value)

    @pytest.mark.parametrize("error", [0.0, -1e-4, math.nan, math.inf])
    @pytest.mark.parametrize("invert,valid", WRAPPERS)
    def test_bad_error_rejected(self, no_forward, invert, valid, error):
        with pytest.raises(ValueError, match="error"):
            invert(valid, error)

    @pytest.mark.parametrize("invert,valid", WRAPPERS)
    def test_zero_observable_without_error_rejected(self, no_forward, invert,
                                                    valid):
        with pytest.raises(ValueError):
            invert(0.0)

    def test_error_of_unobserved_key_rejected(self, no_forward):
        with pytest.raises(ValueError, match="unobserved"):
            infer_density({"T2": 1e-3}, 850e-9, MODEL, make_protocol(),
                          errors={"delta": TWO_PI * 5.0})

    @pytest.mark.parametrize("errors", [{"delta": None}, {"T2": None}])
    def test_interval_rule_needs_an_observed_error(self, errors):
        # 96 x 96 at 1.5e19 m^-3, 850 nK from T2 alone: an errors dict
        # with no error of an observed key used to select the chi^2
        # interval over the relative misfit, (-6.2e18, 3.6e19) m^-3
        proto = make_protocol()
        kw = {"density_order": 96, "energy_order": 96}
        obs = {"T2": forward_observables(1.5e19, 850e-9, MODEL, proto, **kw)["T2"]}
        post = infer_density(obs, 850e-9, MODEL, proto, errors=errors, **kw)
        lo, hi = post.interval
        assert 0.0 < lo < post.estimate < hi
        assert hi - lo < 1e-4 * post.estimate
        assert post.to_dict() == infer_density(obs, 850e-9, MODEL, proto,
                                               **kw).to_dict()


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
        a_bar = mean_a(MODEL.B0, bath.T, MODEL, order=1024)
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
        a_zero = mean_a(0.0, bath.T, MODEL, order=1024)
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
