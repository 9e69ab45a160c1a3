import math

import numpy as np
import pytest

from impurityprobe import analysis, fitting, inference
from impurityprobe.analysis import analyze_fringes
from impurityprobe.bath import BathState
from impurityprobe.inference import (InferenceError, collision_counts,
                                     forward_observables, infer_density,
                                     infer_temperature)
from impurityprobe.ramsey import (RamseyProtocol, synthesize_fringe,
                                  visibility_phase)
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
    def test_fit_errors_do_not_reach_the_posterior(self, monkeypatch):
        # inversions read fitted values only: with the errors of every
        # fit_report NaN (fringe grid, bounded fringes, decay fit and phase
        # slope) the posterior is the same, bit for bit
        proto = make_protocol()
        obs = forward_observables(1.2e19, 700e-9, MODEL, proto, 96, 96)
        args = ({"delta": obs["delta"], "T2": obs["T2"]}, 700e-9, MODEL, proto)
        kwargs = {"errors": {"T2": 0.02 * obs["T2"]}, "density_order": 96, "energy_order": 96}
        want = infer_density(*args, **kwargs).to_dict()
        fit_report, calls = fitting.fit_report, []

        def nan_errors(*a, **k):
            reports = fit_report(*a, **k)
            calls.append(a[2] is None)  # closed-form variances, or a Jacobian
            for rep in reports if isinstance(reports, list) else [reports]:
                rep.errors = dict.fromkeys(rep.errors, math.nan)
            return reports
        monkeypatch.setattr(fitting, "fit_report", nan_errors)
        monkeypatch.setattr(analysis, "fit_report", nan_errors)
        assert infer_density(*args, **kwargs).to_dict() == want
        assert set(calls) == {False, True}

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


# the drift guard's baths and protocols: criterion 04's 24 times to 4 ms
# and the default 30 times to 12 ms
DRIFT_BATHS = [(n0, T) for n0 in (0.3e19, 0.8e19, 1.5e19, 3e19, 5e19)
               for T in (150e-9, 400e-9, 800e-9, 1200e-9)]
DRIFT_PROTOCOLS = [pytest.param(make_protocol, id="criterion-04"),
                   pytest.param(RamseyProtocol.default_grid, id="12-ms")]


class TestForwardShortcut:
    """forward_observables reads V and the fringe phase from the coherence
    trace; it must stay what synthesizing the noiseless grid and analyzing
    it gives, to round-off, so the shortcut cannot drift from the
    pipeline."""

    @pytest.mark.parametrize("protocol", DRIFT_PROTOCOLS)
    def test_matches_the_pipeline_on_a_grid_of_baths(self, protocol):
        proto = protocol()
        for n0, T in DRIFT_BATHS:
            fast = forward_observables(n0, T, MODEL, proto)
            full = analyze_fringes(synthesize_fringe(proto, BathState(n0=n0, T=T), MODEL),
                                   delta_bg=proto.delta_bg, phase_convention="cos2")
            assert (fast["delta"] is None) == (full.delta is None)
            assert math.isfinite(fast["T2"]) == math.isfinite(full.T2)
            if full.delta is not None:
                assert fast["delta"] == pytest.approx(full.delta, rel=1e-12, abs=0.0)
            assert fast["T2"] == pytest.approx(full.T2, rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("n0, T, protocol", [
        (1e19, 850e-9, make_protocol), (5e19, 400e-9, RamseyProtocol.default_grid)])
    def test_rows_are_the_fringe_fits(self, n0, T, protocol):
        # row by row: V is the fitted A (A + 2C = 1 for these fringes) and
        # phi0 the fitted phase mapped as analyze_fringes maps "cos2" data
        proto = protocol()
        V, phi0 = visibility_phase(proto, BathState(n0=n0, T=T), MODEL)
        fits = analysis.fit_fringe(proto.phi, synthesize_fringe(
            proto, BathState(n0=n0, T=T), MODEL).p)
        A, fit_phi0 = np.array([[f.params[k] for k in ("A", "phi0")] for f in fits]).T
        gap = np.angle(np.exp(1j * (phi0 - (-(fit_phi0 + math.pi)) % TWO_PI)))
        assert np.all((0.0 <= phi0) & (phi0 < TWO_PI))
        np.testing.assert_allclose(V, A, rtol=0.0, atol=1e-14)
        np.testing.assert_allclose(gap, 0.0, rtol=0.0, atol=1e-12)


class TestSolvePath:
    """forward_observables runs decay_and_slope's solves without building
    its reports: it gives the reports' numbers exactly, and checks its
    input once."""

    @pytest.mark.parametrize("protocol", DRIFT_PROTOCOLS)
    def test_equals_the_reports_on_a_grid_of_baths(self, protocol):
        proto = protocol()
        for n0, T in DRIFT_BATHS:
            fast = forward_observables(n0, T, MODEL, proto)
            V, phi0 = visibility_phase(proto, BathState(n0=n0, T=T), MODEL)
            decay, _, slope, _ = analysis.decay_and_slope(proto.t, V, phi0, proto.delta_bg)
            assert fast["T2"] == decay.params["T2"]
            assert fast["delta"] == (None if slope is None else slope.params["delta"])

    def test_input_checked_once(self, monkeypatch):
        # nested, fit_phase_slope checked twice and forward_observables 5 times
        checks, check = [], fitting.fit_inputs

        def counted(*a, **k):
            checks.append(k["what"])
            return check(*a, **k)
        for module in (fitting, analysis):
            monkeypatch.setattr(module, "fit_inputs", counted)
        t = np.linspace(0.2e-3, 6e-3, 12)
        analysis.fit_phase_slope(t, 900.0 * t + 0.3, 3e-3, Phi_err=np.full(12, 0.02))
        assert checks == ["times and phases"]
        checks.clear()
        forward_observables(1.5e19, 850e-9, MODEL, make_protocol(), 96, 96)
        assert len(checks) <= 1


class TestPipelineCheck:
    """Each inversion runs the full pipeline once at its estimate and flags
    a gap above PIPELINE_RTOL between it and the shortcut."""

    def test_skewed_shortcut_flagged(self, monkeypatch):
        proto = make_protocol()
        kw = {"density_order": 96, "energy_order": 96}
        obs = forward_observables(1.5e19, 700e-9, MODEL, proto, **kw)
        assert not any(f.startswith("pipeline check")
                       for f in infer_density(obs, 700e-9, MODEL, proto, **kw).flags)

        def skewed(protocol, *args, **kwargs):  # V off by up to 1e-6, relative
            V, phi0 = visibility_phase(protocol, *args, **kwargs)
            return V * (1.0 + 1e-6 * protocol.t / protocol.t[-1]), phi0
        monkeypatch.setattr(inference, "visibility_phase", skewed)
        post = infer_density(obs, 700e-9, MODEL, proto, **kw)
        checks = [f for f in post.flags if f.startswith("pipeline check")]
        assert len(checks) == 1 and checks[0].startswith("pipeline check: T2 ")

    def test_missing_delta_flagged(self, monkeypatch):
        proto = make_protocol()
        kw = {"density_order": 96, "energy_order": 96}
        obs = forward_observables(1.5e19, 700e-9, MODEL, proto, **kw)
        monkeypatch.setattr(inference, "pipeline_observables",  # no slope there
                            lambda *a, **k: {**forward_observables(*a, **k), "delta": None})
        post = infer_density({"T2": obs["T2"]}, 700e-9, MODEL, proto, **kw)
        assert [f.split(" at ")[0] for f in post.flags] == ["pipeline check: delta"]

    def test_no_flag_on_criterion_04_and_the_benchmark_kinds(self):
        # criterion 04's two inversions (the first is also perfbench's first
        # invert kind), then the other perfbench kinds at their nominal
        # baths: no flag, and inference.json's keys
        proto = make_protocol()
        posts = [infer_density(forward_observables(1e19, 850e-9, MODEL, proto),
                               850e-9, MODEL, proto),
                 infer_temperature(forward_observables(1.5e19, 400e-9, MODEL, proto)["T2"],
                                   1.5e19, MODEL, proto)]
        for keys, with_errors, n0, T in [(("delta",), False, 0.8e19, 700e-9),
                                         (("T2",), True, 2.0e19, 950e-9)]:
            obs = forward_observables(n0, T, MODEL, proto)
            posts.append(infer_density(
                {k: obs[k] for k in keys}, T, MODEL, proto,
                errors={k: 0.02 * abs(obs[k]) for k in keys} if with_errors else None))
        T2 = forward_observables(1.8e19, 500e-9, MODEL, proto)["T2"]
        posts.append(infer_temperature(T2, 1.8e19, MODEL, proto, T2_error=0.02 * T2))
        for post in posts:
            assert post.flags == []
            assert set(post.to_dict()) == {"estimate", "interval", "curve",
                                           "iterations", "flags"}


class TestInferDensity:
    def test_roundtrip(self):
        proto = make_protocol()
        n_true = 1.5e19
        obs = forward_observables(n_true, 850e-9, MODEL, proto)
        post = infer_density(obs, 850e-9, MODEL, proto)
        assert post.estimate == pytest.approx(n_true, rel=0.02)
        assert not post.flags

    def test_unconverged_refinement_flagged(self, monkeypatch):
        # criterion 04's density inversion: no flag at the default GN_STEPS;
        # stopped after one Gauss-Newton step, a flag that names the steps
        proto = make_protocol()
        obs = forward_observables(1e19, 850e-9, MODEL, proto)
        assert infer_density(obs, 850e-9, MODEL, proto).flags == []
        monkeypatch.setattr(inference, "GN_STEPS", 1)
        post = infer_density(obs, 850e-9, MODEL, proto)
        assert post.iterations == 1
        assert [f for f in post.flags if f.startswith("refinement")] == [
            "refinement not converged: stopped after 1 Gauss-Newton steps "
            f"(GN_STEPS = 1) at density {post.estimate!r}"]

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

    def test_unbounded_interval_is_the_bracket(self):
        # delta(n0) has a local extremum just below a jump (ROADMAP defect
        # 5) that 1.03 x the 1.5e19 m^-3 / 500 nK delta does not reach: the
        # residual is stationary at a nonzero value, JtJ -> 0, and the
        # Jacobian interval was (-8.4e21, 8.4e21) m^-3
        proto = make_protocol()
        delta = 1.03 * forward_observables(1.5e19, 500e-9, MODEL, proto)["delta"]
        post = infer_density({"delta": delta}, 500e-9, MODEL, proto,
                             errors={"delta": 0.02 * abs(delta)})
        assert post.interval == inference.DENSITY_BRACKET
        assert any(f.startswith("interval unbounded") for f in post.flags)
        lo, hi = inference.DENSITY_BRACKET
        assert lo < post.estimate < hi

    def test_flags_delta_reached_at_more_than_one_density(self):
        # at 400 nK the coarse delta/2pi runs -719, -835, -782, -914, -835,
        # -755 Hz from 2.75e19 to 5e19 m^-3, so it crosses the -826 Hz of
        # 3.3e19 m^-3 four times; the estimate is still the truth
        proto = make_protocol()
        delta = forward_observables(3.3e19, 400e-9, MODEL, proto)["delta"]
        post = infer_density({"delta": delta}, 400e-9, MODEL, proto)
        assert post.estimate == pytest.approx(3.3e19, rel=1e-6)
        assert post.flags == ["observed delta is reached at more than one "
                              "density in the bracket"]

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

    def test_unreached_t2_flagged(self):
        # T2(T) stays above 0.3 ms over the bracket at 1.5e19 m^-3, so an
        # observed 1 ns lies below every forward value; the misfit still has
        # an interior minimum (where T2 is smallest), which used to be
        # reported with only the interval flagged
        kw = {"density_order": 96, "energy_order": 96}
        proto = make_protocol()
        far = infer_temperature(1e-9, 1.5e19, MODEL, proto, **kw)
        assert any(f.startswith("observed T2 is not reached") for f in far.flags)
        T2 = forward_observables(1.5e19, 700e-9, MODEL, proto, **kw)["T2"]
        near = infer_temperature(T2, 1.5e19, MODEL, proto, **kw)
        assert near.estimate == pytest.approx(700e-9, rel=1e-6)
        assert not any("not reached" in f for f in near.flags)


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
        # 12 coarse samples, then a slope and one or more trial points per
        # Gauss-Newton step; every call adds one curve point, and the
        # temperature ambiguity check reads the memo and costs no call
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
        assert len(calls) == len(post.curve) <= 26
        # the coarse minimum and each accepted step get a slope call at
        # x + SLOPE_REL_STEP x, so the steps are those calls less one
        xs = [args[0] if target == "density" else args[1] for args in calls]
        slopes = sum(x in {y + inference.SLOPE_REL_STEP * y for y in xs[:i]}
                     for i, x in enumerate(xs))
        assert post.iterations == slopes - 1 >= 1
        assert post.to_dict()["iterations"] == post.iterations

    @pytest.mark.parametrize("target", ["density", "temperature"])
    @pytest.mark.parametrize("n0, T", [(1.2e19, 850e-9), (2e19, 950e-9),
                                       (0.8e19, 600e-9)])
    def test_interval_ends_at_chi2_of_one(self, target, n0, T):
        # for a locally quadratic chi^2 the interval x +- sqrt(1/JtJ) ends
        # at its f_min + 1 crossing, and f_min is 0 for noiseless data
        proto = make_protocol()
        kw = {"density_order": 96, "energy_order": 96}
        T2 = forward_observables(n0, T, MODEL, proto, **kw)["T2"]
        err = 0.02 * T2
        if target == "density":
            post = infer_density({"T2": T2}, T, MODEL, proto,
                                 errors={"T2": err}, **kw)
            ends = [forward_observables(x, T, MODEL, proto, **kw)
                    for x in post.interval]
        else:
            post = infer_temperature(T2, n0, MODEL, proto, T2_error=err, **kw)
            ends = [forward_observables(n0, x, MODEL, proto, **kw)
                    for x in post.interval]
        chi2 = [((end["T2"] - T2) / err) ** 2 for end in ends]
        assert chi2 == pytest.approx([1.0, 1.0], abs=0.15)

    @pytest.fixture
    def no_forward(self, monkeypatch):
        def fail(*args, **kw):
            raise AssertionError("inputs must be checked before any forward call")

        monkeypatch.setattr(inference, "forward_observables", fail)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, None, "1e-3"])
    @pytest.mark.parametrize("invert,valid", WRAPPERS)
    def test_nonfinite_observable_rejected(self, no_forward, invert, valid,
                                           value):
        with pytest.raises(ValueError):
            invert(value)

    @pytest.mark.parametrize("error", [0.0, -1e-4, math.nan, math.inf, "1e-4"])
    @pytest.mark.parametrize("invert,valid", WRAPPERS)
    def test_bad_error_rejected(self, no_forward, invert, valid, error):
        with pytest.raises(ValueError, match="error"):
            invert(valid, error)

    @pytest.mark.parametrize("invert,valid", WRAPPERS)
    def test_zero_observable_without_error_rejected(self, no_forward, invert,
                                                    valid):
        with pytest.raises(ValueError):
            invert(0.0)

    @pytest.mark.parametrize("T2", [-0.6e-3, 0.0])
    def test_nonpositive_t2_rejected(self, no_forward, T2):
        with pytest.raises(ValueError, match="T2 must be positive"):
            infer_density({"T2": T2}, 850e-9, MODEL, make_protocol())
        with pytest.raises(ValueError, match="T2 must be positive"):
            infer_temperature(T2, 1.5e19, MODEL, make_protocol())

    def test_error_of_unobserved_key_rejected(self, no_forward):
        with pytest.raises(ValueError, match="unobserved"):
            infer_density({"T2": 1e-3}, 850e-9, MODEL, make_protocol(),
                          errors={"delta": TWO_PI * 5.0})

    @pytest.mark.parametrize("known", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    @pytest.mark.parametrize("target", ["density", "temperature"])
    def test_bad_known_value_rejected(self, monkeypatch, target, known):
        # NaN passed infer_density's "<= 0" check and infer_temperature had
        # none, so BathState refused them inside the first forward call
        calls = []
        monkeypatch.setattr(inference, "forward_observables",
                            lambda *args, **kw: calls.append(args))
        if target == "density":
            with pytest.raises(ValueError, match="infer_density: T_known"):
                infer_density({"T2": 1e-3}, known, MODEL, make_protocol())
        else:
            with pytest.raises(ValueError, match="infer_temperature: n0_known"):
                infer_temperature(1e-3, known, MODEL, make_protocol())
        assert calls == []

    def test_missing_forward_value_counts_1e3(self):
        # no slope below T2 gives delta None; a NaN T2 counts the same
        observed = {"delta": TWO_PI * -50.0, "T2": 1e-3}
        r = inference._residuals(observed, {"delta": None, "T2": math.nan}, {})
        assert r.tolist() == [1e3, 1e3]
        r = inference._residuals(observed, {"T2": 2e-3}, {"T2": 1e-4})
        assert r.tolist() == [1e3, pytest.approx(10.0, rel=1e-12)]

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
