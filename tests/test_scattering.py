import math
from dataclasses import replace

import numpy as np
import pytest

from impurityprobe.constants import CONST
from impurityprobe.scattering import (ResonanceModel, TabulatedModel, a_ground,
                                      a_histogram, delta_a, mean_a, var_a)
from impurityprobe.serialization import (ConfigError, merge_config,
                                         model_from_config)
from impurityprobe.thermal import QuadratureError

A0 = CONST.a_0
K_B = CONST.k_B
MODEL = ResonanceModel()


def mc_thermal_a(B, T, model, n_samples=1_000_000, seed=1234):
    """Monte Carlo oracle: sample MB energies, push through a_ground."""
    rng = np.random.default_rng(seed)
    E = K_B * T * rng.gamma(1.5, 1.0, size=n_samples)
    a = a_ground(B, E, model)
    mean = a.mean()
    var = a.var()
    sem_mean = a.std(ddof=1) / math.sqrt(n_samples)
    # standard error of the variance estimate
    m4 = np.mean((a - mean) ** 4)
    sem_var = math.sqrt(max(m4 - var**2, 0.0) / n_samples)
    return mean, var, sem_mean, sem_var


class TestAGround:
    def test_far_detuned_limit(self):
        B = MODEL.B0 + 1e4 * MODEL.delta_B
        assert a_ground(B, 0.0, MODEL) == pytest.approx(MODEL.a_bg, rel=1e-3)

    def test_at_resonance_center(self):
        # dispersive term is odd: crosses the background at the pole center
        assert a_ground(MODEL.B0, 0.0, MODEL) == pytest.approx(MODEL.a_bg,
                                                               rel=1e-14)

    def test_extrema_at_gamma(self):
        for sign in (+1.0, -1.0):
            B = MODEL.B0 + sign * MODEL.gamma_B
            expected = MODEL.a_bg * (1.0 - sign * MODEL.delta_B
                                     / (2.0 * MODEL.gamma_B))
            assert a_ground(B, 0.0, MODEL) == pytest.approx(expected, rel=1e-12)

    def test_clamped_to_cap(self):
        # no clip: the width alone caps the profile at |a_bg| (1 + dB / 2g),
        # 2.5e5 a_bg for this sharp model, and the cap is reached at B0 -+ g
        sharp = replace(MODEL, gamma_B=1e-10, delta_B=500e-7)
        cap = abs(sharp.a_bg) * (1.0 + sharp.delta_B / (2.0 * sharp.gamma_B))
        B = np.linspace(MODEL.B0 - 5e-7, MODEL.B0 + 5e-7, 10001)
        a = np.array([a_ground(b, 0.0, sharp) for b in B])
        assert np.max(np.abs(a)) <= cap * (1 + 1e-12)
        assert np.any(np.isclose(np.abs(a), cap, rtol=1e-12))

    def test_single_sign_change_across_resonance(self):
        E = K_B * 300e-9
        B_res = MODEL.B0 + MODEL.dB_dE * E
        B = np.linspace(B_res - 40e-7, B_res + 40e-7, 4001)
        dev = a_ground(B_res + (B - B_res), E, MODEL) - MODEL.a_bg
        dev = np.array([a_ground(b, E, MODEL) for b in B]) - MODEL.a_bg
        signs = np.sign(dev[np.abs(dev) > 1e-20 * A0])
        flips = np.count_nonzero(np.diff(signs))
        assert flips == 1

    def test_continuity(self):
        E = K_B * 500e-9
        B = np.linspace(MODEL.B0 - 20e-7, MODEL.B0 + 20e-7, 20001)
        a = np.array([a_ground(b, E, MODEL) for b in B])
        # finite gamma keeps increments small on a fine grid
        assert np.max(np.abs(np.diff(a))) < 0.05 * np.max(np.abs(a))

    def test_negative_energy_rejected(self):
        with pytest.raises(ValueError):
            a_ground(MODEL.B0, -1e-30, MODEL)


class TestDeltaA:
    def test_equal_lengths_cancel(self):
        flat = replace(MODEL, delta_B=0.0, a_bg=MODEL.a_e)
        assert delta_a(MODEL.B0, K_B * 1e-7, flat) == pytest.approx(0.0, abs=1e-25)

    def test_far_detuned(self):
        B = MODEL.B0 + 1e4 * MODEL.delta_B
        assert delta_a(B, 0.0, MODEL) == pytest.approx(MODEL.a_e - MODEL.a_bg,
                                                       rel=1e-3)

    def test_plug_in_oracle(self):
        # direct evaluation of the model formula, written out independently
        E = K_B * 600e-9
        b = MODEL.B0 - (MODEL.B0 + MODEL.dB_dE * E)
        a_g = MODEL.a_bg * (1 - MODEL.delta_B * b / (b**2 + MODEL.gamma_B**2))
        assert delta_a(MODEL.B0, E, MODEL) == pytest.approx(MODEL.a_e - a_g,
                                                            rel=1e-12)


class TestThermalStatistics:
    def test_constant_model_mean_is_background(self):
        flat = replace(MODEL, delta_B=0.0)
        assert mean_a(MODEL.B0, 600e-9, flat) == pytest.approx(flat.a_bg,
                                                               rel=1e-12)

    def test_constant_model_zero_variance(self):
        flat = replace(MODEL, delta_B=0.0)
        assert var_a(MODEL.B0, 600e-9, flat) == pytest.approx(0.0,
                                                              abs=(1e-6 * A0) ** 2)

    def test_zero_temperature_limit(self):
        a_cold = mean_a(MODEL.B0 + 10e-7, 1e-12, MODEL)
        assert a_cold == pytest.approx(a_ground(MODEL.B0 + 10e-7, 0.0, MODEL),
                                       rel=1e-3)

    @pytest.mark.parametrize("stat", [mean_a, var_a], ids=["mean", "var"])
    def test_unresolved_resonance_is_quadrature_error(self, stat):
        # a 0.1 mG-wide resonance probed 5 mG above B0: 4 energy panels (order 32)
        # and 8 (order 64) disagree
        sharp = replace(MODEL, gamma_B=1e-8)
        with pytest.raises(QuadratureError,
                           match=f"{stat.__name__} not converged at order 32"):
            stat(MODEL.B0 + 5e-7, 850e-9, sharp, order=32)

    def test_variance_nonnegative(self):
        assert var_a(MODEL.B0, 300e-9, MODEL) >= 0.0

    @pytest.mark.parametrize("B_off_mG,T_nK", [
        (0.0, 300.0), (0.0, 850.0), (10.0, 300.0),
        (10.0, 850.0), (-10.0, 600.0), (0.0, 600.0),
        (20.0, 200.0), (20.0, 1000.0), (-20.0, 1000.0),
    ])
    def test_against_monte_carlo(self, B_off_mG, T_nK):
        B = MODEL.B0 + B_off_mG * 1e-7
        T = T_nK * 1e-9
        mc_mean, mc_var, sem_mean, sem_var = mc_thermal_a(B, T, MODEL)
        q_mean = mean_a(B, T, MODEL, order=2048)
        q_var = var_a(B, T, MODEL, order=2048)
        assert abs(q_mean - mc_mean) < 3.0 * sem_mean
        assert abs(q_var - mc_var) < 3.0 * sem_var


class TestHistogram:
    def test_masses_sum_to_one(self):
        _, masses = a_histogram(MODEL.B0, 600e-9, MODEL, bins=40)
        assert abs(masses.sum() - 1.0) < 1e-9

    def test_constant_model_single_bin(self):
        flat = replace(MODEL, delta_B=0.0)
        _, masses = a_histogram(MODEL.B0, 600e-9, flat, bins=20)
        assert np.count_nonzero(masses) == 1

    def test_histogram_mean_consistent(self):
        edges, masses = a_histogram(MODEL.B0, 600e-9, MODEL, bins=400)
        centers = 0.5 * (edges[:-1] + edges[1:])
        hist_mean = float(np.dot(masses, centers))
        bin_width = edges[1] - edges[0]
        assert abs(hist_mean - mean_a(MODEL.B0, 600e-9, MODEL)) < bin_width

    def test_too_few_bins(self):
        with pytest.raises(ValueError):
            a_histogram(MODEL.B0, 600e-9, MODEL, bins=1)


class TestResonanceModel:
    @pytest.mark.parametrize("field", ["a_bg", "B0", "delta_B", "dB_dE",
                                       "gamma_B", "a_e"])
    def test_non_finite_parameter_rejected(self, field):
        with pytest.raises(ValueError):
            ResonanceModel(**{field: math.nan})
        with pytest.raises(ValueError):
            replace(MODEL, **{field: -math.inf})

    @pytest.mark.parametrize("gamma_B", [0.0, -6e-7])
    def test_nonpositive_width_rejected(self, gamma_B):
        with pytest.raises(ValueError, match="gamma_B must be positive"):
            ResonanceModel(gamma_B=gamma_B)


class TestTabulatedModel:
    def make_table(self):
        B = np.array([190.0, 195.0, 200.0, 205.0]) * 1e-7
        E = K_B * 1e-9 * np.array([0.0, 300.0, 600.0, 1200.0])
        a = np.array([[a_ground(b, e, MODEL) for e in E] for b in B])
        return TabulatedModel(B_grid=B, E_grid=E, a_grid=a, a_e=MODEL.a_e)

    def test_exact_on_grid_points(self):
        tab = self.make_table()
        for i, b in enumerate(tab.B_grid):
            for j, e in enumerate(tab.E_grid):
                assert a_ground(b, e, tab) == pytest.approx(tab.a_grid[i, j],
                                                            rel=1e-12)

    def test_bilinear_between_points(self):
        tab = self.make_table()
        b = 197.5e-7
        e = K_B * 450e-9
        expected = 0.25 * (tab.a_grid[1, 1] + tab.a_grid[1, 2]
                           + tab.a_grid[2, 1] + tab.a_grid[2, 2])
        assert a_ground(b, e, tab) == pytest.approx(expected, rel=1e-12)

    @staticmethod
    def load(tmp_path, lines):
        path = tmp_path / "table.csv"
        path.write_text("\n".join(lines) + "\n")
        cfg = merge_config({"model": {"table_csv": str(path),
                                      "a_e_a0": MODEL.a_e / A0}})
        return model_from_config(cfg)

    def test_csv_roundtrip(self, tmp_path):
        tab = self.make_table()
        lines = ["B_mG,E_over_kB_nK,a_over_a0"]
        for i, b in enumerate(tab.B_grid):
            for j, e in enumerate(tab.E_grid):
                lines.append(f"{b*1e7},{e/(K_B*1e-9)},{tab.a_grid[i,j]/A0}")
        loaded = self.load(tmp_path, lines)
        assert np.allclose(loaded.a_grid, tab.a_grid, rtol=1e-10)
        assert np.allclose(loaded.B_grid, tab.B_grid, rtol=1e-12)
        assert np.allclose(loaded.E_grid, tab.E_grid, rtol=1e-12)
        assert loaded.a_e == pytest.approx(MODEL.a_e, rel=1e-12)

    SMALL = ["B_mG,E_over_kB_nK,a_over_a0", "190,0,600", "190,200,610",
             "200,0,620", "200,200,630"]

    @pytest.mark.parametrize("lines, match", [
        # a repeated (B, E) row would overwrite the earlier one: 999, not 630
        (SMALL + ["200,200,999"], "row 6: repeats .* of row 5"),
        (SMALL[:1] + ["190,0,600", "190,200,abc"], "row 3: could not convert"),
        (SMALL[:4], "not rectangular: no row .* = \\(200, 200\\)"),
        (["B_mG,E_nK,a_over_a0", "190,0,600"], "row 1 must be the header"),
    ], ids=["repeated", "non-numeric", "non-rectangular", "header"])
    def test_bad_csv_rejected(self, tmp_path, lines, match):
        with pytest.raises(ConfigError, match=match):
            self.load(tmp_path, lines)

    def test_grid_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="table shape mismatch"):
            TabulatedModel(B_grid=np.array([0.5, 1.0]),
                           E_grid=np.array([0.0, 1.0, 2.0]),
                           a_grid=np.zeros((3, 2)))

    def test_nonmonotone_grid_rejected(self):
        with pytest.raises(ValueError):
            TabulatedModel(B_grid=np.array([1.0, 0.5]),
                           E_grid=np.array([0.0, 1.0]),
                           a_grid=np.zeros((2, 2)))
