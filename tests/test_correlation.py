import numpy as np
import pytest

from whframe import (
    GaborLattice,
    adjoint_atom,
    correlation_profile,
    cross_correlation_table,
    frame_energy_split,
    inner,
    norm_sq,
    translate,
    walnut_upper_bound,
)
from whframe.oracle import analysis_array, oracle_frame_bounds
from helpers import random_frame, random_lattice, random_signal, random_tight_instance


class TestCorrelationProfile:
    def test_box_profile(self, box):
        lat, g = box
        table = correlation_profile(lat, g).table
        assert np.allclose(table[0], 0.5, atol=1e-12)
        assert np.allclose(table[1], 0.0, atol=1e-12)

    def test_impulse_profile(self, impulse):
        lat, g = impulse
        table = correlation_profile(lat, g).table
        assert np.allclose(table[0], [1, 0, 1, 0], atol=1e-12)
        assert np.allclose(table[1], 0.0, atol=1e-12)

    def test_zero_window(self):
        lat = GaborLattice(6, 2, 3)
        table = correlation_profile(lat, np.zeros(6, dtype=complex)).table
        assert np.all(table == 0)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            correlation_profile(GaborLattice(6, 2, 3), np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("seed", range(5))
    def test_invariants(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        g = random_signal(rng, lat.L)
        table = correlation_profile(lat, g).table
        # shift-lattice periodicity of every row
        assert np.allclose(table, np.roll(table, lat.a, axis=1), atol=1e-12)
        # row 0 is the power profile: real and nonnegative
        assert np.max(np.abs(table[0].imag)) <= 1e-12
        assert np.min(table[0].real) >= -1e-12
        # rows pair up under conjugation
        for k in range(lat.b):
            for x in range(lat.L):
                mirrored = table[(lat.b - k) % lat.b, (x - k * lat.q) % lat.L]
                assert abs(mirrored - np.conj(table[k, x])) <= 1e-12
        # one period of the power profile sums to the window energy
        assert np.sum(table[0, : lat.a].real) == pytest.approx(norm_sq(g), rel=1e-12)


class TestPeriodizedCorrelation:
    """One period of row l of the (h, g) table, [l, :a], is the periodized correlation:
    h * conj(T_{l*q} g) folded to period a."""

    def test_box_fold_is_flat(self, box):
        lat, g = box
        assert np.allclose(cross_correlation_table(lat, g, g)[0, :lat.a], [0.5, 0.5], atol=1e-12)

    def test_impulse_fold_is_not_flat(self, impulse):
        lat, g = impulse
        assert np.allclose(cross_correlation_table(lat, g, g)[0, :lat.a], [1.0, 0.0], atol=1e-12)

    def test_trivial_fold_is_inner_product(self):
        # a = 1 folds to one entry; q = 2, so row 1 is the shift by 2
        rng = np.random.default_rng(12)
        h, g = random_signal(rng, 6), random_signal(rng, 6)
        lat = GaborLattice(6, 1, 3)
        out = cross_correlation_table(lat, h, g)[1, :lat.a]
        assert out.shape == (1,)
        assert out[0] == pytest.approx(inner(h, translate(g, 2)))

    def test_entries_sum_to_inner_product(self):
        # b = L, so q = 1 and row `shift` is the shift itself
        rng = np.random.default_rng(13)
        h, g = random_signal(rng, 12), random_signal(rng, 12)
        for shift, period in [(0, 3), (5, 4), (2, 6)]:
            table = cross_correlation_table(GaborLattice(12, period, 12), h, g)
            total = np.sum(table[shift, :period])
            assert total == pytest.approx(inner(h, translate(g, shift)), abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_flatness_matches_adjoint_orthogonality(self, seed):
        # fold of h * conj(T_{l*q} g) over period a is flat exactly when h
        # is orthogonal to every nontrivial p-step modulation of T_{l*q} g
        rng = np.random.default_rng(seed)
        lat_r, g_r = random_frame(rng)
        lat_t, g_t = random_tight_instance(rng)
        cases = [
            (lat_r, g_r, random_signal(rng, lat_r.L)),  # generic: not flat
            (lat_t, g_t, g_t),  # tight self-pair: flat for every l
        ]
        for lat, g, h in cases:
            folds = cross_correlation_table(lat, h, g)[:, :lat.a]
            for l, fold in enumerate(folds):
                flat = np.max(np.abs(fold - fold.mean())) <= 1e-9
                orthogonal = all(
                    abs(inner(h, adjoint_atom(lat, g, k, l))) <= 1e-9
                    for k in range(1, lat.a)
                )
                assert flat == orthogonal
                if flat:
                    expected = inner(h, translate(g, l * lat.q)) / lat.a
                    assert np.allclose(fold, expected, atol=1e-9)


class TestWalnutUpperBound:
    def test_box_attains_true_bound(self, box):
        lat, g = box
        assert walnut_upper_bound(lat, g) == pytest.approx(1.0, abs=1e-12)
        assert oracle_frame_bounds(lat, g).B == pytest.approx(1.0, abs=1e-12)

    def test_impulse_attains_true_bound(self, impulse):
        lat, g = impulse
        assert walnut_upper_bound(lat, g) == pytest.approx(2.0, abs=1e-12)
        assert oracle_frame_bounds(lat, g).B == pytest.approx(2.0, abs=1e-12)

    def test_zero_window(self):
        lat = GaborLattice(4, 2, 2)
        assert walnut_upper_bound(lat, np.zeros(4, dtype=complex)) == 0.0

    @pytest.mark.parametrize("seed", range(8))
    def test_dominates_oracle_bound(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        g = random_signal(rng, lat.L)
        assert walnut_upper_bound(lat, g) >= oracle_frame_bounds(lat, g).B - 1e-9


class TestEnergyIdentity:
    def test_box_with_impulse_probe(self, box):
        lat, g = box
        f = np.zeros(4, dtype=complex)
        f[0] = 1.0
        f1, f2 = frame_energy_split(lat, g, f)
        assert f1 == pytest.approx(1.0, abs=1e-12)
        assert f2.real == pytest.approx(0.0, abs=1e-12)
        energy = np.sum(np.abs(analysis_array(lat, g) @ f) ** 2)
        assert energy == pytest.approx(1.0, abs=1e-12)

    def test_zero_probe(self, box):
        lat, g = box
        f1, f2 = frame_energy_split(lat, g, np.zeros(4, dtype=complex))
        assert (f1, f2.real) == (0.0, 0.0)

    def test_matches_enumerated_energy_at_fixed_lattice(self):
        rng = np.random.default_rng(14)
        lat = GaborLattice(8, 2, 4)
        g, f = random_signal(rng, 8), random_signal(rng, 8)
        f1, f2 = frame_energy_split(lat, g, f)
        energy = np.sum(np.abs(analysis_array(lat, g) @ f) ** 2)
        assert abs(f1 + f2.real - energy) <= 1e-9

    @pytest.mark.parametrize("seed", range(10))
    def test_energy_split_property(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        g, f = random_signal(rng, lat.L), random_signal(rng, lat.L)
        f1, f2 = frame_energy_split(lat, g, f)
        energy = np.sum(np.abs(analysis_array(lat, g) @ f) ** 2)
        scale = 1.0 + norm_sq(f) * norm_sq(g)
        assert abs(f1 + f2.real - energy) <= 1e-9 * scale
        assert abs(f2.imag) <= 1e-9 * scale

    def test_length_mismatch(self):
        lat = GaborLattice(4, 2, 2)
        with pytest.raises(ValueError):
            frame_energy_split(lat, np.zeros(4, dtype=complex), np.zeros(6, dtype=complex))
