import numpy as np
import pytest

from whframe import (
    GaborLattice,
    LatticeError,
    NotAFrameError,
    NotTightError,
    PhaseSpec,
    classify,
    flat_spectrum_residual,
    norm_sq,
    phases_from_tight_generator,
    random_tight_generator,
    shift_orthogonality_residual,
    tight_generator_from_phases,
    tighten,
)
from helpers import critical_lattices, random_signal

BOX_WINDOW = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)


def unimodular_spectrum_vector(rng, N, scale):
    """A vector whose unitary DFT has constant modulus scale."""
    return np.fft.ifft(scale * np.exp(2j * np.pi * rng.random(N)), norm="ortho")


class TestShiftOrthogonality:
    def test_impulse_pair(self):
        assert shift_orthogonality_residual(np.array([1, 0], dtype=complex), 1.0) == 0.0

    def test_constant_pair(self):
        z = np.array([1, 1], dtype=complex)
        assert shift_orthogonality_residual(z, 2.0) == pytest.approx(2.0)

    def test_norm_gap_counts(self):
        z = np.array([1, 0], dtype=complex)
        assert shift_orthogonality_residual(z, 2.0) == pytest.approx(1.0)


    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 16, 97])
    def test_matches_the_shift_loop(self, N):
        # the autocorrelation by one inverse FFT against N - 1 explicit shifts
        z = random_signal(np.random.default_rng(N + 100), N)
        for target in (0.0, norm_sq(z)):
            loop = abs(norm_sq(z) - target)
            for s in range(1, N):
                loop = max(loop, abs(np.vdot(np.roll(z, s), z)))
            fast = shift_orthogonality_residual(z, target)
            assert abs(fast - loop) <= 1e-12 * max(loop, norm_sq(z))


class TestFlatSpectrum:
    def test_impulse_is_flat(self):
        assert flat_spectrum_residual(np.array([1, 0], dtype=complex), 0.5) <= 1e-12

    def test_constant_is_not_flat(self):
        assert flat_spectrum_residual(np.array([1, 1], dtype=complex), 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("N", [2, 3, 5, 8, 16])
    def test_equivalence_with_shift_orthogonality(self, N):
        # flat |spectrum|^2 == v is the same as orthogonality to proper
        # shifts with squared norm N*v
        rng = np.random.default_rng(N)
        v = 0.7
        flat = unimodular_spectrum_vector(rng, N, np.sqrt(v))
        assert flat_spectrum_residual(flat, v) <= 1e-9
        assert shift_orthogonality_residual(flat, N * v) <= 1e-9
        for _ in range(10):
            z = random_signal(rng, N)
            hit_flat = flat_spectrum_residual(z, v) <= 1e-9
            hit_shift = shift_orthogonality_residual(z, N * v) <= 1e-9
            assert hit_flat == hit_shift


class TestPhaseSpec:
    def test_rejects_non_critical_lattice(self):
        with pytest.raises(LatticeError):
            PhaseSpec(GaborLattice(8, 2, 2), np.zeros((2, 2)))

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            PhaseSpec(GaborLattice(4, 2, 2), np.zeros((2, 3)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_phases(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            PhaseSpec(GaborLattice(4, 2, 2), np.array([[bad, 0.0], [0.0, 0.25]]))

    def test_to_dict(self):
        spec = PhaseSpec(GaborLattice(4, 2, 2), np.zeros((2, 2)))
        assert spec.to_dict() == {"L": 4, "a": 2, "b": 2, "phases": [[0.0, 0.0], [0.0, 0.0]]}


class TestTightGeneratorFromPhases:
    def test_zero_phases_give_box_window(self):
        spec = PhaseSpec(GaborLattice(4, 2, 2), np.zeros((2, 2)))
        assert np.allclose(tight_generator_from_phases(spec), BOX_WINDOW, atol=1e-12)

    def test_half_cycle_phases_shift_the_box(self):
        phases = np.array([[0.0, 0.5], [0.0, 0.5]])
        g = tight_generator_from_phases(PhaseSpec(GaborLattice(4, 2, 2), phases))
        expected = np.array([0, 0, 1, 1], dtype=complex) / np.sqrt(2)
        assert np.allclose(g, expected, atol=1e-12)

    @pytest.mark.parametrize("seed", range(12))
    def test_always_normalized_tight_with_unit_norm(self, seed):
        rng = np.random.default_rng(seed)
        pool = critical_lattices()
        lat = pool[rng.integers(len(pool))]
        g = tight_generator_from_phases(PhaseSpec(lat, rng.random((lat.a, lat.b))))
        assert norm_sq(g) == pytest.approx(1.0, abs=1e-12)
        report = classify(lat, g)
        assert report.normalized_tight and report.onb


class TestPhaseExtraction:
    def test_box_window_has_zero_phases(self):
        lat = GaborLattice(4, 2, 2)
        spec = phases_from_tight_generator(lat, BOX_WINDOW)
        assert np.allclose(np.minimum(spec.phases, 1 - spec.phases), 0.0, atol=1e-12)

    def test_rejects_non_tight_window(self, impulse):
        lat, g = impulse
        with pytest.raises(NotTightError):
            phases_from_tight_generator(lat, g)

    def test_rejects_non_critical_lattice(self):
        with pytest.raises(LatticeError):
            phases_from_tight_generator(GaborLattice(8, 2, 2), np.zeros(8, dtype=complex))

    @pytest.mark.parametrize("seed", range(10))
    def test_round_trip(self, seed):
        rng = np.random.default_rng(seed)
        pool = critical_lattices()
        lat = pool[rng.integers(len(pool))]
        g = tight_generator_from_phases(PhaseSpec(lat, rng.random((lat.a, lat.b))))
        back = tight_generator_from_phases(phases_from_tight_generator(lat, g))
        assert np.max(np.abs(back - g)) <= 1e-9

    @pytest.mark.parametrize("L,a,b", [(4, 2, 2), (6, 2, 3), (8, 2, 4), (16, 4, 4)])
    def test_every_tight_window_has_phases(self, L, a, b):
        # completeness: tightening any frame at critical density lands in
        # the phase parametrization's range
        rng = np.random.default_rng(L + a)
        lat = GaborLattice(L, a, b)
        g = tighten(lat, random_signal(rng, L))
        spec = phases_from_tight_generator(lat, g)
        assert np.max(np.abs(tight_generator_from_phases(spec) - g)) <= 1e-9


class TestRandomTightGenerator:
    def test_critical_density(self):
        lat = GaborLattice(4, 2, 2)
        g = random_tight_generator(lat, seed=5)
        report = classify(lat, g)
        assert report.normalized_tight and report.onb
        assert norm_sq(g) == pytest.approx(1.0, abs=1e-12)

    def test_oversampled_density(self):
        lat = GaborLattice(4, 1, 2)
        g = random_tight_generator(lat, seed=5)
        assert classify(lat, g).normalized_tight
        assert norm_sq(g) == pytest.approx(0.5, abs=1e-9)

    def test_overdense_lattice_fails(self):
        with pytest.raises(NotAFrameError):
            random_tight_generator(GaborLattice(4, 2, 4), seed=5)

    def test_deterministic_per_seed(self):
        lat = GaborLattice(8, 2, 2)
        assert np.array_equal(random_tight_generator(lat, 9), random_tight_generator(lat, 9))
        assert not np.allclose(random_tight_generator(lat, 9), random_tight_generator(lat, 10))

    @pytest.mark.parametrize("L,a,b", [(4, 2, 2), (6, 1, 3), (8, 2, 2), (12, 2, 3), (16, 2, 4)])
    def test_norm_matches_density(self, L, a, b):
        lat = GaborLattice(L, a, b)
        g = random_tight_generator(lat, seed=L)
        assert norm_sq(g) == pytest.approx(a * b / L, abs=1e-9)
