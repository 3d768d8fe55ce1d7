import numpy as np
import pytest

from whframe import (
    GaborLattice,
    LatticeError,
    NotAFrameError,
    NotTightError,
    PhaseSpec,
    check_cond_adjoint,
    classify,
    norm_sq,
    phases_from_tight_generator,
    random_tight_generator,
    tight_generator_from_phases,
    tighten,
)
from whframe.frame import _forward, _inverse, _zak_layout
from helpers import critical_lattices, random_signal

BOX_WINDOW = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)


def unimodular_spectrum_vector(rng, N, scale):
    """A vector whose unitary DFT has constant modulus scale."""
    return np.fft.ifft(scale * np.exp(2j * np.pi * rng.random(N)), norm="ortho")


def residue_lattice(N):
    """(N, 1, N): one residue subsequence, z itself, whose 1 x 1 Zak blocks are its unitary DFT."""
    return GaborLattice(N, 1, N)


class TestShiftOrthogonality:
    # criterion (3) at (N, 1, N): the adjoint products are <z, roll(z, s)>, s in Z_N,
    # less a*b/L = 1 at s = 0, so the residual is that of orthogonality to the proper
    # cyclic shifts with squared norm 1
    def test_impulse_pair(self):
        assert check_cond_adjoint(residue_lattice(2), np.array([1, 0], dtype=complex)) <= 1e-15

    def test_constant_pair(self):
        z = np.array([1, 1], dtype=complex)
        assert check_cond_adjoint(residue_lattice(2), z) == pytest.approx(2.0)

    def test_norm_gap_counts(self):
        z = np.array([np.sqrt(2), 0], dtype=complex)
        assert check_cond_adjoint(residue_lattice(2), z) == pytest.approx(1.0)

    @pytest.mark.parametrize("N", [1, 2, 3, 5, 8, 16, 97])
    def test_matches_the_shift_loop(self, N):
        # the Zak route against N - 1 explicit shifts, with and without a norm gap
        raw = random_signal(np.random.default_rng(N + 100), N)
        for z in (raw, raw / np.sqrt(norm_sq(raw))):
            loop = abs(norm_sq(z) - 1.0)
            for s in range(1, N):
                loop = max(loop, abs(np.vdot(np.roll(z, s), z)))
            fast = check_cond_adjoint(residue_lattice(N), z)
            assert abs(fast - loop) <= 1e-12 * max(loop, norm_sq(z))


def phases_accept(lat, z):
    """Whether phases_from_tight_generator finds z's residue spectra flat."""
    try:
        phases_from_tight_generator(lat, z)
    except NotTightError:
        return False
    return True


class TestFlatSpectrum:
    # at (N, 1, N) the flat-spectrum test of the phase extraction is criterion (3)
    def test_impulse_is_flat(self):
        lat, z = residue_lattice(2), np.array([1, 0], dtype=complex)
        assert phases_accept(lat, z) and classify(lat, z).normalized_tight

    def test_constant_is_not_flat(self):
        lat, z = residue_lattice(2), np.array([1, 1], dtype=complex)
        assert not phases_accept(lat, z) and not classify(lat, z).normalized_tight

    @pytest.mark.parametrize("N", [2, 3, 5, 8, 16])
    def test_equivalence_with_shift_orthogonality(self, N):
        # a flat |spectrum|^2 == 1/N is the same as orthogonality to proper
        # shifts with squared norm 1, and as normalized tightness
        rng, lat = np.random.default_rng(N), residue_lattice(N)
        flat = unimodular_spectrum_vector(rng, N, N ** -0.5)
        assert phases_accept(lat, flat) and classify(lat, flat).normalized_tight
        assert check_cond_adjoint(lat, flat) <= 1e-9
        for _ in range(10):
            z = random_signal(rng, N)
            hit_flat = phases_accept(lat, z)
            assert hit_flat == classify(lat, z).normalized_tight
            assert hit_flat == (check_cond_adjoint(lat, z) <= 1e-9)


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


def residue_generator(lat, phases):
    """The residue construction itself: per-residue unitary IDFTs, interleaved."""
    rows = np.fft.ifft(np.exp(2j * np.pi * phases) / np.sqrt(lat.L), axis=1, norm="ortho")
    return rows.T.reshape(lat.L)  # g(y + n*a) = rows[y][n]


def residue_phases(lat, g):
    """Its inverse: the unitary DFT of every residue subsequence z_y(n) = g(y + n*a)."""
    spectra = np.fft.fft(g.reshape(lat.N, lat.a).T, axis=1, norm="ortho")
    return np.mod(np.angle(spectra) / (2 * np.pi), 1.0)


def test_phase_api_is_the_residue_construction_bit_for_bit():
    # the phase API is one np.fft call over the residue rows: every bit must match
    rng = np.random.default_rng(21)
    lattices = [GaborLattice(L, a, L // a) for L in range(1, 121)
                for a in range(1, L + 1) if L % a == 0]
    assert len(lattices) == 602  # 601 with L >= 2, and (1, 1, 1)
    for lat in lattices:
        phases = rng.random((lat.a, lat.b))
        g = tight_generator_from_phases(PhaseSpec(lat, phases))
        assert np.array_equal(g, residue_generator(lat, phases)), lat
        assert np.array_equal(phases_from_tight_generator(lat, g).phases,
                              residue_phases(lat, g)), lat


def test_phase_api_reads_the_zak_blocks():
    # at a*b = L the Zak blocks are 1 x 1 (c = a, d = b): block [y, i] is the unitary DFT
    # of the residue y at frequency W[i], so the Zak pair and the phase API, which run
    # different code, must agree on a seeded sample of the 602 critical lattices
    rng = np.random.default_rng(29)
    eps = np.finfo(float).eps
    critical = [GaborLattice(L, a, L // a) for L in range(1, 121)
                for a in range(1, L + 1) if L % a == 0]
    for k in rng.choice(len(critical), 100, replace=False):
        lat = critical[k]
        W = _zak_layout(lat)[1].ravel()
        phases = rng.random((lat.a, lat.b))
        g = tight_generator_from_phases(PhaseSpec(lat, phases))
        blocks = _forward(lat, g)
        assert blocks.shape == (lat.a, lat.b, 1, 1), lat
        # phases in turns, compared mod 1; phases_from_tight_generator checks the moduli
        turns = np.angle(blocks.reshape(lat.a, lat.b)) / (2 * np.pi)
        turns -= phases_from_tight_generator(lat, g).phases[:, W]
        assert np.max(np.abs(turns - np.round(turns))) <= 4 * eps, lat
        written = (np.exp(2j * np.pi * phases) / np.sqrt(lat.L))[:, W].reshape(blocks.shape)
        assert np.max(np.abs(_inverse(lat, written) - g)) <= 4 * eps * np.max(np.abs(g)), lat


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
