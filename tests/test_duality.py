import numpy as np
import pytest

from whframe import (
    GaborLattice,
    NotAFrameError,
    adjoint_atom,
    canonical_dual,
    decompose_dual,
    dual_conditions_walnut,
    dual_space,
    inner,
    make_alternate_dual,
    wexler_raz_check,
)
from whframe.oracle import oracle_is_dual
from helpers import random_frame, random_signal, random_tight_instance


class TestWexlerRaz:
    def test_canonical_dual_passes(self):
        rng = np.random.default_rng(30)
        for _ in range(5):
            lat, g = random_frame(rng)
            assert wexler_raz_check(lat, g, canonical_dual(lat, g)) <= 1e-9

    def test_tight_window_is_self_dual(self, box):
        lat, g = box
        assert wexler_raz_check(lat, g, g) <= 1e-12

    def test_perturbed_delta_fails_by_half(self, delta):
        lat, g = delta
        h = g.copy()
        h[2] = 2 ** -0.5  # collides with translate(g, q)
        assert wexler_raz_check(lat, g, h) == pytest.approx(0.5, abs=1e-12)

    def test_length_mismatch(self, delta):
        lat, g = delta
        with pytest.raises(ValueError):
            wexler_raz_check(lat, g, np.zeros(6, dtype=complex))


class TestWalnutDualConditions:
    def test_box_self_pair(self, box):
        lat, g = box
        assert dual_conditions_walnut(lat, g, g) <= 1e-12

    def test_doubled_dual_off_by_level(self):
        rng = np.random.default_rng(31)
        lat, g = random_frame(rng)
        h = 2 * canonical_dual(lat, g)
        assert dual_conditions_walnut(lat, g, h) == pytest.approx(lat.b / lat.L, abs=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_verdict_matches_wexler_raz(self, seed):
        rng = np.random.default_rng(seed)
        lat, g = random_frame(rng)
        candidates = [
            canonical_dual(lat, g),
            random_signal(rng, lat.L),
            canonical_dual(lat, g) + 1e-3 * random_signal(rng, lat.L),
        ]
        for h in candidates:
            wr = wexler_raz_check(lat, g, h) <= 1e-9
            wn = dual_conditions_walnut(lat, g, h) <= 1e-9
            assert wr == wn


class TestDualSpace:
    def test_delta_complement_is_odd_impulses(self, delta):
        lat, g = delta
        space = dual_space(lat, g)
        assert space.orbit_rank == 2
        assert space.dimension == 2
        # orbit is span{delta_0, delta_2}; complement spans {delta_1, delta_3}
        for row in space.complement_basis:
            assert abs(row[0]) <= 1e-12 and abs(row[2]) <= 1e-12
        assert np.linalg.matrix_rank(space.complement_basis) == 2
        # the basis is a closed formula: one Householder reflector per Zak block
        odd = np.array([[0, -1, 0, -1], [0, 1j, 0, -1j]]) * 2 ** -0.5
        assert np.max(np.abs(space.complement_basis - odd)) <= 1e-15

    def test_critical_density_has_unique_dual(self, box):
        lat, g = box
        space = dual_space(lat, g)
        assert space.orbit_rank == 4
        assert space.dimension == 0

    def test_generic_oversampled_dimension(self):
        rng = np.random.default_rng(32)
        lat = GaborLattice(8, 2, 2)
        g = random_signal(rng, 8, normalize=True)
        space = dual_space(lat, g)
        assert space.dimension == 8 - 4  # a*b independent adjoint atoms

    @pytest.mark.parametrize("seed", range(6))
    def test_basis_invariants(self, seed):
        rng = np.random.default_rng(seed)
        lat, g = random_frame(rng)
        space = dual_space(lat, g)
        assert space.orbit_rank + space.dimension == lat.L
        basis = space.complement_basis
        if space.dimension:
            gram = np.conj(basis) @ basis.T
            assert np.max(np.abs(gram - np.eye(space.dimension))) <= 1e-10
            for k in range(lat.a):
                for l in range(lat.b):
                    atom = adjoint_atom(lat, g, k, l)
                    for row in basis:
                        assert abs(inner(row, atom)) <= 1e-10

    def test_not_a_frame(self, impulse):
        lat, g = impulse
        with pytest.raises(NotAFrameError):
            dual_space(lat, g)


class TestMakeAlternateDual:
    def test_zero_coefficients_give_canonical_dual(self):
        rng = np.random.default_rng(33)
        lat, g = random_frame(rng)
        dim = dual_space(lat, g).dimension
        h = make_alternate_dual(lat, g, np.zeros(dim, dtype=complex))
        assert np.allclose(h, canonical_dual(lat, g), atol=1e-12)

    def test_delta_family(self, delta):
        lat, g = delta
        alpha, beta = 0.3 - 0.2j, -1.1 + 0.7j
        h = make_alternate_dual(lat, g, [alpha, beta])
        # h = canonical dual plus a combination supported on {1, 3}
        assert h[0] == pytest.approx(2 ** -0.5)
        assert abs(h[2]) <= 1e-12
        assert oracle_is_dual(lat, g, h)
        assert wexler_raz_check(lat, g, h) <= 1e-9

    def test_box_allows_only_empty_coefficients(self, box):
        lat, g = box
        h = make_alternate_dual(lat, g, [])
        assert np.allclose(h, g, atol=1e-10)
        with pytest.raises(ValueError):
            make_alternate_dual(lat, g, [1.0])

    @pytest.mark.parametrize("seed", range(6))
    def test_every_member_is_a_dual(self, seed):
        rng = np.random.default_rng(seed)
        lat, g = random_frame(rng)
        dim = dual_space(lat, g).dimension
        coeffs = random_signal(rng, dim) if dim else np.zeros(0, dtype=complex)
        h = make_alternate_dual(lat, g, coeffs)
        assert wexler_raz_check(lat, g, h) <= 1e-9
        assert oracle_is_dual(lat, g, h)


class TestDecomposeDual:
    def test_canonical_dual_has_zero_free_part(self):
        rng = np.random.default_rng(34)
        lat, g = random_frame(rng)
        report = decompose_dual(lat, g, canonical_dual(lat, g))
        assert report.is_dual
        assert np.max(np.abs(report.free_part)) <= 1e-9
        assert report.free_part_in_complement

    def test_delta_with_free_impulse(self, delta):
        lat, g = delta
        h = np.array([2 ** -0.5, 1, 0, 0], dtype=complex)
        report = decompose_dual(lat, g, h)
        assert report.is_dual
        assert np.allclose(report.canonical_part, g, atol=1e-10)
        assert np.allclose(report.free_part, [0, 1, 0, 0], atol=1e-10)
        assert oracle_is_dual(lat, g, h)

    def test_delta_with_orbit_component_is_not_dual(self, delta):
        lat, g = delta
        h = np.array([np.sqrt(2), 0, 0, 0], dtype=complex)
        report = decompose_dual(lat, g, h)
        assert not report.is_dual
        assert not report.free_part_in_complement
        assert report.wexler_raz_residual == pytest.approx(0.5, abs=1e-12)
        assert np.allclose(report.free_part, [2 ** -0.5, 0, 0, 0], atol=1e-10)

    def test_tight_window_decomposes_around_itself(self):
        rng = np.random.default_rng(35)
        lat, g = random_tight_instance(rng)
        report = decompose_dual(lat, g, g)
        assert report.is_dual
        assert np.allclose(report.canonical_part, g, atol=1e-9)

    def test_free_part_is_orthogonal_to_window(self):
        # for any dual h: <h - S^-1 g, g> = <h, g> - a*b/L = 0
        rng = np.random.default_rng(36)
        for _ in range(5):
            lat, g = random_frame(rng)
            dim = dual_space(lat, g).dimension
            coeffs = random_signal(rng, dim) if dim else np.zeros(0, dtype=complex)
            h = make_alternate_dual(lat, g, coeffs)
            report = decompose_dual(lat, g, h)
            assert report.is_dual
            assert abs(inner(report.free_part, g)) <= 1e-9

    def test_not_a_frame(self, impulse):
        lat, g = impulse
        with pytest.raises(NotAFrameError):
            decompose_dual(lat, g, g)


class TestThreeWayAgreement:
    def cases(self, rng, count):
        for _ in range(count):
            lat, g = random_frame(rng)
            space = dual_space(lat, g)
            dim = space.dimension
            coeffs = random_signal(rng, dim) if dim else np.zeros(0, dtype=complex)
            dual = make_alternate_dual(lat, g, coeffs)
            yield lat, g, dual
            # inject a component inside the adjoint orbit: never a dual
            spoiled = dual + 1e-3 * adjoint_atom(lat, g, rng.integers(lat.a), rng.integers(lat.b))
            yield lat, g, spoiled
            yield lat, g, random_signal(rng, lat.L)

    def test_all_certificates_agree(self):
        rng = np.random.default_rng(37)
        for lat, g, h in self.cases(rng, 8):
            wr = wexler_raz_check(lat, g, h) <= 1e-9
            wn = dual_conditions_walnut(lat, g, h) <= 1e-9
            oracle = oracle_is_dual(lat, g, h)
            assert wr == wn == oracle
