import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from whframe import (
    GaborLattice,
    LatticeError,
    adjoint_atom,
    as_signal,
    dft,
    gabor_atom,
    inner,
    modulate,
    norm_sq,
    translate,
)
from helpers import lattices, random_signal


class TestGaborLattice:
    def test_derived_parameters(self):
        lat = GaborLattice(12, 3, 4)
        assert (lat.N, lat.M, lat.p, lat.q) == (4, 3, 4, 3)
        assert lat.N * lat.a == lat.L
        assert lat.M * lat.b == lat.L
        assert lat.p * lat.a == lat.L
        assert lat.q * lat.b == lat.L
        assert lat.atom_count == 12
        assert float(lat.density) == 1.0
        assert lat.is_critical

    def test_atom_count_vs_density(self):
        oversampled = GaborLattice(8, 2, 2)
        assert oversampled.atom_count == 16 >= 8
        assert float(oversampled.density) == 0.5
        undersampled = GaborLattice(8, 4, 4)
        assert undersampled.atom_count == 4 < 8

    @pytest.mark.parametrize("L,a,b", [(4, 3, 2), (4, 2, 3), (6, 4, 1), (4, 8, 2)])
    def test_rejects_non_divisors(self, L, a, b):
        with pytest.raises(LatticeError):
            GaborLattice(L, a, b)

    @pytest.mark.parametrize("L,a,b", [(0, 1, 1), (4, 0, 2), (4, 2, -2)])
    def test_rejects_non_positive(self, L, a, b):
        with pytest.raises(LatticeError):
            GaborLattice(L, a, b)

    @pytest.mark.parametrize("L,a,b", [(True, 1, 1), (4, True, 2), (4, 2, True),
                                       (4, np.True_, 2), (4, False, 2)])
    def test_rejects_booleans(self, L, a, b):
        # bool is an int: without the check, a = True would build a = 1
        bad = next(v for v in (L, a, b) if isinstance(v, (bool, np.bool_)))
        with pytest.raises(LatticeError, match=f"must be a positive integer, got {bad!r}"):
            GaborLattice(L, a, b)

    def test_swapped(self):
        assert GaborLattice(12, 3, 4).swapped() == GaborLattice(12, 4, 3)


class TestSignals:
    def test_as_signal_checks_length(self):
        with pytest.raises(ValueError):
            as_signal([1, 2, 3], L=4)

    def test_as_signal_rejects_non_finite(self):
        with pytest.raises(ValueError):
            as_signal([1.0, np.inf, 0, 0])

    def test_as_signal_rejects_matrix(self):
        with pytest.raises(ValueError):
            as_signal([[1, 2], [3, 4]])


class TestTranslate:
    def test_shift_by_one(self):
        s = np.array([1, 2, 3, 4], dtype=complex)
        assert np.array_equal(translate(s, 1), [4, 1, 2, 3])

    def test_shift_by_zero(self):
        s = np.array([5, 6, 7], dtype=complex)
        assert np.array_equal(translate(s, 0), s)

    def test_full_period_wraps(self):
        s = np.array([1, 0, 0, 0], dtype=complex)
        assert np.array_equal(translate(s, 4), s)


class TestModulate:
    def test_zero_is_identity(self):
        lat = GaborLattice(4, 2, 2)
        s = random_signal(np.random.default_rng(0), 4)
        assert np.allclose(modulate(s, 0, lat), s)

    def test_alternating_signs(self):
        lat = GaborLattice(4, 2, 2)
        s = np.ones(4, dtype=complex)
        assert np.allclose(modulate(s, 1, lat), [1, -1, 1, -1], atol=1e-12)

    def test_full_period_is_identity(self):
        lat = GaborLattice(6, 2, 3)
        s = random_signal(np.random.default_rng(1), 6)
        assert np.allclose(modulate(s, lat.M, lat), s, atol=1e-12)


class TestGaborAtom:
    def test_origin_atom_is_window(self, box):
        lat, g = box
        assert np.allclose(gabor_atom(lat, g, 0, 0), g)

    def test_hand_expanded_atom(self, impulse):
        lat, g = impulse
        assert np.allclose(gabor_atom(lat, g, 1, 1), [0, 0, 1, 0], atol=1e-12)

    def test_operator_order_commutation_scalar(self):
        # swapping modulate and translate costs exactly one unit phase
        rng = np.random.default_rng(2)
        lat = GaborLattice(8, 2, 4)
        g = random_signal(rng, 8)
        for m in range(lat.M):
            for n in range(lat.N):
                scalar = np.exp(-2j * np.pi * m * lat.b * n * lat.a / lat.L)
                assert np.allclose(
                    translate(modulate(g, m, lat), n * lat.a),
                    scalar * gabor_atom(lat, g, m, n),
                    atol=1e-12,
                )

    def test_atoms_preserve_norm(self):
        rng = np.random.default_rng(3)
        lat = GaborLattice(12, 3, 2)
        g = random_signal(rng, 12)
        for m in range(lat.M):
            for n in range(lat.N):
                assert norm_sq(gabor_atom(lat, g, m, n)) == pytest.approx(norm_sq(g))

    def test_indices_reduce_periodically(self):
        rng = np.random.default_rng(4)
        lat = GaborLattice(6, 2, 3)
        g = random_signal(rng, 6)
        assert np.allclose(gabor_atom(lat, g, -1, -1), gabor_atom(lat, g, lat.M - 1, lat.N - 1))
        assert np.allclose(gabor_atom(lat, g, lat.M, lat.N), gabor_atom(lat, g, 0, 0))


class TestAdjointAtom:
    def test_origin_atom_is_window(self, delta):
        lat, g = delta
        assert np.allclose(adjoint_atom(lat, g, 0, 0), g)

    def test_translation_step_is_q(self, delta):
        lat, g = delta  # a = 1: no nontrivial adjoint modulations
        assert np.allclose(adjoint_atom(lat, g, 0, 1), translate(g, 2))

    def test_support_kills_phase(self, impulse):
        lat, g = impulse
        assert np.allclose(adjoint_atom(lat, g, 1, 0), g, atol=1e-12)

    def test_indices_reduce_periodically(self):
        rng = np.random.default_rng(5)
        lat = GaborLattice(8, 4, 2)
        g = random_signal(rng, 8)
        assert np.allclose(adjoint_atom(lat, g, lat.a, lat.b), adjoint_atom(lat, g, 0, 0))
        assert np.allclose(adjoint_atom(lat, g, -1, -1), adjoint_atom(lat, g, lat.a - 1, lat.b - 1))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(lat=lattices(), k=st.integers(-100, 100), l=st.integers(-100, 100),
           seed=st.integers(0, 2**32 - 1))
    def test_is_the_atom_of_the_adjoint_lattice(self, lat, k, l, seed):
        # E_{kp} T_{lq} g is the (k, l) Gabor atom of (L, q, p), bit for bit
        g = random_signal(np.random.default_rng(seed), lat.L)
        adjoint = GaborLattice(lat.L, lat.q, lat.p)
        assert (lat.q, lat.p) == (lat.M, lat.N) == (adjoint.a, adjoint.b)
        assert adjoint_atom(lat, g, k, l).tobytes() == gabor_atom(adjoint, g, k, l).tobytes()


class TestDft:
    def test_impulse_has_flat_spectrum(self):
        assert np.allclose(dft([1, 0, 0, 0]), [0.5, 0.5, 0.5, 0.5])

    def test_fourth_power_is_identity(self):
        s = random_signal(np.random.default_rng(6), 12)
        out = dft(dft(dft(dft(s))))
        assert np.allclose(out, s, atol=1e-12)

    def test_parseval(self):
        s = random_signal(np.random.default_rng(7), 16)
        assert norm_sq(dft(s)) == pytest.approx(norm_sq(s), abs=1e-12)

    @pytest.mark.parametrize("L,a,b", [(4, 2, 2), (6, 2, 3), (8, 2, 2), (12, 3, 2), (16, 4, 4)])
    def test_maps_atoms_to_swapped_lattice(self, L, a, b):
        # dft(atom(m, n)) is a unit phase times the swapped lattice's
        # atom (-n, m) applied to dft(g)
        rng = np.random.default_rng(9)
        lat, sw = GaborLattice(L, a, b), GaborLattice(L, b, a)
        g = random_signal(rng, L)
        fg = dft(g)
        for m in range(lat.M):
            for n in range(lat.N):
                u = dft(gabor_atom(lat, g, m, n))
                v = gabor_atom(sw, fg, -n, m)
                scalar = np.exp(2j * np.pi * m * lat.b * n * lat.a / lat.L)
                assert np.allclose(u, scalar * v, atol=1e-10)


class TestInner:
    def test_self_inner_is_norm_sq(self):
        s = random_signal(np.random.default_rng(10), 8)
        ip = inner(s, s)
        assert ip.imag == pytest.approx(0.0, abs=1e-12)
        assert ip.real == pytest.approx(norm_sq(s))
        assert ip.real >= 0

    def test_conjugate_linear_in_second_argument(self):
        rng = np.random.default_rng(11)
        s1, s2 = random_signal(rng, 6), random_signal(rng, 6)
        c = 2.0 - 1.5j
        assert inner(s1, c * s2) == pytest.approx(np.conj(c) * inner(s1, s2))
        assert inner(c * s1, s2) == pytest.approx(c * inner(s1, s2))
