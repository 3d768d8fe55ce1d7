import numpy as np
import pytest

from whframe import (
    GaborLattice,
    NotAFrameError,
    canonical_dual,
    check_cond_walnut,
    classify,
    frame_bounds,
    frame_operator,
    gabor_atom,
    inner,
    norm_audit,
    norm_sq,
    random_tight_generator,
    reconstruct,
    tighten,
    walnut_apply,
)
from whframe.oracle import oracle_frame_bounds
from helpers import oracle_operator, random_frame, random_lattice, random_signal


def atom_operator(lat, m, n):
    """Matrix of f -> modulate(translate(f, n*a), m)."""
    x = np.arange(lat.L)
    shift = np.zeros((lat.L, lat.L))
    shift[x, (x - n * lat.a) % lat.L] = 1.0
    return np.diag(np.exp(2j * np.pi * m * lat.b * x / lat.L)) @ shift


class TestFrameOperator:
    def test_scaled_impulse_gives_identity(self):
        lat = GaborLattice(4, 1, 2)
        g = np.zeros(4, dtype=complex)
        g[0] = 2 ** -0.5
        assert np.allclose(frame_operator(lat, g), np.eye(4), atol=1e-12)

    def test_impulse_on_critical_lattice(self, impulse):
        lat, g = impulse
        assert np.allclose(frame_operator(lat, g), np.diag([2, 0, 2, 0]), atol=1e-12)

    def test_zero_window(self):
        lat = GaborLattice(4, 2, 2)
        assert np.all(frame_operator(lat, np.zeros(4, dtype=complex)) == 0)

    @pytest.mark.parametrize("seed", range(5))
    def test_hermitian_psd(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        S = frame_operator(lat, random_signal(rng, lat.L))
        assert np.allclose(S, np.conj(S.T), atol=1e-12)
        assert np.min(np.linalg.eigvalsh(S)) >= -1e-9

    @pytest.mark.parametrize("L,a,b", [(6, 2, 3), (8, 2, 2), (12, 4, 3)])
    def test_commutes_with_lattice_operators(self, L, a, b):
        rng = np.random.default_rng(20)
        lat = GaborLattice(L, a, b)
        S = frame_operator(lat, random_signal(rng, L))
        for m in range(lat.M):
            for n in range(lat.N):
                U = atom_operator(lat, m, n)
                assert np.max(np.abs(S @ U - U @ S)) <= 1e-10


class TestWalnutApply:
    def test_tight_window_acts_as_identity(self, box):
        lat, g = box
        f = random_signal(np.random.default_rng(21), 4)
        assert np.allclose(walnut_apply(lat, g, f), f, atol=1e-12)

    def test_zero_signal(self, box):
        lat, g = box
        out = walnut_apply(lat, g, np.zeros(4, dtype=complex))
        assert np.all(out == 0)

    def test_matches_dense_operator_at_fixed_lattice(self):
        rng = np.random.default_rng(22)
        lat = GaborLattice(8, 2, 4)
        g, f = random_signal(rng, 8), random_signal(rng, 8)
        assert np.allclose(walnut_apply(lat, g, f), oracle_operator(lat, g) @ f, atol=1e-10)

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_dense_operator_property(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng, sizes=(4, 6, 8, 12, 16, 24, 48))
        g, f = random_signal(rng, lat.L), random_signal(rng, lat.L)
        dense = oracle_operator(lat, g) @ f
        fast = walnut_apply(lat, g, f)
        assert np.max(np.abs(fast - dense)) <= 1e-10 * max(1.0, np.max(np.abs(dense)))


class TestFrameBounds:
    def test_box_bounds(self, box):
        lat, g = box
        bounds = frame_bounds(lat, g)
        assert bounds.A == pytest.approx(1.0, abs=1e-12)
        assert bounds.B == pytest.approx(1.0, abs=1e-12)

    def test_impulse_bounds(self, impulse):
        lat, g = impulse
        bounds = frame_bounds(lat, g)
        assert bounds.A == pytest.approx(0.0, abs=1e-12)
        assert bounds.B == pytest.approx(2.0, abs=1e-12)

    def test_quadratic_scaling(self):
        rng = np.random.default_rng(23)
        lat = random_lattice(rng)
        g = random_signal(rng, lat.L)
        base = frame_bounds(lat, g)
        scaled = frame_bounds(lat, 3.0j * g)
        assert scaled.A == pytest.approx(9 * base.A, rel=1e-9, abs=1e-12)
        assert scaled.B == pytest.approx(9 * base.B, rel=1e-9)

    @pytest.mark.parametrize("seed", range(8))
    def test_agrees_with_oracle(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        g = random_signal(rng, lat.L, normalize=True)
        fast = frame_bounds(lat, g)
        slow = oracle_frame_bounds(lat, g)
        assert fast.A == pytest.approx(slow.A, abs=1e-9)
        assert fast.B == pytest.approx(slow.B, abs=1e-9)


class TestCanonicalDual:
    def test_normalized_tight_window_is_self_dual(self, box):
        lat, g = box
        assert np.allclose(canonical_dual(lat, g), g, atol=1e-10)

    def test_tight_window_divides_by_constant(self):
        lat = GaborLattice(4, 2, 2)
        g = np.array([1, 1, 0, 0], dtype=complex)  # frame operator is 2I
        assert np.allclose(canonical_dual(lat, g), g / 2, atol=1e-10)

    def test_pairing_is_density(self):
        rng = np.random.default_rng(24)
        lat = GaborLattice(4, 1, 2)
        for _ in range(5):
            g = random_signal(rng, 4)
            assert inner(canonical_dual(lat, g), g) == pytest.approx(0.5, abs=1e-9)

    def test_not_a_frame(self, impulse):
        lat, g = impulse
        with pytest.raises(NotAFrameError):
            canonical_dual(lat, g)
        with pytest.raises(NotAFrameError):
            canonical_dual(lat, np.zeros(4, dtype=complex))


class TestTighten:
    def test_fixed_point_on_normalized_tight(self, box):
        lat, g = box
        assert np.allclose(tighten(lat, g), g, atol=1e-10)

    def test_rescales_tight_window(self, box):
        lat, g = box
        assert np.allclose(tighten(lat, np.sqrt(2) * g), g, atol=1e-10)

    @pytest.mark.parametrize("seed", range(6))
    def test_output_frame_operator_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        lat, g = random_frame(rng)
        t = tighten(lat, g)
        assert np.max(np.abs(oracle_operator(lat, t) - np.eye(lat.L))) <= 1e-9
        assert check_cond_walnut(lat, t) <= 1e-9

    def test_not_a_frame(self, impulse):
        lat, g = impulse
        with pytest.raises(NotAFrameError):
            tighten(lat, g)


class TestReconstruct:
    def test_canonical_dual_reconstructs(self):
        rng = np.random.default_rng(25)
        lat, g = random_frame(rng)
        h = canonical_dual(lat, g)
        f = random_signal(rng, lat.L)
        assert np.allclose(reconstruct(lat, g, h, f), f, atol=1e-9)

    def test_canonical_dual_reconstructs_basis_vectors(self):
        rng = np.random.default_rng(26)
        lat, g = random_frame(rng)
        h = canonical_dual(lat, g)
        for x in range(lat.L):
            e = np.zeros(lat.L, dtype=complex)
            e[x] = 1.0
            assert np.allclose(reconstruct(lat, g, h, e), e, atol=1e-9)

    def test_tight_window_is_self_dual(self, box):
        lat, g = box
        f = random_signal(np.random.default_rng(27), 4)
        assert np.allclose(reconstruct(lat, g, g, f), f, atol=1e-10)

    def test_zero_analysis_window(self, box):
        lat, g = box
        f = random_signal(np.random.default_rng(28), 4)
        out = reconstruct(lat, g, np.zeros(4, dtype=complex), f)
        assert np.all(out == 0)


class TestNormAudit:
    def test_box_attains_bound_orthogonally(self, box):
        lat, g = box
        audit = norm_audit(lat, g)
        assert audit.within_bound and audit.at_bound
        assert audit.norm_sq == pytest.approx(1.0)
        assert audit.upper_bound == pytest.approx(1.0)
        assert audit.orthogonal_to_rest is True
        assert audit.max_overlap <= 1e-9
        # cross-check: the window really is orthogonal to the other atoms
        others = [
            gabor_atom(lat, g, m, n)
            for m in range(2) for n in range(2) if (m, n) != (0, 0)
        ]
        assert all(abs(inner(g, atom)) <= 1e-12 for atom in others)

    def test_delta_below_bound(self, delta):
        lat, g = delta
        audit = norm_audit(lat, g)
        assert audit.within_bound and not audit.at_bound
        assert audit.norm_sq == pytest.approx(0.5)
        assert audit.upper_bound == pytest.approx(1.0)
        assert audit.max_overlap is None and audit.orthogonal_to_rest is None

    def test_zero_window_vacuous(self):
        lat = GaborLattice(4, 2, 2)
        audit = norm_audit(lat, np.zeros(4, dtype=complex))
        assert audit.within_bound and audit.at_bound
        assert audit.orthogonal_to_rest is True

    @pytest.mark.parametrize("tol", [1e-3, 1e-6])
    def test_overlap_with_the_first_translate_is_audited(self, tol):
        # at (12, 6, 6) the four atoms are g, T_6 g, E_6 g and E_6 T_6 g, and N = 2, so
        # T_a g is its own mirror T_{-a} g: overlap index 1 is the only one that sees it.
        # g = (e_0 + e_1)/sqrt2 + eps (e_6 + e_7)/sqrt2 has |g|^2 = 1 + eps^2,
        # <g, T_6 g> = 2 eps, every other overlap 0 and B = (1 + eps)^2. With
        # 2 eps / (1 + eps^2) = tol (1 + tol/2), g is within tol of the bound and its overlap
        # is past tol, each by about tol^2/2; at tol = 1e-9 that is below float64 resolution
        lat = GaborLattice(12, 6, 6)
        t = tol * (1 + tol / 2)
        eps = t / (1 + np.sqrt(1 - t * t))
        g = np.zeros(12, dtype=complex)
        g[[0, 1]], g[[6, 7]] = 2**-0.5, eps * 2**-0.5
        audit = norm_audit(lat, g, tol)
        assert audit.at_bound and audit.orthogonal_to_rest is False
        assert audit.max_overlap == pytest.approx(2 * eps, rel=1e-9)
        assert abs(inner(g, gabor_atom(lat, g, 0, 1))) == pytest.approx(2 * eps, rel=1e-9)

    @pytest.mark.parametrize("seed", range(6))
    def test_norm_never_exceeds_bound(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        g = random_signal(rng, lat.L)
        audit = norm_audit(lat, g)
        assert audit.within_bound
        assert norm_sq(g) <= audit.upper_bound + 1e-9 * (1 + norm_sq(g))

    @pytest.mark.parametrize("L,a,b", [(48, 6, 8), (48, 4, 6)])
    @pytest.mark.parametrize("scale", [1e-5, 1e3, 1e5])
    def test_verdicts_do_not_depend_on_scale(self, L, a, b, scale):
        # critical tight: at the bound and orthogonal; 2x tight: below it
        lat = GaborLattice(L, a, b)
        g = random_tight_generator(lat, 5)
        verdicts = [
            (audit.within_bound, audit.at_bound, audit.orthogonal_to_rest)
            for audit in (norm_audit(lat, g), norm_audit(lat, scale * g))
        ]
        at_bound = lat.is_critical
        assert verdicts[0] == (True, at_bound, True if at_bound else None)
        assert verdicts[1] == verdicts[0]

    def test_tight_report_consistency(self, box):
        lat, g = box
        report = classify(lat, g)
        assert report.normalized_tight and report.onb and report.riesz_basis
