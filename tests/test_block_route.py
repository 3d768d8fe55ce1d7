"""The block (Zak) route against the brute-force oracle.

Bounds, spectra, duals, tight windows, reconstructions and the adjoint
residuals are compared with dense linear algebra on the analysis array
over a pool that covers critical, 2x and 4x oversampled, a = b = 1,
over-dense and density-2/3, 3/5 and 4/5 lattices, with Gaussian, tight, coset-zero and
near-singular windows and windows whose Zak blocks lead with zero or negative entries.
Also: the closed form of scalar Gram blocks against LAPACK, the dual-space map against the
Householder loop with computed norms at every block shape, the one frame gate at its
boundary, scale-aware tightness, dual decomposition at A/B = 1e-9, the Newton-Schulz step
on blocks ill-conditioned by themselves, and the memory bounds of classify, dual_space,
make_alternate_dual and decompose_dual.
"""

import json
import tracemalloc
from math import gcd

import numpy as np
import pytest

from whframe import (
    GaborLattice,
    NotAFrameError,
    adjoint_atom,
    canonical_dual,
    check_cond_fixed_point,
    check_cond_orthogonal_system,
    classify,
    cross_correlation_table,
    decompose_dual,
    dual_space,
    frame_bounds,
    frame_operator,
    inner,
    make_alternate_dual,
    norm_sq,
    random_tight_generator,
    reconstruct,
    tighten,
    wexler_raz_check,
)
from whframe import frame
from whframe.cli import main
from whframe.frame import FRAME_FLOOR, FrameBounds, _FrameAnalysis, _ct, _forward, _inverse
from whframe.oracle import (
    analysis_array,
    oracle_adjoint_gram,
    oracle_frame_bounds,
    oracle_is_dual,
    oracle_tight_constant,
)
from helpers import oracle_operator, random_signal

REL = 1e-9

LATTICES = [
    (12, 3, 4), (24, 4, 6), (48, 6, 8),     # critical
    (16, 2, 4), (24, 3, 4), (48, 4, 6),     # 2x oversampled
    (16, 2, 2), (24, 2, 3), (48, 4, 3),     # 4x oversampled
    (12, 1, 1), (48, 1, 1),                 # a = b = 1
    (12, 4, 6), (16, 8, 4),                 # over-dense
    (36, 4, 6), (60, 4, 10),                # density 2/3: 2 x 3 Zak blocks
    (30, 3, 6), (120, 24, 4),               # density 3/5 and 4/5: 3 x 5 and 4 x 5
]


def near_singular(lat, rng, ratio):
    """Critical-density window whose frame bounds have A/B == ratio.

    At a*b == L the eigenvalues of S are L * |w_y(j)|^2 over the residue
    spectra w_y, so scaling one bin by sqrt(ratio) sets A/B.
    """
    spectra = np.exp(2j * np.pi * rng.random((lat.a, lat.b))) / np.sqrt(lat.L)
    spectra[rng.integers(lat.a), rng.integers(lat.b)] *= np.sqrt(ratio)
    return np.fft.ifft(spectra, axis=1, norm="ortho").T.reshape(lat.L)


def zak_near_singular(lat, rng, ratio, direction=False):
    """Gaussian window with one Zak block scaled so that A/B == ratio.

    The whole block is scaled, or with direction=True only its weakest
    direction (its smallest Gram eigenvector), which for p > 1 makes the
    block itself that ill-conditioned. Either way the block's smallest
    Gram eigenvalue becomes ratio times the largest of all the others.
    """
    analysis = _FrameAnalysis(lat, random_signal(rng, lat.L))
    grams = analysis.gram.reshape(-1, *analysis.gram.shape[-2:])
    w, U = np.linalg.eigh(grams[0])
    top = float(np.max(np.concatenate([w[1:], np.linalg.eigvalsh(grams[1:]).ravel()])))
    Z = analysis.Z.copy()
    block = Z.reshape(-1, *Z.shape[-2:])
    if direction:
        weak = np.outer(U[:, 0], np.conj(U[:, 0]) @ block[0])
        block[0] += (np.sqrt(ratio * top / w[0]) - 1) * weak
    else:
        block[0] *= np.sqrt(ratio * top / w[0])
    return _inverse(lat, Z)


def householder_free(analysis, coeffs):
    """free by the general Householder loop, the reference for its closed form: p reflectors
    I - w_j u_j u_j^H per block, with computed norms: H_j maps x, column j of H_{j-1} ... H_1 V
    from entry j on, onto e_j with u_j = x + (x_0/|x_0|, 1 at x_0 = 0) ||x|| e_0; then
    [0_p | C] H_p ... H_1 on the blocks."""
    X, (p, q_w) = analysis.V, analysis.Z.shape[-2:]
    u, w = np.zeros(analysis.Z.shape, dtype=complex), np.empty(analysis.Z.shape[:-1])
    for j in range(p):
        x = X[..., j:, j]
        norm, lead = np.linalg.norm(x, axis=-1), np.abs(x[..., 0])
        u[..., j, j:] = x
        u[..., j, j] += norm * np.divide(x[..., 0], lead, out=np.ones_like(lead, complex),
                                         where=lead > 0)
        w[..., j] = 1 / (norm * (norm + lead))  # 2 / ||u_j||^2
        X = X - w[..., j, None, None] * u[..., j, :, None] * (_ct(u[..., j, :, None]) @ X)
    Y = np.zeros((*coeffs.shape[:-1], *u.shape), dtype=complex)
    Y[..., p:] = coeffs.reshape(*Y.shape[:-1], q_w - p)
    for j in reversed(range(p)):
        Y -= (Y @ u[..., j, :, None]) * (w[..., j, None, None] * np.conj(u[..., j, None, :]))
    return _inverse(analysis.lat, Y)


def pool():
    rng = np.random.default_rng(7)
    cases = []
    for L, a, b in LATTICES:
        lat = GaborLattice(L, a, b)
        cases.append((lat, "gauss", random_signal(rng, L)))
        g = random_signal(rng, L)
        g[int(rng.integers(a))::a] = 0.0
        cases.append((lat, "coset0", g))
        if a * b <= L:
            cases.append((lat, "tight", random_tight_generator(lat, int(rng.integers(2**31)))))
        if a * b == L:
            cases.append((lat, "near-singular", near_singular(lat, rng, 1e-6)))
    return cases + lead_windows()


def lead_windows():
    """Frames whose Zak blocks lead with zeros (rounded) or negative entries, on the
    oversampled lattices, and a zero-sum integer window at a = b = 1: its one block
    leads with its DFT at 0, exactly zero, and so does V."""
    rng = np.random.default_rng(9)
    cases = []
    for L, a, b in LATTICES:
        if a * b < L:
            lat = GaborLattice(L, a, b)
            analysis = _FrameAnalysis(lat, random_signal(rng, L))
            zero, negative = analysis.Z.copy(), analysis.Z.copy()
            zero[..., :, 0] = 0.0
            negative[..., 0, 0] = -np.abs(negative[..., 0, 0])
            cases += [(lat, "zero-lead", _inverse(lat, zero)),
                      (lat, "negative-lead", _inverse(lat, negative))]
    g = np.array([3, -1, 2, 0, -4, 1, 1, -2, 0, 5, -3, -2], dtype=complex)
    return cases + [(GaborLattice(12, 1, 1), "exact-zero-lead", g)]


POOL = pool()
IDS = [f"{lat.L}-{lat.a}-{lat.b}-{kind}" for lat, kind, _ in POOL]


def rel_err(x, y):
    scale = max(float(np.max(np.abs(y))), 1e-300)
    return float(np.max(np.abs(np.asarray(x) - np.asarray(y)))) / scale


@pytest.mark.parametrize("lat,kind,g", POOL, ids=IDS)
class TestAgainstOracle:
    def test_block_spectrum_is_dense_spectrum(self, lat, kind, g):
        # each block's top min(p, q_w) Gram eigenvalues, q_w times each
        Z = _FrameAnalysis(lat, g).Z
        p, q_w = Z.shape[-2:]
        gram = np.linalg.eigvalsh(Z @ np.conj(np.swapaxes(Z, -1, -2)))
        top = np.repeat(lat.L / p * gram[..., p - min(p, q_w):].ravel(), q_w)
        fast = np.sort(np.concatenate([top, np.zeros(lat.L - top.size)]))
        dense = np.linalg.eigvalsh(oracle_operator(lat, g))
        assert rel_err(fast, dense) <= REL

    def test_bounds_and_gate(self, lat, kind, g):
        fast, slow = frame_bounds(lat, g), oracle_frame_bounds(lat, g)
        assert abs(fast.A - slow.A) <= REL * slow.B
        assert abs(fast.B - slow.B) <= REL * slow.B
        expected = kind != "coset0" and lat.a * lat.b <= lat.L
        assert classify(lat, g).is_frame == expected

    def test_frame_operator(self, lat, kind, g):
        assert rel_err(frame_operator(lat, g), oracle_operator(lat, g)) <= REL

    def test_canonical_dual_and_tighten(self, lat, kind, g):
        if not classify(lat, g).is_frame:
            with pytest.raises(NotAFrameError):
                canonical_dual(lat, g)
            with pytest.raises(NotAFrameError):
                tighten(lat, g)
            return
        w, V = np.linalg.eigh(oracle_operator(lat, g))
        coeffs = np.conj(V.T) @ g
        h = canonical_dual(lat, g)
        assert rel_err(h, V @ (coeffs / w)) <= REL
        assert oracle_is_dual(lat, g, h)
        t = tighten(lat, g)
        assert rel_err(t, V @ (coeffs / np.sqrt(w))) <= REL
        assert oracle_tight_constant(lat, t) == pytest.approx(1.0, rel=REL)

    def test_reconstruct(self, lat, kind, g):
        rng = np.random.default_rng(lat.L)
        h, f = random_signal(rng, lat.L), random_signal(rng, lat.L)
        dense = np.conj(analysis_array(lat, g).T) @ (analysis_array(lat, h) @ f)
        assert rel_err(reconstruct(lat, g, h, f), dense) <= REL

    def test_coefficients(self, lat, kind, g):
        f = random_signal(np.random.default_rng(lat.L + 1), lat.L)
        # analysis_array rows are m-major, and so are the adjoint products
        # on the adjoint lattice
        dense = (analysis_array(lat, g) @ f).reshape(lat.M, lat.N)
        analysis = _FrameAnalysis(lat.adjoint(), g)
        products = analysis.products(_forward(analysis.lat, f))
        assert rel_err(products, dense) <= REL

    def test_adjoint_residuals(self, lat, kind, g):
        gram = oracle_adjoint_gram(lat, g)
        # row 0 of the Gram matrix is <g, adjoint_atom(k, l)>, k-major
        assert rel_err(_FrameAnalysis(lat, g).products().ravel(), gram[0]) <= REL
        gap = abs(norm_sq(g) - lat.a * lat.b / lat.L)
        expected = max(gap, float(np.max(np.abs(np.triu(gram, 1)), initial=0.0)))
        assert check_cond_orthogonal_system(lat, g) == pytest.approx(expected, rel=REL)

    def test_residue_class_dual_space(self, lat, kind, g):
        atoms = np.stack([adjoint_atom(lat, g, k, l) for k in range(lat.a) for l in range(lat.b)])
        s = np.linalg.svd(atoms, compute_uv=False)
        rank = int(np.sum(s > 1e-10 * s[0]))
        # the residue-class matrices V_s[l, t] = g(s + t*a - l*q), one rank each
        t, l = np.arange(lat.N)[:, None], np.arange(lat.b)[:, None, None]
        lagged = g[(np.arange(lat.a) + t * lat.a - l * lat.q) % lat.L]
        sv = np.linalg.svd(np.moveaxis(lagged, -1, 0), compute_uv=False)
        ranks = np.sum(sv > 1e-10 * np.max(sv), axis=1)
        assert int(np.sum(ranks)) == rank
        if kind == "coset0" and lat.a > 1 and lat.q % lat.a == 0:
            # every row of V_s samples class s, so the zeroed class has rank 0
            assert len(set(ranks.tolist())) > 1
        if not classify(lat, g).is_frame:
            with pytest.raises(NotAFrameError):
                dual_space(lat, g)
            return
        space = dual_space(lat, g)
        basis = space.complement_basis
        assert space.orbit_rank == rank == lat.a * lat.b
        assert space.dimension == lat.L - lat.a * lat.b
        assert basis.shape == (lat.L - rank, lat.L)
        assert np.max(np.abs(basis @ np.conj(basis.T) - np.eye(len(basis))), initial=0.0) <= 1e-12
        # each row lies on one residue class mod c = gcd(a, M), which is < a
        # on the density-2/3 lattices
        c = gcd(lat.a, lat.M)
        classes = np.any(basis.reshape(len(basis), lat.L // c, c) != 0, axis=1)
        assert np.all(np.sum(classes, axis=1) == 1)
        overlaps = np.abs(np.conj(atoms) @ basis.T)
        assert np.max(overlaps, initial=0.0) <= 1e-12 * np.linalg.norm(g)
        # the rows, from p Householder reflectors per block, span the range of
        # I - V V^H on every block
        analysis = _FrameAnalysis(lat, g)
        if kind == "exact-zero-lead":
            assert np.all(analysis.V[..., 0, 0] == 0)
        V, blocks = analysis.V, np.stack([_forward(lat, e) for e in np.eye(lat.L)])
        projector = _inverse(lat, blocks - blocks @ V @ np.conj(np.swapaxes(V, -1, -2))).T
        assert np.max(np.abs(basis.T @ np.conj(basis) - projector)) <= 1e-12
        coeffs = random_signal(np.random.default_rng(lat.L + 2), space.dimension)
        h = make_alternate_dual(lat, g, coeffs)
        assert rel_err(h, space.canonical_dual + coeffs @ basis) <= 1e-12
        assert oracle_is_dual(lat, g, h)
        assert decompose_dual(lat, g, h).is_dual

    def test_free_is_the_householder_loop(self, lat, kind, g):
        # one closed-form step per reflector against the loop with computed norms
        analysis = _FrameAnalysis(lat, g)
        if not analysis.bounds.is_frame:
            return
        eye = np.eye(lat.L - lat.a * lat.b, dtype=complex)
        error = np.abs(analysis.free(eye) - householder_free(analysis, eye))
        assert np.max(error, initial=0.0) <= 1e-13

    def test_tight_constant(self, lat, kind, g):
        report, c = classify(lat, g), oracle_tight_constant(lat, g)
        assert (report.tight_constant is None) == (c is None)
        if c is not None:
            assert report.tight_constant == pytest.approx(c, rel=REL)


# min(p, q_w) = 1: critical (1 x 1), integer-oversampled (1 x q_w) and over-dense (p x 1)
SCALAR = [(lat, kind, g) for lat, kind, g in POOL if min(_FrameAnalysis(lat, g).Z.shape[-2:]) == 1]


def test_pool_has_frames_up_to_four_reflectors():
    # p = 3 and 4 take two and three forward updates in free
    shapes = {_FrameAnalysis(lat, g).Z.shape[-2] for lat, _, g in POOL if frame_bounds(lat, g).is_frame}
    assert shapes == {1, 2, 3, 4}


def test_scalar_pool_covers_every_shape():
    shapes = {tuple(_FrameAnalysis(lat, g).Z.shape[-2:]) for lat, _, g in SCALAR}
    assert (1, 1) in shapes
    assert any(p == 1 < q_w for p, q_w in shapes) and any(q_w == 1 < p for p, q_w in shapes)


@pytest.mark.parametrize("lat,kind,g", SCALAR,
                         ids=[f"{lat.L}-{lat.a}-{lat.b}-{kind}" for lat, kind, _ in SCALAR])
def test_scalar_blocks_match_lapack(lat, kind, g):
    # the closed form against the general route on the same blocks: eigh of the Gram
    # blocks, R = U^H Z_g, sigma as its row norms and one Newton-Schulz step
    analysis = _FrameAnalysis(lat, g)
    Z, scale = analysis.Z, analysis.scale
    w, U = np.linalg.eigh(analysis.gram)
    B = max(float(scale * w[..., -1].max()), 0.0)
    A = max(float(scale * w[..., 0].min()), 0.0) if analysis.wide else 0.0
    assert abs(analysis.bounds.A - A) <= 1e-12 * B
    assert abs(analysis.bounds.B - B) <= 1e-12 * B
    if not analysis.bounds.is_frame:
        assert kind == "coset0" or lat.a * lat.b > lat.L
        return
    R = _ct(U) @ Z
    sigma = np.linalg.norm(R, axis=-1)
    assert rel_err(analysis.rows[1], sigma) <= 1e-12
    for s in (-1.0, -0.5):
        assert rel_err(analysis.power(s), U @ ((scale * sigma**2)[..., None] ** s * R)) <= 1e-12
    Zh = U @ (R / (scale * sigma**2)[..., None])
    Zh = 2 * Zh - scale * (Zh @ _ct(Z)) @ Zh
    assert rel_err(analysis.dual[0], Zh) <= 1e-12
    assert np.array_equal(analysis.dual[0], analysis.power(-1.0))  # no Newton-Schulz step
    assert rel_err(analysis.dual[1], _inverse(lat, Zh)) <= 1e-12
    V = _ct(R) / sigma[..., None, :]
    assert rel_err(analysis.V, V) <= 1e-12
    # free's q_w - p rows on each block, [0_p | I] H_p ... H_1 read back through _forward,
    # are orthonormal and their projector is I - V V^H: with V^H they make a unitary, and
    # they span null(Z_g)
    p, q_w = Z.shape[-2:]
    n = q_w - p
    coeffs = np.broadcast_to(np.eye(n)[:, None, None, None], (n, *Z.shape[:-1], n))
    signals = analysis.free(coeffs.reshape(n, lat.L - lat.a * lat.b))
    rows = np.reshape([_forward(lat, s)[..., 0, :] for s in signals], (n, *Z.shape[:-2], q_w))
    rows = np.moveaxis(rows, 0, -2)
    assert np.max(np.abs(rows @ _ct(rows) - np.eye(n)), initial=0.0) <= 1e-12
    assert np.max(np.abs(_ct(rows) @ rows - (np.eye(q_w) - V @ _ct(V)))) <= 1e-12


@pytest.mark.parametrize("L,a,b", [(48, 4, 6), (48, 4, 3), (120, 6, 10)])
def test_one_row_dual_space_near_the_floor(L, a, b):
    # p = 1 with one whole Zak block scaled to A/B = 1e-9: V's column of that block is
    # the unit vector of a block 3e-5 times the others, and the closed form reads it
    lat = GaborLattice(L, a, b)
    rng = np.random.default_rng(31)
    g = zak_near_singular(lat, rng, 1e-9)
    bounds = frame_bounds(lat, g)
    assert bounds.A / bounds.B == pytest.approx(1e-9, rel=1e-3)
    space = dual_space(lat, g)
    assert space.analysis.Z.shape[-2] == 1
    basis = space.complement_basis
    eye = np.eye(space.dimension, dtype=complex)
    assert np.max(np.abs(basis @ _ct(basis) - eye)) <= 1e-12
    assert np.max(np.abs(basis - householder_free(space.analysis, eye))) <= 1e-13
    h = make_alternate_dual(lat, g, random_signal(rng, space.dimension))
    assert decompose_dual(lat, g, h).is_dual
    assert oracle_is_dual(lat, g, h)


def test_near_singular_critical_dual_without_newton_schulz():
    # a 1 x 1 block cannot be ill-conditioned by itself: S^-1 g divides Z_g pointwise
    lat = GaborLattice(48, 6, 8)
    g = near_singular(lat, np.random.default_rng(11), 3e-10)
    bounds = frame_bounds(lat, g)
    assert bounds.A / bounds.B == pytest.approx(3e-10, rel=1e-3)
    assert wexler_raz_check(lat, g, canonical_dual(lat, g)) <= 1e-12


def test_cross_table_matches_shift_sum():
    rng = np.random.default_rng(12)
    for L, a, b in LATTICES:
        lat = GaborLattice(L, a, b)
        g, h = random_signal(rng, L), random_signal(rng, L)
        loop = np.array([
            sum(np.roll(h, n * a) * np.conj(np.roll(g, n * a + k * lat.q)) for n in range(lat.N))
            for k in range(b)
        ])
        assert rel_err(cross_correlation_table(lat, h, g), loop) <= 1e-12


# P = a/gcd(a, M) = 2 and 3; the pool's (36,4,6) and (60,4,10) have P = 2
P_ABOVE_ONE = [(48, 8, 12), (36, 6, 9)]


def walnut_cases():
    rng = np.random.default_rng(14)
    extra = [(GaborLattice(L, a, b), "gauss", random_signal(rng, L)) for L, a, b in P_ABOVE_ONE]
    return POOL + extra


@pytest.mark.parametrize("lat,kind,g", walnut_cases(),
                         ids=IDS + [f"{L}-{a}-{b}-gauss" for L, a, b in P_ABOVE_ONE])
def test_walnut_table_is_the_signal_fold(lat, kind, g):
    # the Zak route, with or without its length-P inverse DFT, against the fold in x
    analysis = _FrameAnalysis(lat, g)
    h = random_signal(np.random.default_rng(lat.L + 2), lat.L)
    for table, fold in ((analysis.walnut(_forward(lat, h)), cross_correlation_table(lat, h, g)),
                        (analysis.walnut(), cross_correlation_table(lat, g, g))):
        assert table.shape == (lat.a, lat.b)
        assert rel_err(table, fold[:, :lat.a].T) <= 1e-12


def test_walnut_pool_takes_both_branches():
    P = {frame._walnut_layout(lat).shape[0] for lat, _, _ in walnut_cases()}
    assert 1 in P and {2, 3} <= P


def test_adjoint_products_match_atom_loop():
    rng = np.random.default_rng(8)
    for L, a, b in LATTICES:
        lat = GaborLattice(L, a, b)
        g, h = random_signal(rng, L), random_signal(rng, L)
        loop = np.array([[inner(h, adjoint_atom(lat, g, k, l)) for l in range(b)]
                         for k in range(a)])
        analysis = _FrameAnalysis(lat, g)
        assert rel_err(analysis.products(_forward(lat, h)), loop) <= 1e-12


class TestFrameGate:
    def test_gate_is_strict_at_the_floor(self):
        assert FrameBounds(A=2 * FRAME_FLOOR, B=1.0).is_frame
        assert not FrameBounds(A=FRAME_FLOOR, B=1.0).is_frame
        assert not FrameBounds(A=0.0, B=0.0).is_frame

    @pytest.mark.parametrize("ratio,frame", [(3 * FRAME_FLOOR, True), (FRAME_FLOOR / 3, False)])
    def test_every_route_reads_the_one_gate(self, ratio, frame):
        lat = GaborLattice(48, 6, 8)
        g = near_singular(lat, np.random.default_rng(9), ratio)
        bounds = frame_bounds(lat, g)
        assert bounds.A / bounds.B == pytest.approx(ratio, rel=1e-3)
        assert classify(lat, g).is_frame == frame
        assert (check_cond_fixed_point(lat, g) >= 1.0) == (not frame)
        if frame:
            canonical_dual(lat, g)
        else:
            with pytest.raises(NotAFrameError):
                canonical_dual(lat, g)

    def test_analyze_and_dual_agree_near_the_floor(self, tmp_path, capsys):
        # A/B = 9e-10: above the floor, so both commands see a frame
        path = tmp_path / "near.json"
        path.write_text(json.dumps(
            {"L": 4, "a": 2, "b": 2, "g": [[1, 0], [3e-5, 0], [0, 0], [0, 0]]}))
        analyze = main(["analyze", "--input", str(path)])
        dual = main(["dual", "--input", str(path)])
        capsys.readouterr()
        assert analyze == dual == 0


@pytest.mark.parametrize("L,a,b,direction", [
    (16, 2, 4, False), (24, 3, 4, False), (48, 4, 6, False),   # 2x oversampled
    (16, 2, 2, False), (24, 2, 3, False), (48, 4, 3, False),   # 4x oversampled
    (36, 4, 6, False), (60, 4, 10, False),                     # density 2/3
    (36, 4, 6, True), (60, 4, 10, True),
])
def test_near_singular_dual_decomposition(L, a, b, direction):
    # A/B = 1e-9. With direction=True one 2 x 3 block has condition 1e-9
    # itself. Membership in W is read on the Zak blocks with V = R^H Sigma^-1
    # from the rows R = U^H Z_g, not from a QR. S^-1 g passes the 1e-9
    # certificates there too, after its Newton-Schulz step; the tight
    # window, U V^H on each block up to scale, takes sigma from the row
    # norms of R and stays tight.
    lat = GaborLattice(L, a, b)
    rng = np.random.default_rng(L + a)
    g = zak_near_singular(lat, rng, 1e-9, direction)
    bounds = frame_bounds(lat, g)
    assert bounds.A / bounds.B == pytest.approx(1e-9, rel=1e-3)
    t = tighten(lat, g)
    assert classify(lat, t).normalized_tight
    assert oracle_tight_constant(lat, t) == pytest.approx(1.0, abs=1e-9)
    h = make_alternate_dual(lat, g, random_signal(rng, lat.L - lat.a * lat.b))
    report = decompose_dual(lat, g, h)
    assert report.free_part_in_complement
    assert report.is_dual == oracle_is_dual(lat, g, h)
    assert report.is_dual
    atom = adjoint_atom(lat, g, int(rng.integers(a)), int(rng.integers(b)))
    unit = atom / np.linalg.norm(atom)
    # the orbit part of h + eps * unit has norm eps, compared with tol = 1e-9
    for eps in (0.5e-9, 2e-9):
        assert decompose_dual(lat, g, h + eps * unit).free_part_in_complement == (eps < 1e-9)
    report = decompose_dual(lat, g, h + 1e-6 * unit)
    assert not report.free_part_in_complement and not report.is_dual
    assert not oracle_is_dual(lat, g, h + 1e-6 * unit)


@pytest.mark.parametrize("L,a,b", [(36, 4, 6), (60, 4, 10), (120, 8, 10)])
def test_ill_conditioned_block_takes_the_newton_schulz_step(L, a, b):
    # one 2 x 3 block at condition 5e-9 itself: read off the Gram eigenvectors alone, S^-1 g
    # has a Wexler-Raz residual of 6e-11 to 1.4e-9 here, which tol = 1e-9 does not always
    # see; the Newton-Schulz step squares the certificate's error, to 4e-14 to 1e-13
    lat = GaborLattice(L, a, b)
    g = zak_near_singular(lat, np.random.default_rng(L + a), 5e-9, direction=True)
    bounds = frame_bounds(lat, g)
    assert bounds.A / bounds.B == pytest.approx(5e-9, rel=1e-3)
    assert wexler_raz_check(lat, g, canonical_dual(lat, g)) <= 1e-12


@pytest.mark.parametrize("L,a,b", [(48, 4, 6), (48, 6, 8), (12, 1, 1), (48, 1, 1)])
@pytest.mark.parametrize("scale", [1e-3, 1e3])
def test_scaled_tight_window_keeps_its_constant(L, a, b, scale):
    lat = GaborLattice(L, a, b)
    g = scale * random_tight_generator(lat, 11)
    report = classify(lat, g)
    assert report.is_frame and not report.normalized_tight
    assert report.tight_constant == pytest.approx(scale**2, rel=1e-9)
    assert oracle_tight_constant(lat, g) == pytest.approx(scale**2, rel=1e-9)


def test_dual_space_memory():
    # the a*b x L atom stack's SVD would hold an L x L Vh alone
    lat = GaborLattice(480, 16, 15)
    g = random_signal(np.random.default_rng(13), lat.L)
    frame._kept.clear()  # a cold call: the analysis is built under the trace
    tracemalloc.start()
    try:
        space = dual_space(lat, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert space.dimension == lat.L - lat.a * lat.b
    assert peak < 16 * lat.L**2
    # neither call builds the dense (L - a*b) x L basis of W
    lat = GaborLattice(1920, 8, 120)
    g = random_signal(np.random.default_rng(13), lat.L)
    coeffs = random_signal(np.random.default_rng(14), lat.L - lat.a * lat.b)
    for call, args in ((dual_space, ()), (make_alternate_dual, (coeffs,))):
        frame._kept.clear()  # each call builds its analysis under the trace
        tracemalloc.start()
        try:
            call(lat, g, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * (lat.L - lat.a * lat.b) * lat.L, call.__name__


def test_decompose_dual_memory():
    # no basis of W; building one by residue-class SVDs peaked at 3.5 MiB here
    lat = GaborLattice(480, 16, 15)
    rng = np.random.default_rng(19)
    g = random_signal(rng, lat.L)
    h = make_alternate_dual(lat, g, random_signal(rng, lat.L - lat.a * lat.b))
    frame._kept.clear()  # decompose_dual builds its own analysis
    tracemalloc.start()
    try:
        report = decompose_dual(lat, g, h)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_dual
    assert peak < 2**20


def test_classify_memory_at_unit_steps():
    lat = GaborLattice(960, 1, 1)
    g = random_signal(np.random.default_rng(10), lat.L)
    frame._kept.clear()
    tracemalloc.start()
    try:
        report = classify(lat, g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.is_frame
    assert peak < 64 * 2**20
