import ast
from pathlib import Path

import numpy as np
import pytest

import whframe

from whframe import (
    GaborLattice,
    canonical_dual,
    classify,
    frame_bounds,
    gabor_atom,
    inner,
    make_alternate_dual,
    random_tight_generator,
)
from whframe.oracle import (
    analysis_array,
    oracle_adjoint_gram,
    oracle_frame_bounds,
    oracle_is_dual,
    oracle_tight_constant,
)
from helpers import band_windows, random_frame, random_lattice, random_signal, random_tight_instance


class TestAnalysisArray:
    def test_shape_and_row_order(self):
        rng = np.random.default_rng(40)
        lat = GaborLattice(6, 2, 3)
        g = random_signal(rng, 6)
        f = random_signal(rng, 6)
        arr = analysis_array(lat, g)
        assert arr.shape == (lat.M * lat.N, 6)
        coeffs = arr @ f
        for m in range(lat.M):
            for n in range(lat.N):
                expected = inner(f, gabor_atom(lat, g, m, n))
                assert coeffs[m * lat.N + n] == pytest.approx(expected, abs=1e-12)

    def test_window_is_gated_once(self, monkeypatch):
        # the rows are the conjugated gabor_atom stack, built from one checked window
        lat = GaborLattice(12, 3, 4)
        g = random_signal(np.random.default_rng(41), lat.L)
        atoms = np.stack([gabor_atom(lat, g, m, n) for m in range(lat.M) for n in range(lat.N)])
        calls = []
        gate = whframe.oracle.as_signal
        monkeypatch.setattr(whframe.oracle, "as_signal", lambda *a: calls.append(a) or gate(*a))
        monkeypatch.setattr(whframe.lattice, "as_signal", lambda *a: calls.append(a) or gate(*a))
        assert np.array_equal(analysis_array(lat, g), np.conj(atoms))
        assert len(calls) == 1

    def test_box_array_is_unitary(self, box):
        lat, g = box
        arr = analysis_array(lat, g)
        assert arr.shape == (4, 4)
        assert np.max(np.abs(np.conj(arr.T) @ arr - np.eye(4))) <= 1e-12


class TestOracleFrameBounds:
    def test_box(self, box):
        lat, g = box
        bounds = oracle_frame_bounds(lat, g)
        assert bounds.A == pytest.approx(1.0, abs=1e-12)
        assert bounds.B == pytest.approx(1.0, abs=1e-12)

    def test_impulse(self, impulse):
        lat, g = impulse
        bounds = oracle_frame_bounds(lat, g)
        assert bounds.A == pytest.approx(0.0, abs=1e-12)
        assert bounds.B == pytest.approx(2.0, abs=1e-12)

    def test_zero(self):
        lat = GaborLattice(4, 2, 2)
        bounds = oracle_frame_bounds(lat, np.zeros(4, dtype=complex))
        assert bounds.A == bounds.B == 0.0

    def test_underspanned_lattice_has_zero_lower_bound(self):
        lat = GaborLattice(4, 2, 4)  # 2 atoms in dimension 4
        g = random_signal(np.random.default_rng(41), 4)
        assert oracle_frame_bounds(lat, g).A == 0.0


class TestOracleIsDual:
    def test_canonical_dual(self):
        rng = np.random.default_rng(42)
        lat, g = random_frame(rng)
        assert oracle_is_dual(lat, g, canonical_dual(lat, g))

    def test_tight_self_dual(self, box):
        lat, g = box
        assert oracle_is_dual(lat, g, g)

    def test_zero_candidate(self, box):
        lat, g = box
        assert not oracle_is_dual(lat, g, np.zeros(4, dtype=complex))

    @pytest.mark.parametrize("L,a,b", [(48, 4, 3), (48, 1, 1), (48, 4, 6), (120, 6, 10)])
    @pytest.mark.parametrize("kind", ["gauss", "tight"])
    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6])
    def test_duals_with_large_free_parts(self, L, a, b, kind, scale):
        # the composite's rounding grows with ||g|| * ||h|| (to 6e-14 of it here),
        # and so does the bound; a change of h[0] by 1e-6 ||h|| still fails it
        lat = GaborLattice(L, a, b)
        rng = np.random.default_rng(L + a + b)
        g = random_signal(rng, L) if kind == "gauss" else random_tight_generator(lat, 5)
        h = make_alternate_dual(lat, g, scale * random_signal(rng, L - a * b))
        assert oracle_is_dual(lat, g, h)
        h[0] += 1e-6 * np.linalg.norm(h)
        assert not oracle_is_dual(lat, g, h)


class TestOracleTightConstant:
    def test_box(self, box):
        lat, g = box
        assert oracle_tight_constant(lat, g) == pytest.approx(1.0, abs=1e-12)

    def test_quadratic_scaling(self, box):
        lat, g = box
        assert oracle_tight_constant(lat, 2 * g) == pytest.approx(4.0, abs=1e-12)

    def test_absent_for_non_tight(self, impulse):
        lat, g = impulse
        assert oracle_tight_constant(lat, g) is None

    @pytest.mark.parametrize("seed", range(6))
    def test_agrees_with_classify(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        g = random_signal(rng, lat.L, normalize=True)
        c = oracle_tight_constant(lat, g)
        report = classify(lat, g)
        assert (c is None) == (report.tight_constant is None)
        if c is not None:
            assert report.tight_constant == pytest.approx(c, abs=1e-9)

    def test_agrees_with_classify_on_tight_windows(self):
        rng = np.random.default_rng(43)
        for _ in range(5):
            lat, g = random_tight_instance(rng)
            c = oracle_tight_constant(lat, g)
            assert c == pytest.approx(1.0, abs=1e-9)
            assert classify(lat, g).tight_constant == pytest.approx(c, abs=1e-9)

    @pytest.mark.parametrize("tol", [1e-9, 1e-6])
    @pytest.mark.parametrize("shape", [(12, 3, 4), (48, 6, 8), (120, 6, 20)])
    def test_band_agrees_with_classify(self, shape, tol):
        # one tight rule, FrameBounds', read off the SVD here and the Zak spectrum there;
        # at B - A = tol * B (y - x = 1) the two roundings fall on either side of the edge
        lat = GaborLattice(*shape)
        for (x, y), g in band_windows(lat, tol):
            if y - x == 1:
                continue
            c, report = oracle_tight_constant(lat, g, tol), classify(lat, g, tol)
            assert (c is None) == (report.tight_constant is None), (x, y)
            if c is not None:
                assert report.tight_constant == pytest.approx(c, rel=1e-12), (x, y)


class TestOracleAdjointGram:
    def test_box_gram_is_identity(self, box):
        lat, g = box
        gram = oracle_adjoint_gram(lat, g)
        assert gram.shape == (4, 4)
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12

    def test_delta_gram_is_half_identity(self, delta):
        lat, g = delta
        gram = oracle_adjoint_gram(lat, g)
        assert gram.shape == (2, 2)
        assert np.max(np.abs(gram - 0.5 * np.eye(2))) <= 1e-12

    def test_zero_window(self):
        lat = GaborLattice(4, 2, 2)
        gram = oracle_adjoint_gram(lat, np.zeros(4, dtype=complex))
        assert np.all(gram == 0)


class TestOracleAgreesWithFastPaths:
    @pytest.mark.parametrize("seed", range(8))
    def test_bounds(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        g = random_signal(rng, lat.L, normalize=True)
        fast, slow = frame_bounds(lat, g), oracle_frame_bounds(lat, g)
        assert abs(fast.A - slow.A) <= 1e-9
        assert abs(fast.B - slow.B) <= 1e-9


def test_only_the_oracle_lists_atoms():
    """Production modules read folds and Zak blocks, never atom lists. The one atom call
    outside the oracle is adjoint_atom's return: gabor_atom on the adjoint lattice."""
    calls, returns = [], []
    for path in sorted(Path(whframe.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef):
                assert node.name != "adjoint_atoms", path.name
                if path.name == "lattice.py" and node.name == "adjoint_atom":
                    returns.append(node.body[-1].lineno)
            if isinstance(node, ast.Call) and path.name != "oracle.py":
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in ("gabor_atom", "adjoint_atom"):
                    calls.append((path.name, name, node.lineno))
    assert calls == [("lattice.py", "gabor_atom", *returns)]


def test_only_the_oracle_takes_svds():
    """Frame spectra come from one eigh of the Zak Gram blocks in _FrameAnalysis,
    the one eigh call site; free reads the Householder reflectors of null(Z_g) off V in
    closed form, no QR is taken, and an SVD is the oracle's independent route."""
    factorizations = []
    for path in sorted(Path(whframe.__file__).parent.glob("*.py")):
        if path.name == "oracle.py":
            continue
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    assert name not in ("svd", "svdvals", "eigvalsh"), f"{path.name}:{node.lineno}"
                    if name in ("eigh", "qr"):
                        factorizations.append((name, path.name, getattr(top, "name", None)))
    assert factorizations == [("eigh", "frame.py", "_FrameAnalysis")]


def test_only_the_profile_takes_the_lag_gather():
    """The (b, L) table of periodized correlations is built only in
    cross_correlation_table, which only correlation_profile calls; the
    Walnut bound and the energy split read the Walnut table of
    _FrameAnalysis in frame.py, which imports nothing from correlation."""
    callers = []
    for path in sorted(Path(whframe.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            assert getattr(top, "name", None) not in ("_folds", "adjoint_products"), path.name
            for node in ast.walk(top):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                    if name == "cross_correlation_table":
                        callers.append((path.name, getattr(top, "name", None)))
                if path.name == "frame.py" and isinstance(node, (ast.Import, ast.ImportFrom)):
                    names = [getattr(node, "module", None) or ""] + [a.name for a in node.names]
                    assert not any("correlation" in n for n in names), node.lineno
    assert callers == [("correlation.py", "correlation_profile")]
