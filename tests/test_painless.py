"""Frame bounds and canonical duals at large L against a closed form that
shares no code with the Zak kernel.

A window supported in at most q = L/b consecutive points is painless
(Daubechies-Grossmann-Meyer 1986): g(x) * conj(g(x - k*q)) vanishes for
every lag k != 0 mod b, so the frame operator is the diagonal
S = M * sum_n |g(x - n*a)|^2. Its extremes are the optimal bounds A and B,
and S^-1 g is g divided by it. The oracle builds an L x L matrix and stops
at small L; this closed form takes numpy and the lattice alone and reaches
L = 61,440.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import whframe
from whframe import GaborLattice, canonical_dual, frame_bounds

REL = 1e-14
LATTICES = [(1920, 2, 480), (3840, 64, 60), (61440, 128, 240), (61440, 240, 128)]


def supports(L, a, b):
    """a, (a+q)//2 and q consecutive points, q = L/b: each covers every residue mod a."""
    q = L // b
    return {a, (a + q) // 2, q}


CASES = sorted((shape, size) for shape in LATTICES for size in supports(*shape))


def painless(lat, support):
    """A random complex window on `support` consecutive points from a random start,
    and its diagonal frame operator M * sum_n |g(x - n*a)|^2 as a signal."""
    rng = np.random.default_rng([lat.L, lat.a, lat.b, support])
    g = np.zeros(lat.L, dtype=complex)
    g[(rng.integers(lat.L) + np.arange(support)) % lat.L] = (
        rng.standard_normal(support) + 1j * rng.standard_normal(support))
    power = np.sum(np.abs(g.reshape(lat.N, lat.a)) ** 2, axis=0)  # indexed by x mod a
    return g, lat.M * np.tile(power, lat.N)


@pytest.mark.parametrize("shape,size", CASES, ids=[f"{L}-{a}-{b}-support-{size}"
                                                  for (L, a, b), size in CASES])
def test_painless_window_is_the_closed_form(shape, size):
    lat = GaborLattice(*shape)
    assert lat.a <= size <= lat.q
    g, S = painless(lat, size)
    bounds = frame_bounds(lat, g)
    assert abs(bounds.A - S.min()) <= REL * S.max()
    assert abs(bounds.B - S.max()) <= REL * S.max()
    dual = g / S
    assert np.max(np.abs(canonical_dual(lat, g) - dual)) <= REL * np.max(np.abs(dual))


def test_the_closed_form_reads_no_private_name():
    # the kernel is reached by its public names only, so a fault there cannot cancel here
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("whframe"):
            assert node.module == "whframe"
            assert {alias.name for alias in node.names} <= set(whframe.__all__)
        if isinstance(node, ast.Import):
            assert all(alias.name in ("ast", "numpy", "pytest", "whframe") for alias in node.names)
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        assert not name.startswith("_") or name.startswith("__"), f"line {node.lineno}: {name}"
