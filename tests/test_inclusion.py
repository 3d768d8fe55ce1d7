"""Lattice inclusion: identities between two lattices that need no oracle.

Let Lambda = (L, a, b) lie inside Lambda' = (L, a', b'), with a' | a, b' | b
and index k = (a/a')(b/b'). The k coset shifts mu = (n a', m b') carry
Lambda onto all of Lambda', so the frame operators satisfy

    S' = sum_mu pi(mu) S pi(mu)^*,    pi(mu) = E_{m b'} T_{n a'}.

Three consequences follow, each cheap at any L: k A <= A' and B' <= k B;
canonical_dual(Lambda, g) / k is a dual of g on Lambda'; and
tighten(Lambda, g) is tight on Lambda' with constant k. Every pair with
a*b <= L for L <= 36 is checked, and 40 pairs at L from 96 to 480. The
kernel is reached through public names only, so a fault in it must show on
one of the two lattices without cancelling on the other.
"""

import ast
from functools import lru_cache
from pathlib import Path

import numpy as np

import whframe
from whframe import (GaborLattice, canonical_dual, classify, frame_bounds, modulate, tighten,
                     translate, walnut_apply, wexler_raz_check)


def divisors(n):
    return [d for d in range(1, n + 1) if n % d == 0]


def inclusions(L):
    """(a, b, a', b') with a*b <= L, a' | a, b' | b and index (a/a')(b/b') in 2..4."""
    return [(a, b, a2, b2) for a in divisors(L) for b in divisors(L) if a * b <= L
            for a2 in divisors(a) for b2 in divisors(b) if 2 <= (a // a2) * (b // b2) <= 4]


def pairs():
    small = [(L, *shape) for L in range(2, 37) for shape in inclusions(L)]
    large = []
    for L in (96, 120, 240, 480):
        shapes = inclusions(L)
        picked = np.random.default_rng(L).choice(len(shapes), 10, replace=False)
        large += [(L, *shapes[i]) for i in sorted(picked)]
    return small + large


@lru_cache(maxsize=None)
def cases():
    """(Lambda, Lambda', k, g) for every pair: g a Gaussian of width sqrt(a*q) around 0 plus
    complex noise of 5e-2, a frame on Lambda at every pair."""
    out = []
    for L, a, b, a2, b2 in pairs():
        lat, sup = GaborLattice(L, a, b), GaborLattice(L, a2, b2)
        rng = np.random.default_rng([L, a, b])
        x = np.minimum(np.arange(L), L - np.arange(L))
        g = np.exp(-np.pi * x**2 / (a * lat.q)) + 5e-2 * (rng.standard_normal(L)
                                                         + 1j * rng.standard_normal(L))
        out.append((lat, sup, (a // a2) * (b // b2), g))
    return out


def test_the_pairs_cover_small_and_large_lattices():
    assert len(pairs()) == 736


def test_bounds_scale_with_the_index():
    for lat, sup, k, g in cases():
        bounds, outer = frame_bounds(lat, g), frame_bounds(sup, g)
        slack = 1e-12 * outer.B
        assert k * bounds.A <= outer.A + slack and outer.B <= k * bounds.B + slack, (lat, sup)


def test_the_frame_operator_sums_over_the_cosets():
    for lat, sup, k, g in cases():
        f = [1, 1j] @ np.random.default_rng([lat.L, 7]).standard_normal((2, lat.L))
        expected = walnut_apply(sup, g, f)
        total = np.zeros(lat.L, dtype=complex)
        for n in range(lat.a // sup.a):
            for m in range(lat.b // sup.b):  # pi(mu) S pi(mu)^* f
                shifted = translate(modulate(f, -m, sup), -n * sup.a)
                total += modulate(translate(walnut_apply(lat, g, shifted), n * sup.a), m, sup)
        assert np.max(np.abs(total - expected)) <= 1e-13 * np.max(np.abs(expected)), (lat, sup)


def test_the_canonical_dual_over_the_index_is_a_dual_of_the_larger_lattice():
    for lat, sup, k, g in cases():
        residual = wexler_raz_check(sup, g, canonical_dual(lat, g) / k)
        assert residual <= 1e-13 * sup.a * sup.b / sup.L, (lat, sup, residual)


def test_a_tight_window_is_tight_on_the_larger_lattice_with_the_index():
    for lat, sup, k, g in cases():
        constant = classify(sup, tighten(lat, g)).tight_constant
        assert constant is not None and abs(constant - k) <= 1e-12 * k, (lat, sup, constant)


def test_the_inclusions_read_no_private_name():
    # the kernel is reached by its public names only, so a fault there cannot cancel here
    tree = ast.parse(Path(__file__).read_text(encoding="utf-8"))
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module.startswith("whframe"):
            assert node.module == "whframe"
            assert {alias.name for alias in node.names} <= set(whframe.__all__)
        name = node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")
        assert not name.startswith("_") or name.startswith("__"), f"line {node.lineno}: {name}"
