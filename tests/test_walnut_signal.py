"""The frame operator at large L in the signal domain, sharing no code with the
Zak kernel.

Walnut's representation: S f(x) = M * sum_{k<b} Gk[k][x] * f(x - k*q), where
row k of the correlation table, Gk[k], is the a-periodic fold of
g * conj(T_{kq} g) tiled N times. correlation._fold gives that fold and no Zak
code calls it, so applying S this way costs O(b*L) time and O(L) memory and
reads none of _FrameAnalysis. The kernel's canonical dual S^-1 g and tight
window t = S^-1/2 g must satisfy S (S^-1 g) = g and S_t t = t under it, at
sizes the oracle's L x L matrices cannot reach.
"""

import ast
from pathlib import Path

import numpy as np
import pytest

import whframe
from whframe import GaborLattice, canonical_dual, tighten, translate
from whframe.correlation import _fold

REL = 1e-13
LATTICES = [(1920, 2, 480), (3840, 64, 60), (61440, 240, 128)]


def walnut_apply_by_folds(lat, g, f):
    """S f for the window g, one lag row of the correlation table at a time."""
    out = np.zeros(lat.L, dtype=complex)
    for k in range(lat.b):
        out += np.tile(_fold(g, g, k * lat.q, lat.a), lat.N) * translate(f, k * lat.q)
    return lat.M * out


def perturbed_gaussian(lat):
    """A Gaussian of width sqrt(a*q) around 0 plus complex noise of a hundredth of its peak,
    so that every lag row of the table is nonzero."""
    rng = np.random.default_rng([lat.L, lat.a, lat.b])
    x = np.minimum(np.arange(lat.L), lat.L - np.arange(lat.L))
    noise = rng.standard_normal(lat.L) + 1j * rng.standard_normal(lat.L)
    return np.exp(-np.pi * x**2 / (lat.a * lat.q)) + 0.01 * noise


def rel_err(s, expected):
    return np.max(np.abs(s - expected)) / np.max(np.abs(expected))


@pytest.mark.parametrize("shape", LATTICES, ids=lambda shape: "-".join(map(str, shape)))
def test_frame_operator_inverts_the_canonical_dual(shape):
    lat = GaborLattice(*shape)
    g = perturbed_gaussian(lat)
    assert rel_err(walnut_apply_by_folds(lat, g, canonical_dual(lat, g)), g) <= REL


@pytest.mark.parametrize("shape", LATTICES, ids=lambda shape: "-".join(map(str, shape)))
def test_tight_window_has_the_identity_frame_operator(shape):
    lat = GaborLattice(*shape)
    t = tighten(lat, perturbed_gaussian(lat))
    assert rel_err(walnut_apply_by_folds(lat, t, t), t) <= REL


def test_the_walnut_apply_reads_no_private_name_of_frame():
    # the fold is correlation's, which imports from lattice alone; frame's private names
    # are the Zak kernel, so a fault there cannot cancel here
    kernel = Path(whframe.__file__).with_name("frame.py").read_text(encoding="utf-8")
    private = {top.name for top in ast.parse(kernel).body if getattr(top, "name", "").startswith("_")}
    assert {"_FrameAnalysis", "_analysis", "_forward", "_walnut"} <= private
    for node in ast.walk(ast.parse(Path(__file__).read_text(encoding="utf-8"))):
        names = [alias.name for alias in getattr(node, "names", [])]
        names.append(node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", ""))
        assert not private & set(names), f"line {node.lineno}: {private & set(names)}"
