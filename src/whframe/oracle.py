"""Brute-force ground truth for every fast path in the package.

Everything here is assembled from explicit atom enumeration and dense
linear algebra only; no arithmetic is shared with the correlation or frame
modules, so agreement between the two routes is evidence, not tautology.
The oracle reads two rules from FrameBounds, the frame gate and the tight
rule, off its own spectrum; it builds no frame operator.
Every window passes as_signal once per analysis array.
Cost is O(L^3) and worse by design.
"""

from __future__ import annotations

import numpy as np

from .frame import DEFAULT_TOL, FrameBounds
from .lattice import GaborLattice, as_signal, modulate, norm_sq, translate

__all__ = [
    "analysis_array",
    "oracle_frame_bounds",
    "oracle_is_dual",
    "oracle_tight_constant",
    "oracle_adjoint_gram",
]


def analysis_array(lat: GaborLattice, g: np.ndarray) -> np.ndarray:
    """The (M*N, L) coefficient map: row m*N + n applied to f gives
    <f, atom(m, n)>. Rows are m-major, then n; g passes as_signal once."""
    g = as_signal(g, lat.L)
    return np.conj([modulate(translate(g, n * lat.a), m, lat)
                    for m in range(lat.M) for n in range(lat.N)])


def oracle_frame_bounds(lat: GaborLattice, g: np.ndarray) -> FrameBounds:
    """Frame bounds as squared extreme singular values of the analysis map.

    When there are fewer than L atoms the map has a kernel and the lower
    bound is exactly zero.
    """
    arr = analysis_array(lat, g)
    s = np.linalg.svd(arr, compute_uv=False)
    B = float(s[0] ** 2) if s.size else 0.0
    A = float(s[-1] ** 2) if arr.shape[0] >= lat.L else 0.0
    return FrameBounds(A=A, B=B)


def oracle_is_dual(lat: GaborLattice, g: np.ndarray, h: np.ndarray,
                   tol: float = DEFAULT_TOL) -> bool:
    """Exhaustive reconstruction test of the duality identity.

    Analyzing with h and synthesizing with g must reproduce every standard
    basis vector (sufficient by linearity): the composite matrix must be
    the identity entrywise to within tol * max(1, ||g|| * ||h||), the scale of its rounding.
    """
    G, H = analysis_array(lat, g), analysis_array(lat, h)  # row 0 is conj of the window
    scale = max(1.0, (norm_sq(G[0]) * norm_sq(H[0])) ** 0.5)
    return bool(np.max(np.abs(np.conj(G).T @ H - np.eye(lat.L))) <= tol * scale)


def oracle_tight_constant(lat: GaborLattice, g: np.ndarray,
                          tol: float = DEFAULT_TOL) -> float | None:
    """The constant c > 0 with S == c*I, or None: FrameBounds' tight rule, read off the
    oracle's own bounds, the squared extreme singular values of the analysis array."""
    return oracle_frame_bounds(lat, g).tight_constant(tol)


def oracle_adjoint_gram(lat: GaborLattice, g: np.ndarray) -> np.ndarray:
    """Gram matrix of all a*b adjoint atoms, the atoms of the adjoint lattice.

    Entry [i, j] with i = k*b + l, j = k2*b + l2 is
    <adjoint_atom(k, l), adjoint_atom(k2, l2)>: row k*b + l of the adjoint
    lattice's analysis array is the conjugate of adjoint_atom(k, l).
    """
    A = analysis_array(lat.adjoint(), g)
    return np.conj(A) @ A.T
