"""Brute-force ground truth for every fast path in the package.

Everything here is assembled from explicit atom enumeration and dense
linear algebra only; nothing is shared with the correlation or frame
modules, so agreement between the two routes is evidence, not tautology.
Every window passes as_signal, once per analysis array or through adjoint_atom.
Cost is O(L^3) and worse by design.
"""

from __future__ import annotations

import numpy as np

from .frame import DEFAULT_TOL, FrameBounds
from .lattice import GaborLattice, adjoint_atom, as_signal, inner, modulate, norm_sq, translate

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
    """The constant c > 0 with S == c*I, or None (S = 0 is no frame).

    S is assembled from the analysis array alone and compared against
    c*I entrywise, with c read off the diagonal average, to within
    tol * max(c, 1) so that scaled tight windows keep their constant.
    """
    arr = analysis_array(lat, g)
    S = np.conj(arr).T @ arr
    c = float(np.mean(np.diag(S).real))
    if c > 0.0 and np.max(np.abs(S - c * np.eye(lat.L))) <= tol * max(c, 1.0):
        return c
    return None


def oracle_adjoint_gram(lat: GaborLattice, g: np.ndarray) -> np.ndarray:
    """Gram matrix of all a*b adjoint atoms by direct inner products.

    Entry [i, j] with i = k*b + l, j = k2*b + l2 is
    <adjoint_atom(k, l), adjoint_atom(k2, l2)>.
    """
    atoms = [adjoint_atom(lat, g, k, l) for k in range(lat.a) for l in range(lat.b)]
    n = len(atoms)
    gram = np.empty((n, n), dtype=np.complex128)
    for i in range(n):
        for j in range(n):
            gram[i, j] = inner(atoms[i], atoms[j])
    return gram
