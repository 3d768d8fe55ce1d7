"""Frame operator, frame bounds, dual and tight windows, reconstruction.

The frame operator S = sum over all M*N atoms of atom * atom^H is L x L,
Hermitian and positive semidefinite. Its Walnut form
S = M * sum_k diag(Gk[k]) T_{kq} splits, with x = r + j*q, into q
Hermitian b x b blocks B_r[j, j'] = M * Gk[(j - j') % b][r + j*q]. Bounds
(its extreme eigenvalues), S^-1 g and S^-1/2 g take one batched
eigendecomposition of the blocks: O(L * b^2) time, O(L * b) memory. S
commutes with every lattice operator, so S^-1 g and S^-1/2 g generate
Weyl-Heisenberg systems again. Reconstruction and the norm audit fold
f * conj(T_{na} h) to period M instead of listing atoms.

Near-singular operators are rejected rather than inverted: one gate,
A > FRAME_FLOOR * B, decides "frame" everywhere in the package.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .correlation import cross_correlation_table
from .errors import NotAFrameError
from .lattice import GaborLattice, norm_sq, require_length

__all__ = [
    "FRAME_FLOOR",
    "FrameBounds",
    "NormAudit",
    "frame_operator",
    "walnut_apply",
    "frame_bounds",
    "canonical_dual",
    "tighten",
    "reconstruct",
    "norm_audit",
]

# Relative eigenvalue floor below which S is treated as singular.
FRAME_FLOOR = 1e-10


@dataclass(frozen=True)
class FrameBounds:
    """Optimal frame bounds: A = smallest, B = largest eigenvalue of S."""

    A: float
    B: float

    @property
    def is_frame(self) -> bool:
        """The frame gate: A > FRAME_FLOOR * B with B > 0."""
        return self.B > 0 and self.A > FRAME_FLOOR * self.B

    def to_dict(self) -> dict:
        return {"A": self.A, "B": self.B}


@dataclass(frozen=True)
class NormAudit:
    """Window norm against the upper bound B.

    norm_sq <= B always (every atom has the window's norm). When the bound
    is attained, the window must be orthogonal to all other atoms;
    max_overlap and orthogonal_to_rest report that check and are None
    otherwise.
    """

    norm_sq: float
    upper_bound: float
    within_bound: bool
    at_bound: bool
    max_overlap: float | None
    orthogonal_to_rest: bool | None

    def to_dict(self) -> dict:
        return asdict(self)


def _walnut_blocks(lat: GaborLattice, g: np.ndarray) -> np.ndarray:
    """The q diagonal blocks of S, shape (q, b, b); block r acts on fiber r."""
    table = cross_correlation_table(lat, g, g)
    j = np.arange(lat.b)
    x = np.arange(lat.q)[:, None, None] + lat.q * j[None, :, None]
    return lat.M * table[(j[:, None] - j[None, :]) % lat.b, x]


def _fibers(lat: GaborLattice, f: np.ndarray) -> np.ndarray:
    """f as q fibers: row r holds f(r + j*q), j in [0, b), shape (q, b)."""
    return np.asarray(f, dtype=np.complex128).reshape(lat.b, lat.q).T


def _bounds(w: np.ndarray) -> FrameBounds:
    """Frame bounds from the block eigenvalues."""
    return FrameBounds(A=max(float(np.min(w)), 0.0), B=max(float(np.max(w)), 0.0))


def frame_operator(lat: GaborLattice, g: np.ndarray) -> np.ndarray:
    """Dense frame operator, shape (L, L), filled from its Walnut diagonals
    S[x, x - k*q] = M * Gk[k][x]."""
    x = np.arange(lat.L)
    columns = (x - lat.q * np.arange(lat.b)[:, None]) % lat.L
    S = np.zeros((lat.L, lat.L), dtype=np.complex128)
    S[x, columns] = lat.M * cross_correlation_table(lat, g, g)
    return S


def walnut_apply(lat: GaborLattice, g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply S to f block by block, without assembling S; this is the
    diagonal-sum form output(x) = M * sum_{k<b} Gk[k][x] * f(x - k*q)."""
    require_length(lat, g, f)
    return np.einsum("rij,rj->ri", _walnut_blocks(lat, g), _fibers(lat, f)).T.reshape(lat.L)


def frame_bounds(lat: GaborLattice, g: np.ndarray) -> FrameBounds:
    """Optimal bounds: extreme eigenvalues over all Walnut blocks of S."""
    return _bounds(np.linalg.eigvalsh(_walnut_blocks(lat, g)))


def _spectral_apply(lat: GaborLattice, g: np.ndarray, power: float) -> np.ndarray:
    """S^power g by blocks, raising NotAFrameError when S is near-singular."""
    w, V = np.linalg.eigh(_walnut_blocks(lat, g))
    bounds = _bounds(w)
    if not bounds.is_frame:
        raise NotAFrameError(f"lower frame bound {bounds.A:.3e} vanishes "
                             f"(upper bound {bounds.B:.3e})")
    coeffs = np.einsum("rji,rj->ri", np.conj(V), _fibers(lat, g)) * w ** power
    return np.einsum("rij,rj->ri", V, coeffs).T.reshape(lat.L)


def canonical_dual(lat: GaborLattice, g: np.ndarray) -> np.ndarray:
    """The canonical dual window S^-1 g."""
    return _spectral_apply(lat, g, -1.0)


def tighten(lat: GaborLattice, g: np.ndarray) -> np.ndarray:
    """The canonical tight window S^-1/2 g; its own frame operator is I."""
    return _spectral_apply(lat, g, -0.5)


def _translates(lat: GaborLattice, s: np.ndarray) -> np.ndarray:
    """Row n is translate(s, n*a), shape (N, L)."""
    shifts = (np.arange(lat.L) - lat.a * np.arange(lat.N)[:, None]) % lat.L
    return np.asarray(s, dtype=np.complex128)[shifts]


def _translate_folds(lat: GaborLattice, f: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Row n folds f * conj(translate(h, n*a)) to period M, shape (N, M).

    The DFT of row n gives the coefficients <f, atom_h(m, n)> over m.
    """
    products = np.asarray(f, dtype=np.complex128) * np.conj(_translates(lat, h))
    return products.reshape(lat.N, lat.b, lat.M).sum(axis=1)


def reconstruct(lat: GaborLattice, g: np.ndarray, h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Analyze f with the atoms of h, synthesize with the atoms of g.

    Returns sum_{m,n} <f, atom_h(m,n)> * atom_g(m,n). This equals f for
    every f exactly when h is a dual window of g, which is the operational
    duality test. Summing over m first leaves the mixed Walnut form
    output(x) = M * sum_n g(x - n*a) * P_n[x mod M], with P_n the period-M
    fold of f * conj(translate(h, n*a)).
    """
    require_length(lat, g, h, f)
    folds = _translate_folds(lat, f, h)
    return lat.M * np.sum(_translates(lat, g) * np.tile(folds, lat.b), axis=0)


def norm_audit(lat: GaborLattice, g: np.ndarray, tol: float = 1e-9) -> NormAudit:
    """Check norm_sq(g) <= B; at equality, check g against all other atoms."""
    B = frame_bounds(lat, g).B
    nsq = norm_sq(g)
    at_bound = abs(nsq - B) <= tol
    max_overlap = orthogonal = None
    if at_bound:
        # entry [n, m] is <g, atom(m, n)>; (0, 0) is the window itself
        overlaps = np.abs(np.fft.fft(_translate_folds(lat, g, g), axis=1))
        overlaps[0, 0] = 0.0
        max_overlap = float(np.max(overlaps))
        orthogonal = max_overlap <= tol
    return NormAudit(
        norm_sq=nsq,
        upper_bound=B,
        within_bound=nsq <= B + tol,
        at_bound=at_bound,
        max_overlap=max_overlap,
        orthogonal_to_rest=orthogonal,
    )
