"""Frame operator, frame bounds, dual and tight windows, reconstruction.

The frame operator S = sum over all M*N atoms of atom * atom^H is L x L,
Hermitian and positive semidefinite. The Zak transform splits it into
small blocks (Zibulski-Zeevi 1997, in Strohmer's finite form): with the
density a*b/L = p/q_w in lowest terms, c = gcd(a, M) and d = gcd(b, N),
the unitary length-L/c DFTs of the c residue classes f(e + c*t),
gathered by one fixed permutation, are c*d blocks Z_f of shape p x q_w,
and S acts on every block as Z_f -> (L/p) * Z_g Z_g^H Z_f. Bounds, S^-1 g
and S^-1/2 g take one FFT pass and one batched eigendecomposition of the
p x p Gram blocks Z_g Z_g^H: O(L log L) time and, at density <= 1, O(L)
memory (above density 1, the bounds read the smaller q_w x q_w blocks
Z_g^H Z_g instead); S f needs no eigensolver. S commutes with every lattice operator,
so S^-1 g and S^-1/2 g generate Weyl-Heisenberg systems again.
Reconstruction is the mixed operator sum <f, h_mn> g_mn, which acts on
the blocks as Z_f -> (L/p) * Z_g Z_h^H Z_f; S is its h = g case. The norm
audit reads the correlation fold of the adjoint lattice (q, p).

Near-singular operators are rejected rather than inverted: one gate,
A > FRAME_FLOOR * B, decides "frame" everywhere in the package.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property, lru_cache
from math import gcd

import numpy as np

from .correlation import _folds, cross_correlation_table
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


@lru_cache(maxsize=64)
def _zak_layout(lat: GaborLattice) -> tuple[int, np.ndarray]:
    """c = gcd(a, M) and the gather W of shape (d, p, q_w), d = gcd(b, N).

    W[e, i, k] is the unique w in Z_{L/c} with w = -(e + i*d) mod b and
    w = k*d - e mod N. L/c = lcm(b, N) and the two congruences agree mod d,
    so W is a permutation of Z_{L/c}.
    """
    c, d = gcd(lat.a, lat.M), gcd(lat.b, lat.N)
    w = np.arange(lat.L // c)
    e = -w % d
    W = np.empty((d, lat.b // d, lat.N // d), dtype=np.intp)
    W[e, (-w - e) % lat.b // d, (w + e) % lat.N // d] = w
    W.flags.writeable = False
    return c, W


class _FrameAnalysis:
    """The Zak blocks of one (lattice, window) pair, shape (c, d, p, q_w).

    Every frame quantity of the window reads from one instance: the bounds
    and the spectral powers of S from one batched eigh of the p x p Gram
    blocks (computed on first use; over-dense bounds read the q_w x q_w
    Gram blocks instead), S f from the Gram blocks alone.
    """

    def __init__(self, lat: GaborLattice, g: np.ndarray):
        require_length(lat, g)
        self.lat = lat
        self.g = np.asarray(g, dtype=np.complex128)
        self.c, self.W = _zak_layout(lat)
        self.Z = self.forward(self.g)
        self.scale = lat.L / self.W.shape[1]  # L/p

    def forward(self, f: np.ndarray) -> np.ndarray:
        """Zak blocks of f: gathered unitary DFTs of its c residue classes."""
        classes = np.asarray(f, dtype=np.complex128).reshape(-1, self.c).T
        return np.fft.fft(classes, axis=1, norm="ortho")[:, self.W]

    def inverse(self, Z: np.ndarray) -> np.ndarray:
        """The signal whose Zak blocks are Z: scatter, then inverse DFTs."""
        spectra = np.empty((self.c, self.lat.L // self.c), dtype=np.complex128)
        spectra[:, self.W] = Z
        return np.fft.ifft(spectra, axis=1, norm="ortho").T.reshape(self.lat.L)

    @cached_property
    def ZH(self) -> np.ndarray:
        """The conjugate-transposed blocks Z_g^H, shape (c, d, q_w, p)."""
        return np.conj(np.swapaxes(self.Z, -1, -2))

    @cached_property
    def gram(self) -> np.ndarray:
        """The p x p Gram blocks Z_g Z_g^H."""
        return self.Z @ self.ZH

    @cached_property
    def eig(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenvalues of S on each block (ascending) and their vectors."""
        w, U = np.linalg.eigh(self.gram)
        return self.scale * w, U

    @cached_property
    def bounds(self) -> FrameBounds:
        """Extreme block eigenvalues. When p > q_w the blocks have rank at
        most q_w, so A = 0 and B is the top eigenvalue of the q_w x q_w
        Gram blocks Z_g^H Z_g, which share the nonzero spectrum."""
        p, q_w = self.W.shape[1:]
        if p > q_w:
            w = self.scale * np.linalg.eigvalsh(self.ZH @ self.Z)
            return FrameBounds(A=0.0, B=max(float(np.max(w)), 0.0))
        w = self.eig[0]
        return FrameBounds(A=max(float(np.min(w)), 0.0), B=max(float(np.max(w)), 0.0))

    def apply(self, f: np.ndarray, h: np.ndarray | None = None) -> np.ndarray:
        """S f = inverse((L/p) * Z_g Z_g^H Z_f), no eigensolver; with a
        second window h, sum <f, h_mn> g_mn, with Z_h^H for Z_g^H."""
        blocks = self.gram if h is None else self.Z @ np.conj(np.swapaxes(self.forward(h), -1, -2))
        return self.inverse(self.scale * blocks @ self.forward(f))

    def power(self, power: float) -> np.ndarray:
        """S^power g, raising NotAFrameError when S is near-singular."""
        bounds = self.bounds
        if not bounds.is_frame:
            raise NotAFrameError(f"lower frame bound {bounds.A:.3e} vanishes "
                                 f"(upper bound {bounds.B:.3e})")
        w, U = self.eig
        coeffs = (np.conj(np.swapaxes(U, -1, -2)) @ self.Z) * w[..., None] ** power
        return self.inverse(U @ coeffs)


def frame_operator(lat: GaborLattice, g: np.ndarray) -> np.ndarray:
    """Dense frame operator, shape (L, L), filled from its Walnut diagonals
    S[x, x - k*q] = M * Gk[k][x]."""
    x = np.arange(lat.L)
    columns = (x - lat.q * np.arange(lat.b)[:, None]) % lat.L
    S = np.zeros((lat.L, lat.L), dtype=np.complex128)
    S[x, columns] = lat.M * cross_correlation_table(lat, g, g)
    return S


def walnut_apply(lat: GaborLattice, g: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Apply S to f on the Zak blocks, without assembling S; equal to the
    diagonal-sum form output(x) = M * sum_{k<b} Gk[k][x] * f(x - k*q)."""
    require_length(lat, g, f)
    return _FrameAnalysis(lat, g).apply(f)


def frame_bounds(lat: GaborLattice, g: np.ndarray) -> FrameBounds:
    """Optimal bounds: extreme eigenvalues over all Zak blocks of S."""
    return _FrameAnalysis(lat, g).bounds


def canonical_dual(lat: GaborLattice, g: np.ndarray) -> np.ndarray:
    """The canonical dual window S^-1 g."""
    return _FrameAnalysis(lat, g).power(-1.0)


def tighten(lat: GaborLattice, g: np.ndarray) -> np.ndarray:
    """The canonical tight window S^-1/2 g; its own frame operator is I."""
    return _FrameAnalysis(lat, g).power(-0.5)


def reconstruct(lat: GaborLattice, g: np.ndarray, h: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Analyze f with the atoms of h, synthesize with the atoms of g.

    Returns sum_{m,n} <f, atom_h(m,n)> * atom_g(m,n). This equals f for
    every f exactly when h is a dual window of g, which is the operational
    duality test. On the Zak blocks of g it is Z_f -> (L/p) Z_g Z_h^H Z_f.
    """
    require_length(lat, g, h, f)
    return _FrameAnalysis(lat, g).apply(f, h)


def norm_audit(lat: GaborLattice, g: np.ndarray, tol: float = 1e-9) -> NormAudit:
    """Check norm_sq(g) <= B; at equality, check g against all other atoms.

    Both comparisons are relative (to B and to norm_sq(g)), so no verdict
    changes when g is scaled.
    """
    return _norm_audit(_FrameAnalysis(lat, g), tol)


def _norm_audit(analysis: _FrameAnalysis, tol: float) -> NormAudit:
    lat, g, B = analysis.lat, analysis.g, analysis.bounds.B
    nsq = norm_sq(g)
    at_bound = abs(nsq - B) <= tol * B
    max_overlap = orthogonal = None
    if at_bound:
        # the adjoint lattice's fold, DFT'd: [n, m] is <g, atom(m, n)>, (0, 0) is g
        overlaps = np.abs(np.fft.fft(_folds(GaborLattice(lat.L, lat.q, lat.p), g, g), axis=1))
        overlaps[0, 0] = 0.0
        max_overlap = float(np.max(overlaps))
        orthogonal = max_overlap <= tol * nsq
    return NormAudit(
        norm_sq=nsq,
        upper_bound=B,
        within_bound=nsq <= B + tol * B,
        at_bound=at_bound,
        max_overlap=max_overlap,
        orthogonal_to_rest=orthogonal,
    )
