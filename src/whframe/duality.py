"""Alternate dual windows and their affine classification.

A window h is a dual of a frame window g when analyzing with h and
synthesizing with g reproduces every signal. Two certificates are
equivalent to that identity and to each other:

  * biorthogonality on the adjoint lattice: <h, g> == a*b/L and h is
    orthogonal to every nontrivial adjoint atom of g;
  * flat cross-correlation: the (h, g) correlation table has constant
    row 0 equal to b/L and vanishing other rows.

The set of all duals is the affine space S^-1 g + W, where W is the
orthogonal complement of the span of the a*b adjoint atoms of g. W splits
over the residue classes mod a: one batched QR of the a residue-class
matrices (b x N each) gives an orthonormal basis of it. On the Zak blocks
of g (Zibulski-Zeevi 1997) the span of the adjoint atoms is the row space
of every block Z_g, so decompose_dual tests membership in W with the
reduced QR of the blocks Z_g^H and builds no basis; make_alternate_dual
walks the space. At critical density the adjoint atoms span everything,
W = {0}, and the canonical dual is the only dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import _folds, _lagged
from .frame import _FrameAnalysis, canonical_dual
from .lattice import GaborLattice, require_length

__all__ = [
    "DualSpace",
    "DualReport",
    "wexler_raz_check",
    "dual_conditions_walnut",
    "dual_space",
    "make_alternate_dual",
    "decompose_dual",
]

@dataclass(frozen=True)
class DualSpace:
    """The duals S^-1 g + W of a frame window.

    complement_basis holds dimension orthonormal rows spanning W, each
    orthogonal to every adjoint atom of the generator and supported on one
    residue class mod a; orbit_rank + dimension == L. canonical_dual is
    S^-1 g, left out of to_dict.
    """

    lat: GaborLattice
    generator: np.ndarray
    orbit_rank: int
    complement_basis: np.ndarray
    canonical_dual: np.ndarray

    @property
    def dimension(self) -> int:
        return self.lat.L - self.orbit_rank

    def to_dict(self) -> dict:
        """Each basis row as its residue class s and its N values at
        x = s + t*a, as [re, im] pairs; the row is zero elsewhere."""
        lat, basis = self.lat, self.complement_basis
        residues = np.argmax(np.abs(basis), axis=1) % lat.a
        values = basis.reshape(-1, lat.N, lat.a)[np.arange(len(basis)), :, residues]
        pairs = np.stack([values.real, values.imag], axis=-1).tolist()
        return {
            "orbit_rank": self.orbit_rank,
            "dimension": self.dimension,
            "complement_basis": [
                {"residue": int(s), "values": row} for s, row in zip(residues, pairs)
            ],
        }


@dataclass(frozen=True)
class DualReport:
    """Decomposition of a dual candidate h = S^-1 g + free part."""

    is_dual: bool
    wexler_raz_residual: float
    walnut_residual: float
    canonical_part: np.ndarray
    free_part: np.ndarray
    free_part_in_complement: bool

    def to_dict(self) -> dict:
        return {
            "is_dual": self.is_dual,
            "wexler_raz_residual": self.wexler_raz_residual,
            "walnut_residual": self.walnut_residual,
            "canonical_part": [[z.real, z.imag] for z in self.canonical_part],
            "free_part": [[z.real, z.imag] for z in self.free_part],
            "free_part_in_complement": self.free_part_in_complement,
        }


def wexler_raz_check(lat: GaborLattice, g: np.ndarray, h: np.ndarray) -> float:
    """Biorthogonality residual certifying h as a dual window of g.

    Worst of |<h, g> - a*b/L| and |<h, adjoint_atom(k, l)>| over all
    (k, l) != (0, 0); at most tol means h is a dual.
    """
    return _biorthogonality_residual(lat, _folds(lat, h, g))


def dual_conditions_walnut(lat: GaborLattice, g: np.ndarray, h: np.ndarray) -> float:
    """Cross-correlation residual, equivalent to the biorthogonality test.

    Builds Hk[k][x] = sum_n h(x - n*a) conj(g(x - n*a - k*q)) and returns
    the worst of |Hk[0] - b/L| and |Hk[k != 0]|.
    """
    return _flat_residual(lat, _folds(lat, h, g))


def _biorthogonality_residual(lat: GaborLattice, folds: np.ndarray) -> float:
    """wexler_raz_check from the (h, g) folds: their length-a DFTs are the
    adjoint products."""
    products = np.fft.fft(folds, axis=1)
    products[0, 0] -= lat.a * lat.b / lat.L
    return float(np.max(np.abs(products)))


def _flat_residual(lat: GaborLattice, folds: np.ndarray) -> float:
    """dual_conditions_walnut from the (h, g) folds, which tile the table."""
    return float(max(np.max(np.abs(folds[0] - lat.b / lat.L)),
                     np.max(np.abs(folds[1:]), initial=0.0)))


def dual_space(lat: GaborLattice, g: np.ndarray) -> DualSpace:
    """The canonical dual and an orthonormal basis of the free parts of duals.

    With x = s + t*a, adjoint_atom(k, l)(x) = exp(2*pi*i*k*s/a) * V_s[l, t]
    for V_s[l, t] = g(s + t*a - l*q): the atom stack is unitarily equivalent
    to sqrt(a) times the block diagonal of the b x N matrices V_s, read
    from the fold's lagged gather. The complete QR of V_s^H = Q_s R_s gives
    the null rows conj(Q_s[:, b:]).T, each placed at x = s + t*a. For a
    frame every V_s has full rank b: M * sigma^2 over its singular values
    sigma are eigenvalues of S, so sigma_min / sigma_max >= sqrt(A/B) >
    1e-5 and orbit_rank is a*b.

    Raises NotAFrameError (via the canonical dual) when g is not a frame.
    """
    canonical = canonical_dual(lat, g)
    Q = np.linalg.qr(np.conj(np.transpose(_lagged(lat, g))), mode="complete")[0]
    s = np.arange(lat.a)
    basis = np.zeros((lat.a, lat.N - lat.b, lat.N, lat.a), dtype=np.complex128)
    basis[s, :, :, s] = np.conj(np.swapaxes(Q[..., lat.b:], -1, -2))
    return DualSpace(lat, np.asarray(g, dtype=np.complex128), lat.a * lat.b,
                     basis.reshape(-1, lat.L), canonical)


def make_alternate_dual(lat: GaborLattice, g: np.ndarray, coeffs) -> np.ndarray:
    """The dual window S^-1 g + sum_i coeffs[i] * complement_basis[i]."""
    space = dual_space(lat, g)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (space.dimension,):
        raise ValueError(
            f"expected {space.dimension} coefficients, got shape {coeffs.shape}"
        )
    return space.canonical_dual + coeffs @ space.complement_basis


def decompose_dual(lat: GaborLattice, g: np.ndarray, h: np.ndarray, tol: float = 1e-9) -> DualReport:
    """Split h against the affine description of the dual set.

    The free part h - S^-1 g lies in the adjoint-orbit complement exactly
    when h is a dual; <h - S^-1 g, g> = <h, g> - a*b/L vanishes then too.
    The orbit part of the free part is Z_free Q Q^H on the Zak blocks, for
    Q the reduced QR factor of Z_g^H (q_w x p per block); the blocks are a
    unitary image of the signal, so its norm is ||Z_free Q||_F.
    """
    require_length(lat, g, h)
    analysis = _FrameAnalysis(lat, g)
    canonical = analysis.power(-1.0)
    free = np.asarray(h, dtype=np.complex128) - canonical
    Q = np.linalg.qr(analysis.ZH)[0]
    in_complement = bool(np.linalg.norm(analysis.forward(free) @ Q) <= tol)
    folds = _folds(lat, h, g)
    wr, walnut = _biorthogonality_residual(lat, folds), _flat_residual(lat, folds)
    return DualReport(
        is_dual=wr <= tol and walnut <= tol and in_complement,
        wexler_raz_residual=wr,
        walnut_residual=walnut,
        canonical_part=canonical,
        free_part=free,
        free_part_in_complement=in_complement,
    )
