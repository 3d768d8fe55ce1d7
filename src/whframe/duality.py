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
matrices (b x N each) gives N - b orthonormal rows of length N per class,
and DualSpace keeps W in that form, never as a dense L-column matrix;
make_alternate_dual walks the space with one product per class. On the
Zak blocks of g (Zibulski-Zeevi 1997) the span of the adjoint atoms is
the row space of every block Z_g = U Sigma V^H, so decompose_dual tests
membership in W with the frame analysis's V and builds no basis. At
critical density W = {0}, and the canonical dual is the only dual.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .correlation import _folds, _lagged
from .frame import _FrameAnalysis, canonical_dual
from .lattice import GaborLattice, _pairs, require_length

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
    """The duals S^-1 g + W of a frame window, W as its residue-class rows.

    class_rows[s, i, t], shape (a, N - b, N), is row i of class s at
    x = s + t*a; the row is zero off that class. Taken class-major, the
    rows are an orthonormal basis of W. canonical_dual is S^-1 g, left out
    of to_dict.
    """

    lat: GaborLattice
    canonical_dual: np.ndarray
    class_rows: np.ndarray

    @property
    def orbit_rank(self) -> int:
        """a*b for every frame window g. With x = s + t*a, adjoint_atom(k, l)(x)
        = exp(2*pi*i*k*s/a) * V_s[l, t] for V_s[l, t] = g(s + t*a - l*q), so the
        atom stack is unitarily equivalent to sqrt(a) times the block diagonal
        of the b x N matrices V_s. Each V_s has full rank b: M * sigma^2 over
        its singular values sigma are eigenvalues of S, so
        sigma_min / sigma_max >= sqrt(A/B) > 1e-5."""
        return self.lat.a * self.lat.b

    @property
    def dimension(self) -> int:
        return self.lat.L - self.orbit_rank

    @property
    def complement_basis(self) -> np.ndarray:
        """The rows of W as a dense (dimension, L) matrix, built on each read."""
        lat, s = self.lat, np.arange(self.lat.a)
        basis = np.zeros((lat.a, lat.N - lat.b, lat.N, lat.a), dtype=np.complex128)
        basis[s, :, :, s] = self.class_rows
        return basis.reshape(-1, lat.L)

    def to_dict(self) -> dict:
        """Each row as its class s and its N [re, im] values at x = s + t*a."""
        return {
            "orbit_rank": self.orbit_rank,
            "dimension": self.dimension,
            "complement_basis": [
                {"residue": s, "values": row}
                for s, rows in enumerate(_pairs(self.class_rows)) for row in rows
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
        return {**asdict(self), "canonical_part": _pairs(self.canonical_part),
                "free_part": _pairs(self.free_part)}


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
    """The canonical dual and the residue-class rows of W.

    On class s, W is the orthogonal complement of the rows of V_s (see
    DualSpace.orbit_rank), the fold's lagged gather; the complete QR
    V_s^H = Q_s R_s gives it as the rows conj(Q_s[:, b:]).T.

    Raises NotAFrameError (via the canonical dual) when g is not a frame.
    """
    canonical = canonical_dual(lat, g)
    Q = np.linalg.qr(np.conj(np.transpose(_lagged(lat, g))), mode="complete")[0]
    return DualSpace(lat, canonical, np.conj(np.swapaxes(Q[..., lat.b:], -1, -2)))


def make_alternate_dual(lat: GaborLattice, g: np.ndarray, coeffs) -> np.ndarray:
    """The dual window S^-1 g + sum_i coeffs[i] * complement_basis[i]."""
    space = dual_space(lat, g)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (space.dimension,):
        raise ValueError(
            f"expected {space.dimension} coefficients, got shape {coeffs.shape}"
        )
    free = np.einsum("si,sit->ts", coeffs.reshape(lat.a, -1), space.class_rows)
    return space.canonical_dual + free.reshape(lat.L)


def decompose_dual(lat: GaborLattice, g: np.ndarray, h: np.ndarray, tol: float = 1e-9) -> DualReport:
    """Split h against the affine description of the dual set.

    The free part h - S^-1 g lies in the adjoint-orbit complement exactly
    when h is a dual; <h - S^-1 g, g> = <h, g> - a*b/L vanishes then too.
    The orbit part of the free part is Z_free V V^H on the Zak blocks, for
    V = R^H Sigma^-1 from the thin SVD Z_g = U Sigma V^H; the blocks are a
    unitary image of the signal, so its norm is ||Z_free V||_F.
    """
    require_length(lat, g, h)
    analysis = _FrameAnalysis(lat, g)
    canonical = analysis.power(-1.0)
    free = np.asarray(h, dtype=np.complex128) - canonical
    in_complement = analysis.orbit_norm(free) <= tol
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
