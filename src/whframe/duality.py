"""Alternate dual windows and their affine classification.

A window h is a dual of a frame window g when analyzing with h and
synthesizing with g reproduces every signal. Two certificates are
equivalent to that identity and to each other:

  * biorthogonality on the adjoint lattice: <h, g> == a*b/L and h is
    orthogonal to every nontrivial adjoint atom of g;
  * flat cross-correlation: the (h, g) correlation table has constant
    row 0 equal to b/L and vanishing other rows.

Both read the table's period-a rows less b/L in row 0 (_FrameAnalysis.gap, off the cross-Gram
blocks Z_h Z_g^H; residuals reads both): the second directly, the first through their length-a
DFTs, which are the a*b adjoint products <h, E_{kp} T_{lq} g> less a*b/L at (0, 0).

The set of all duals is the affine space S^-1 g + W, where W is the
orthogonal complement of the span of the a*b adjoint atoms of g. On the
Zak blocks of g (Zibulski-Zeevi 1997) that span is the set of windows
whose block rows lie in the row space of every block Z_g = U Sigma V^H,
so W is C^p (x) null(Z_g) block by block. The frame analysis that gives
S^-1 g holds V, and its free maps coefficients C onto the blocks as
[0_p | C] H_p ... H_1 for make_alternate_dual and DualSpace, with the p Householder
reflectors H_j of each block read off V's columns in closed form;
decompose_dual tests membership in W as ||Z_free V||_F, and neither builds a basis.
The certificates and decompose_dual read h's Zak blocks through frame._blocks, which
keeps the last ones it took, whatever window they were read against. At critical
density W = {0}, and the canonical dual is the only dual.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .frame import DEFAULT_TOL, _FrameAnalysis, _analysis, _blocks, _check_tol
from .lattice import GaborLattice, as_signal

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
    """The duals S^-1 g + W of a frame window, both read from its frame analysis.

    Coefficients C, shape (c, d, p, q_w - p), stand for the blocks [0_p | C] H_p ... H_1,
    whose rows lie in null(Z_g) (_FrameAnalysis.free).
    Flattened, coefficient i gives basis row i, which lies on the residue class
    mod c = gcd(a, M) named by C's first index; class_rows lists the basis by class."""

    lat: GaborLattice
    canonical_dual: np.ndarray
    analysis: _FrameAnalysis

    @property
    def orbit_rank(self) -> int:
        """a*b for every frame window g. The adjoint atoms span the windows
        whose block rows lie in the row space of each Zak block Z_g; a frame
        has c*d blocks of full rank p, and c*d*p^2 = a*b."""
        return self.lat.a * self.lat.b

    @property
    def dimension(self) -> int:
        return self.lat.L - self.orbit_rank

    @property
    def complement_basis(self) -> np.ndarray:
        """The orthonormal basis of W as a dense (dimension, L) matrix, built on each read."""
        return self.analysis.free(np.eye(self.dimension, dtype=np.complex128))

    @property
    def class_rows(self) -> np.ndarray:
        """The basis by class, shape (c, dimension/c, L/c): [s, r, t] is row r of class s mod c
        at x = s + t*c; signal r of the c-fold tiled identity is row r of every class at once."""
        c = self.analysis.Z.shape[0]
        signals = self.analysis.free(np.tile(np.eye(self.dimension // c, dtype=np.complex128), c))
        return signals.reshape(-1, self.lat.L // c, c).transpose(2, 0, 1)


@dataclass(frozen=True)
class DualReport:
    """Decomposition of a dual candidate h = S^-1 g + free part."""

    is_dual: bool
    wexler_raz_residual: float
    walnut_residual: float
    canonical_part: np.ndarray
    free_part: np.ndarray
    free_part_in_complement: bool


def wexler_raz_check(lat: GaborLattice, g: np.ndarray, h: np.ndarray) -> float:
    """Biorthogonality residual certifying h as a dual window of g.

    Worst of |<h, g> - a*b/L| and |<h, adjoint_atom(k, l)>| over all
    (k, l) != (0, 0); at most tol means h is a dual.
    """
    return _analysis(lat, g).residuals(_blocks(lat, h))[0]


def dual_conditions_walnut(lat: GaborLattice, g: np.ndarray, h: np.ndarray) -> float:
    """Cross-correlation residual, equivalent to the biorthogonality test.

    The worst of |Hk[0] - b/L| and |Hk[k != 0]| over the table
    Hk[k][x] = sum_n h(x - n*a) conj(g(x - n*a - k*q)).
    """
    return float(np.abs(_analysis(lat, g).gap(_blocks(lat, h))).max())


def dual_space(lat: GaborLattice, g: np.ndarray) -> DualSpace:
    """The canonical dual and W, both read from the frame analysis of g.

    Raises NotAFrameError (via the canonical dual) when g is not a frame.
    """
    analysis = _analysis(lat, g)
    return DualSpace(lat, analysis.dual[1].copy(), analysis)


def make_alternate_dual(lat: GaborLattice, g: np.ndarray, coeffs) -> np.ndarray:
    """The dual window S^-1 g + sum_i coeffs[i] * complement_basis[i]."""
    analysis = _analysis(lat, g)
    return analysis.dual[1] + analysis.free(as_signal(coeffs, lat.L - lat.a * lat.b))


def decompose_dual(lat: GaborLattice, g: np.ndarray, h: np.ndarray,
                   tol: float = DEFAULT_TOL) -> DualReport:
    """Split h against the affine description of the dual set.

    The free part h - S^-1 g lies in the adjoint-orbit complement exactly
    when h is a dual; <h - S^-1 g, g> = <h, g> - a*b/L vanishes then too.
    The orbit part of the free part is Z_free V V^H on the Zak blocks, with Z_free =
    Z_h - Z_{S^-1 g} and V = R^H Sigma^-1 from the thin SVD Z_g = U Sigma V^H; the
    blocks are a unitary image of the signal, so its norm is ||Z_free V||_F.
    """
    _check_tol(tol)
    analysis = _analysis(lat, g)
    Z_dual, dual = analysis.dual
    Zh = _blocks(lat, h)
    wr, walnut = analysis.residuals(Zh)
    orbit = ((Zh - Z_dual) @ analysis.V).ravel()
    in_complement = sqrt(np.vdot(orbit, orbit).real) <= tol
    return DualReport(
        is_dual=wr <= tol and walnut <= tol and in_complement,
        wexler_raz_residual=wr,
        walnut_residual=walnut,
        canonical_part=dual.copy(),
        free_part=np.asarray(h, dtype=np.complex128) - dual,
        free_part_in_complement=in_complement,
    )
