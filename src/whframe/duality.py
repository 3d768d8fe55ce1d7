"""Alternate dual windows and their affine classification.

A window h is a dual of a frame window g when analyzing with h and
synthesizing with g reproduces every signal. Two certificates are
equivalent to that identity and to each other:

  * biorthogonality on the adjoint lattice: <h, g> == a*b/L and h is
    orthogonal to every nontrivial adjoint atom of g;
  * flat cross-correlation: the (h, g) correlation table has constant
    row 0 equal to b/L and vanishing other rows.

The set of all duals is the affine space S^-1 g + W, where W is the
orthogonal complement of the span of the a*b adjoint atoms of g.
decompose_dual splits a candidate against that description;
make_alternate_dual walks the space. At critical density the adjoint
atoms span everything, W = {0}, and the canonical dual is the only dual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .correlation import adjoint_products, cross_correlation_table
from .frame import canonical_dual
from .lattice import GaborLattice, adjoint_atoms, require_length

__all__ = [
    "RANK_TOL",
    "DualSpace",
    "DualReport",
    "wexler_raz_check",
    "dual_conditions_walnut",
    "dual_space",
    "make_alternate_dual",
    "decompose_dual",
]

# Singular values below RANK_TOL times the largest are treated as zero.
RANK_TOL = 1e-10


@dataclass(frozen=True)
class DualSpace:
    """Orthocomplement of the adjoint-atom span of a frame window.

    complement_basis holds dimension orthonormal rows, each orthogonal to
    every adjoint atom of the generator; orbit_rank + dimension == L.
    """

    lat: GaborLattice
    generator: np.ndarray
    orbit_rank: int
    complement_basis: np.ndarray

    @property
    def dimension(self) -> int:
        return self.lat.L - self.orbit_rank

    def to_dict(self) -> dict:
        return {
            "orbit_rank": self.orbit_rank,
            "dimension": self.dimension,
            "complement_basis": [
                [[z.real, z.imag] for z in row] for row in self.complement_basis
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
    products = adjoint_products(lat, h, g)
    products[0, 0] -= lat.a * lat.b / lat.L
    return float(np.max(np.abs(products)))


def dual_conditions_walnut(lat: GaborLattice, g: np.ndarray, h: np.ndarray) -> float:
    """Cross-correlation residual, equivalent to the biorthogonality test.

    Builds Hk[k][x] = sum_n h(x - n*a) conj(g(x - n*a - k*q)) and returns
    the worst of |Hk[0] - b/L| and |Hk[k != 0]|.
    """
    table = cross_correlation_table(lat, h, g)
    residual = float(np.max(np.abs(table[0] - lat.b / lat.L)))
    if lat.b > 1:
        residual = max(residual, float(np.max(np.abs(table[1:]))))
    return residual


def dual_space(lat: GaborLattice, g: np.ndarray) -> DualSpace:
    """Orthonormal basis of the space of free parts of duals of g.

    Raises NotAFrameError (via the canonical dual) when g is not a frame.
    The rank of the adjoint-atom span is detected from singular values at
    the RANK_TOL relative threshold.
    """
    canonical_dual(lat, g)  # frame gate
    _, s, Vh = np.linalg.svd(np.conj(adjoint_atoms(lat, g)))
    rank = int(np.sum(s > RANK_TOL * s[0]))
    return DualSpace(
        lat=lat,
        generator=np.asarray(g, dtype=np.complex128),
        orbit_rank=rank,
        complement_basis=np.conj(Vh[rank:]),
    )


def make_alternate_dual(lat: GaborLattice, g: np.ndarray, coeffs) -> np.ndarray:
    """The dual window S^-1 g + sum_i coeffs[i] * complement_basis[i]."""
    space = dual_space(lat, g)
    coeffs = np.asarray(coeffs, dtype=np.complex128)
    if coeffs.shape != (space.dimension,):
        raise ValueError(
            f"expected {space.dimension} coefficients, got shape {coeffs.shape}"
        )
    return canonical_dual(lat, g) + coeffs @ space.complement_basis


def decompose_dual(lat: GaborLattice, g: np.ndarray, h: np.ndarray, tol: float = 1e-9) -> DualReport:
    """Split h against the affine description of the dual set.

    The free part h - S^-1 g lies in the adjoint-orbit complement exactly
    when h is a dual; <h - S^-1 g, g> = <h, g> - a*b/L vanishes then too.
    """
    require_length(lat, g, h)
    complement = dual_space(lat, g).complement_basis
    canonical = canonical_dual(lat, g)
    free = np.asarray(h, dtype=np.complex128) - canonical
    orbit_part = free - complement.T @ (np.conj(complement) @ free)
    in_complement = bool(np.linalg.norm(orbit_part) <= tol)
    wr = wexler_raz_check(lat, g, h)
    walnut = dual_conditions_walnut(lat, g, h)
    return DualReport(
        is_dual=wr <= tol and walnut <= tol and in_complement,
        wexler_raz_residual=wr,
        walnut_residual=walnut,
        canonical_part=canonical,
        free_part=free,
        free_part_in_complement=in_complement,
    )
