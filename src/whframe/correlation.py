"""Window correlation profiles over the shift lattice.

The central object is the table

    Gk[k][x] = sum_{n=0}^{N-1} g(x - n*a) * conj(g(x - n*a - k*q)),

the autocorrelation of the window along its translation lattice, evaluated
at the adjoint-lattice shifts k*q, k in [0, b). The shift k*q repeats mod L
with period b, so b rows capture every distinct lag exactly. The k = 0 row
is the lattice power profile; it is real, nonnegative and a-periodic.

Row k of the table is periodized_correlation(g, g, k*q, a), the fold of
g * conj(T_{kq} g) over period a, repeated N times; the table is built from
those b folds and holds no more memory than itself. Its period-a rows are
the length-a inverse DFTs of the adjoint products of the window's frame
analysis, which is where the Walnut bound and the energy split read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import _analysis
from .lattice import GaborLattice, as_signal, translate

__all__ = [
    "CorrelationProfile",
    "cross_correlation_table",
    "correlation_profile",
    "periodized_correlation",
    "walnut_upper_bound",
    "frame_energy_split",
    "wh_identity_terms",
]


@dataclass(frozen=True)
class CorrelationProfile:
    """Autocorrelation table of a window over its shift lattice.

    table has shape (b, L); row k holds Gk[k][x] for x in [0, L).
    Invariants (tested, exact up to roundoff): every row is a-periodic,
    row 0 is real and >= 0, and rows pair up under conjugation:
    Gk[(b-k) % b][(x - k*q) % L] == conj(Gk[k][x]).
    """

    lat: GaborLattice
    table: np.ndarray

    def to_csv(self) -> str:
        """Serialize as CSV with columns k,x,re,im,abs, one row per (k, x).

        Rows are k-major. Floats are written with repr (shortest
        round-trip form); negative zero is normalized to 0.0.
        """
        lines = ["k,x,re,im,abs"]
        for k in range(self.lat.b):
            for x in range(self.lat.L):
                v = complex(self.table[k, x])
                re, im, mag = v.real + 0.0, v.imag + 0.0, abs(v) + 0.0
                lines.append(f"{k},{x},{re!r},{im!r},{mag!r}")
        return "\n".join(lines) + "\n"


def cross_correlation_table(lat: GaborLattice, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Table of sum_n h(x - n*a) * conj(g(x - n*a - k*q)), shape (b, L): row k is
    periodized_correlation(h, g, k*q, a), tiled N times. O(b*L) work and memory."""
    h, g = as_signal(h, lat.L), as_signal(g, lat.L)
    return np.tile([_fold(h, g, k * lat.q, lat.a) for k in range(lat.b)], lat.N)


def correlation_profile(lat: GaborLattice, g: np.ndarray) -> CorrelationProfile:
    """Autocorrelation profile of g over the lattice (h = g case)."""
    return CorrelationProfile(lat, cross_correlation_table(lat, g, g))


def periodized_correlation(h: np.ndarray, g: np.ndarray, shift: int, fold_period: int) -> np.ndarray:
    """Fold the pointwise product h * conj(translate(g, shift)) to a period.

    output(r) = sum_j (h * conj(T_shift g))(r + j*fold_period) for
    j = 0 .. L/fold_period - 1. With shift = l*q and fold_period = a, a
    flat output (all entries equal) says exactly that h is orthogonal to
    every nontrivial p-step modulation of translate(g, l*q); the common
    entry is then inner(h, translate(g, shift)) / fold_period.
    """
    h = as_signal(h)
    L = len(h)
    g = as_signal(g, L)
    if fold_period < 1 or L % fold_period:
        raise ValueError(f"fold_period {fold_period} does not divide L={L}")
    return _fold(h, g, shift, fold_period)


def _fold(h: np.ndarray, g: np.ndarray, shift: int, fold_period: int) -> np.ndarray:
    """periodized_correlation of two checked signals."""
    return (h * np.conj(translate(g, shift))).reshape(-1, fold_period).sum(axis=0)


def walnut_upper_bound(lat: GaborLattice, g: np.ndarray) -> float:
    """Diagonal-sum estimate M * max_x sum_k |Gk[k][x]|.

    Always an upper bound for the optimal upper frame bound B (a Schur
    test on the frame operator's diagonal-sum form); it is attained when
    the off-diagonal rows vanish, e.g. for tight windows.
    """
    folds = np.fft.ifft(_analysis(lat, g).products(), axis=0)  # [s, k] is Gk[k][s]
    return float(lat.M * np.max(np.sum(np.abs(folds), axis=1)))


def frame_energy_split(lat: GaborLattice, g: np.ndarray, f: np.ndarray) -> tuple[float, complex]:
    """Split the coefficient energy sum_{m,n} |<f, atom_{m,n}>|^2 in two.

    Returns (F1, F2) with

        F1 = M * sum_x |f(x)|^2 * Gk[0][x]            (real),
        F2 = M * sum_{k != 0} sum_x conj(f(x)) f(x - k*q) Gk[k][x],

    where F1 + F2 equals the coefficient energy exactly. F2 is returned as
    a complex number; its imaginary part is pure roundoff because the
    k and b-k terms are conjugate. Both Gk and the lagged products of f
    are a-periodic folds, the inverse DFTs of the (g, g) and (f, f) adjoint
    products A, so by Parseval lag row k is (M/a) * sum_j A_gg[j, k] * conj(A_ff[j, k]).
    """
    A_gg = _analysis(lat, g).products()
    rows = lat.M / lat.a * np.sum(A_gg * np.conj(_analysis(lat, f).products()), axis=0)
    return float(rows[0].real), complex(np.sum(rows[1:]))


def wh_identity_terms(lat: GaborLattice, g: np.ndarray, f: np.ndarray) -> tuple[float, float]:
    """The two terms of the quadratic energy identity, as reals.

    F1 + F2 = sum_{m,n} |<f, atom_{m,n}>|^2; the imaginary part of the
    second term vanishes up to roundoff and is dropped here (use
    frame_energy_split to inspect it).
    """
    f1, f2 = frame_energy_split(lat, g, f)
    return f1, f2.real
