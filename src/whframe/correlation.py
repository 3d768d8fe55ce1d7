"""Window correlation profiles over the shift lattice.

The central object is the table

    Gk[k][x] = sum_{n=0}^{N-1} g(x - n*a) * conj(g(x - n*a - k*q)),

the autocorrelation of the window along its translation lattice, evaluated
at the adjoint-lattice shifts k*q, k in [0, b). The shift k*q repeats mod L
with period b, so b rows capture every distinct lag exactly. The k = 0 row
is the lattice power profile; it is real, nonnegative and a-periodic.

Row k of the table is _fold(g, g, k*q, a), the periodized correlation of g
and T_{kq} g: g * conj(T_{kq} g) folded to period a, repeated N times, so
one period of a row, table[k, :a], is the whole fold. The table is built
from those b folds and holds no more memory than itself. Its period-a rows
are the Walnut table of the window's frame analysis, read off the Zak
blocks, which is where the Walnut bound and the energy split read them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import _analysis, _ct, _forward, _walnut
from .lattice import GaborLattice, as_signal, translate

__all__ = [
    "CorrelationProfile",
    "cross_correlation_table",
    "correlation_profile",
    "walnut_upper_bound",
    "frame_energy_split",
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


def cross_correlation_table(lat: GaborLattice, h: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Table of sum_n h(x - n*a) * conj(g(x - n*a - k*q)), shape (b, L): row k is
    _fold(h, g, k*q, a), tiled N times. O(b*L) work and memory."""
    h, g = as_signal(h, lat.L), as_signal(g, lat.L)
    return np.tile([_fold(h, g, k * lat.q, lat.a) for k in range(lat.b)], lat.N)


def correlation_profile(lat: GaborLattice, g: np.ndarray) -> CorrelationProfile:
    """Autocorrelation profile of g over the lattice (h = g case)."""
    return CorrelationProfile(lat, cross_correlation_table(lat, g, g))


def _fold(h: np.ndarray, g: np.ndarray, shift: int, fold_period: int) -> np.ndarray:
    """The periodized correlation of two checked signals: h * conj(translate(g, shift))
    folded to a period dividing L, output(r) = sum_j (h * conj(T_shift g))(r + j*fold_period).
    With shift = l*q and fold_period = a, a flat output says exactly that h is orthogonal
    to every nontrivial p-step modulation of translate(g, l*q); the common entry is then
    inner(h, translate(g, shift)) / a."""
    return (h * np.conj(translate(g, shift))).reshape(-1, fold_period).sum(axis=0)


def walnut_upper_bound(lat: GaborLattice, g: np.ndarray) -> float:
    """Diagonal-sum estimate M * max_x sum_k |Gk[k][x]|.

    Always an upper bound for the optimal upper frame bound B (a Schur
    test on the frame operator's diagonal-sum form); it is attained when
    the off-diagonal rows vanish, e.g. for tight windows.
    """
    table = _analysis(lat, g).walnut()  # [s, k] is Gk[k][s]
    return float(lat.M * np.max(np.sum(np.abs(table), axis=1)))


def frame_energy_split(lat: GaborLattice, g: np.ndarray, f: np.ndarray) -> tuple[float, complex]:
    """Split the coefficient energy sum_{m,n} |<f, atom_{m,n}>|^2 in two.

    Returns (F1, F2) with

        F1 = M * sum_x |f(x)|^2 * Gk[0][x]            (real),
        F2 = M * sum_{k != 0} sum_x conj(f(x)) f(x - k*q) Gk[k][x],

    where F1 + F2 equals the coefficient energy exactly. F2 is returned as
    a complex number; its imaginary part is pure roundoff because the
    k and b-k terms are conjugate. Both Gk and the lagged products of f
    are a-periodic folds, the (g, g) and (f, f) Walnut tables G, so summing
    over one period, lag row k is M * sum_s G_gg[s, k] * conj(G_ff[s, k]).
    G_ff is read off f's Zak blocks: f is a probe, not a window, so it gets no analysis.
    """
    G_gg = _analysis(lat, g).walnut()
    Zf = _forward(lat, as_signal(f, lat.L))
    rows = lat.M * np.sum(G_gg * np.conj(_walnut(lat, Zf @ _ct(Zf))), axis=0)
    return float(rows[0].real), complex(np.sum(rows[1:]))
