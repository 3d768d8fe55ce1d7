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
from those b folds and holds no more memory than itself. This is Walnut's
signal-domain route to the table and reads lattice alone; frame reads the
same period-a rows off the Zak blocks (the Walnut bound, the energy split).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lattice import GaborLattice, as_signal, translate

__all__ = ["CorrelationProfile", "cross_correlation_table", "correlation_profile"]


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

