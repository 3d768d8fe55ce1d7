"""Cyclic time-frequency lattices, signals, and the elementary operators.

Everything lives on the cyclic group Z_L. A lattice is a pair of steps
(a, b), both dividing L: translations advance by a samples, modulations by
b frequency bins. Signals are plain 1-d complex numpy arrays of length L;
as_signal is the one gate every signal passes on its way into the library,
and it rejects wrong shapes, wrong lengths and non-finite entries.

The adjoint lattice swaps the roles of the steps: its translations move by
q = L/b samples and its modulations by p = L/a bins. Inner products are
conjugate-linear in the second argument, and the DFT is unitary, so
Parseval holds with no extra constants.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import LatticeError

__all__ = [
    "GaborLattice",
    "as_signal",
    "translate",
    "modulate",
    "gabor_atom",
    "adjoint_atom",
    "dft",
    "inner",
    "norm_sq",
]


@dataclass(frozen=True)
class GaborLattice:
    """Time-frequency lattice on Z_L with shift step a and modulation step b.

    Derived quantities:
        N = L/a   number of translates
        M = L/b   number of modulations
        q = L/b   adjoint translation step (samples)
        p = L/a   adjoint modulation step (bins)
        density = a*b/L, exact rational; the system has M*N = L^2/(a*b)
        atoms, so there are at least L atoms iff density <= 1.
    """

    L: int
    a: int
    b: int

    def __post_init__(self):
        for name in ("L", "a", "b"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool) or v < 1:
                raise LatticeError(f"{name} must be a positive integer, got {v!r}")
            object.__setattr__(self, name, int(v))  # np.integer in, int out
        if self.a > self.L or self.L % self.a:
            raise LatticeError(f"shift step a={self.a} must divide L={self.L}")
        if self.b > self.L or self.L % self.b:
            raise LatticeError(f"modulation step b={self.b} must divide L={self.L}")

    @property
    def N(self) -> int:
        return self.L // self.a

    @property
    def M(self) -> int:
        return self.L // self.b

    q = M  # the adjoint translation step L/b
    p = N  # the adjoint modulation step L/a

    @property
    def density(self) -> Fraction:
        return Fraction(self.a * self.b, self.L)

    @property
    def atom_count(self) -> int:
        return self.M * self.N

    @property
    def is_critical(self) -> bool:
        return self.a * self.b == self.L

    def swapped(self) -> "GaborLattice":
        """The lattice with the roles of a and b exchanged (Fourier side)."""
        return GaborLattice(self.L, self.b, self.a)

    def adjoint(self) -> "GaborLattice":
        """The adjoint lattice (L, q, p), whose atoms are the adjoint atoms E_{kp} T_{lq} g."""
        return GaborLattice(self.L, self.q, self.p)


def as_signal(values, L: int | None = None) -> np.ndarray:
    """Coerce to a 1-d complex128 array, checking finiteness and length."""
    s = np.asarray(values, dtype=np.complex128)
    if s.ndim != 1:
        raise ValueError(f"signal must be one-dimensional, got shape {s.shape}")
    if L is not None and s.shape[0] != L:
        raise ValueError(f"signal has length {s.shape[0]}, expected {L}")
    if not np.isfinite(s).all():
        raise ValueError("signal contains non-finite entries")
    return s


def translate(s: np.ndarray, t: int) -> np.ndarray:
    """Cyclic shift by t samples: output(x) = s(x - t mod L)."""
    return np.roll(s, t)


def modulate(s: np.ndarray, m: int, lat: GaborLattice) -> np.ndarray:
    """Multiply by the m-th lattice character: exp(2*pi*i*m*b*x/L) * s(x)."""
    x = np.arange(lat.L)
    return np.exp(2j * np.pi * m * lat.b * x / lat.L) * np.asarray(s, dtype=np.complex128)


def gabor_atom(lat: GaborLattice, g: np.ndarray, m: int, n: int) -> np.ndarray:
    """The (m, n) lattice atom: modulate by m after translating by n*a.

    Indices are periodic (period M in m, N in n) and are reduced into the
    canonical ranges, so any integers are accepted.
    """
    return modulate(translate(as_signal(g, lat.L), n % lat.N * lat.a), m % lat.M, lat)


def adjoint_atom(lat: GaborLattice, g: np.ndarray, k: int, l: int) -> np.ndarray:
    """The (k, l) atom E_{kp} T_{lq} g of the adjoint lattice (L, q, p).

    output(x) = exp(2*pi*i*k*p*x/L) * g(x - l*q). Indices reduce mod a and
    mod b respectively.
    """
    adj = lat.adjoint()
    return modulate(translate(as_signal(g, lat.L), l % adj.N * adj.a), k % adj.M, adj)


def dft(s: np.ndarray) -> np.ndarray:
    """Unitary DFT: output(j) = L**-0.5 * sum_x s(x) exp(-2*pi*i*j*x/L)."""
    return np.fft.fft(np.asarray(s, dtype=np.complex128), norm="ortho")


def inner(s1: np.ndarray, s2: np.ndarray) -> complex:
    """Inner product, conjugate-linear in the second argument."""
    return complex(np.vdot(s2, s1))


def norm_sq(s: np.ndarray) -> float:
    """Squared Euclidean norm."""
    return float(np.vdot(s, s).real)
