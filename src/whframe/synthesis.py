"""Constructing tight generators, exactly at critical density and by
orthogonalization elsewhere.

At critical density (a*b == L) the window decouples into the a residue
subsequences z_y(n) = g(y + n*a), n in [0, N), N = b. The system is
normalized tight iff every z_y is orthogonal to all of its proper cyclic
shifts with squared norm b/L, iff every z_y has a flat unitary DFT with
modulus L**-0.5 per bin. That makes the full set of tight generators an
explicit family: pick any real phase array phi[y][j] (in cycles), set

    w_y(j) = L**-0.5 * exp(2*pi*i*phi[y][j]),   z_y = unitary-IDFT(w_y),

and interleave the z_y back into g. Phase extraction inverts this, so the
parametrization is complete as well as sound.

Below critical density there is no such closed form; random tight windows
are produced by drawing a Gaussian window and applying the canonical
tightening map S^-1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LatticeError, NotAFrameError, NotTightError
from .frame import DEFAULT_TOL, tighten
from .lattice import GaborLattice, as_signal, norm_sq

__all__ = [
    "PhaseSpec",
    "shift_orthogonality_residual",
    "flat_spectrum_residual",
    "tight_generator_from_phases",
    "phases_from_tight_generator",
    "random_tight_generator",
]


@dataclass(frozen=True)
class PhaseSpec:
    """Phase array parametrizing a tight generator at critical density.

    phases has shape (a, b): row y gives the spectral phases of the y-th
    residue subsequence, in cycles (units of full turns, stored mod 1).
    """

    lat: GaborLattice
    phases: np.ndarray

    def __post_init__(self):
        if not self.lat.is_critical:
            raise LatticeError(
                f"phase parametrization needs a*b == L, got "
                f"{self.lat.a}*{self.lat.b} != {self.lat.L}"
            )
        phases = np.asarray(self.phases, dtype=float)
        if phases.shape != (self.lat.a, self.lat.b):
            raise ValueError(
                f"phases must have shape ({self.lat.a}, {self.lat.b}), "
                f"got {phases.shape}"
            )
        if not np.all(np.isfinite(phases)):
            raise ValueError("phases contain non-finite entries")
        object.__setattr__(self, "phases", phases)

    def to_dict(self) -> dict:
        return {
            "L": self.lat.L,
            "a": self.lat.a,
            "b": self.lat.b,
            "phases": self.phases.tolist(),
        }


def shift_orthogonality_residual(z: np.ndarray, target_norm_sq: float) -> float:
    """How far z is from being orthogonal to its proper cyclic shifts.

    Worst |<z, roll(z, s)>| over s = 1 .. N-1, combined with the gap
    |norm_sq(z) - target_norm_sq|. The products are the cyclic autocorrelation
    of z, one inverse DFT of |DFT z|^2 (Wiener-Khinchin).
    """
    z = as_signal(z)
    products = np.fft.ifft(np.abs(np.fft.fft(z)) ** 2)[1:]
    return float(max(abs(norm_sq(z) - target_norm_sq), np.max(np.abs(products), initial=0.0)))


def flat_spectrum_residual(z: np.ndarray, flat_value: float) -> float:
    """Worst deviation of |unitary-DFT(z)|^2 from flat_value.

    Zero here with flat_value v is equivalent to a zero
    shift_orthogonality_residual with target N*v.
    """
    spectrum = np.fft.fft(as_signal(z), norm="ortho")
    return float(np.max(np.abs(np.abs(spectrum) ** 2 - flat_value)))


def tight_generator_from_phases(spec: PhaseSpec) -> np.ndarray:
    """Build the tight generator a phase array encodes.

    For each residue y: spectrum w_y(j) = L**-0.5 * exp(2*pi*i*phi[y][j]),
    z_y = unitary inverse DFT of w_y, and g(y + n*a) = z_y(n). The result
    is always normalized tight with norm_sq(g) == 1.
    """
    lat = spec.lat
    spectra = np.exp(2j * np.pi * spec.phases) / np.sqrt(lat.L)
    rows = np.fft.ifft(spectra, axis=1, norm="ortho")
    return rows.T.reshape(lat.L)  # g(y + n*a) = rows[y][n]


def phases_from_tight_generator(lat: GaborLattice, g: np.ndarray,
                                tol: float = DEFAULT_TOL) -> PhaseSpec:
    """Recover the phase array of a tight generator at critical density.

    Raises NotTightError if any residue spectrum modulus deviates from
    L**-0.5 by more than tol. Phases are returned mod 1, so round trips
    reproduce g but not necessarily the original phase representatives.
    """
    if not lat.is_critical:
        raise LatticeError(
            f"phase extraction needs a*b == L, got {lat.a}*{lat.b} != {lat.L}"
        )
    rows = as_signal(g, lat.L).reshape(lat.N, lat.a).T  # z_y(n) = g(y + n*a)
    spectra = np.fft.fft(rows, axis=1, norm="ortho")
    deviation = float(np.max(np.abs(np.abs(spectra) - lat.L ** -0.5)))
    if deviation > tol:
        raise NotTightError(
            f"residue spectrum modulus off by {deviation:.3e} (tol {tol:.1e}); "
            "window is not a normalized tight generator"
        )
    phases = np.mod(np.angle(spectra) / (2 * np.pi), 1.0)
    return PhaseSpec(lat, phases)


def random_tight_generator(lat: GaborLattice, seed: int) -> np.ndarray:
    """Seeded random tight generator for any lattice with a*b <= L.

    Critical lattices use the phase parametrization with uniform phases;
    oversampled lattices tighten one complex Gaussian draw. A Gaussian
    window is a frame with probability 1; if a draw ever failed the frame
    gate, tighten would raise NotAFrameError.
    """
    if lat.a * lat.b > lat.L:
        raise NotAFrameError(
            f"no tight generator exists at density {lat.a * lat.b}/{lat.L} > 1"
        )
    rng = np.random.default_rng(seed)
    if lat.is_critical:
        return tight_generator_from_phases(PhaseSpec(lat, rng.random((lat.a, lat.b))))
    return tighten(lat, rng.standard_normal(lat.L) + 1j * rng.standard_normal(lat.L))
