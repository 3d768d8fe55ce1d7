"""Constructing tight generators, exactly at critical density and by
orthogonalization elsewhere.

At critical density (a*b == L) the window decouples into the a residue
subsequences z_y(n) = g(y + n*a), n in [0, N), N = b. The system is
normalized tight iff every z_y is orthogonal to all of its proper cyclic
shifts with squared norm b/L (criterion (3), tightness.check_cond_adjoint),
iff every z_y has a flat unitary DFT with modulus L**-0.5 per bin (the test
phases_from_tight_generator makes). That makes the full set of tight
generators an explicit family: pick any real phase array phi[y][j] (in
cycles), set

    w_y(j) = L**-0.5 * exp(2*pi*i*phi[y][j]),   z_y = unitary-IDFT(w_y),

and interleave the z_y back into g. Phase extraction inverts this, so the
parametrization is complete as well as sound. Both directions are one np.fft
call over the a residue rows. The w_y are frame's 1 x 1 Zak blocks (c = a,
d = b) in another order, where the Zak pair's gather W and its inverse cancel.

Below critical density there is no such closed form; random tight windows
are produced by drawing a Gaussian window and applying the canonical
tightening map S^-1/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import LatticeError, NotAFrameError, NotTightError
from .frame import DEFAULT_TOL, tighten
from .lattice import GaborLattice, as_signal

__all__ = [
    "PhaseSpec",
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


def tight_generator_from_phases(spec: PhaseSpec) -> np.ndarray:
    """Build the tight generator a phase array encodes.

    For each residue y: spectrum w_y(j) = L**-0.5 * exp(2*pi*i*phi[y][j]),
    z_y = unitary inverse DFT of w_y, and g(y + n*a) = z_y(n). The result
    is always normalized tight with norm_sq(g) == 1.
    """
    rows = np.exp(2j * np.pi * spec.phases) / np.sqrt(spec.lat.L)  # row y: w_y
    return np.fft.ifft(rows, axis=1, norm="ortho").T.reshape(spec.lat.L)


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
    # row y: w_y, the unitary DFT of z_y(n) = g(y + n*a)
    spectra = np.fft.fft(as_signal(g, lat.L).reshape(lat.N, lat.a).T, axis=1, norm="ortho")
    deviation = float(np.max(np.abs(np.abs(spectra) - lat.L ** -0.5)))
    if deviation > tol:
        raise NotTightError(
            f"residue spectrum modulus off by {deviation:.3e} (tol {tol:.1e}); "
            "window is not a normalized tight generator"
        )
    return PhaseSpec(lat, np.mod(np.angle(spectra) / (2 * np.pi), 1.0))


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
