"""Shared random-instance generators for the test suite."""

import numpy as np
from hypothesis import strategies as st

from whframe import GaborLattice, frame_bounds, random_tight_generator
from whframe.oracle import analysis_array

SIZES = (4, 6, 8, 12, 16)


def divisors(L):
    return [d for d in range(1, L + 1) if L % d == 0]


def lattice_pool(sizes=SIZES, max_density=None):
    """All (L, a, b) with a, b | L, optionally capped at density a*b/L."""
    pool = []
    for L in sizes:
        for a in divisors(L):
            for b in divisors(L):
                if max_density is None or a * b <= max_density * L:
                    pool.append(GaborLattice(L, a, b))
    return pool


@st.composite
def lattices(draw, max_L=48):
    """Hypothesis strategy: any (L, a, b) with L <= max_L and a, b | L."""
    L = draw(st.integers(1, max_L))
    return GaborLattice(L, draw(st.sampled_from(divisors(L))), draw(st.sampled_from(divisors(L))))


def oracle_operator(lat, g):
    """Dense frame operator from the oracle's analysis array: S = C^H C."""
    arr = analysis_array(lat, g)
    return np.conj(arr.T) @ arr


def random_lattice(rng, sizes=SIZES, max_density=None):
    pool = lattice_pool(sizes, max_density)
    return pool[rng.integers(len(pool))]


def random_signal(rng, L, normalize=False):
    s = rng.standard_normal(L) + 1j * rng.standard_normal(L)
    if normalize:
        s /= np.linalg.norm(s)
    return s


def random_frame(rng, sizes=SIZES, min_conditioning=1e-6):
    """A lattice with density <= 1 plus a unit-norm window that is a frame."""
    while True:
        lat = random_lattice(rng, sizes, max_density=1)
        g = random_signal(rng, lat.L, normalize=True)
        bounds = frame_bounds(lat, g)
        if bounds.A > min_conditioning * bounds.B:
            return lat, g


def critical_lattices(sizes=SIZES):
    return [lat for lat in lattice_pool(sizes) if lat.is_critical]


def oversampled_lattices(sizes=SIZES):
    return [lat for lat in lattice_pool(sizes, max_density=1) if not lat.is_critical]


def random_tight_instance(rng, sizes=SIZES):
    """A random tight window, phase-built at critical density or tightened."""
    lat = random_lattice(rng, sizes, max_density=1)
    return lat, random_tight_generator(lat, int(rng.integers(2 ** 31)))


# (A - 1, B - 1) in units of tol, A <= B: the band around the tight rule B - A <= tol * B
# and its normalized form |c - 1| <= tol, c = (A + B)/2, in which the endpoint rule
# |A - 1|, |B - 1| <= tol and a residue modulus test ||w| - L**-0.5| <= tol disagree with it
BAND = (-3, -1.5, -0.9, -0.5, 0, 0.2, 0.5, 0.9, 1.15, 1.5, 3)
BAND_PAIRS = [(x, y) for i, x in enumerate(BAND) for y in BAND[i:]]


def band_windows(lat, tol):
    """(case, window) for every pair in BAND_PAIRS: a critical window whose frame bounds are
    A = 1 + x*tol and B = 1 + y*tol. At a*b = L the eigenvalues of S are L |w_y(j)|^2 over
    the residue spectra w_y, so one bin sets A, one B, and the rest sit at 1 clipped to [A, B]."""
    rng = np.random.default_rng(lat.L)
    for x, y in BAND_PAIRS:
        A, B = 1 + x * tol, 1 + y * tol
        eig = np.full(lat.L, min(max(1.0, A), B))
        eig[:2] = A, B
        eig = rng.permutation(eig).reshape(lat.a, lat.b)
        spectra = np.sqrt(eig / lat.L) * np.exp(2j * np.pi * rng.random(eig.shape))
        yield (x, y), np.fft.ifft(spectra, axis=1, norm="ortho").T.reshape(lat.L)
