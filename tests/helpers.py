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
