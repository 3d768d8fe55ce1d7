"""Property tests over generated divisor lattices (Gaussian and tight windows).

The frame operator of g' = U g, for U a scalar, a time-frequency shift,
conjugation or the DFT (with the steps swapped), is U S U^-1 up to the
scale |s|^2, so the bounds, the frame gate and the tight verdict cannot
move. The paper's criteria (2), (3) and (5) are each equivalent to
normalized tightness, so each residual passes tol exactly when the
eigenvalue verdict says normalized tight.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from whframe import DEFAULT_TOL, classify, dft, random_tight_generator
from helpers import lattices

REL = 1e-9
PROPERTIES = settings(max_examples=120, deadline=None, derandomize=True, database=None)


def gaussian(L, center, width):
    """Cyclic Gaussian bump exp(-pi (x - center)^2 / width^2) on Z_L."""
    x = (np.arange(L) - center + L / 2) % L - L / 2
    return np.exp(-np.pi * (x / width) ** 2).astype(complex)


@st.composite
def instances(draw):
    """A lattice and either a Gaussian window or, where a*b <= L, a tight one."""
    lat = draw(lattices())
    if lat.a * lat.b <= lat.L and draw(st.booleans()):
        return lat, random_tight_generator(lat, draw(st.integers(0, 2**31 - 1)))
    center = draw(st.floats(0, lat.L, allow_nan=False))
    width = draw(st.floats(0.5, max(lat.L, 0.5), allow_nan=False))
    return lat, gaussian(lat.L, center, width)


def unitary_images(lat, g):
    """(lattice, window) pairs whose frame operator is unitarily similar to g's."""
    x = np.arange(lat.L)
    return {
        "shift": (lat, np.roll(g, 1)),
        "modulation": (lat, np.exp(2j * np.pi * x / lat.L) * g),
        "conjugation": (lat, np.conj(g)),
        "fourier": (lat.swapped(), dft(g)),
    }


def same_verdicts(report, base, scale=1.0):
    bounds, ref = report.bounds, base.bounds
    assert abs(bounds.A - scale * ref.A) <= REL * scale * ref.B
    assert abs(bounds.B - scale * ref.B) <= REL * scale * ref.B
    assert report.is_frame == base.is_frame
    assert (report.tight_constant is None) == (base.tight_constant is None)


@PROPERTIES
@given(instance=instances(),
       modulus=st.floats(1e-3, 1e3, allow_nan=False),
       angle=st.floats(0, 2 * np.pi, allow_nan=False))
def test_scaling_scales_bounds_and_keeps_verdicts(instance, modulus, angle):
    lat, g = instance
    s = modulus * np.exp(1j * angle)
    same_verdicts(classify(lat, s * g), classify(lat, g), scale=modulus**2)


@PROPERTIES
@given(instance=instances())
def test_unitary_images_keep_verdicts(instance):
    lat, g = instance
    base = classify(lat, g)
    for image_lat, image in unitary_images(lat, g).values():
        report = classify(image_lat, image)
        same_verdicts(report, base)
        assert report.normalized_tight == base.normalized_tight


@PROPERTIES
@given(instance=instances())
def test_criteria_agree_with_eigenvalue_verdict(instance):
    lat, g = instance
    for image_lat, image in [(lat, g), *unitary_images(lat, g).values()]:
        report = classify(image_lat, image, DEFAULT_TOL)
        for residual in (report.cond2_residual, report.cond3_residual, report.cond5_residual):
            assert (residual <= DEFAULT_TOL) == report.normalized_tight
