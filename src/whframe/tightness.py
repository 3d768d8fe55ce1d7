"""Deciding tightness: four equivalent criteria plus density diagnostics.

A window g generates a normalized tight system (frame operator S = I) if
and only if any one of the following holds, and then all of them do:

  (2) the correlation profile is flat: Gk[0] == b/L everywhere and every
      other row vanishes;
  (3) g is orthogonal to every nontrivial adjoint-lattice atom of itself
      and norm_sq(g) == a*b/L;
  (4) the adjoint-lattice atoms of g form an orthogonal family and
      norm_sq(g) == a*b/L; by the phase identity
      <A_i g, A_j g> = phase * <g, A_{j-i} g> its residual is that of (3),
      and oracle_adjoint_gram is the independent check;
  (5) the system is a frame and S g = g.

Each check returns a residual; the criterion holds when the residual is at most the
tolerance. Criteria (2)-(4) are the h = g case of the two dual certificates: the
window's one frame analysis gives (2) the Walnut and (3)-(4) the Wexler-Raz residual
(_FrameAnalysis.residuals), and (5) its S g. classify() aggregates the residuals with
the frame bounds and the basis flags: the system is an orthonormal basis iff it is
normalized tight with a unit-norm window, and a frame is a Riesz basis iff it has
exactly L atoms (M*N == L, i.e. a*b == L).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import DEFAULT_TOL, FrameBounds, _analysis, _check_tol
from .lattice import GaborLattice, dft, norm_sq

__all__ = [
    "TightnessReport",
    "DensityReport",
    "check_cond_walnut",
    "check_cond_adjoint",
    "check_cond_orthogonal_system",
    "check_cond_fixed_point",
    "classify",
    "density_diagnostics",
    "fourier_dual_check",
]


@dataclass(frozen=True)
class TightnessReport:
    """Verdicts and residuals for one (lattice, window) pair.

    tight_constant is the common eigenvalue c when S == c*I within
    tolerance, else None; normalized_tight means c == 1 within tolerance,
    so it implies a tight_constant (FrameBounds' two rules). The four
    residuals correspond to the equivalent criteria listed in the module
    docstring and must agree with the bounds-based verdict.
    """

    bounds: FrameBounds
    is_frame: bool
    tight_constant: float | None
    normalized_tight: bool
    onb: bool
    riesz_basis: bool
    cond2_residual: float
    cond3_residual: float
    cond4_residual: float
    cond5_residual: float


@dataclass(frozen=True)
class DensityReport:
    """Identities every frame satisfies, reported with their residuals.

    The pairing of the canonical dual with the window is always the real
    constant a*b/L, and the canonical dual is orthogonal to every
    nontrivial adjoint atom. A frame forces a*b <= L, with equality
    exactly for Riesz bases.
    """

    dual_pairing: complex
    expected_pairing: float
    pairing_residual: float
    adjoint_residual: float
    riesz_basis: bool


def check_cond_walnut(lat: GaborLattice, g: np.ndarray) -> float:
    """Flat-profile residual |Gk[0] - b/L|, |Gk[k != 0]|: dual_conditions_walnut(g, g)."""
    return _analysis(lat, g).residuals()[1]


def check_cond_adjoint(lat: GaborLattice, g: np.ndarray) -> float:
    """Self-orthogonality residual plus the norm gap: wexler_raz_check(g, g)."""
    return _analysis(lat, g).residuals()[0]


# criterion (4): by the phase identity its residual is criterion (3)'s
check_cond_orthogonal_system = check_cond_adjoint


def check_cond_fixed_point(lat: GaborLattice, g: np.ndarray, tol: float = DEFAULT_TOL) -> float:
    """Fixed-point residual ||S g - g||_inf, floored at 1 for non-frames: classify's
    cond5_residual. S g = g alone does not rule out a singular S (the window can sit
    in a unit-eigenvalue eigenspace while S has a kernel). tol is checked but moves no
    residual: the gate is FRAME_FLOOR, as everywhere."""
    return classify(lat, g, tol).cond5_residual


def classify(lat: GaborLattice, g: np.ndarray, tol: float = DEFAULT_TOL) -> TightnessReport:
    """Full tightness report: bounds, all four residuals, basis flags.

    The tight and normalized tight verdicts are FrameBounds' rules. Criteria (2)-(4) are
    the residuals of the window's frame analysis.
    """
    _check_tol(tol)
    analysis = _analysis(lat, g)
    g, bounds = analysis.g, analysis.bounds
    is_frame = bounds.is_frame
    normalized_tight = bounds.normalized_tight(tol)
    onb = normalized_tight and abs(norm_sq(g) ** 0.5 - 1.0) <= tol
    adjoint, flat = analysis.residuals()  # criteria (3)-(4), (2)
    fixed_point = float(np.abs(analysis.apply() - g).max())
    return TightnessReport(
        bounds=bounds,
        is_frame=is_frame,
        tight_constant=bounds.tight_constant(tol),
        normalized_tight=normalized_tight,
        onb=onb,
        riesz_basis=is_frame and lat.is_critical,
        cond2_residual=flat,
        cond3_residual=adjoint,
        cond4_residual=adjoint,
        cond5_residual=fixed_point if is_frame else max(fixed_point, 1.0),
    )


def density_diagnostics(lat: GaborLattice, g: np.ndarray) -> DensityReport:
    """Frame identities around the canonical dual; raises for non-frames."""
    analysis = _analysis(lat, g)
    products = analysis.products(analysis.dual[0])
    pairing, expected = complex(products[0, 0]), lat.a * lat.b / lat.L
    return DensityReport(
        dual_pairing=pairing,
        expected_pairing=expected,
        pairing_residual=abs(pairing - expected),
        adjoint_residual=float(np.max(np.abs(products).ravel()[1:], initial=0.0)),
        riesz_basis=lat.is_critical,
    )


def fourier_dual_check(lat: GaborLattice, g: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    """Tightness transfers to the Fourier side with the steps swapped.

    Classifies (L, a, b) on g and (L, b, a) on dft(g) and returns whether
    the two normalized-tight verdicts agree (they always must: the DFT
    maps the atoms of one system onto the other's up to unit phases).
    """
    here = classify(lat, g, tol).normalized_tight
    there = classify(lat.swapped(), dft(g), tol).normalized_tight
    return here == there
