"""as_signal is the one gate for signals: every library entry point that
takes a signal rejects NaN, +-inf, a wrong length and an (L, 1) array with
the same ValueError the CLI reports, instead of computing NaN verdicts.
"""

import inspect

import numpy as np
import pytest

import whframe as wf
from whframe import GaborLattice, oracle
from helpers import random_signal

LAT = GaborLattice(12, 2, 3)  # oversampled frame lattice: W has dimension 6
CRIT = GaborLattice(12, 3, 4)  # critical, for the phase extraction
L, DIM = LAT.L, LAT.L - LAT.a * LAT.b

# name: (call on the signals, length of each signal)
ENTRY_POINTS = {
    "frame_operator": (lambda g: wf.frame_operator(LAT, g), [L]),
    "walnut_apply": (lambda g, f: wf.walnut_apply(LAT, g, f), [L, L]),
    "frame_bounds": (lambda g: wf.frame_bounds(LAT, g), [L]),
    "canonical_dual": (lambda g: wf.canonical_dual(LAT, g), [L]),
    "tighten": (lambda g: wf.tighten(LAT, g), [L]),
    "reconstruct": (lambda g, h, f: wf.reconstruct(LAT, g, h, f), [L, L, L]),
    "norm_audit": (lambda g: wf.norm_audit(LAT, g), [L]),
    "check_cond_walnut": (lambda g: wf.check_cond_walnut(LAT, g), [L]),
    "check_cond_adjoint": (lambda g: wf.check_cond_adjoint(LAT, g), [L]),
    "check_cond_orthogonal_system": (lambda g: wf.check_cond_orthogonal_system(LAT, g), [L]),
    "check_cond_fixed_point": (lambda g: wf.check_cond_fixed_point(LAT, g), [L]),
    "classify": (lambda g: wf.classify(LAT, g), [L]),
    "density_diagnostics": (lambda g: wf.density_diagnostics(LAT, g), [L]),
    "fourier_dual_check": (lambda g: wf.fourier_dual_check(LAT, g), [L]),
    "wexler_raz_check": (lambda g, h: wf.wexler_raz_check(LAT, g, h), [L, L]),
    "dual_conditions_walnut": (lambda g, h: wf.dual_conditions_walnut(LAT, g, h), [L, L]),
    "dual_space": (lambda g: wf.dual_space(LAT, g), [L]),
    "make_alternate_dual": (lambda g, c: wf.make_alternate_dual(LAT, g, c), [L, DIM]),
    "decompose_dual": (lambda g, h: wf.decompose_dual(LAT, g, h), [L, L]),
    "cross_correlation_table": (lambda h, g: wf.cross_correlation_table(LAT, h, g), [L, L]),
    "correlation_profile": (lambda g: wf.correlation_profile(LAT, g), [L]),
    "walnut_upper_bound": (lambda g: wf.walnut_upper_bound(LAT, g), [L]),
    "frame_energy_split": (lambda g, f: wf.frame_energy_split(LAT, g, f), [L, L]),
    "phases_from_tight_generator": (lambda g: wf.phases_from_tight_generator(CRIT, g), [L]),
    "gabor_atom": (lambda g: wf.gabor_atom(LAT, g, 1, 2), [L]),
    "adjoint_atom": (lambda g: wf.adjoint_atom(LAT, g, 1, 2), [L]),
    "analysis_array": (lambda g: oracle.analysis_array(LAT, g), [L]),
    "oracle_frame_bounds": (lambda g: oracle.oracle_frame_bounds(LAT, g), [L]),
    "oracle_is_dual": (lambda g, h: oracle.oracle_is_dual(LAT, g, h), [L, L]),
    "oracle_tight_constant": (lambda g: oracle.oracle_tight_constant(LAT, g), [L]),
    "oracle_adjoint_gram": (lambda g: oracle.oracle_adjoint_gram(LAT, g), [L]),
}

SIGNAL_PARAMETERS = {"g", "h", "f", "z", "coeffs"}


def clean_signals(name):
    rng = np.random.default_rng(len(name))
    if name == "phases_from_tight_generator":
        return [wf.random_tight_generator(CRIT, 0)]
    return [random_signal(rng, n) for n in ENTRY_POINTS[name][1]]


def defective(signal, defect):
    if defect == "length":
        return np.append(signal, signal[:1])
    if defect == "column":
        return signal.reshape(-1, 1)
    bad = signal.copy()
    bad[1] = {"nan": np.nan, "inf": np.inf, "-inf": -np.inf}[defect]
    return bad


def test_every_entry_point_is_listed():
    # a new public function that takes a signal must join the gate test
    public = [(name, getattr(wf, name)) for name in wf.__all__]
    public += [(name, getattr(oracle, name)) for name in oracle.__all__]
    takes_signal = {name for name, fn in public if inspect.isfunction(fn)
                    and SIGNAL_PARAMETERS & set(inspect.signature(fn).parameters)}
    assert takes_signal == set(ENTRY_POINTS)


@pytest.mark.parametrize("name", sorted(ENTRY_POINTS))
def test_clean_signals_pass_the_gate(name):
    call, _ = ENTRY_POINTS[name]
    call(*clean_signals(name))


@pytest.mark.parametrize("name,position,defect", [
    (name, i, defect)
    for name, (_, lengths) in sorted(ENTRY_POINTS.items())
    for i in range(len(lengths))
    for defect in ("nan", "inf", "-inf", "length", "column")
])
def test_defective_signal_is_rejected(name, position, defect):
    call, _ = ENTRY_POINTS[name]
    signals = clean_signals(name)
    signals[position] = defective(signals[position], defect)
    with pytest.raises(ValueError, match="^signal ") as caught:
        call(*signals)
    assert type(caught.value) is ValueError  # the gate's error, not a verdict
