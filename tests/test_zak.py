"""The Zak-block kernel: properties over generated lattices, its memory
bound, and one kernel build per window in the library and the CLI.

Every frame quantity reads the p x q_w Zak blocks of one _FrameAnalysis;
the brute-force oracle shares none of that code.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whframe import (
    GaborLattice,
    NotAFrameError,
    adjoint_atom,
    canonical_dual,
    classify,
    decompose_dual,
    density_diagnostics,
    dual_conditions_walnut,
    dual_space,
    frame_bounds,
    inner,
    make_alternate_dual,
    reconstruct,
    tighten,
    walnut_apply,
    wexler_raz_check,
)
from whframe import correlation
from whframe.cli import main
from whframe.frame import _FrameAnalysis
from whframe.oracle import (
    analysis_array,
    oracle_frame_bounds,
    oracle_is_dual,
    oracle_tight_constant,
)
from helpers import lattices, oracle_operator, random_signal

REL = 1e-9


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(lat=lattices(), seed=st.integers(0, 2**32 - 1))
@example(lat=GaborLattice(1, 1, 1), seed=0)
@example(lat=GaborLattice(12, 1, 1), seed=1)
@example(lat=GaborLattice(24, 6, 8), seed=2)  # over-dense
def test_zak_kernel_against_oracle(lat, seed):
    rng = np.random.default_rng(seed)
    g, h, f = random_signal(rng, lat.L), random_signal(rng, lat.L), random_signal(rng, lat.L)
    analysis = _FrameAnalysis(lat, g)
    assert np.max(np.abs(analysis.inverse(analysis.forward(f)) - f)) <= 1e-12 * np.max(np.abs(f))
    loop = np.array([[inner(h, adjoint_atom(lat, g, k, l)) for l in range(lat.b)]
                     for k in range(lat.a)])
    assert np.max(np.abs(analysis.products(h) - loop)) <= 1e-12 * np.max(np.abs(loop))
    Sf = oracle_operator(lat, g) @ f
    assert np.max(np.abs(walnut_apply(lat, g, f) - Sf)) <= REL * np.max(np.abs(Sf))
    mixed = np.conj(analysis_array(lat, g).T) @ (analysis_array(lat, h) @ f)
    assert np.max(np.abs(reconstruct(lat, g, h, f) - mixed)) <= REL * np.max(np.abs(mixed))
    fast, slow = analysis.bounds, oracle_frame_bounds(lat, g)
    assert abs(fast.A - slow.A) <= REL * slow.B
    assert abs(fast.B - slow.B) <= REL * slow.B
    if lat.a * lat.b > lat.L:  # fewer atoms than L: S has a kernel
        assert fast.A == slow.A == 0.0
    if not fast.is_frame:
        with pytest.raises(NotAFrameError):
            canonical_dual(lat, g)
        with pytest.raises(NotAFrameError):
            tighten(lat, g)
        return
    assert oracle_is_dual(lat, g, canonical_dual(lat, g))
    assert oracle_tight_constant(lat, tighten(lat, g)) == pytest.approx(1.0, rel=REL)


@pytest.mark.parametrize("L,a,b", [(12, 4, 6), (16, 8, 4), (48, 8, 12), (24, 6, 8)])
def test_over_dense_lower_bound_is_exactly_zero(L, a, b):
    # p > q_w: the p x p Gram blocks have rank q_w, and their smallest
    # eigenvalue comes out as roundoff of either sign
    lat = GaborLattice(L, a, b)
    rng = np.random.default_rng(L)
    assert all(frame_bounds(lat, random_signal(rng, L)).A == 0.0 for _ in range(300))


def traced_peak(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("a,b", [(960, 960), (480, 960)])
def test_over_dense_bounds_skip_the_large_gram(a, b):
    # one and two atoms: p = 960 and 480 with q_w = 1, so the p x p Gram
    # blocks would hold up to 14.1 MiB and their eigh take up to a second;
    # S f and the mixed product multiply through the q_w x q_w side too
    lat = GaborLattice(960, a, b)
    rng = np.random.default_rng(a)
    g, h, f = (random_signal(rng, lat.L) for _ in range(3))
    for call in (lambda: frame_bounds(lat, g), lambda: walnut_apply(lat, g, f),
                 lambda: reconstruct(lat, g, h, f)):
        assert traced_peak(call) < 64 * lat.L * 16
    fast, slow = frame_bounds(lat, g), oracle_frame_bounds(lat, g)
    assert fast.A == slow.A == 0.0
    assert abs(fast.B - slow.B) <= REL * slow.B


@pytest.mark.parametrize("fn", [frame_bounds, canonical_dual, tighten, reconstruct,
                                dual_space, make_alternate_dual, classify, wexler_raz_check,
                                dual_conditions_walnut, decompose_dual, density_diagnostics])
def test_kernel_memory_is_linear(fn):
    # 64 complex values per sample; b x b Walnut blocks alone would take 14.7 MB,
    # reconstruct's N x L translate stack 14.1 MB, the residue-class QR
    # of the dual space peaked at 70.9 MiB, and the (b, L) lag gather behind
    # classify and the dual certificates at 49.4 MiB
    lat = GaborLattice(1920, 2, 480)
    rng = np.random.default_rng(14)
    windows = {reconstruct: 3, wexler_raz_check: 2, dual_conditions_walnut: 2, decompose_dual: 2}
    args = [random_signal(rng, lat.L) for _ in range(windows.get(fn, 1))]
    if fn is make_alternate_dual:
        args.append(random_signal(rng, lat.L - lat.a * lat.b))
    assert traced_peak(lambda: fn(lat, *args)) < 64 * lat.L * 16


@pytest.mark.parametrize("a", [960, 480])
def test_over_dense_classify_stays_below_the_lag_gather(a):
    # one and two atoms: the adjoint products and the p x p cross-Gram blocks
    # hold a*b entries each (14.1 MiB at a = 960); the (b, L) lag gather
    # they replace peaked at 49.4 MiB here
    lat = GaborLattice(960, a, 960)
    g = random_signal(np.random.default_rng(a), lat.L)
    assert traced_peak(lambda: classify(lat, g)) < 49.4 * 2**20


@pytest.mark.parametrize("a,b", [(2, 480), (8, 120)])
def test_profile_holds_no_more_than_its_table(a, b):
    # the rows are b periodized correlations written into the table; the
    # (b, L) lag gather they replace peaked at 3.5 times the table
    lat = GaborLattice(1920, a, b)
    g = random_signal(np.random.default_rng(b), lat.L)
    assert traced_peak(lambda: correlation.correlation_profile(lat, g)) < 1.25 * lat.b * lat.L * 16


@pytest.fixture
def builds(monkeypatch):
    """Lattices of every _FrameAnalysis built, and the count of (b, L)
    correlation tables, which only the profile takes."""
    seen = {"lattices": [], "tables": 0}
    init, table = _FrameAnalysis.__init__, correlation.cross_correlation_table

    def counting_init(self, lat, g):
        seen["lattices"].append(lat)
        init(self, lat, g)

    def counting_table(*args):
        seen["tables"] += 1
        return table(*args)

    monkeypatch.setattr(_FrameAnalysis, "__init__", counting_init)
    monkeypatch.setattr(correlation, "cross_correlation_table", counting_table)
    return seen


def test_classify_builds_one_analysis_and_no_table(builds):
    lat = GaborLattice(48, 4, 6)
    classify(lat, random_signal(np.random.default_rng(15), lat.L))
    assert builds == {"lattices": [lat], "tables": 0}


def test_decompose_dual_builds_one_analysis_and_no_table(builds):
    # both certificates read the (h, g) adjoint products of the one analysis
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(17)
    g = random_signal(rng, lat.L)
    h = make_alternate_dual(lat, g, random_signal(rng, lat.L - lat.a * lat.b))
    builds["lattices"].clear()
    assert decompose_dual(lat, g, h).is_dual
    assert builds == {"lattices": [lat], "tables": 0}


def test_alternate_dual_builds_one_analysis_and_no_fold(builds):
    # S^-1 g and the null bases of W come from the one analysis
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(20)
    make_alternate_dual(lat, random_signal(rng, lat.L), random_signal(rng, lat.L - lat.a * lat.b))
    assert builds == {"lattices": [lat], "tables": 0}


def test_reconstruct_builds_one_analysis(builds):
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(18)
    reconstruct(lat, *(random_signal(rng, lat.L) for _ in range(3)))
    assert builds == {"lattices": [lat], "tables": 0}


@pytest.mark.parametrize("command,windows", [
    ("analyze", 1), ("check-tight", 1), ("fourier-dual", 2), ("bounds", 1), ("dual", 1),
    ("wexler-raz", 1), ("verify-dual", 1), ("wh-identity", 2),
])
def test_cli_builds_one_analysis_per_window(builds, tmp_path, capsys, command, windows):
    # wh-identity analyzes g and f; fourier-dual g and dft(g) on the swapped lattice
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(16)
    g, h, f = (rng.standard_normal((lat.L, 2)).tolist() for _ in range(3))
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"L": lat.L, "a": lat.a, "b": lat.b, "g": g, "h": h, "f": f}))
    fails = command in ("check-tight", "wexler-raz", "verify-dual")
    assert main([command, "--input", str(path)]) == (1 if fails else 0)
    capsys.readouterr()
    second = lat.swapped() if command == "fourier-dual" else lat
    assert builds == {"lattices": [lat, second][:windows], "tables": 0}


def test_profile_takes_the_one_table(builds, tmp_path, capsys):
    lat = GaborLattice(48, 4, 6)
    g = np.random.default_rng(19).standard_normal((lat.L, 2))
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"L": lat.L, "a": lat.a, "b": lat.b, "g": g.tolist()}))
    assert main(["profile", "--input", str(path)]) == 0
    capsys.readouterr()
    assert builds == {"lattices": [], "tables": 1}
