"""The Zak-block kernel: properties over generated lattices, its memory
bound, and one kernel build per window in the library and the CLI.

Every frame quantity reads the p x q_w Zak blocks of one _FrameAnalysis;
the brute-force oracle shares none of that code.
"""

import ast
import json
import tracemalloc
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from whframe import (
    GaborLattice,
    NotAFrameError,
    PhaseSpec,
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
    phases_from_tight_generator,
    random_tight_generator,
    reconstruct,
    tight_generator_from_phases,
    tighten,
    walnut_apply,
    wexler_raz_check,
)
from whframe import correlation, duality, frame
from whframe.cli import main
from whframe.frame import _FrameAnalysis, _forward, _inverse
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
    assert np.max(np.abs(_inverse(lat, _forward(lat, f)) - f)) <= 1e-12 * np.max(np.abs(f))
    loop = np.array([[inner(h, adjoint_atom(lat, g, k, l)) for l in range(lat.b)]
                     for k in range(lat.a)])
    assert np.max(np.abs(analysis.products(_forward(lat, h)) - loop)) <= 1e-12 * np.max(np.abs(loop))
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
    frame._kept.clear()  # a cold call: the analysis is built under the trace
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
    # classify and the dual certificates at 49.4 MiB; at a = b = 1 an eigh basis
    # of null(Z_g), L x (L - 1) values, held 59 MB and stayed in the cache
    lattices = [GaborLattice(1920, 2, 480)]
    if fn in (dual_space, make_alternate_dual):
        lattices.append(GaborLattice(1920, 1, 1))
    for lat in lattices:
        rng = np.random.default_rng(14)
        windows = {reconstruct: 3, wexler_raz_check: 2, dual_conditions_walnut: 2, decompose_dual: 2}
        args = [random_signal(rng, lat.L) for _ in range(windows.get(fn, 1))]
        if fn is make_alternate_dual:
            args.append(random_signal(rng, lat.L - lat.a * lat.b))
        assert traced_peak(lambda: fn(lat, *args)) < 64 * lat.L * 16, lat


@pytest.mark.parametrize("a", [960, 480])
def test_over_dense_classify_stays_below_the_lag_gather(a):
    # one and two atoms: the Walnut table and the p x p cross-Gram blocks
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
    correlation tables, which only the profile takes. The memo starts empty, so every
    analysis a test needs is counted."""
    frame._kept.clear()
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


@pytest.fixture
def calls(monkeypatch):
    """Names of the np.fft.fft, np.fft.ifft and np.linalg.eigh calls made and of the
    matrix-route DFTs ("matrix": frame._dft at lengths up to SHORT_DFT, and each _forward
    and _inverse whose lattice layout holds the Zak pair's matrices, at L/c up to
    SHORT_DFT), the memo cleared. Every DFT matrix is built first, and the Zak
    matrices are gathered from them, so no build counts as a call."""
    frame._kept.clear()
    for n in range(1, frame.SHORT_DFT + 1):
        for inverse in (False, True):
            frame._dft_matrix(n, inverse)
    seen = []
    for module, name in ((np.fft, "fft"), (np.fft, "ifft"), (np.linalg, "eigh")):
        def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
            seen.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(module, name, counting)

    def counting_dft(x, axis=-1, inverse=False, _fn=frame._dft):
        if x.shape[axis] <= frame.SHORT_DFT:
            seen.append("matrix")
        return _fn(x, axis, inverse)

    def counting_zak(_fn):
        def counting(lat, x):
            if frame._zak_layout(lat)[2] is not None:
                seen.append("matrix")
            return _fn(lat, x)
        return counting

    monkeypatch.setattr(frame, "_dft", counting_dft)
    for name in ("_forward", "_inverse"):
        monkeypatch.setattr(frame, name, counting_zak(getattr(frame, name)))
    return seen


@pytest.mark.parametrize("call,shape,count,ffts", [
    # count is every transform, ffts the np.fft calls among them. P = 1 on (48, 4, 6):
    # the Walnut table is one length-b DFT of the cross-Gram blocks, and the Wexler-Raz
    # residual one length-a DFT of the table, which the walnut residual does without;
    # both are matrix products (b, a <= SHORT_DFT), and so is the Zak pair (L/c = 12)
    (lambda lat, g, h: classify(lat, g), (48, 4, 6), 4, 0),
    (wexler_raz_check, (48, 4, 6), 4, 0),
    (dual_conditions_walnut, (48, 4, 6), 3, 0),
    (decompose_dual, (48, 4, 6), 5, 0),
    (lambda lat, g, h: frame.walnut_upper_bound(lat, g), (48, 4, 6), 2, 0),
    (lambda lat, g, h: frame.frame_operator(lat, g), (48, 4, 6), 2, 0),
    (frame.frame_energy_split, (48, 4, 6), 4, 0),
    (lambda lat, g, h: classify(lat, g), (36, 4, 6), 5, 0),  # P = 2: one length-P inverse DFT
    # L/c = 40 > SHORT_DFT: the Zak pair alone calls np.fft
    (lambda lat, g, h: classify(lat, g), (960, 24, 20), 4, 2),
    # the phase API is one inverse or one forward np.fft of the residue rows at a*b = L
    (lambda lat, g, h: tight_generator_from_phases(PhaseSpec(lat, g.real.reshape(3, 4))),
     (12, 3, 4), 1, 1),
    (lambda lat, g, h: phases_from_tight_generator(lat, np.repeat([1.0, 0.0], [3, 9]) / np.sqrt(3)),
     (12, 3, 4), 1, 1),
    # the block FFT of g, and one inverse per signal out; one forward per extra window in
    (lambda lat, g, h: tighten(lat, g), (48, 4, 6), 2, 0),
    (lambda lat, g, h: canonical_dual(lat, g), (48, 4, 6), 2, 0),
    (lambda lat, g, h: reconstruct(lat, g, h, g + h), (48, 4, 6), 4, 0),
    (walnut_apply, (48, 4, 6), 3, 0),
], ids=["classify", "wexler_raz_check", "dual_conditions_walnut", "decompose_dual",
        "walnut_upper_bound", "frame_operator", "frame_energy_split", "classify-P2",
        "classify-zak-fft", "tight_generator_from_phases", "phases_from_tight_generator",
        "tighten", "canonical_dual", "reconstruct", "walnut_apply"])
def test_transform_count(calls, call, shape, count, ffts):
    lat = GaborLattice(*shape)
    rng = np.random.default_rng(22)
    call(lat, random_signal(rng, lat.L), random_signal(rng, lat.L))
    assert len(calls) - calls.count("eigh") == count
    assert calls.count("fft") + calls.count("ifft") == ffts


@pytest.mark.parametrize("n", [1, 2, 3, 31, 32])
def test_matrix_dft_is_numpy_fft(n):
    # the matrix route, both axes and both directions, to a few eps of np.fft
    x = random_signal(np.random.default_rng(n), 3 * n * n).reshape(3, n, n)
    for inverse, fft in ((False, np.fft.fft), (True, np.fft.ifft)):
        for axis in (-1, -2):
            exact = fft(x, axis=axis)
            error = np.max(np.abs(frame._dft(x, axis, inverse) - exact))
            assert error <= 4 * np.finfo(float).eps * np.max(np.abs(exact))


@pytest.mark.parametrize("shape", [(36, 4, 6), (48, 8, 12), (96, 2, 48), (128, 64, 2)],
                         ids=["P2", "P2-over-dense", "b-48", "a-64"])
def test_walnut_side_is_the_same_on_either_route(monkeypatch, shape):
    # P > 1 takes the length-P inverse DFT too; b = 48 and a = 64 exceed SHORT_DFT,
    # so np.fft there and the matrix route on the other length
    lat = GaborLattice(*shape)
    rng = np.random.default_rng(27)
    g, h = random_signal(rng, lat.L), random_signal(rng, lat.L)
    analysis = _FrameAnalysis(lat, g)
    routes = []
    for short in (frame.SHORT_DFT, 0, 64):  # as shipped, all np.fft, all matrices
        monkeypatch.setattr(frame, "SHORT_DFT", short)
        routes.append(analysis.products(_forward(lat, h)))
    for table in routes[1:]:
        assert np.max(np.abs(table - routes[0])) <= 4 * np.finfo(float).eps * np.max(np.abs(table))


@pytest.mark.parametrize("shape,n", [((4, 4, 1), 1), ((8, 4, 2), 2), ((16, 4, 4), 4),
                                     ((96, 6, 32), 32), ((960, 24, 20), 40), ((128, 2, 64), 64)],
                         ids=["n-1", "n-2", "n-4", "n-32-over-dense", "n-40", "n-64"])
def test_zak_pair_is_the_same_on_either_route(monkeypatch, shape, n):
    # n = L/c, the residue-class length: up to SHORT_DFT one product with the layout's
    # matrix, numpy's DFT with W folded in, and above it np.fft; one signal, a batch of
    # three and an empty batch (the dual space at a*b = L has no rows)
    lat = GaborLattice(*shape)
    c, W, F, B = frame._zak_layout(lat)
    assert lat.L // c == W.size == n
    assert (F is None) == (B is None) == (n > frame.SHORT_DFT)
    layout = frame._zak_layout.__wrapped__
    rng = np.random.default_rng(29)
    f = random_signal(rng, lat.L)
    Z = random_signal(rng, 3 * lat.L).reshape(3, *_forward(lat, f).shape)
    eps = 4 * np.finfo(float).eps
    routes = []
    for short in (frame.SHORT_DFT, 0, 64):  # as shipped, all np.fft, all matrices
        monkeypatch.setattr(frame, "SHORT_DFT", short)
        # a fresh layout cache: the cutoff is read when a lattice's layout is built
        monkeypatch.setattr(frame, "_zak_layout", lru_cache(maxsize=None)(layout))
        routes.append((_forward(lat, f), _inverse(lat, Z[0]), _inverse(lat, Z),
                       _inverse(lat, Z[:0])))
    for route in routes[1:]:
        for got, want in zip(route, routes[0]):
            assert got.shape == want.shape
            scale = np.max(np.abs(want), initial=0.0)
            assert np.max(np.abs(got - want), initial=0.0) <= eps * scale
    assert routes[0][3].shape == (0, lat.L)
    # one signal is row 0 of a batch: within 4 eps as shipped, and bit for bit on the
    # np.fft side, where both take the one scatter by W
    shipped, fft = routes[0], routes[1]
    assert np.max(np.abs(shipped[2][0] - shipped[1])) <= eps * np.max(np.abs(shipped[1]))
    assert np.array_equal(fft[2][0], fft[1])
    # the inverse's matrix is the conjugate of numpy's forward twiddles: its backward DFT
    # (read from the all-matrices layout, so at every n here)
    backward = np.fft.ifft(np.eye(n), axis=1, norm="forward")[W.ravel()]
    assert np.array_equal(frame._zak_layout(lat)[3], backward)


@pytest.mark.parametrize("call,shape,count,eighs", [
    # the block FFT of g, the inverse block FFT of the free part and, for S^-1 g, one
    # more; the 1 x 2 Zak blocks of (48, 4, 6) take no eigh, the 2 x 3 of (36, 4, 6) one
    (lambda lat, g, h: make_alternate_dual(lat, g, h[:lat.L - lat.a * lat.b]), (48, 4, 6), 3, 0),
    (lambda lat, g, h: make_alternate_dual(lat, g, h[:lat.L - lat.a * lat.b]), (36, 4, 6), 3, 1),
    (lambda lat, g, h: dual_space(lat, g).class_rows, (48, 4, 6), 3, 0),
    (lambda lat, g, h: dual_space(lat, g).class_rows, (36, 4, 6), 3, 1),
], ids=["make_alternate_dual", "make_alternate_dual-P2", "dual_space_to_dict",
        "dual_space_to_dict-P2"])
def test_dual_space_transform_count(calls, call, shape, count, eighs):
    # the dual-space map adds no transform and no LAPACK call to the frame analysis
    lat = GaborLattice(*shape)
    rng = np.random.default_rng(22)
    call(lat, random_signal(rng, lat.L), random_signal(rng, lat.L))
    assert (len(calls) - calls.count("eigh"), calls.count("eigh")) == (count, eighs)


@pytest.mark.parametrize("call,shape,count", [
    (classify, (48, 4, 6), 0), (classify, (48, 8, 12), 0),  # 1 x 2 and 2 x 1 Zak blocks
    (classify, (12, 3, 4), 0),                              # 1 x 1
    (classify, (36, 4, 6), 1),                              # 2 x 3: one batched eigh
    # the probe f, here g reversed, gets no frame analysis: g's eigh alone
    (lambda lat, g: frame.frame_energy_split(lat, g, g[::-1]), (36, 4, 6), 1),
], ids=["48-4-6", "48-8-12", "12-3-4", "36-4-6", "frame_energy_split-36-4-6"])
def test_classify_eigh_count(calls, call, shape, count):
    # scalar Gram blocks, min(p, q_w) = 1, are their own eigenvalues
    lat = GaborLattice(*shape)
    call(lat, random_signal(np.random.default_rng(23), lat.L))
    assert calls.count("eigh") == count


def test_classify_builds_one_analysis_and_no_table(builds):
    lat = GaborLattice(48, 4, 6)
    classify(lat, random_signal(np.random.default_rng(15), lat.L))
    assert builds == {"lattices": [lat], "tables": 0}


def test_decompose_dual_builds_one_analysis_and_no_table(builds):
    # both certificates read the (h, g) Walnut table of the one analysis
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(17)
    g = random_signal(rng, lat.L)
    h = make_alternate_dual(lat, g, random_signal(rng, lat.L - lat.a * lat.b))
    builds["lattices"].clear()
    frame._kept.clear()  # decompose_dual on its own
    assert decompose_dual(lat, g, h).is_dual
    assert builds == {"lattices": [lat], "tables": 0}


def test_alternate_dual_builds_one_analysis_and_no_fold(builds):
    # S^-1 g and the basis of W come from the one analysis
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(20)
    make_alternate_dual(lat, random_signal(rng, lat.L), random_signal(rng, lat.L - lat.a * lat.b))
    assert builds == {"lattices": [lat], "tables": 0}


def test_reconstruct_builds_one_analysis(builds):
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(18)
    reconstruct(lat, *(random_signal(rng, lat.L) for _ in range(3)))
    assert builds == {"lattices": [lat], "tables": 0}


CLI_RUNS = [  # command, windows analyzed, window: random, critical tight or over-dense box
    ("analyze", 1, None), ("check-tight", 1, None), ("fourier-dual", 2, None),
    ("bounds", 1, None), ("dual", 1, None), ("wexler-raz", 1, None),
    ("verify-dual", 1, None), ("wh-identity", 1, None), ("analyze", 1, "critical-tight"),
    ("analyze", 1, "over-dense-at-bound"),
]


@pytest.mark.parametrize("command,windows,window", CLI_RUNS, ids=[
    f"{command}-{windows}" + (f"-{window}" if window else "") for command, windows, window in CLI_RUNS])
def test_cli_builds_one_analysis_per_window(builds, tmp_path, capsys, command, windows, window):
    # fourier-dual analyzes g and dft(g) on the swapped lattice; wh-identity reads its
    # probe f off its Zak blocks; norm_audit at the bound reads g's blocks on the adjoint
    # lattice (L, q, p) with no analysis of it, at every density: the box 1/2 on [0, 4) at
    # (12, 4, 6) is no frame (density 2) but has |g|^2 = B, and a critical lattice, its own
    # adjoint, transforms g there again rather than read its analysis's blocks
    lat = {"critical-tight": GaborLattice(12, 3, 4),
           "over-dense-at-bound": GaborLattice(12, 4, 6)}.get(window, GaborLattice(48, 4, 6))
    rng = np.random.default_rng(16)
    g, h, f = (rng.standard_normal((lat.L, 2)).tolist() for _ in range(3))
    if window == "critical-tight":
        g = [[z.real, z.imag] for z in random_tight_generator(lat, 0)]
    if window == "over-dense-at-bound":
        g = [[0.5, 0.0]] * 4 + [[0.0, 0.0]] * 8
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"L": lat.L, "a": lat.a, "b": lat.b, "g": g, "h": h, "f": f}))
    fails = command in ("check-tight", "wexler-raz", "verify-dual") or window == "over-dense-at-bound"
    assert main([command, "--input", str(path)]) == (1 if fails else 0)
    out = capsys.readouterr().out
    assert window is None or json.loads(out)["norm_audit"]["at_bound"]
    second = lat.swapped() if command == "fourier-dual" else lat
    assert builds == {"lattices": [lat, second][:windows], "tables": 0}


@pytest.fixture
def forwards(monkeypatch):
    """The bytes of every signal given to _forward, in every module that holds it: one
    that imported it by name would otherwise escape the count."""
    seen = []

    def counting(lat, f, _fn=frame._forward):
        seen.append(f.tobytes())
        return _fn(lat, f)

    for module in (frame, correlation, duality):
        if hasattr(module, "_forward"):
            monkeypatch.setattr(module, "_forward", counting)
    return seen


def test_wh_identity_transforms_each_signal_once(builds, forwards, tmp_path, capsys):
    # <f, S f> and the energy split both read the probe's blocks, which the memo keeps
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(16)
    g, f = (rng.standard_normal((lat.L, 2)).tolist() for _ in range(2))
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"L": lat.L, "a": lat.a, "b": lat.b, "g": g, "f": f}))
    assert main(["wh-identity", "--input", str(path)]) == 0
    capsys.readouterr()
    assert (len(forwards), len(set(forwards))) == (2, 2)


def test_reconstruct_transforms_h_once_for_many_f(builds, forwards):
    # the memo keeps h's blocks; every f is a new signal and is transformed once
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(30)
    g, h = random_signal(rng, lat.L), random_signal(rng, lat.L)
    for _ in range(3):
        reconstruct(lat, g, h, random_signal(rng, lat.L))
    assert len(forwards) == 5
    assert builds == {"lattices": [lat], "tables": 0}


def test_profile_takes_the_one_table(builds, tmp_path, capsys):
    lat = GaborLattice(48, 4, 6)
    g = np.random.default_rng(19).standard_normal((lat.L, 2))
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"L": lat.L, "a": lat.a, "b": lat.b, "g": g.tolist()}))
    assert main(["profile", "--input", str(path)]) == 0
    capsys.readouterr()
    assert builds == {"lattices": [], "tables": 1}


# The memo: one entry per builder, the window's analysis and the second signal's blocks,
# keyed by the lattice and the signal's bytes, read-only inside, fresh arrays out.

def design_job(lat, monkeypatch):
    """Canonical dual, dual space, alternate dual, decomposition and reconstruction
    of one window; returns the powers of S taken."""
    powers, power = [], _FrameAnalysis.power
    monkeypatch.setattr(_FrameAnalysis, "power", lambda self, s: powers.append(s) or power(self, s))
    rng = np.random.default_rng(21)
    g, f = random_signal(rng, lat.L), random_signal(rng, lat.L)
    h0 = canonical_dual(lat, g)
    assert np.array_equal(dual_space(lat, g).canonical_dual, h0)
    h = make_alternate_dual(lat, g, random_signal(rng, lat.L - lat.a * lat.b))
    assert decompose_dual(lat, g, h).is_dual
    assert np.max(np.abs(reconstruct(lat, g, h, f) - f)) <= 1e-12 * np.max(np.abs(f))
    return powers


def test_design_job_builds_one_analysis_and_one_dual(builds, calls, monkeypatch):
    # one block FFT of g and one S^-1 g; p = 1, so the 1 x 1 Gram blocks take no
    # eigh, and free's Householder reflectors, read off V, take no eigh either
    lat = GaborLattice(48, 4, 6)
    assert design_job(lat, monkeypatch) == [-1.0]
    assert builds == {"lattices": [lat], "tables": 0}
    assert calls.count("eigh") == 0


def test_design_job_takes_one_eigh_at_p_2(builds, calls, monkeypatch):
    lat = GaborLattice(36, 4, 6)
    assert design_job(lat, monkeypatch) == [-1.0]
    assert builds == {"lattices": [lat], "tables": 0}
    assert calls.count("eigh") == 1


def test_mutated_input_gives_the_fresh_result():
    lat = GaborLattice(48, 4, 6)
    g = random_signal(np.random.default_rng(22), lat.L)
    before = canonical_dual(lat, g)
    g *= 2.0
    g[0] += 1.0
    after = canonical_dual(lat, g)
    frame._kept.clear()
    assert np.array_equal(after, canonical_dual(lat, g.copy()))
    assert not np.allclose(after, before)
    assert frame_bounds(lat, g) == _FrameAnalysis(lat, g.copy()).bounds
    # the second signal's blocks are keyed by its bytes too: h changed after the analysis
    # of g read it is transformed afresh
    rng = np.random.default_rng(28)
    h, f = make_alternate_dual(lat, g, random_signal(rng, lat.L - lat.a * lat.b)), g[::-1].copy()
    assert decompose_dual(lat, g, h).is_dual
    h[5] += 1.0
    after = reconstruct(lat, g, h, f)
    frame._kept.clear()
    assert np.array_equal(after, reconstruct(lat, g, h.copy(), f))
    assert not np.allclose(after, f)


@pytest.mark.parametrize("call", [
    canonical_dual,
    tighten,
    lambda lat, g: dual_space(lat, g).canonical_dual,
    lambda lat, g: decompose_dual(lat, g, canonical_dual(lat, g)).canonical_part,
], ids=["canonical_dual", "tighten", "DualSpace.canonical_dual", "DualReport.canonical_part"])
def test_mutating_a_returned_array_leaves_later_calls_alone(call):
    lat = GaborLattice(48, 4, 6)
    g = random_signal(np.random.default_rng(23), lat.L)
    first = call(lat, g)
    kept = first.copy()
    first[:] = 0.0
    assert np.array_equal(call(lat, g), kept)
    assert np.array_equal(canonical_dual(lat, g), dual_space(lat, g).canonical_dual)


def test_same_bytes_on_two_lattices_give_two_analyses(builds):
    one, two = GaborLattice(48, 4, 6), GaborLattice(48, 6, 4)
    g = random_signal(np.random.default_rng(24), 48)
    bounds = [frame_bounds(one, g), frame_bounds(two, g), frame_bounds(one, g)]
    assert builds["lattices"] == [one, two, one]  # one entry: going back rebuilds
    assert bounds[0] == bounds[2] != bounds[1]
    for lat, fast in zip((one, two), bounds):
        slow = oracle_frame_bounds(lat, g)
        assert abs(fast.A - slow.A) <= REL * slow.B and abs(fast.B - slow.B) <= REL * slow.B


def test_non_contiguous_view_matches_its_copy(builds):
    lat = GaborLattice(48, 4, 6)
    wide = random_signal(np.random.default_rng(25), 2 * lat.L)
    view = wide[::2]
    assert not view.flags.c_contiguous
    from_view = canonical_dual(lat, view)
    assert np.array_equal(from_view, canonical_dual(lat, view.copy()))
    assert classify(lat, view) == classify(lat, view.copy())
    assert builds["lattices"] == [lat]  # the copy has the view's bytes


def test_cached_analysis_is_read_only():
    # the kept second-signal blocks too: decompose_dual reads h's, and the next call on h
    # returns the kept array
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(26)
    g = random_signal(rng, lat.L)
    space = dual_space(lat, g)
    analysis = space.analysis
    h = make_alternate_dual(lat, g, random_signal(rng, lat.L - lat.a * lat.b))
    assert decompose_dual(lat, g, h).is_dual
    kept = frame._blocks(lat, h)
    assert frame._blocks(lat, h) is kept
    for array in (analysis.g, analysis.Z, *analysis.dual, kept):
        with pytest.raises(ValueError):
            array[0] = 0.0
    assert space.canonical_dual.flags.writeable
    assert not np.shares_memory(space.canonical_dual, analysis.dual[1])


@pytest.mark.parametrize("position", [0, 1], ids=["window", "second-signal"])
@pytest.mark.parametrize("defect", ["nan", "column"])
def test_rejected_signal_leaves_the_kept_entry(builds, calls, position, defect):
    # a NaN has other bytes: the miss scans and raises before the entry goes; a column
    # holds the kept bytes and fails the shape test before the compare. Either way the
    # next good call builds no analysis and transforms nothing: at L/c = 40 every Zak
    # transform is an np.fft call, and the Walnut side's DFTs are matrix products
    lat = GaborLattice(960, 24, 20)
    rng = np.random.default_rng(31)
    signals = [random_signal(rng, lat.L), random_signal(rng, lat.L)]
    good = wexler_raz_check(lat, *signals)
    assert (builds["lattices"], calls.count("fft")) == ([lat], 2)
    bad = list(signals)
    bad[position] = signals[position].reshape(-1, 1) if defect == "column" else signals[position].copy()
    if defect == "nan":
        bad[position][1] = np.nan
    with pytest.raises(ValueError, match="^signal "):
        wexler_raz_check(lat, *bad)
    builds["lattices"].clear()
    calls.clear()
    assert wexler_raz_check(lat, *signals) == good
    assert (builds["lattices"], calls.count("fft"), calls.count("ifft")) == ([], 0, 0)


def test_second_signal_blocks_outlive_a_change_of_window(builds, forwards):
    # Z_h depends on the lattice and h alone: h checked against two windows is transformed once
    lat = GaborLattice(48, 4, 6)
    rng = np.random.default_rng(32)
    g1, g2, h = (random_signal(rng, lat.L) for _ in range(3))
    for g in (g1, g2, g1):
        wexler_raz_check(lat, g, h)
    assert builds["lattices"] == [lat] * 3
    assert forwards.count(h.tobytes()) == 1


def test_only_the_cache_builds_analyses():
    """Every entry point reads its _FrameAnalysis through frame._analysis, which hands the
    class to the memo; no other line calls it or passes it on."""
    builders = []
    for path in sorted(Path(frame.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "_FrameAnalysis" in {
                        getattr(name, "id", None) for name in (node.func, *node.args)}:
                    builders.append((path.name, getattr(top, "name", None)))
    assert builders == [("frame.py", "_analysis")]
