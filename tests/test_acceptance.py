"""Acceptance suite: one test per release criterion, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
All tolerances are fixed here, not calibrated.
"""

import numpy as np
import pytest

from whframe import (
    GaborLattice,
    NotTightError,
    PhaseSpec,
    adjoint_atom,
    canonical_dual,
    check_cond_adjoint,
    check_cond_fixed_point,
    check_cond_orthogonal_system,
    check_cond_walnut,
    classify,
    dft,
    dual_conditions_walnut,
    dual_space,
    frame_bounds,
    frame_energy_split,
    inner,
    make_alternate_dual,
    norm_sq,
    phases_from_tight_generator,
    random_tight_generator,
    tight_generator_from_phases,
    walnut_apply,
    walnut_upper_bound,
    wexler_raz_check,
)
from whframe.cli import main
from whframe.oracle import analysis_array, oracle_frame_bounds, oracle_is_dual
from helpers import (
    SIZES,
    critical_lattices,
    lattice_pool,
    oracle_operator,
    random_frame,
    random_lattice,
    random_signal,
)

TOL = 1e-9

BOX_LAT = GaborLattice(4, 2, 2)
BOX_G = np.array([1, 1, 0, 0], dtype=complex) / np.sqrt(2)
DELTA_LAT = GaborLattice(4, 1, 2)
DELTA_G = np.array([2 ** -0.5, 0, 0, 0], dtype=complex)
IMPULSE_G = np.array([1, 0, 0, 0], dtype=complex)


def report(name, detail=""):
    suffix = f" ({detail})" if detail else ""
    print(f"[PASS] {name}{suffix}")


def equivalence_instances(rng, n_random, n_tight):
    for _ in range(n_random):
        lat = random_lattice(rng, SIZES)
        yield lat, random_signal(rng, lat.L, normalize=True)
    for _ in range(n_tight):
        lat = random_lattice(rng, SIZES, max_density=1)
        yield lat, random_tight_generator(lat, int(rng.integers(2 ** 31)))


def tightness_verdicts(lat, g):
    bounds = frame_bounds(lat, g)
    return (
        check_cond_walnut(lat, g) <= TOL,
        check_cond_adjoint(lat, g) <= TOL,
        check_cond_orthogonal_system(lat, g) <= TOL,
        check_cond_fixed_point(lat, g, TOL) <= TOL,
        abs(bounds.A - 1.0) <= TOL and abs(bounds.B - 1.0) <= TOL,
    )


@pytest.fixture(scope="module")
def equivalence_suite():
    rng = np.random.default_rng(2024)
    instances = list(equivalence_instances(rng, n_random=200, n_tight=50))
    verdicts = [tightness_verdicts(lat, g) for lat, g in instances]
    return instances, verdicts


def test_criterion_1_tightness_equivalences(equivalence_suite):
    instances, verdicts = equivalence_suite
    assert len(instances) >= 250
    tight_count = 0
    for (lat, g), vs in zip(instances, verdicts):
        assert len(set(vs)) == 1, f"verdicts disagree on L={lat.L},a={lat.a},b={lat.b}: {vs}"
        tight_count += vs[0]
    assert tight_count >= 50  # every constructed generator is tight
    report(
        "criterion 1: tightness criteria agree pairwise",
        f"{len(instances)} instances, {tight_count} tight",
    )


def test_criterion_2_phase_parametrization():
    rng = np.random.default_rng(2025)
    pool = [lat for lat in critical_lattices(SIZES)]
    count = 0
    for _ in range(100):
        lat = pool[rng.integers(len(pool))]
        spec = PhaseSpec(lat, rng.random((lat.a, lat.b)))
        g = tight_generator_from_phases(spec)
        assert classify(lat, g, TOL).normalized_tight
        back = tight_generator_from_phases(phases_from_tight_generator(lat, g, TOL))
        assert np.max(np.abs(back - g)) <= TOL
        count += 1
    with pytest.raises(NotTightError):
        phases_from_tight_generator(BOX_LAT, IMPULSE_G)
    with pytest.raises(NotTightError):
        phases_from_tight_generator(BOX_LAT, random_signal(rng, 4, normalize=True))
    report("criterion 2: phase parametrization is sound and complete", f"{count} specs")


def test_criterion_3_canonical_pairing_and_density():
    rng = np.random.default_rng(2026)
    checked = 0
    for _ in range(40):
        lat, g = random_frame(rng)
        pairing = inner(canonical_dual(lat, g), g)
        expected = lat.a * lat.b / lat.L
        assert abs(pairing.imag) <= TOL
        assert abs(pairing - expected) <= TOL
        assert lat.a * lat.b <= lat.L
        rep = classify(lat, g, TOL)
        assert rep.riesz_basis == (lat.atom_count == lat.L)
        checked += 1
    overdense = [lat for lat in lattice_pool(SIZES) if lat.a * lat.b > lat.L]
    rejected = 0
    for _ in range(50):
        lat = overdense[rng.integers(len(overdense))]
        g = random_signal(rng, lat.L, normalize=True)
        assert frame_bounds(lat, g).A < TOL
        rejected += 1
    report(
        "criterion 3: dual pairing equals a*b/L; no frames above density 1",
        f"{checked} frames, {rejected} overdense draws",
    )


def test_criterion_4_fourier_transfer(equivalence_suite):
    instances, verdicts = equivalence_suite
    for (lat, g), vs in zip(instances, verdicts):
        swapped = classify(lat.swapped(), dft(g), TOL).normalized_tight
        assert swapped == vs[4]
    report("criterion 4: tightness transfers to the Fourier side", f"{len(instances)} instances")


def test_criterion_5_dual_certificates_three_ways():
    rng = np.random.default_rng(2027)

    def agree(lat, g, h, expected=None):
        wr = wexler_raz_check(lat, g, h) <= TOL
        wn = dual_conditions_walnut(lat, g, h) <= TOL
        oracle = oracle_is_dual(lat, g, h, TOL)
        assert wr == wn == oracle
        if expected is not None:
            assert wr == expected
        return wr

    canonical_count = alternates = spoiled = 0
    while alternates < 100:
        lat, g = random_frame(rng)
        space = dual_space(lat, g)
        assert space.orbit_rank + space.dimension == lat.L
        if lat.is_critical:
            assert space.dimension == 0
        agree(lat, g, canonical_dual(lat, g), expected=True)
        canonical_count += 1
        coeffs = (
            random_signal(rng, space.dimension)
            if space.dimension
            else np.zeros(0, dtype=complex)
        )
        h = make_alternate_dual(lat, g, coeffs)
        agree(lat, g, h, expected=True)
        alternates += 1
        if spoiled < 100:
            atom = adjoint_atom(lat, g, rng.integers(lat.a), rng.integers(lat.b))
            agree(lat, g, h + 1e-3 * atom, expected=False)
            spoiled += 1
    report(
        "criterion 5: duality certificates agree three ways",
        f"{canonical_count} canonical, {alternates} alternate, {spoiled} spoiled",
    )


def test_criterion_6_energy_identity():
    rng = np.random.default_rng(2028)
    for _ in range(100):
        lat = random_lattice(rng, SIZES)
        g = random_signal(rng, lat.L)
        f = random_signal(rng, lat.L)
        f1, f2 = frame_energy_split(lat, g, f)
        energy = float(np.sum(np.abs(analysis_array(lat, g) @ f) ** 2))
        scale = 1.0 + norm_sq(f) * norm_sq(g)
        assert abs(f1 + f2.real - energy) <= TOL * scale
        assert abs(f2.imag) <= TOL
    report("criterion 6: quadratic energy identity", "100 random pairs")


def test_criterion_7_diagonal_sum_consistency():
    rng = np.random.default_rng(2029)
    for _ in range(40):
        lat = random_lattice(rng, SIZES)
        g = random_signal(rng, lat.L, normalize=True)
        f = random_signal(rng, lat.L, normalize=True)
        dense = oracle_operator(lat, g) @ f
        assert np.max(np.abs(walnut_apply(lat, g, f) - dense)) <= 1e-10
        assert walnut_upper_bound(lat, g) >= oracle_frame_bounds(lat, g).B - TOL
    assert abs(walnut_upper_bound(BOX_LAT, BOX_G) - oracle_frame_bounds(BOX_LAT, BOX_G).B) <= 1e-12
    assert abs(
        walnut_upper_bound(BOX_LAT, IMPULSE_G) - oracle_frame_bounds(BOX_LAT, IMPULSE_G).B
    ) <= 1e-12
    report("criterion 7: diagonal-sum operator and upper bound", "40 instances + fixtures")


def test_criterion_8_fixture_regressions():
    box = classify(BOX_LAT, BOX_G, TOL)
    assert box.onb and box.normalized_tight and box.riesz_basis
    delta = classify(DELTA_LAT, DELTA_G, TOL)
    assert delta.normalized_tight and not delta.riesz_basis and not delta.onb
    imp = classify(BOX_LAT, IMPULSE_G, TOL)
    assert not imp.is_frame
    assert imp.bounds.B == pytest.approx(2.0, abs=1e-12)
    report("criterion 8: fixture regressions", "box onb / delta tight / impulse non-frame")


def test_criterion_9_cli_contract(tmp_path, capsys):
    root2 = repr(2 ** -0.5)
    box = tmp_path / "box.json"
    box.write_text(
        f'{{"L": 4, "a": 2, "b": 2, "g": [[{root2}, 0], [{root2}, 0], [0, 0], [0, 0]]}}'
    )
    delta = tmp_path / "delta.json"
    delta.write_text(
        f'{{"L": 4, "a": 1, "b": 2, "g": [[{root2}, 0], [0, 0], [0, 0], [0, 0]]}}'
    )
    impulse = tmp_path / "impulse.json"
    impulse.write_text('{"L": 4, "a": 2, "b": 2, "g": [[1, 0], [0, 0], [0, 0], [0, 0]]}')
    malformed = tmp_path / "malformed.json"
    malformed.write_text('{"L": 4, "a": 3, "b": 2, "g": [[1, 0], [0, 0], [0, 0], [0, 0]]}')

    assert main(["check-tight", "--input", str(box)]) == 0
    assert main(["check-tight", "--input", str(delta)]) == 0
    assert main(["check-tight", "--input", str(impulse)]) == 1
    assert main(["analyze", "--input", str(malformed)]) == 2
    capsys.readouterr()

    csv_path = tmp_path / "profile.csv"
    assert main(["profile", "--input", str(box), "--output", str(csv_path)]) == 0
    expected = (
        "k,x,re,im,abs\n"
        "0,0,0.5000000000000001,0.0,0.5000000000000001\n"
        "0,1,0.5000000000000001,0.0,0.5000000000000001\n"
        "0,2,0.5000000000000001,0.0,0.5000000000000001\n"
        "0,3,0.5000000000000001,0.0,0.5000000000000001\n"
        "1,0,0.0,0.0,0.0\n"
        "1,1,0.0,0.0,0.0\n"
        "1,2,0.0,0.0,0.0\n"
        "1,3,0.0,0.0,0.0\n"
    )
    assert csv_path.read_text() == expected
    report("criterion 9: CLI exit codes and frozen profile CSV")
