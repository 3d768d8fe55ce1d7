import json
from contextlib import nullcontext

import numpy as np
import pytest

from whframe import (
    GaborLattice,
    NotAFrameError,
    NotTightError,
    check_cond_adjoint,
    check_cond_fixed_point,
    check_cond_orthogonal_system,
    check_cond_walnut,
    classify,
    density_diagnostics,
    dft,
    dual_conditions_walnut,
    fourier_dual_check,
    frame_bounds,
    norm_sq,
    phases_from_tight_generator,
    random_tight_generator,
    wexler_raz_check,
)
from whframe.cli import main
from whframe.oracle import analysis_array
from helpers import (band_windows, lattice_pool, random_frame, random_lattice, random_signal,
                     random_tight_instance)


class TestConditionResiduals:
    def test_flat_profile_fixtures(self, box, impulse):
        lat, g = box
        assert check_cond_walnut(lat, g) <= 1e-12
        lat, g = impulse
        assert check_cond_walnut(lat, g) == pytest.approx(0.5, abs=1e-12)
        assert check_cond_walnut(lat, np.zeros(4, dtype=complex)) == pytest.approx(0.5)

    def test_adjoint_orthogonality_fixtures(self, box, delta, impulse):
        lat, g = box
        assert check_cond_adjoint(lat, g) <= 1e-12
        lat, g = delta
        assert check_cond_adjoint(lat, g) <= 1e-12
        lat, g = impulse
        assert check_cond_adjoint(lat, g) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_system_fixtures(self, box):
        lat, g = box
        assert check_cond_orthogonal_system(lat, g) <= 1e-12
        assert check_cond_orthogonal_system(lat, np.zeros(4, dtype=complex)) == pytest.approx(1.0)

    @pytest.mark.parametrize("seed", range(8))
    def test_orthogonal_system_equals_adjoint_residual(self, seed):
        # any two adjoint atoms reduce to g against a third, up to phase
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        g = random_signal(rng, lat.L, normalize=True)
        r3 = check_cond_adjoint(lat, g)
        r4 = check_cond_orthogonal_system(lat, g)
        assert abs(r3 - r4) <= 1e-10

    # over-dense, P = a/c > 1 and p, q_w >= 2 lattices are all in the pool
    @pytest.mark.parametrize("lat", lattice_pool() + [GaborLattice(36, 4, 6),
                                                      GaborLattice(60, 4, 10)],
                             ids=lambda lat: f"{lat.L}-{lat.a}-{lat.b}")
    def test_tightness_is_the_self_dual_case(self, lat):
        # g is normalized tight iff it is its own dual: one residual kernel, bit for bit
        rng = np.random.default_rng([lat.L, lat.a, lat.b])
        windows = [random_signal(rng, lat.L)]
        if lat.a * lat.b <= lat.L:
            windows.append(random_tight_generator(lat, lat.L))
        for g in windows:
            report = classify(lat, g)
            walnut = check_cond_walnut(lat, g)
            assert walnut == dual_conditions_walnut(lat, g, g) == report.cond2_residual
            adjoint = check_cond_adjoint(lat, g)
            assert (adjoint == check_cond_orthogonal_system(lat, g) == wexler_raz_check(lat, g, g)
                    == report.cond3_residual == report.cond4_residual)

    def test_fixed_point_fixtures(self, box, impulse):
        lat, g = box
        assert check_cond_fixed_point(lat, g) <= 1e-12
        lat, g = impulse
        assert check_cond_fixed_point(lat, g) == pytest.approx(1.0, abs=1e-12)

    def test_fixed_point_tight_with_other_constant(self, box):
        lat, g = box
        g2 = np.sqrt(2) * g  # frame operator becomes 2I
        expected = abs(2 - 1) * np.max(np.abs(g2))
        assert check_cond_fixed_point(lat, g2) == pytest.approx(expected, abs=1e-12)

    def test_fixed_point_rejects_unit_eigenvector_of_singular_operator(self):
        # S g = g alone is not tightness: scaled impulse has S = diag(1,0,1,0)
        lat = GaborLattice(4, 2, 2)
        g = np.array([2 ** -0.5, 0, 0, 0], dtype=complex)
        S_residual = np.max(np.abs((np.diag([1, 0, 1, 0]) @ g) - g))
        assert S_residual <= 1e-12  # the fixed-point equation itself holds
        assert check_cond_fixed_point(lat, g) >= 1.0  # but the check must fail


class TestClassify:
    def test_box_is_onb(self, box):
        lat, g = box
        report = classify(lat, g)
        assert report.bounds.A == pytest.approx(1.0, abs=1e-12)
        assert report.bounds.B == pytest.approx(1.0, abs=1e-12)
        assert report.is_frame and report.normalized_tight
        assert report.onb and report.riesz_basis
        assert report.tight_constant == pytest.approx(1.0, abs=1e-12)

    def test_delta_is_tight_not_basis(self, delta):
        lat, g = delta
        report = classify(lat, g)
        assert report.normalized_tight
        assert not report.onb  # norm_sq is 1/2
        assert not report.riesz_basis  # 8 atoms in dimension 4

    def test_impulse_is_not_a_frame(self, impulse):
        lat, g = impulse
        report = classify(lat, g)
        assert not report.is_frame
        assert not report.normalized_tight and not report.onb and not report.riesz_basis
        assert report.tight_constant is None

    @pytest.mark.parametrize("tol", [1.0, 1e300])
    def test_verdicts_need_the_frame_gate(self, impulse, tol):
        # B - A = B and |A - 1| = 1 pass a loose tol; the gate still fails
        lat, g = impulse
        report = classify(lat, g, tol)
        assert not report.is_frame
        assert report.tight_constant is None
        assert not report.normalized_tight and not report.onb

    def test_zero_window(self):
        lat = GaborLattice(4, 2, 2)
        report = classify(lat, np.zeros(4, dtype=complex))
        assert not report.is_frame

    @pytest.mark.parametrize("seed", range(10))
    def test_verdict_invariants(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        g = random_signal(rng, lat.L, normalize=True)
        report = classify(lat, g)
        if report.normalized_tight:
            assert report.tight_constant == pytest.approx(1.0, abs=1e-9)
        if report.onb:
            assert report.normalized_tight
            assert abs(np.sqrt(norm_sq(g)) - 1.0) <= 1e-9


@pytest.mark.parametrize("tol", [1e-9, 1e-6])
@pytest.mark.parametrize("shape", [(12, 3, 4), (48, 6, 8), (240, 12, 20), (960, 24, 40)])
class TestOneTightRule:
    # classify, the phase extraction and check-tight give one answer in the band
    def test_classify(self, shape, tol):
        lat, verdicts = GaborLattice(*shape), set()
        for case, g in band_windows(lat, tol):
            report = classify(lat, g, tol)
            assert abs(report.bounds.A - 1 - case[0] * tol) <= 1e-3 * tol, case
            assert abs(report.bounds.B - 1 - case[1] * tol) <= 1e-3 * tol, case
            c = report.tight_constant
            assert c is not None or not report.normalized_tight, case
            assert (c is not None and abs(c - 1.0) <= tol) == report.normalized_tight, case
            verdicts.add(report.normalized_tight)
        assert verdicts == {False, True}

    def test_phase_extraction(self, shape, tol):
        lat = GaborLattice(*shape)
        for _, g in band_windows(lat, tol):
            accepted = classify(lat, g, tol).normalized_tight
            with nullcontext() if accepted else pytest.raises(NotTightError):
                phases_from_tight_generator(lat, g, tol)

    def test_check_tight(self, shape, tol, tmp_path, capsys):
        lat, path = GaborLattice(*shape), tmp_path / "g.json"
        for case, g in band_windows(lat, tol):
            pairs = np.stack([g.real, g.imag], axis=-1).tolist()
            path.write_text(json.dumps({"L": lat.L, "a": lat.a, "b": lat.b, "g": pairs}))
            code = main(["check-tight", "--input", str(path), "--tol", repr(tol)])
            report = json.loads(capsys.readouterr().out)["tightness"]
            assert code == (0 if report["normalized_tight"] else 1), case
            assert report["tight_constant"] is not None or not report["normalized_tight"], case


class TestEquivalenceSuite:
    def verdicts(self, lat, g, tol=1e-9):
        return (
            check_cond_walnut(lat, g) <= tol,
            check_cond_adjoint(lat, g) <= tol,
            check_cond_orthogonal_system(lat, g) <= tol,
            check_cond_fixed_point(lat, g, tol) <= tol,
            frame_bounds(lat, g).normalized_tight(tol),
        )

    def test_random_windows_agree(self):
        rng = np.random.default_rng(100)
        for _ in range(60):
            lat = random_lattice(rng)
            g = random_signal(rng, lat.L, normalize=True)
            assert len(set(self.verdicts(lat, g))) == 1

    def test_tight_windows_agree_positively(self):
        rng = np.random.default_rng(101)
        for _ in range(15):
            lat, g = random_tight_instance(rng)
            assert self.verdicts(lat, g) == (True,) * 5

    def test_onb_iff_unitary_analysis_array(self):
        rng = np.random.default_rng(102)
        instances = [random_tight_instance(rng) for _ in range(10)]
        instances += [
            (lat, random_signal(rng, lat.L, normalize=True))
            for lat in (random_lattice(rng) for _ in range(10))
        ]
        for lat, g in instances:
            arr = analysis_array(lat, g)
            unitary = (
                arr.shape[0] == lat.L
                and np.max(np.abs(np.conj(arr.T) @ arr - np.eye(lat.L))) <= 1e-9
            )
            assert classify(lat, g).onb == unitary


class TestDensityDiagnostics:
    def test_box(self, box):
        lat, g = box
        report = density_diagnostics(lat, g)
        assert report.dual_pairing == pytest.approx(1.0, abs=1e-9)
        assert report.expected_pairing == 1.0
        assert report.riesz_basis

    def test_double_oversampling_pairing(self):
        rng = np.random.default_rng(103)
        lat = GaborLattice(4, 1, 2)
        g = random_signal(rng, 4)
        report = density_diagnostics(lat, g)
        assert report.dual_pairing == pytest.approx(0.5, abs=1e-9)
        assert not report.riesz_basis

    @pytest.mark.parametrize("seed", range(8))
    def test_frame_identities(self, seed):
        rng = np.random.default_rng(seed)
        lat, g = random_frame(rng)
        report = density_diagnostics(lat, g)
        assert abs(report.dual_pairing.imag) <= 1e-9
        assert report.pairing_residual <= 1e-9
        assert report.adjoint_residual <= 1e-9
        assert lat.a * lat.b <= lat.L
        assert report.riesz_basis == (lat.atom_count == lat.L)

    def test_overdense_lattice_has_no_frames(self):
        rng = np.random.default_rng(104)
        lat = GaborLattice(4, 2, 4)  # density 2: only 2 atoms in dimension 4
        for _ in range(5):
            g = random_signal(rng, 4, normalize=True)
            assert frame_bounds(lat, g).A <= 1e-9
            with pytest.raises(NotAFrameError):
                density_diagnostics(lat, g)

    def test_not_a_frame(self, impulse):
        lat, g = impulse
        with pytest.raises(NotAFrameError):
            density_diagnostics(lat, g)


class TestFourierDuality:
    def test_box_self_dual_lattice(self, box):
        lat, g = box
        assert fourier_dual_check(lat, g)
        assert classify(lat.swapped(), dft(g)).normalized_tight

    def test_delta_transforms_to_flat_window(self, delta):
        lat, g = delta
        assert fourier_dual_check(lat, g)
        fg = dft(g)
        assert np.allclose(fg, np.full(4, 0.5 / np.sqrt(2)), atol=1e-12)
        assert classify(GaborLattice(4, 2, 1), fg).normalized_tight

    @pytest.mark.parametrize("seed", range(10))
    def test_verdicts_always_agree(self, seed):
        rng = np.random.default_rng(seed)
        lat = random_lattice(rng)
        g = random_signal(rng, lat.L, normalize=True)
        assert fourier_dual_check(lat, g)

    def test_verdicts_agree_on_tight_windows(self):
        rng = np.random.default_rng(105)
        for _ in range(10):
            lat, g = random_tight_instance(rng)
            assert fourier_dual_check(lat, g)
            assert classify(lat.swapped(), dft(g)).normalized_tight
