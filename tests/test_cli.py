import json
import os
import re
import subprocess
import sys
import tracemalloc
from dataclasses import asdict
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from whframe import (
    GaborLattice,
    classify,
    correlation_profile,
    decompose_dual,
    density_diagnostics,
    dual_space,
    frame_bounds,
    make_alternate_dual,
    norm_audit,
    random_tight_generator,
    walnut_upper_bound,
    wexler_raz_check,
)
from whframe import cli
from whframe.cli import JobConfig, _lattice_dict, main, parse_signal_file, run

import cli_sweep

ROOT2_INV = repr(2 ** -0.5)  # full-precision 1/sqrt(2)

BOX_FILE = f'{{"L": 4, "a": 2, "b": 2, "g": [[{ROOT2_INV}, 0], [{ROOT2_INV}, 0], [0, 0], [0, 0]]}}'
DELTA_FILE = f'{{"L": 4, "a": 1, "b": 2, "g": [[{ROOT2_INV}, 0], [0, 0], [0, 0], [0, 0]]}}'
IMPULSE_FILE = '{"L": 4, "a": 2, "b": 2, "g": [[1, 0], [0, 0], [0, 0], [0, 0]]}'

BOX_PROFILE_CSV = (
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


@pytest.fixture
def box_path(tmp_path):
    path = tmp_path / "box.json"
    path.write_text(BOX_FILE)
    return str(path)


@pytest.fixture
def delta_path(tmp_path):
    path = tmp_path / "delta.json"
    path.write_text(DELTA_FILE)
    return str(path)


@pytest.fixture
def impulse_path(tmp_path):
    path = tmp_path / "impulse.json"
    path.write_text(IMPULSE_FILE)
    return str(path)


def write_input(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


class TestParseSignalFile:
    def test_parses_box(self, box_path):
        data = parse_signal_file(box_path)
        assert (data.lat.L, data.lat.a, data.lat.b) == (4, 2, 2)
        assert np.allclose(data.g, [2 ** -0.5, 2 ** -0.5, 0, 0])
        assert data.h is None and data.f is None and data.phases is None

    def test_missing_lattice_field(self, tmp_path):
        path = write_input(tmp_path, "bad.json", {"L": 4, "a": 2})
        with pytest.raises(ValueError, match="'b'"):
            parse_signal_file(path)

    def test_bad_pair(self, tmp_path):
        path = write_input(tmp_path, "bad.json", {"L": 4, "a": 2, "b": 2, "g": [[1, 0], [1], [0, 0], [0, 0]]})
        with pytest.raises(ValueError, match=r"'g'\[1\]"):
            parse_signal_file(path)

    def test_wrong_length(self, tmp_path):
        path = write_input(tmp_path, "bad.json", {"L": 4, "a": 2, "b": 2, "g": [[1, 0]]})
        with pytest.raises(ValueError, match="'g'"):
            parse_signal_file(path)

    def test_pairs_keep_every_bit(self, tmp_path):
        # the (L, 2) floats viewed as complex: the bits of complex(re, im), -0.0 included
        pairs = [[1, -0.0], [-0.0, 0], [2**53 + 1, 0.1], [1e308, -5e-324]]
        path = write_input(tmp_path, "g.json", {"L": 4, "a": 2, "b": 2, "g": pairs})
        expected = np.array([complex(re, im) for re, im in pairs])
        assert parse_signal_file(path).g.tobytes() == expected.tobytes()


class TestExitCodes:
    def test_check_tight_fixture_contract(self, box_path, delta_path, impulse_path, capsys):
        assert main(["check-tight", "--input", box_path]) == 0
        assert main(["check-tight", "--input", delta_path]) == 0
        assert main(["check-tight", "--input", impulse_path]) == 1
        capsys.readouterr()

    def test_malformed_lattice_exits_2(self, tmp_path, capsys):
        path = write_input(tmp_path, "bad.json", {"L": 4, "a": 3, "b": 2, "g": [[1, 0]] * 4})
        assert main(["analyze", "--input", path]) == 2
        err = capsys.readouterr().err
        obj = json.loads(err)
        assert obj["error"]["type"] == "LatticeError"
        assert "divide" in obj["error"]["message"]

    def test_missing_window_exits_2(self, tmp_path, capsys):
        path = write_input(tmp_path, "bare.json", {"L": 4, "a": 2, "b": 2})
        assert main(["check-tight", "--input", path]) == 2
        obj = json.loads(capsys.readouterr().err)
        assert "'g'" in obj["error"]["message"]

    def test_malformed_json_exits_2(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["bounds", "--input", str(path)]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "JSONDecodeError"

    @pytest.mark.parametrize("command,payload,field", [
        ("bounds", {"L": 2, "a": 1, "b": 1, "g": [[10**400, 0], [0, 0]]}, "'g'"),
        ("make-tight", {"L": 4, "a": 2, "b": 2, "phases": [[10**400, 0], [0, 0]]}, "'phases'"),
        ("make-tight", {"L": 4, "a": 2, "b": 2, "phases": [["0.25", True], [False, "1e-1"]]},
         "'phases'[0]"),
        ("make-tight", {"L": 4, "a": 2, "b": 2, "phases": [[0.25, 0.5], [False, 0.1]]},
         "'phases'[1]"),
        ("make-tight", {"L": 4, "a": 2, "b": 2, "phases": [[0.25, 0.5], [0.1]]}, "'phases'[1]"),
        ("bounds", [4, 2, 2], "JSON object"),
        ("bounds", {"L": 4.0, "a": 2, "b": 2, "g": [[1, 0]] * 4}, "'L'"),
        ("bounds", {"L": 4, "a": 2, "b": 2, "g": 1}, "'g'"),
    ], ids=["huge-int-g", "huge-int-phases", "string-phases", "bool-phases", "ragged-phases",
            "top-level-array", "float-L", "non-list-g"])
    def test_malformed_fields_exit_2(self, tmp_path, capsys, command, payload, field):
        # one number check for every array field: JSON numbers only, each one a float
        assert main([command, "--input", write_input(tmp_path, "bad.json", payload)]) == 2
        out, err = capsys.readouterr()
        error = json.loads(err)["error"]
        assert out == "" and error["type"] == "ValueError" and field in error["message"]

    @pytest.mark.parametrize("field,value", [
        ("g", "[" * 5000 + "]" * 5000),                      # the window itself, 10 KB
        ("unused", '{"x": ' * 3000 + "0" + "}" * 3000),      # a field no command reads
    ], ids=["deep-array-g", "deep-object-unused"])
    def test_deep_nesting_exits_2(self, tmp_path, capsys, field, value):
        # the JSON decoder recurses once per level and raised RecursionError
        path = tmp_path / "deep.json"
        path.write_text('{"L": 4, "a": 2, "b": 2, "%s": %s}' % (field, value))
        assert main(["analyze", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        error = json.loads(err)["error"]
        assert out == "" and error == {"type": "ValueError", "message": "input nests too deeply"}

    def test_missing_file_exits_2(self, tmp_path, capsys):
        assert main(["bounds", "--input", str(tmp_path / "absent.json")]) == 2
        assert "error" in json.loads(capsys.readouterr().err)

    def test_dual_on_non_frame_exits_2(self, impulse_path, capsys):
        assert main(["dual", "--input", impulse_path]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "NotAFrameError"

    @pytest.mark.parametrize("argv", [
        ["frob", "--input", "x.json"],
        ["analyze"],
        ["check-tight", "--input", "x.json", "--tol", "abc"],
        ["profile", "--input", "x.json", "--format", "xml"],
    ])
    def test_usage_errors_exit_2_as_json(self, argv, capsys):
        # argparse's own errors: unknown command, missing --input, bad --tol, bad --format
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ArgumentError"

    def test_help_exits_0(self, capsys):
        with pytest.raises(SystemExit) as caught:
            main(["--help"])
        assert caught.value.code == 0
        assert capsys.readouterr().out.startswith("usage: whframe")

    def test_memory_error_exits_2(self, box_path, capsys, monkeypatch):
        def exhausted(data, config):
            raise MemoryError("Unable to allocate 14.0 GiB")

        monkeypatch.setitem(cli._HANDLERS, "bounds", (exhausted, (), True))
        assert main(["bounds", "--input", box_path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err) == {
            "error": {"type": "MemoryError", "message": "Unable to allocate 14.0 GiB"}}

    def test_non_finite_values_are_never_written(self, box_path, capsys, monkeypatch):
        def not_a_number(data, config):
            return True, {"A": float("nan")}

        monkeypatch.setitem(cli._HANDLERS, "bounds", (not_a_number, (), True))
        assert main(["bounds", "--input", box_path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and json.loads(err)["error"]["type"] == "ValueError"

    @pytest.mark.parametrize("target", ["missing/dir/out.json", "existing-dir", ""])
    def test_failed_output_write_exits_2(self, box_path, tmp_path, capsys, monkeypatch, target):
        # a write failure is an I/O error (exit 2), not a failed property (exit 1)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "existing-dir").mkdir()
        assert main(["check-tight", "--input", box_path, "--output", target]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "error" in json.loads(err)
        assert not list(tmp_path.rglob(".whframe-*.tmp"))

    def test_csv_format_rejected_outside_profile(self, box_path, capsys):
        assert main(["bounds", "--input", box_path, "--format", "csv"]) == 2

    def test_bad_tolerance_exits_2(self, box_path, capsys):
        assert main(["check-tight", "--input", box_path, "--tol", "-1"]) == 2

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_exits_2(self, impulse_path, capsys, monkeypatch, tol):
        # an infinite tolerance would call any window normalized tight
        assert main(["check-tight", "--input", impulse_path, "--tol", tol]) == 2
        monkeypatch.setenv("WHFRAME_TOL", tol)
        assert main(["check-tight", "--input", impulse_path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert all(json.loads(line)["error"]["type"] == "ValueError"
                   for line in err.splitlines())

    @pytest.mark.parametrize("scale", [1e102, 1e154])
    @pytest.mark.parametrize("command", ["check-tight", "analyze", "bounds", "profile"])
    def test_overflowing_results_exit_2(self, tmp_path, capsys, command, scale):
        # finite windows whose results overflow: S g grows like ||g||^3, so at 1e102
        # classify's cond5_residual is NaN and at 1e154 every bound and the profile are
        L = 48
        g = (np.array(gaussian_pairs(L)) * scale).tolist()
        path = write_input(tmp_path, "g.json", {"L": L, "a": 4, "b": 6, "g": g})
        code = main([command, "--input", path])
        out, err = capsys.readouterr()
        if scale == 1e102 and command in ("bounds", "profile"):  # finite: a report, no error
            assert code == 0 and out and err == ""
            assert not re.search(r"nan|inf", out, re.IGNORECASE)
            return
        assert code == 2 and out == "" and len(err.splitlines()) == 1
        assert json.loads(err)["error"]["type"] == "FloatingPointError"


# the input fields each command requires; make-tight reads a bare lattice
REQUIRED = {"analyze": "g", "check-tight": "g", "make-tight": "", "dual": "g",
            "verify-dual": "gh", "wexler-raz": "gh", "fourier-dual": "g", "wh-identity": "gf",
            "bounds": "g", "profile": "g"}


@pytest.mark.parametrize("command", list(REQUIRED))
def test_required_fields(tmp_path, capsys, command):
    # the required fields alone make a job; without any one of them it exits 2
    box = [[float(ROOT2_INV), 0], [float(ROOT2_INV), 0], [0, 0], [0, 0]]
    signals = {"g": box, "h": box, "f": [[1, 0], [0, 2], [0, 0], [3, -1]]}
    payload = {"L": 4, "a": 2, "b": 2, **{name: signals[name] for name in REQUIRED[command]}}
    code = main([command, "--input", write_input(tmp_path, "in.json", payload)])
    assert code in ((0,) if command == "make-tight" else (0, 1))
    capsys.readouterr()
    for field in REQUIRED[command]:
        partial = {name: value for name, value in payload.items() if name != field}
        assert main([command, "--input", write_input(tmp_path, "in.json", partial)]) == 2
        out, err = capsys.readouterr()
        error = json.loads(err)["error"]
        assert out == "" and error["type"] == "ValueError" and repr(field) in error["message"]


class TestReports:
    def test_check_tight_report_fields(self, box_path, capsys):
        main(["check-tight", "--input", box_path])
        report = json.loads(capsys.readouterr().out)
        assert report["tightness"]["normalized_tight"] is True
        assert report["tightness"]["onb"] is True
        assert report["constants"] == {"b_over_L": 0.5, "ab_over_L": 1.0}
        assert report["lattice"]["density"] == 1.0

    def test_analyze_frame_report(self, delta_path, capsys):
        assert main(["analyze", "--input", delta_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["tightness"]["riesz_basis"] is False
        assert report["norm_audit"]["within_bound"] is True
        assert report["density_diagnostics"]["dual_pairing"][0] == pytest.approx(0.5)

    def test_analyze_non_frame_exits_1_with_report(self, impulse_path, capsys):
        assert main(["analyze", "--input", impulse_path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["tightness"]["is_frame"] is False
        assert report["density_diagnostics"] is None
        assert report["tightness"]["bounds"]["B"] == pytest.approx(2.0)

    def test_bounds_report(self, impulse_path, capsys):
        assert main(["bounds", "--input", impulse_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["bounds"]["A"] == pytest.approx(0.0, abs=1e-12)
        assert report["bounds"]["B"] == pytest.approx(2.0)
        assert report["walnut_upper_bound"] == pytest.approx(2.0)

    def test_fourier_dual_report(self, box_path, capsys):
        assert main(["fourier-dual", "--input", box_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["agree"] is True
        assert report["swapped_lattice"] == report["lattice"]  # self-swapped here

    def test_wh_identity_report(self, tmp_path, capsys):
        rng = np.random.default_rng(50)
        g = rng.standard_normal((8, 2)).round(6).tolist()
        f = rng.standard_normal((8, 2)).round(6).tolist()
        path = write_input(tmp_path, "id.json", {"L": 8, "a": 2, "b": 4, "g": g, "f": f})
        assert main(["wh-identity", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["holds"] is True
        assert abs(report["F1"] + report["F2"] - report["coefficient_energy"]) <= 1e-8

    def test_profile_csv_is_frozen(self, box_path, capsys):
        assert main(["profile", "--input", box_path]) == 0
        assert capsys.readouterr().out == BOX_PROFILE_CSV

    def test_profile_json_format(self, box_path, capsys):
        assert main(["profile", "--input", box_path, "--format", "json"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["columns"] == ["k", "x", "re", "im", "abs"]
        assert len(report["rows"]) == 8


def test_numpy_integer_lattice_serializes():
    lat = GaborLattice(np.int64(48), np.int64(4), np.int64(6))
    assert all(type(v) is int for v in (lat.L, lat.a, lat.b))
    assert lat == GaborLattice(48, 4, 6)
    assert json.loads(json.dumps(_lattice_dict(lat)))["q"] == 8
    report = classify(lat, random_tight_generator(lat, 1))
    assert report.normalized_tight
    json.dumps(cli._report(report))


class TestDualCommands:
    def test_dual_report(self, delta_path, capsys):
        assert main(["dual", "--input", delta_path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dual_space"]["orbit_rank"] == 2
        assert report["dual_space"]["dimension"] == 2
        assert report["canonical_dual"][0][0] == pytest.approx(2 ** -0.5)

    @pytest.mark.parametrize("L,a,b", [(4, 1, 2), (24, 2, 3), (48, 4, 6), (60, 4, 10),
                                       (36, 4, 6), (480, 16, 15)])
    def test_dual_rows_expand_to_complement_basis(self, tmp_path, capsys, L, a, b):
        lat = GaborLattice(L, a, b)
        g = np.random.default_rng(L).standard_normal((L, 2))
        path = write_input(tmp_path, "g.json", {"L": L, "a": a, "b": b, "g": g.tolist()})
        assert main(["dual", "--input", path]) == 0
        rows = json.loads(capsys.readouterr().out)["dual_space"]["complement_basis"]
        c = gcd(a, lat.M)  # c < a at (36, 4, 6) and (60, 4, 10)
        expanded = np.zeros((len(rows), L), dtype=complex)
        for i, row in enumerate(rows):
            assert len(row["values"]) == L // c
            expanded[i, row["residue"]::c] = np.array(row["values"]).view(complex)[:, 0]
        space = dual_space(lat, g.view(complex)[:, 0])
        assert np.array_equal(expanded, space.complement_basis)
        scattered = np.zeros_like(expanded).reshape(c, -1, L)
        for s in range(c):
            scattered[s, :, s::c] = space.class_rows[s]
        assert np.array_equal(scattered.reshape(-1, L), space.complement_basis)

    def test_verify_dual_accepts_alternate(self, tmp_path, capsys):
        g = [[float(ROOT2_INV), 0], [0, 0], [0, 0], [0, 0]]
        h = [[float(ROOT2_INV), 0], [0.25, -0.5], [0, 0], [1.5, 0.25]]
        path = write_input(tmp_path, "pair.json", {"L": 4, "a": 1, "b": 2, "g": g, "h": h})
        assert main(["verify-dual", "--input", path]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["dual_report"]["is_dual"] is True
        assert report["dual_report"]["free_part_in_complement"] is True

    def test_verify_dual_rejects_orbit_component(self, tmp_path, capsys):
        g = [[float(ROOT2_INV), 0], [0, 0], [0, 0], [0, 0]]
        h = [[1.5, 0], [0, 0], [0, 0], [0, 0]]
        path = write_input(tmp_path, "pair.json", {"L": 4, "a": 1, "b": 2, "g": g, "h": h})
        assert main(["verify-dual", "--input", path]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["dual_report"]["is_dual"] is False

    def test_wexler_raz_verdicts(self, tmp_path, capsys):
        g = [[float(ROOT2_INV), 0], [0, 0], [0, 0], [0, 0]]
        good = write_input(tmp_path, "good.json", {"L": 4, "a": 1, "b": 2, "g": g, "h": g})
        assert main(["wexler-raz", "--input", good]) == 0
        bad_h = [[float(ROOT2_INV), 0], [0, 0], [float(ROOT2_INV), 0], [0, 0]]
        bad = write_input(tmp_path, "bad.json", {"L": 4, "a": 1, "b": 2, "g": g, "h": bad_h})
        assert main(["wexler-raz", "--input", bad]) == 1
        capsys.readouterr()


class TestMakeTight:
    def test_phase_input_roundtrip(self, tmp_path, capsys):
        path = write_input(
            tmp_path, "phases.json",
            {"L": 4, "a": 2, "b": 2, "phases": [[0.0, 0.0], [0.0, 0.0]]},
        )
        out_path = tmp_path / "window.json"
        assert main(["make-tight", "--input", path, "--output", str(out_path)]) == 0
        produced = json.loads(out_path.read_text())
        assert produced["norm_sq"] == pytest.approx(1.0)
        assert np.allclose(
            [pair[0] for pair in produced["g"]], [2 ** -0.5, 2 ** -0.5, 0, 0], atol=1e-12
        )
        assert main(["check-tight", "--input", str(out_path)]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("payload", [
        {"L": 8, "a": 2, "b": 2},          # oversampled: tighten path
        {"L": 6, "a": 2, "b": 3},          # critical: random phases
    ])
    def test_random_roundtrip(self, tmp_path, payload, capsys):
        path = write_input(tmp_path, "lat.json", payload)
        out_path = tmp_path / "window.json"
        assert main(["make-tight", "--input", path, "--seed", "7", "--output", str(out_path)]) == 0
        assert main(["check-tight", "--input", str(out_path)]) == 0
        capsys.readouterr()

    def test_deterministic_seed(self, tmp_path, capsys):
        path = write_input(tmp_path, "lat.json", {"L": 8, "a": 2, "b": 2})
        outputs = []
        for name in ("one.json", "two.json"):
            out_path = tmp_path / name
            assert main(["make-tight", "--input", path, "--seed", "3", "--output", str(out_path)]) == 0
            outputs.append(out_path.read_text())
        assert outputs[0] == outputs[1]
        capsys.readouterr()

    def test_negative_seed_exits_2_naming_it(self, tmp_path, capsys):
        # the check runs before any input is read, so numpy never sees the seed
        path = write_input(tmp_path, "lat.json", {"L": 8, "a": 2, "b": 2})
        assert main(["make-tight", "--input", path, "--seed", "-1"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"] == {
            "type": "ValueError", "message": "seed must be a non-negative integer, got -1"}

    def test_non_finite_phases_exit_2(self, tmp_path, capsys):
        path = tmp_path / "phases.json"
        path.write_text('{"L": 4, "a": 2, "b": 2, "phases": [[NaN, 0.0], [0.0, Infinity]]}')
        assert main(["make-tight", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert json.loads(err)["error"]["type"] == "ValueError"

    def test_overdense_exits_2(self, tmp_path, capsys):
        path = write_input(tmp_path, "lat.json", {"L": 4, "a": 2, "b": 4})
        assert main(["make-tight", "--input", path]) == 2
        assert json.loads(capsys.readouterr().err)["error"]["type"] == "NotAFrameError"


def gaussian_pairs(L):
    return np.random.default_rng(L).standard_normal((L, 2)).tolist()


# each count just past 2**20 = 1,048,576, so a job the limit fails to stop costs seconds
OVER_LIMIT = [
    ("profile", {"L": 1025, "a": 1, "b": 1025, "g": gaussian_pairs(1025)}, 1025 * 1025),
    ("dual", {"L": 1025, "a": 1, "b": 1, "g": gaussian_pairs(1025)}, 1024 * 1025),
    ("make-tight", {"L": 2**20 + 2, "a": 2, "b": 1}, 2**20 + 2),
]


class TestOutputLimit:
    @pytest.mark.parametrize("command,payload,count", OVER_LIMIT,
                             ids=["profile", "dual", "make-tight"])
    def test_just_past_the_limit_exits_2(self, tmp_path, capsys, command, payload, count):
        path = write_input(tmp_path, "big.json", payload)
        out_path = tmp_path / "out.json"
        assert main([command, "--input", path, "--output", str(out_path)]) == 2
        assert main([command, "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and not out_path.exists() and len(err.splitlines()) == 2
        for line in err.splitlines():
            message = json.loads(line)["error"]["message"]
            assert command in message and str(count) in message
            assert str(cli.MAX_OUTPUT_VALUES) in message

    @pytest.mark.parametrize("command,payload,count", [
        ("profile", {"L": 12, "a": 3, "b": 4, "g": gaussian_pairs(12)}, 4 * 12),
        ("dual", {"L": 12, "a": 3, "b": 2, "g": gaussian_pairs(12)}, (12 - 6) * 12 // 3),
        ("make-tight", {"L": 12, "a": 3, "b": 2}, 12),
    ], ids=["profile", "dual", "make-tight"])
    def test_the_limit_is_inclusive(self, tmp_path, capsys, monkeypatch, command, payload, count):
        path = write_input(tmp_path, "small.json", payload)
        monkeypatch.setattr(cli, "MAX_OUTPUT_VALUES", count)
        assert main([command, "--input", path]) == 0
        assert capsys.readouterr().out
        monkeypatch.setattr(cli, "MAX_OUTPUT_VALUES", count - 1)
        assert main([command, "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"write {count} values" in json.loads(err)["error"]["message"]

    def test_inputs_that_write_no_more_than_they_read_pass(self, tmp_path, capsys, monkeypatch):
        # make-tight from phases, and every command outside the three, count nothing
        monkeypatch.setattr(cli, "MAX_OUTPUT_VALUES", 0)
        phases = write_input(tmp_path, "phases.json",
                             {"L": 4, "a": 2, "b": 2, "phases": [[0.0, 0.0], [0.0, 0.0]]})
        assert main(["make-tight", "--input", phases]) == 0
        window = write_input(tmp_path, "g.json", {"L": 12, "a": 3, "b": 4, "g": gaussian_pairs(12)})
        assert main(["bounds", "--input", window]) == 0
        capsys.readouterr()

    def test_child_process_refuses_before_allocating(self, tmp_path):
        # Linux carries a launcher's peak RSS into its child across fork and exec, so the
        # job is spawned by a fresh, small python -c process, not by pytest, whose own
        # peak would count too; the launcher writes the job's exit code and ru_maxrss
        command, payload, _ = OVER_LIMIT[0]
        path = write_input(tmp_path, "big.json", payload)
        launcher = ("import os, subprocess, sys; child = subprocess.Popen(sys.argv[2:]); "
                    "_, status, usage = os.wait4(child.pid, 0); open(sys.argv[1], 'w').write("
                    "f'{os.waitstatus_to_exitcode(status)} {usage.ru_maxrss}')")
        with open(tmp_path / "out", "w") as out, open(tmp_path / "err", "w") as err:
            subprocess.run([sys.executable, "-c", launcher, tmp_path / "usage",
                            sys.executable, "-m", "whframe", command, "--input", path],
                           stdout=out, stderr=err, check=True)
        returncode, maxrss = map(int, (tmp_path / "usage").read_text().split())
        assert returncode == 2
        assert (tmp_path / "out").read_text() == ""
        assert json.loads((tmp_path / "err").read_text())["error"]["type"] == "ValueError"
        assert maxrss < 150 * 1024  # KiB on Linux


class TestStreamedOutput:
    def test_dual_json_is_streamed(self, tmp_path):
        # 57,600 basis pairs: encoded as one string first, the report took 499 B a
        # pair of traced peak memory; written as it is encoded, about 234 B
        L, a, b = 480, 2, 120
        pairs = (L - a * b) * L // gcd(a, GaborLattice(L, a, b).M)
        path = write_input(tmp_path, "g.json", {"L": L, "a": a, "b": b, "g": gaussian_pairs(L)})
        out_path = tmp_path / "dual.json"
        tracemalloc.start()
        try:
            assert main(["dual", "--input", path, "--output", str(out_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pairs == 57_600 and peak < 350 * pairs
        text = out_path.read_text()
        assert text == json.dumps(json.loads(text), indent=2) + "\n"

    def test_profile_csv_is_streamed(self, tmp_path, capsys):
        # 230,400 rows: held as a row list and then as one string, the CSV took 392 B a
        # row of traced peak memory; formatted one table row at a time as it is written, 87
        small = write_input(tmp_path, "small.json",
                            {"L": 120, "a": 1, "b": 120, "g": gaussian_pairs(120)})
        L, a, b = 480, 2, 480
        path = write_input(tmp_path, "g.json", {"L": L, "a": a, "b": b, "g": gaussian_pairs(L)})
        out_path = tmp_path / "profile.out"
        # a warm-up call keeps imports and caches out of the traced peak
        assert main(["profile", "--input", small, "--output", str(out_path)]) == 0
        tracemalloc.start()
        try:
            assert main(["profile", "--input", path, "--output", str(out_path)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert b * L == 230_400 and peak < 150 * b * L
        # the --output file is stdout, byte for byte, in both formats
        assert main(["profile", "--input", path]) == 0
        assert capsys.readouterr().out == out_path.read_text()
        json_argv = ["profile", "--input", small, "--format", "json"]
        assert main([*json_argv, "--output", str(out_path)]) == 0
        assert main(json_argv) == 0
        assert capsys.readouterr().out == out_path.read_text()


class TestTolControls:
    def test_env_var_overrides_default(self, tmp_path, capsys, monkeypatch):
        # slightly off-tight window: fails at 1e-9, passes at 1e-2
        g = [[0.7071, 0], [0.7071, 0], [0, 0], [0, 0]]
        path = write_input(tmp_path, "near.json", {"L": 4, "a": 2, "b": 2, "g": g})
        assert main(["check-tight", "--input", path]) == 1
        monkeypatch.setenv("WHFRAME_TOL", "1e-2")
        assert main(["check-tight", "--input", path]) == 0
        capsys.readouterr()

    def test_flag_beats_env_var(self, tmp_path, capsys, monkeypatch):
        g = [[0.7071, 0], [0.7071, 0], [0, 0], [0, 0]]
        path = write_input(tmp_path, "near.json", {"L": 4, "a": 2, "b": 2, "g": g})
        monkeypatch.setenv("WHFRAME_TOL", "1e-2")
        assert main(["check-tight", "--input", path, "--tol", "1e-9"]) == 1
        capsys.readouterr()

    def test_loose_tol_keeps_the_frame_gate(self, impulse_path, capsys):
        assert main(["check-tight", "--input", impulse_path, "--tol", "1"]) == 1
        tightness = json.loads(capsys.readouterr().out)["tightness"]
        assert tightness["is_frame"] is False
        assert tightness["normalized_tight"] is False and tightness["onb"] is False

    def test_invalid_env_var_exits_2(self, box_path, capsys, monkeypatch):
        monkeypatch.setenv("WHFRAME_TOL", "loose")
        assert main(["check-tight", "--input", box_path]) == 2
        capsys.readouterr()


class TestJobConfig:
    def test_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            JobConfig(command="frob", input_path="x.json")

    @pytest.mark.parametrize("tol", [float("inf"), float("nan")])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError, match="finite and positive"):
            JobConfig(command="check-tight", input_path="x.json", tol=tol)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be a non-negative integer, got -1"):
            JobConfig(command="make-tight", input_path="x.json", seed=-1)

    def test_rejects_bad_format(self):
        with pytest.raises(ValueError):
            JobConfig(command="profile", input_path="x.json", format="xml")

    def test_rejects_csv_outside_profile(self):
        with pytest.raises(ValueError, match="no CSV format"):
            JobConfig(command="bounds", input_path="x.json", format="csv")

    def test_run_accepts_config_object(self, box_path, capsys):
        assert run(JobConfig(command="check-tight", input_path=box_path)) == 0
        capsys.readouterr()


def roundtrip(obj):
    return json.loads(json.dumps(obj))


@pytest.mark.parametrize("L,a,b,kind", [
    (4, 2, 2, "gaussian"), (6, 1, 1, "gaussian"), (12, 2, 3, "gaussian"), (12, 2, 3, "tight"),
    (12, 3, 4, "gaussian"), (12, 3, 4, "tight"), (24, 4, 3, "gaussian"), (12, 4, 6, "gaussian"),
])
def test_cli_reports_equal_library_reports(tmp_path, capsys, L, a, b, kind):
    # the CLI's one-analysis helpers must give the public functions' reports
    lat, tol = GaborLattice(L, a, b), cli.DEFAULT_TOL
    rng = np.random.default_rng(L * a * b)
    gaussian = lambda n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
    g = random_tight_generator(lat, 3) if kind == "tight" else gaussian(L)
    frame = frame_bounds(lat, g).is_frame
    h = make_alternate_dual(lat, g, gaussian(L - a * b)) if frame else gaussian(L)
    pairs = lambda s: np.stack([s.real, s.imag], axis=-1).tolist()
    path = write_input(tmp_path, "in.json", {"L": L, "a": a, "b": b, "g": pairs(g), "h": pairs(h)})

    def report(command, *flags):
        code = main([command, "--input", path, *flags])
        return code, json.loads(capsys.readouterr().out)

    tightness = classify(lat, g, tol)
    code, out = report("check-tight")
    assert code == (0 if tightness.normalized_tight else 1)
    assert out["tightness"] == roundtrip(asdict(tightness))
    code, out = report("analyze")
    assert code == (0 if frame else 1)
    assert out["tightness"] == roundtrip(asdict(tightness))
    assert out["norm_audit"] == roundtrip(asdict(norm_audit(lat, g, tol)))
    density = density_diagnostics(lat, g) if frame else None
    assert out["density_diagnostics"] == (roundtrip(
        {**asdict(density), "dual_pairing": pairs(density.dual_pairing)}) if frame else None)
    code, out = report("bounds")
    assert out["bounds"] == roundtrip(asdict(frame_bounds(lat, g)))
    assert out["walnut_upper_bound"] == walnut_upper_bound(lat, g)
    residual = wexler_raz_check(lat, g, h)
    code, out = report("wexler-raz")
    assert (code, out["residual"], out["is_dual"]) == (
        0 if residual <= tol else 1, residual, residual <= tol)
    code, out = report("profile", "--format", "json")
    table = correlation_profile(lat, g).table
    assert out["rows"] == roundtrip(
        [[k, x, v.real, v.imag, abs(v)] for (k, x), v in np.ndenumerate(table)])
    if frame:  # verify-dual exits 2 on a window that is no frame
        dual = decompose_dual(lat, g, h, tol)
        code, out = report("verify-dual")
        assert code == (0 if dual.is_dual else 1)
        assert out["dual_report"] == roundtrip({**asdict(dual), "canonical_part": pairs(
            dual.canonical_part), "free_part": pairs(dual.free_part)})


@pytest.fixture
def console_scripts(tmp_path, monkeypatch):
    """The [project.scripts] launchers of pyproject.toml, written as an installer
    writes them into a directory put first on PATH: each runs its entry point
    under this interpreter, with the package imported from src."""
    root = Path(__file__).resolve().parent.parent
    table = (root / "pyproject.toml").read_text().split("[project.scripts]", 1)[1].split("\n[")[0]
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    for name, module, func in re.findall(r'^([\w-]+)\s*=\s*"([\w.]+):(\w+)"', table, re.M):
        launcher = bin_dir / name
        launcher.write_text(
            f"#!{sys.executable}\nimport sys\nsys.path.insert(0, {str(root / 'src')!r})\n"
            f"from {module} import {func}\nsys.exit({func}())\n")
        launcher.chmod(0o755)
    monkeypatch.setenv("PATH", f"{bin_dir}{os.pathsep}{os.environ.get('PATH', '')}")


def test_console_script_installed(console_scripts, box_path):
    proc = subprocess.run(
        ["whframe", "check-tight", "--input", box_path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["tightness"]["normalized_tight"] is True


def test_module_entry_point(impulse_path):
    proc = subprocess.run(
        [sys.executable, "-m", "whframe", "check-tight", "--input", impulse_path],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert json.loads(proc.stdout)["tightness"]["is_frame"] is False


def test_cli_sweep_on_the_fixtures(tmp_path):
    # the sweep tool of cli_sweep.py, on the four fixtures: 14 argument lists each
    cli_sweep.write_fixtures(tmp_path)
    records = cli_sweep.run_matrix(tmp_path)
    assert len(records) == 4 * len(cli_sweep.VARIANTS) == 56
    exits = {name: "".join(str(r["exit"]) for r in records if r["input"] == f"{name}.json")
             for name in ("box", "delta", "impulse", "over-dense-box")}
    assert exits == {"box": "00002202000002", "delta": "00002202000002",
                     "impulse": "11022202000012", "over-dense-box": "11222202002012"}
    assert cli_sweep.differences(records, cli_sweep.run_matrix(tmp_path)) == []
    assert cli_sweep.differences(records, records[1:]) == ["box.json analyze"]
    changed = [dict(records[0], stdout="0" * 64), dict(records[1], exit=1), *records[2:]]
    assert cli_sweep.differences(records, changed) == ["box.json analyze", "box.json check-tight"]
    assert cli_sweep.differences(records, changed, ("exit",)) == ["box.json check-tight"]
    # a change in float digits alone leaves the masked digest; an integer or a verdict moves it
    text = '{"A": 0.5000000000000001, "dimension": 3, "tol": 1e-09, "tight": true}\n0,1,-0.5\n'
    assert cli_sweep.mask_floats(text) == '{"A": #, "dimension": 3, "tol": #, "tight": true}\n0,1,#\n'
    for old, new in (("3,", "4,"), ("true", "false"), ("0,1,", "0,2,")):
        assert cli_sweep.mask_floats(text.replace(old, new)) != cli_sweep.mask_floats(text)
    digits = [dict(records[0], stdout="0" * 64), *records[1:]]
    assert cli_sweep.differences(records, digits, ("exit", "stdout_masked", "stderr")) == []
