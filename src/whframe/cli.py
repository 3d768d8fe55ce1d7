"""Command-line front end: JSON in, JSON or CSV reports out.

Input files are JSON objects with integer lattice fields and complex
vectors as [re, im] pairs:

    {"L": 4, "a": 2, "b": 2,
     "g": [[0.7071, 0.0], ...],          # window (most commands)
     "h": [[...], ...],                  # second window (dual commands)
     "f": [[...], ...],                  # test signal (wh-identity)
     "phases": [[0.25, ...], ...]}       # a x b phase array (make-tight)

Exit codes: 0 when the computation succeeds and the checked property
holds, 1 when the property fails (not tight, not dual, not a frame), and
2 for input or usage errors, reported as a JSON object on stderr.
The WHFRAME_TOL environment variable overrides the default tolerance;
an explicit --tol beats both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from .correlation import correlation_profile, frame_energy_split, walnut_upper_bound
from .duality import decompose_dual, dual_space, wexler_raz_check
from .frame import DEFAULT_TOL, frame_bounds, norm_audit, walnut_apply
from .lattice import GaborLattice, _pairs, as_signal, dft, norm_sq
from .synthesis import PhaseSpec, random_tight_generator, tight_generator_from_phases
from .tightness import classify, density_diagnostics

__all__ = ["JobConfig", "parse_signal_file", "run", "main", "entry_point"]


@dataclass(frozen=True)
class JobConfig:
    command: str
    input_path: str
    output_path: str | None = None
    tol: float = DEFAULT_TOL
    seed: int = 0
    format: str | None = None  # None = command default (csv for profile)

    def __post_init__(self):
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.format not in (None, "json", "csv"):
            raise ValueError(f"format must be json or csv, got {self.format!r}")
        if self.format == "csv" and self.command != "profile":
            raise ValueError(f"command {self.command!r} has no CSV format")


@dataclass(frozen=True)
class ParsedInput:
    lat: GaborLattice
    g: np.ndarray | None
    h: np.ndarray | None
    f: np.ndarray | None
    phases: np.ndarray | None


def _parse_vector(raw, name: str, L: int) -> np.ndarray:
    if not isinstance(raw, list):
        raise ValueError(f"field {name!r} must be a list of [re, im] pairs")
    values = []
    for i, pair in enumerate(raw):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in pair)
        ):
            raise ValueError(f"field {name!r}[{i}] must be a [re, im] number pair")
        values.append(complex(pair[0], pair[1]))
    try:
        return as_signal(values, L)
    except ValueError as e:
        raise ValueError(f"field {name!r}: {e}") from None


def parse_signal_file(path: str) -> ParsedInput:
    """Load and validate an input file against the schema above."""
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    for name in ("L", "a", "b"):
        if name not in data:
            raise ValueError(f"missing required field {name!r}")
        if not isinstance(data[name], int) or isinstance(data[name], bool):
            raise ValueError(f"field {name!r} must be an integer")
    lat = GaborLattice(data["L"], data["a"], data["b"])
    signals = {}
    for name in ("g", "h", "f"):
        signals[name] = _parse_vector(data[name], name, lat.L) if name in data else None
    phases = None
    if "phases" in data:
        try:
            phases = np.asarray(data["phases"], dtype=float)
        except (TypeError, ValueError):
            raise ValueError("field 'phases' must be a rectangular array of reals") from None
    return ParsedInput(lat=lat, phases=phases, **signals)


def _require(data: ParsedInput, *names: str) -> list[np.ndarray]:
    for name in names:
        if getattr(data, name) is None:
            raise ValueError(f"missing required field {name!r} for this command")
    return [getattr(data, name) for name in names]


def _lattice_dict(lat: GaborLattice) -> dict:
    return {
        "L": lat.L, "a": lat.a, "b": lat.b,
        "N": lat.N, "M": lat.M, "p": lat.p, "q": lat.q,
        "density": float(lat.density),
    }


def _header(lat: GaborLattice) -> dict:
    # the lattice, its flat-profile level and its dual-pairing value
    return {
        "lattice": _lattice_dict(lat),
        "constants": {"b_over_L": lat.b / lat.L, "ab_over_L": lat.a * lat.b / lat.L},
    }


def _cmd_analyze(data: ParsedInput, config: JobConfig):
    (g,) = _require(data, "g")
    report = classify(data.lat, g, config.tol)
    # before norm_audit, which may analyze g on the adjoint lattice
    density = density_diagnostics(data.lat, g).to_dict() if report.is_frame else None
    out = {
        **_header(data.lat),
        "tightness": report.to_dict(),
        "norm_audit": norm_audit(data.lat, g, config.tol).to_dict(),
        "density_diagnostics": density,
    }
    return (0 if report.is_frame else 1), out


def _cmd_check_tight(data: ParsedInput, config: JobConfig):
    (g,) = _require(data, "g")
    report = classify(data.lat, g, config.tol)
    out = {**_header(data.lat), "tightness": report.to_dict()}
    return (0 if report.normalized_tight else 1), out


def _cmd_make_tight(data: ParsedInput, config: JobConfig):
    if data.phases is not None:
        g = tight_generator_from_phases(PhaseSpec(data.lat, data.phases))
    else:
        g = random_tight_generator(data.lat, config.seed)
    out = {
        "L": data.lat.L, "a": data.lat.a, "b": data.lat.b,
        "g": _pairs(g),
        "norm_sq": norm_sq(g),
        "constants": _header(data.lat)["constants"],
    }
    return 0, out


def _cmd_dual(data: ParsedInput, config: JobConfig):
    (g,) = _require(data, "g")
    space = dual_space(data.lat, g)
    out = {
        **_header(data.lat),
        "canonical_dual": _pairs(space.canonical_dual),
        "dual_space": space.to_dict(),
    }
    return 0, out


def _cmd_verify_dual(data: ParsedInput, config: JobConfig):
    g, h = _require(data, "g", "h")
    report = decompose_dual(data.lat, g, h, config.tol)
    out = {**_header(data.lat), "dual_report": report.to_dict()}
    return (0 if report.is_dual else 1), out


def _cmd_wexler_raz(data: ParsedInput, config: JobConfig):
    g, h = _require(data, "g", "h")
    residual = wexler_raz_check(data.lat, g, h)
    out = {**_header(data.lat), "residual": residual, "is_dual": residual <= config.tol}
    return (0 if out["is_dual"] else 1), out


def _cmd_fourier_dual(data: ParsedInput, config: JobConfig):
    (g,) = _require(data, "g")
    here = classify(data.lat, g, config.tol)
    swapped = data.lat.swapped()
    there = classify(swapped, dft(g), config.tol)
    agree = here.normalized_tight == there.normalized_tight
    out = {
        "lattice": _lattice_dict(data.lat),
        "swapped_lattice": _lattice_dict(swapped),
        "tightness": here.to_dict(),
        "swapped_tightness": there.to_dict(),
        "agree": agree,
    }
    return (0 if agree else 1), out


def _cmd_wh_identity(data: ParsedInput, config: JobConfig):
    g, f = _require(data, "g", "f")
    energy = float(np.real(np.vdot(f, walnut_apply(data.lat, g, f))))
    f1, f2 = frame_energy_split(data.lat, g, f)  # analyzes f after g
    scale = 1.0 + norm_sq(f) * norm_sq(g)
    residual = abs(f1 + f2.real - energy)
    holds = residual <= config.tol * scale and abs(f2.imag) <= config.tol * scale
    out = {
        **_header(data.lat),
        "F1": f1,
        "F2": f2.real,
        "F2_imag": f2.imag,
        "coefficient_energy": energy,
        "identity_residual": residual,
        "holds": holds,
    }
    return (0 if holds else 1), out


def _cmd_bounds(data: ParsedInput, config: JobConfig):
    (g,) = _require(data, "g")
    out = {
        **_header(data.lat),
        "bounds": frame_bounds(data.lat, g).to_dict(),
        "walnut_upper_bound": walnut_upper_bound(data.lat, g),
    }
    return 0, out


def _cmd_profile(data: ParsedInput, config: JobConfig):
    (g,) = _require(data, "g")
    profile = correlation_profile(data.lat, g)
    if (config.format or "csv") == "csv":
        return 0, profile.to_csv()
    rows = [
        [k, x, profile.table[k, x].real, profile.table[k, x].imag, abs(profile.table[k, x])]
        for k in range(data.lat.b)
        for x in range(data.lat.L)
    ]
    return 0, {"columns": ["k", "x", "re", "im", "abs"], "rows": rows}


_HANDLERS = {
    "analyze": _cmd_analyze,
    "check-tight": _cmd_check_tight,
    "make-tight": _cmd_make_tight,
    "dual": _cmd_dual,
    "verify-dual": _cmd_verify_dual,
    "wexler-raz": _cmd_wexler_raz,
    "fourier-dual": _cmd_fourier_dual,
    "wh-identity": _cmd_wh_identity,
    "bounds": _cmd_bounds,
    "profile": _cmd_profile,
}

COMMANDS = tuple(_HANDLERS)


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".whframe-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def run(config: JobConfig) -> int:
    """Execute one job; returns the process exit code."""
    try:
        data = parse_signal_file(config.input_path)
        code, payload = _HANDLERS[config.command](data, config)
        text = payload if isinstance(payload, str) else json.dumps(payload, indent=2) + "\n"
        _write_output(text, config.output_path)  # a failed write is an I/O error too
    except (ValueError, OSError, MemoryError) as e:  # whframe's errors are ValueErrors
        _emit_error(e)
        return 2
    return code


def _emit_error(e: Exception) -> None:
    obj = {"error": {"type": type(e).__name__, "message": str(e)}}
    sys.stderr.write(json.dumps(obj) + "\n")


class _Parser(argparse.ArgumentParser):
    """Usage errors raise instead of exiting, so main reports them as JSON."""

    def error(self, message):
        raise argparse.ArgumentError(None, message)


def _tolerance(flag: float | None) -> float:
    """--tol, else WHFRAME_TOL, else DEFAULT_TOL."""
    if flag is not None:
        return flag
    raw = os.environ.get("WHFRAME_TOL", "")
    try:
        return float(raw) if raw else DEFAULT_TOL
    except ValueError:
        raise ValueError(f"WHFRAME_TOL is not a number: {raw!r}") from None


def main(argv: list[str] | None = None) -> int:
    parser = _Parser(prog="whframe", description="Finite Weyl-Heisenberg frame analysis on Z_L.")
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--input", required=True, help="input JSON file")
    parser.add_argument("--output", default=None, help="output file (default: stdout)")
    parser.add_argument("--tol", type=float, default=None,
                        help=f"tolerance (default: WHFRAME_TOL env var or {DEFAULT_TOL})")
    parser.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    parser.add_argument("--format", choices=("json", "csv"), default=None,
                        help="output format (csv only for profile)")
    try:
        args = parser.parse_args(argv)
        config = JobConfig(args.command, args.input, args.output, _tolerance(args.tol),
                           args.seed, args.format)
    except (argparse.ArgumentError, ValueError) as e:
        _emit_error(e)
        return 2
    return run(config)


def entry_point() -> None:
    raise SystemExit(main())
