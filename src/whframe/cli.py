"""Command-line front end: JSON in, JSON or CSV reports out.

Input files are JSON objects with integer lattice fields and complex
vectors as [re, im] pairs:

    {"L": 4, "a": 2, "b": 2,
     "g": [[0.7071, 0.0], ...],          # window (most commands)
     "h": [[...], ...],                  # second window (dual commands)
     "f": [[...], ...],                  # test signal (wh-identity)
     "phases": [[0.25, ...], ...]}       # a x b phase array (make-tight)

Reports are encoded here alone. Each _cmd_* handler returns (holds, values):
its verdict and the library's result values as they are, or profile's CSV
lines. run alone checks the fields _HANDLERS requires, calls the handler with
numpy's overflow and invalid-value flags raising, puts the header first,
encodes each value with _report (dataclasses field by field, complex values
as the same [re, im] pairs) and returns the exit code. Either report is one
stream of text chunks, JSON as it is encoded or CSV one table row at a time;
_write_to only writes it.

Exit codes: 0 when the computation succeeds and the checked property
holds, 1 when the property fails (not tight, not dual, not a frame), and
2 for input or usage errors and for results that overflow (no report holds
NaN or Infinity), reported as a JSON object on stderr.
Three commands write more than they read: profile b*L rows, dual (L - a*b)*L/c basis
pairs (c = gcd(a, M)), make-tight without phases L pairs. A job whose count, read off
(L, a, b) before any work, passes MAX_OUTPUT_VALUES exits 2 and writes nothing.
The WHFRAME_TOL environment variable overrides the default tolerance;
an explicit --tol beats both.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass, fields, is_dataclass
from itertools import chain, islice
from math import gcd

import numpy as np

from .correlation import correlation_profile, frame_energy_split, walnut_upper_bound
from .duality import decompose_dual, dual_space, wexler_raz_check
from .frame import DEFAULT_TOL, _check_tol, frame_bounds, norm_audit, walnut_apply
from .lattice import GaborLattice, as_signal, dft, norm_sq
from .synthesis import PhaseSpec, random_tight_generator, tight_generator_from_phases
from .tightness import classify, density_diagnostics

__all__ = ["JobConfig", "parse_signal_file", "run", "main", "entry_point"]

# The most rows or [re, im] pairs a job may write beyond its input.
MAX_OUTPUT_VALUES = 2**20


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
        _check_tol(self.tol)
        if self.seed < 0:
            raise ValueError(f"seed must be a non-negative integer, got {self.seed}")
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


def _number_rows(raw, name: str, width: int | None = None) -> np.ndarray:
    """Rows of JSON numbers (int or float, not bool), width or row 0 long, as floats."""
    row = "[re, im] number pair" if width == 2 else "list of numbers as long as row 0"
    if not isinstance(raw, list):
        raise ValueError(f"field {name!r} must be a list, each entry a {row}")
    for i, values in enumerate(raw):
        if not (isinstance(values, list) and len(values) == (width or len(raw[0]))
                and all(type(v) in (int, float) for v in values)):  # bool is no number
            raise ValueError(f"field {name!r}[{i}] must be a {row}")
    try:
        return np.array(raw, dtype=float)
    except OverflowError:
        raise ValueError(f"field {name!r} holds an integer too large for a float") from None


def _parse_vector(raw, name: str, L: int) -> np.ndarray:
    values = _number_rows(raw, name, 2).view(np.complex128).reshape(-1)
    try:
        return as_signal(values, L)
    except ValueError as e:
        raise ValueError(f"field {name!r}: {e}") from None


def parse_signal_file(path: str) -> ParsedInput:
    """Load and validate an input file against the schema above."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            data = json.load(fh)
        except RecursionError:  # the decoder recurses once per nesting level
            raise ValueError("input nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("input must be a JSON object")
    for name in ("L", "a", "b"):
        if name not in data:
            raise ValueError(f"missing required field {name!r}")
        if not isinstance(data[name], int) or isinstance(data[name], bool):
            raise ValueError(f"field {name!r} must be an integer")
    lat = GaborLattice(data["L"], data["a"], data["b"])
    signals = {name: _parse_vector(data[name], name, lat.L) if name in data else None
               for name in ("g", "h", "f")}
    phases = _number_rows(data["phases"], "phases") if "phases" in data else None
    return ParsedInput(lat=lat, phases=phases, **signals)


def _require(data: ParsedInput, *names: str) -> list[np.ndarray]:
    for name in names:
        if getattr(data, name) is None:
            raise ValueError(f"missing required field {name!r} for this command")
    return [getattr(data, name) for name in names]


def _report(value):
    """A library result as JSON values: a dataclass as its fields in order, a complex
    scalar or array as nested [re, im] float pairs, anything else as it is."""
    if is_dataclass(value):
        return {field.name: _report(getattr(value, field.name)) for field in fields(value)}
    if isinstance(value, (complex, np.ndarray)):
        value = np.asarray(value, dtype=np.complex128)
        return np.stack([value.real, value.imag], axis=-1).tolist()
    return value


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


def _cmd_analyze(data: ParsedInput, config: JobConfig, g):
    report = classify(data.lat, g, config.tol)
    density = density_diagnostics(data.lat, g) if report.is_frame else None
    return report.is_frame, {
        "tightness": report,
        "norm_audit": norm_audit(data.lat, g, config.tol),
        "density_diagnostics": density,
    }


def _cmd_check_tight(data: ParsedInput, config: JobConfig, g):
    report = classify(data.lat, g, config.tol)
    return report.normalized_tight, {"tightness": report}


def _cmd_make_tight(data: ParsedInput, config: JobConfig):
    if data.phases is not None:
        g = tight_generator_from_phases(PhaseSpec(data.lat, data.phases))
    else:
        g = random_tight_generator(data.lat, config.seed)
    return True, {
        "L": data.lat.L, "a": data.lat.a, "b": data.lat.b,
        "g": g,
        "norm_sq": norm_sq(g),
        "constants": _header(data.lat)["constants"],
    }


def _cmd_dual(data: ParsedInput, config: JobConfig, g):
    space = dual_space(data.lat, g)
    return True, {
        "canonical_dual": space.canonical_dual,
        "dual_space": {"orbit_rank": space.orbit_rank, "dimension": space.dimension,
                       "complement_basis": [{"residue": s, "values": row} for s, rows in
                                            enumerate(_report(space.class_rows)) for row in rows]},
    }


def _cmd_verify_dual(data: ParsedInput, config: JobConfig, g, h):
    report = decompose_dual(data.lat, g, h, config.tol)
    return report.is_dual, {"dual_report": report}


def _cmd_wexler_raz(data: ParsedInput, config: JobConfig, g, h):
    residual = wexler_raz_check(data.lat, g, h)
    is_dual = residual <= config.tol
    return is_dual, {"residual": residual, "is_dual": is_dual}


def _cmd_fourier_dual(data: ParsedInput, config: JobConfig, g):
    here = classify(data.lat, g, config.tol)
    swapped = data.lat.swapped()
    there = classify(swapped, dft(g), config.tol)
    agree = here.normalized_tight == there.normalized_tight
    return agree, {
        "lattice": _lattice_dict(data.lat),
        "swapped_lattice": _lattice_dict(swapped),
        "tightness": here,
        "swapped_tightness": there,
        "agree": agree,
    }


def _cmd_wh_identity(data: ParsedInput, config: JobConfig, g, f):
    energy = float(np.real(np.vdot(f, walnut_apply(data.lat, g, f))))
    f1, f2 = frame_energy_split(data.lat, g, f)
    scale = 1.0 + norm_sq(f) * norm_sq(g)
    residual = abs(f1 + f2.real - energy)
    holds = residual <= config.tol * scale and abs(f2.imag) <= config.tol * scale
    return holds, {
        "F1": f1,
        "F2": f2.real,
        "F2_imag": f2.imag,
        "coefficient_energy": energy,
        "identity_residual": residual,
        "holds": holds,
    }


def _cmd_bounds(data: ParsedInput, config: JobConfig, g):
    return True, {"bounds": frame_bounds(data.lat, g),
                  "walnut_upper_bound": walnut_upper_bound(data.lat, g)}


def _cmd_profile(data: ParsedInput, config: JobConfig, g):
    # k-major rows of Python floats, -0.0 read as 0.0; a float's str is its shortest repr
    columns, table = ["k", "x", "re", "im", "abs"], correlation_profile(data.lat, g).table
    rows = ([k, x, v.real + 0.0, v.imag + 0.0, abs(v) + 0.0]
            for k in range(len(table)) for x, v in enumerate(table[k].tolist()))
    if (config.format or "csv") == "csv":  # lines, formatted one table row at a time
        return True, (",".join(map(str, row)) + "\n" for row in chain([columns], rows))
    return True, {"columns": columns, "rows": list(rows)}


# command: (handler, the input fields it requires, whether its report opens with _header)
_HANDLERS = {
    "analyze": (_cmd_analyze, ("g",), True),
    "check-tight": (_cmd_check_tight, ("g",), True),
    "make-tight": (_cmd_make_tight, (), False),
    "dual": (_cmd_dual, ("g",), True),
    "verify-dual": (_cmd_verify_dual, ("g", "h"), True),
    "wexler-raz": (_cmd_wexler_raz, ("g", "h"), True),
    "fourier-dual": (_cmd_fourier_dual, ("g",), False),
    "wh-identity": (_cmd_wh_identity, ("g", "f"), True),
    "bounds": (_cmd_bounds, ("g",), True),
    "profile": (_cmd_profile, ("g",), False),
}

COMMANDS = tuple(_HANDLERS)


def _check_output_size(command: str, data: ParsedInput) -> None:
    """Refuse a job whose output, counted from (L, a, b), passes MAX_OUTPUT_VALUES."""
    L, a, b = data.lat.L, data.lat.a, data.lat.b
    count = {"profile": b * L,
             "dual": max(L - a * b, 0) * L // gcd(a, data.lat.M),
             "make-tight": L if data.phases is None else 0}.get(command, 0)
    if count > MAX_OUTPUT_VALUES:
        raise ValueError(f"{command} would write {count} values, over the limit of "
                         f"{MAX_OUTPUT_VALUES}")


def _write_to(fh, chunks) -> None:
    """Write an iterator of text chunks, 2**16 per write: no whole report is held."""
    while batch := "".join(islice(chunks, 2**16)):
        fh.write(batch)


def _write_output(chunks, path: str | None) -> None:
    if path is None:
        _write_to(sys.stdout, chunks)
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".whframe-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            _write_to(fh, chunks)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def run(config: JobConfig) -> int:
    """Execute one job and return its exit code. The one writer of reports: it checks
    the required fields, puts the header first and encodes what the handler returns."""
    try:
        data = parse_signal_file(config.input_path)
        _check_output_size(config.command, data)
        handler, required, headed = _HANDLERS[config.command]
        with np.errstate(over="raise", invalid="raise"):  # a non-finite result is an error
            holds, values = handler(data, config, *_require(data, *required))
        if isinstance(values, dict):  # else the profile CSV, already lines
            report = {**(_header(data.lat) if headed else {}),
                      **{name: _report(value) for name, value in values.items()}}
            values = chain(json.JSONEncoder(indent=2, allow_nan=False).iterencode(report), ["\n"])
        _write_output(values, config.output_path)  # a failed write is an I/O error too
    except (ValueError, FloatingPointError, OSError, MemoryError) as e:  # whframe raises ValueError
        _emit_error(e)
        return 2
    return 0 if holds else 1


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
