"""Byte-for-byte sweep of the whframe CLI over a seeded input matrix.

Refactors that must not move any report are checked by running the same
inputs through two source trees and comparing exit codes and the SHA-256 of
stdout and stderr per run:

    python tests/cli_sweep.py against REV         # the working tree against git revision REV

`against` does the steps below in a temporary directory, which it removes:
it extracts REV's src/ and tests/cli_sweep.py with `git archive`, writes the
inputs with REV's tool, runs the matrix on REV's src/ and on this tree's src/,
each in a child process, and prints the compare (exit 1 if any run differs).
The steps also run one by one:

    python tests/cli_sweep.py inputs DIR          # once, from the reference tree
    python tests/cli_sweep.py run SRC DIR OUT     # per tree: SRC is its src directory
    python tests/cli_sweep.py compare A B         # exit 1 if any run differs

`inputs` imports whframe from the tree this file sits in and writes 87 files:
for each of 19 lattices a Gaussian window and, where a*b <= L, a tight one,
that tight one times 1e3 and a Gaussian zeroed on the coset a*Z_L; each with an
alternate dual (frames) or a random h, a probe f and, at a*b = L, phases; one
bare-lattice file per lattice; and the box, delta, impulse and over-dense box
fixtures. `run` calls cli.main in process on every file with each of the 14
argument lists in VARIANTS, 1,218 runs, after checking that whframe was
imported from SRC, and writes them to OUT with the SHA-256 of
SRC/whframe/*.py. Each run records its
exit code, the SHA-256 of its stdout and stderr, and that of stdout with every float
token masked (JSON and CSV floats carry a `.` or an exponent; integers such as
`dimension` stay). `compare` prints both hashes and warns when they are equal:
two runs of one source tree show nothing about a change. It lists the runs that
differ, each tagged `exit`, `structure` or `digits`, and counts those whose exit
code changed, those that differ in structure, verdicts or integers (masked stdout
or stderr), and those that differ in float digits only.
Pytest does not collect this file; test_cli.py::test_cli_sweep_on_the_fixtures
runs the matrix on the fixtures.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

import numpy as np

LATTICES = (
    (4, 2, 2), (4, 1, 2), (12, 3, 4), (48, 6, 8), (48, 4, 6), (120, 6, 10),
    (48, 4, 3), (48, 1, 1), (36, 4, 6), (60, 4, 10), (48, 8, 12), (120, 12, 20),
    (16, 2, 4), (24, 4, 6), (60, 6, 10), (96, 8, 12), (12, 4, 6), (960, 960, 960),
    (30, 3, 6),  # 3 x 5 Zak blocks: three Householder reflectors per block
)

# spelled out, not read from whframe.cli, so that both trees run the same argument lists
COMMANDS = ("analyze", "check-tight", "make-tight", "dual", "verify-dual", "wexler-raz",
            "fourier-dual", "wh-identity", "bounds", "profile")
VARIANTS = tuple([command] for command in COMMANDS) + (
    ["make-tight", "--seed", "5"], ["profile", "--format", "json"],
    ["check-tight", "--tol", "1e-3"], ["bounds", "--format", "csv"],
)

# a whole JSON or CSV number token with a fraction or an exponent
FLOAT = re.compile(r"(?<![\w.])-?\d+(?:\.\d*(?:[eE][-+]?\d+)?|[eE][-+]?\d+)(?![\w.])")

ROOT2_INV = 2 ** -0.5
FIXTURES = {
    "box": (4, 2, 2, [[ROOT2_INV, 0], [ROOT2_INV, 0], [0, 0], [0, 0]]),
    "delta": (4, 1, 2, [[ROOT2_INV, 0], [0, 0], [0, 0], [0, 0]]),
    "impulse": (4, 2, 2, [[1, 0], [0, 0], [0, 0], [0, 0]]),
    # density 2, no frame, and |g|^2 = B: norm_audit's overlaps on the adjoint lattice
    "over-dense-box": (12, 4, 6, [[0.5, 0]] * 4 + [[0, 0]] * 8),
}


def _pairs(s) -> list:
    return np.stack([s.real, s.imag], axis=-1).tolist()


def _write(directory: Path, name: str, payload: dict) -> None:
    (directory / f"{name}.json").write_text(json.dumps(payload))


def write_fixtures(directory) -> None:
    """The three conftest windows and an over-dense box at its upper bound, as the CLI
    reads them."""
    for name, (L, a, b, g) in FIXTURES.items():
        _write(Path(directory), name, {"L": L, "a": a, "b": b, "g": g})


def write_inputs(directory) -> None:
    """The full matrix: windows, bare lattices and fixtures (87 files)."""
    from whframe import GaborLattice, frame_bounds, make_alternate_dual, random_tight_generator

    directory = Path(directory)
    for L, a, b in LATTICES:
        lat, stem = GaborLattice(L, a, b), f"{L}-{a}-{b}"
        rng = np.random.default_rng([L, a, b])
        gaussian = lambda n: rng.standard_normal(n) + 1j * rng.standard_normal(n)
        windows = {"gaussian": gaussian(L)}
        if a * b <= L:
            tight = random_tight_generator(lat, L + a + b)
            zeroed = gaussian(L)
            zeroed[::a] = 0
            windows.update({"tight": tight, "tight1e3": 1e3 * tight, "coset-zero": zeroed})
        for kind, g in windows.items():
            h = (make_alternate_dual(lat, g, gaussian(L - a * b))
                 if frame_bounds(lat, g).is_frame else gaussian(L))
            payload = {"L": L, "a": a, "b": b,
                       "g": _pairs(g), "h": _pairs(h), "f": _pairs(gaussian(L))}
            if lat.is_critical:
                payload["phases"] = rng.random((a, b)).tolist()
            _write(directory, f"{stem}-{kind}", payload)
        _write(directory, f"{stem}-bare", {"L": L, "a": a, "b": b})
    write_fixtures(directory)


def mask_floats(text: str) -> str:
    """text with every float token replaced by #."""
    return FLOAT.sub("#", text)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run_matrix(directory) -> list[dict]:
    """Every input file under every variant, through whframe.cli.main in process."""
    from whframe.cli import main

    env = os.environ.pop("WHFRAME_TOL", None)
    records = []
    try:
        for path in sorted(Path(directory).glob("*.json")):
            for variant in VARIANTS:
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = main([*variant, "--input", str(path)])
                    except Exception as e:  # a traceback is a result too
                        code = f"raised {type(e).__name__}"
                        err.write(str(e))
                records.append({
                    "input": path.name,
                    "args": variant,
                    "exit": code,
                    "stdout": _sha256(out.getvalue()),
                    "stderr": _sha256(err.getvalue()),
                    "stdout_masked": _sha256(mask_floats(out.getvalue())),
                })
    finally:
        if env is not None:
            os.environ["WHFRAME_TOL"] = env
    return records


def package_digest(package: Path) -> str:
    """SHA-256 over the names and bytes of the package's *.py files, in name order."""
    digest = hashlib.sha256()
    for path in sorted(package.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def differences(a: list[dict], b: list[dict], fields=("exit", "stdout", "stderr")) -> list[str]:
    """The runs that differ in any of fields (by default exit code, stdout and stderr), or
    that only one side has."""
    key = lambda r: f"{r['input']} {' '.join(r['args'])}"
    left, right = {key(r): r for r in a}, {key(r): r for r in b}
    return [k for k in sorted(left.keys() | right.keys())
            if k not in left or k not in right or any(left[k][f] != right[k][f] for f in fields)]


def against(rev: str) -> int:
    """Sweep REV's src/ and this tree's src/ on inputs written by REV's tool; compare."""
    root = Path(__file__).resolve().parents[1]
    archive = subprocess.run(["git", "-C", str(root), "archive", rev, "src", "tests/cli_sweep.py"],
                             check=True, capture_output=True).stdout
    with tempfile.TemporaryDirectory(prefix="cli-sweep-") as tmp:
        tmp = Path(tmp)
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp / "rev")
        step = lambda *args: subprocess.run([sys.executable, *map(str, args)], check=True)
        step(tmp / "rev" / "tests" / "cli_sweep.py", "inputs", tmp / "inputs")
        for name, src in (("rev", tmp / "rev" / "src"), ("tree", root / "src")):
            step(__file__, "run", src, tmp / "inputs", tmp / f"{name}.json")
        return main(["compare", str(tmp / "rev.json"), str(tmp / "tree.json")])


def main(argv: list[str]) -> int:
    if argv[:1] == ["against"] and len(argv) == 2:
        return against(argv[1])
    if argv[:1] == ["inputs"] and len(argv) == 2:
        sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
        Path(argv[1]).mkdir(parents=True, exist_ok=True)
        write_inputs(argv[1])
        print(f"{len(list(Path(argv[1]).glob('*.json')))} input files in {argv[1]}")
        return 0
    if argv[:1] == ["run"] and len(argv) == 4:
        package = Path(argv[1]).resolve() / "whframe"
        sys.path.insert(0, str(package.parent))
        import whframe

        if Path(whframe.__file__).resolve().parent != package:
            raise RuntimeError(f"whframe imported from {whframe.__file__}, not from {package}")
        records = run_matrix(argv[2])
        result = {"package": str(package), "sha256": package_digest(package), "runs": records}
        Path(argv[3]).write_text(json.dumps(result, indent=1) + "\n")
        codes = [r["exit"] for r in records]
        print(f"{len(records)} runs: " + ", ".join(
            f"{codes.count(c)} x {c}" for c in sorted(set(codes), key=str)))
        return 0
    if argv[:1] == ["compare"] and len(argv) == 3:
        a, b = (json.loads(Path(p).read_text()) for p in argv[1:])
        print(f"A: {a['sha256']} {a['package']}\nB: {b['sha256']} {b['package']}")
        if a["sha256"] == b["sha256"]:
            print("A and B ran the same source: this compare shows nothing about a change")
        a, b = a["runs"], b["runs"]
        diff, exits = differences(a, b), set(differences(a, b, ("exit",)))
        structure = set(differences(a, b, ("exit", "stdout_masked", "stderr")))
        for run in diff:
            print(run, "exit" if run in exits else "structure" if run in structure else "digits")
        print(f"{len(diff)} of {max(len(a), len(b))} runs differ: {len(exits)} in exit code, "
              f"{len(structure) - len(exits)} in structure, verdicts or integers, "
              f"{len(diff) - len(structure)} in float digits only")
        return 1 if diff else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
