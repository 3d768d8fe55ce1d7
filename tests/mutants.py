"""Mutant sweep: which textual faults in src/whframe does tier-1 catch?

    python tests/mutants.py              # every mutant in MUTANTS, about 20-40 s each
    python tests/mutants.py NAME ...     # the named ones

Each mutant is an exact `old -> new` string in one file of the package, and
`old` occurs exactly once in that file; test_mutants.py checks both on every
tier-1 run, so the list cannot rot silently. For each mutant the tool copies
src/, tests/ and pyproject.toml into a temporary directory, which it removes,
applies the mutant to the copy, and runs tier-1 there in a child process,
with the copy's src first on PYTHONPATH, less test_mutants.py, whose check of
the old strings fails on every mutated copy by design:

    python -m pytest -q --continue-on-collection-errors --ignore=tests/test_mutants.py

It prints `killed` with the failing test ids, or `survived`. It never writes to
the tree it sits in. Exit status 1 if a mutant outside SURVIVORS survived.
Pytest does not collect this file.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    path: str  # relative to the repository root
    old: str
    new: str


FRAME, CLI = "src/whframe/frame.py", "src/whframe/cli.py"
MUTANTS = (
    Mutant("zak-axes", FRAME,  # _zak_layout's block axes swapped
           "W = np.empty((d, lat.b // d, lat.N // d), dtype=np.intp)\n"
           "    W[e, (-w - e) % lat.b // d, (w + e) % lat.N // d] = w",
           "W = np.empty((d, lat.N // d, lat.b // d), dtype=np.intp)\n"
           "    W[e, (w + e) % lat.N // d, (-w - e) % lat.b // d] = w"),
    Mutant("zak-in-block", FRAME, "e = -w % d", "e = w % d"),
    Mutant("walnut-dir", FRAME,  # forward DFT over j in _walnut
           "_walnut_layout(lat)]), axis=-2, inverse=True)", "_walnut_layout(lat)]), axis=-2)"),
    Mutant("walnut-twist", FRAME, "(i + q_w * j) % P", "(i + (q_w + 1) * j) % P"),
    Mutant("fold-sign", "src/whframe/correlation.py",
           "np.conj(translate(g, shift))", "np.conj(translate(g, -shift))"),
    Mutant("wr-as-walnut", FRAME,  # the Wexler-Raz residual read as the Walnut one
           "return float(np.abs(_dft(gap, axis=-2)).max()), float(np.abs(gap).max())",
           "return float(np.abs(gap).max()), float(np.abs(gap).max())"),
    Mutant("floor-1e-6", FRAME, "\nFRAME_FLOOR = 1e-10\n", "\nFRAME_FLOOR = 1e-6\n"),
    Mutant("free-order", FRAME, "for x, r in reversed(steps):", "for x, r in steps:"),
    Mutant("free-no-update", FRAME,
           "X = X[..., 1:, 1:] + x[..., 1:, None] * (steps[-1][1] @ X[..., 1:])",
           "X = X[..., 1:, 1:]"),
    Mutant("short-dft-0", FRAME, "\nSHORT_DFT = 32\n", "\nSHORT_DFT = 0\n"),
    Mutant("limit-off-by-one", CLI, "if count > MAX_OUTPUT_VALUES:", "if count >= MAX_OUTPUT_VALUES:"),
    Mutant("limit-count", CLI, "* L // gcd(a, data.lat.M),", "* L // gcd(b, data.lat.N),"),
    Mutant("no-newton", FRAME,  # no Newton-Schulz step on the dual
           "Zh = 2 * Zh - self.scale * (Zh @ _ct(self.Z)) @ Zh", "Zh = Zh"),
    Mutant("floor-1e-15", FRAME, "\nFRAME_FLOOR = 1e-10\n", "\nFRAME_FLOOR = 1e-15\n"),
    Mutant("audit-skip", FRAME, "overlaps.ravel()[1:]", "overlaps.ravel()[2:]"),
    Mutant("adjoint-gram-conj", "src/whframe/oracle.py",  # the Gram without its conjugate
           "return np.conj(A) @ A.T", "return A @ A.T"),
    Mutant("audit-lattice", FRAME,  # norm_audit's blocks on the lattice, not its adjoint
           "Z = _forward(adj, g)", "Z = _forward(lat, g)"),
    Mutant("energy-conj", FRAME,  # the probe's table in frame_energy_split not conjugated
           "G_gg * np.conj(_walnut(lat, Zf @ _ct(Zf)))", "G_gg * _walnut(lat, Zf @ _ct(Zf))"),
    Mutant("bound-axis", FRAME,  # walnut_upper_bound sums the table over its rows
           "np.max(np.sum(np.abs(table), axis=1))", "np.max(np.sum(np.abs(table), axis=0))"),
    Mutant("memo-bytes-only", FRAME,  # the memo's compare without the lattice
           "    if kept[0] != key:", "    if kept[0] is None or kept[0][1] != key[1]:"),
    Mutant("memo-evict-first", FRAME,  # the kept entry dropped before the finiteness scan
           "    if kept[0] != key:  # a miss: scan, build, and return this call's entry\n",
           "    if kept[0] != key:  # a miss: scan, build, and return this call's entry\n"
           "        _kept.pop(build, None)\n"),
)

# expected to survive, and why
SURVIVORS = {"floor-1e-15": "no test pins the frame gate between 1e-15 and 1e-10"}

FAILED = re.compile(r"^(?:FAILED|ERROR) (\S+)", re.MULTILINE)


def apply(mutant: Mutant, root: Path) -> None:
    """Apply the mutant to the tree at root, which must hold its old string exactly once."""
    path = root / mutant.path
    text = path.read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        raise ValueError(f"{mutant.name}: old string occurs {text.count(mutant.old)} times "
                         f"in {mutant.path}")
    path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")


def run(mutant: Mutant) -> list[str]:
    """Tier-1 on a mutated copy of this tree: the failing test ids, none if it survived."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{mutant.name}-") as tmp:
        copy = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, copy / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", copy)
        apply(mutant, copy)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [str(copy / "src")] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))
        where = subprocess.run([sys.executable, "-c", "import whframe; print(whframe.__file__)"],
                               cwd=copy, env=env, capture_output=True, text=True, check=True)
        if not Path(where.stdout.strip()).resolve().is_relative_to(copy.resolve()):
            raise RuntimeError(f"whframe imported from {where.stdout.strip()}, not from the copy")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
             "--ignore=tests/test_mutants.py", "-p", "no:cacheprovider", "--tb=no", "-rfE"],
            cwd=copy, env=env, capture_output=True, text=True)
        if proc.returncode not in (0, 1):
            return [f"pytest exit {proc.returncode}"]
        return FAILED.findall(proc.stdout) or ([] if proc.returncode == 0 else ["pytest exit 1"])


def main(argv: list[str]) -> int:
    by_name = {m.name: m for m in MUTANTS}
    unknown = [name for name in argv if name not in by_name]
    if unknown:
        print(f"unknown mutants: {', '.join(unknown)}; known: {', '.join(by_name)}\n{__doc__}",
              file=sys.stderr)
        return 2
    unexpected = []
    for mutant in [by_name[name] for name in argv] or MUTANTS:
        failing = run(mutant)
        if failing:
            print(f"{mutant.name}: killed, {len(failing)} failing", flush=True)
            print("".join(f"    {test}\n" for test in failing), end="", flush=True)
        else:
            expected = SURVIVORS.get(mutant.name)
            print(f"{mutant.name}: survived" + (f" (expected: {expected})" if expected else ""),
                  flush=True)
            if not expected:
                unexpected.append(mutant.name)
    if unexpected:
        print(f"unexpected survivors: {', '.join(unexpected)}")
    return 1 if unexpected else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
