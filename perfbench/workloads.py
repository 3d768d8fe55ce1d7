"""The three whframe workloads: seeded inputs, one op, correctness gate.

Each workload builds a fixed pool of slots from the seed. A slot fixes the
lattice and the kind of window; the seed fixes the random content. The
timed loop runs whole rounds over the pool, so every run has the same mix
of sizes whatever the seed.

Every op is checked twice after the loop. The hard gate fails an op that
raised, wrote malformed output, or whose CLI exit code or report differs
from the in-process library on the same input. The label gate fails an op
whose verdict differs from what its construction guarantees (tight, tight
times c, Gaussian, zero on a coset, over-dense, near-singular) or from the
brute-force oracle. Known defects fail the label gate on purpose: tight
windows times 1e3 get no tight constant, and a near-singular window passes
`dual` but fails `analyze`.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import whframe as wf
from whframe import cli, oracle
from whframe.errors import NotAFrameError

from tracing import NullTracer

TOL = 1e-9  # library and CLI default
ORACLE_MAX_L = 120  # largest L the brute-force oracle is run on
NULL = NullTracer()


@dataclass
class Slot:
    """One pool entry. kind is the window kind, or the command for a CLI job."""

    lat: wf.GaborLattice
    kind: str
    g: np.ndarray | None = None
    extra: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"({self.lat.L},{self.lat.a},{self.lat.b}) {self.kind}"


@dataclass
class Outcome:
    hard: str | None = None
    label: str | None = None


def _rel_close(x, y, rtol) -> bool:
    x = np.asarray(x, dtype=np.complex128)
    y = np.asarray(y, dtype=np.complex128)
    scale = max(float(np.max(np.abs(y), initial=0.0)), 1e-300)
    return x.shape == y.shape and float(np.max(np.abs(x - y), initial=0.0)) <= rtol * scale


def _gaussian(rng, L: int) -> np.ndarray:
    return rng.standard_normal(L) + 1j * rng.standard_normal(L)


def _synthesis_span(lat: wf.GaborLattice) -> str:
    return "synthesis.critical" if lat.is_critical else "synthesis.oversampled"


def _tight(lat: wf.GaborLattice, seed: int, T) -> np.ndarray:
    g = T.call(_synthesis_span(lat), wf.random_tight_generator, lat, seed, L=lat.L)
    if lat.is_critical:
        spec = T.call("synthesis.phases_from", wf.phases_from_tight_generator, lat, g, L=lat.L)
        if not _rel_close(wf.tight_generator_from_phases(spec), g, 1e-9):
            raise RuntimeError(f"phase round trip failed on {lat}")
    return g


def _near_singular(lat: wf.GaborLattice, rng, ratio: float) -> np.ndarray:
    """Critical-density window whose frame bounds have A/B == ratio.

    At a*b == L the frame operator's eigenvalues are L * |w_y(j)|^2 over the
    residue spectra, so scaling one bin by sqrt(ratio) sets A/B.
    """
    spectra = np.exp(2j * np.pi * rng.random((lat.a, lat.b))) / np.sqrt(lat.L)
    spectra[rng.integers(lat.a), rng.integers(lat.b)] *= np.sqrt(ratio)
    g = np.empty(lat.L, dtype=np.complex128)
    for y in range(lat.a):
        g[y::lat.a] = np.fft.ifft(spectra[y], norm="ortho")
    return g


def _window(lat: wf.GaborLattice, kind: str, rng, T) -> np.ndarray:
    if kind.startswith("tight"):
        scale = float(kind.partition("*")[2] or 1.0)
        return scale * _tight(lat, int(rng.integers(2**31)), T)
    if kind == "gauss":
        return _gaussian(rng, lat.L)
    if kind == "coset0":
        g = _gaussian(rng, lat.L)
        g[int(rng.integers(lat.a))::lat.a] = 0.0
        return g
    if kind == "near-singular":
        return _near_singular(lat, rng, 3e-10)
    raise ValueError(f"unknown window kind {kind!r}")


def _outcomes(records, label) -> list[Outcome]:
    """A hard failure for each op that raised, else the label gate's verdict."""
    return [Outcome(hard=f"{type(err).__name__}: {err}") if err is not None
            else Outcome(label=label(i, result)) for i, _, result, err in records]


class Workload:
    """A seeded pool of slots; subclasses define the op and its gates."""

    name = ""
    POOL: list = []
    # L -> times a round runs each slot of that L. The slots that set a
    # quantile or most of the round's time get enough ops for a steady
    # mean.
    REPS: dict = {}
    # Rounds a timed run makes at least, so that ten op times lie beyond
    # op_p90_ms.
    MIN_ROUNDS = 3

    def __init__(self, seed: int, workdir: Path, T):
        self.workdir = workdir
        self.slots = []
        for i, (lattice, kind) in enumerate(self.POOL):
            rng = np.random.default_rng([seed, i])
            self.slots.append(self.make_slot(wf.GaborLattice(*lattice), kind, rng, T))
        self.extra_metrics: dict = {}

    def make_slot(self, lat, kind, rng, T) -> Slot:
        return Slot(lat, kind, _window(lat, kind, rng, T))

    def warmup(self) -> None:
        """Run each small slot once so lazy library set-up is not timed."""
        for i, slot in enumerate(self.slots):
            if slot.lat.L <= ORACLE_MAX_L:
                self.op(i, NULL)

    def reps(self, i: int) -> int:
        return self.REPS.get(self.slots[i].lat.L, 1)

    def op(self, i: int, T):
        raise NotImplementedError

    def split(self, i: int, result, T) -> None:
        """Traced runs only: call the op's layers one by one."""

    def check(self, records, T=NULL) -> list[Outcome]:
        raise NotImplementedError

    def peak_rss_mib(self, records) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def cleanup(self) -> None:
        pass


class VerdictLadder(Workload):
    """classify(lat, g) over critical, 2x and 4x lattices, L = 48 .. 960."""

    name = "verdict-ladder"
    # One round, cheapest first: 7 slots at L=48; six slots of one cost
    # (L=96, 4x, and L=120, 2x) that hold op_p50_ms; then the slower
    # slots. The two L=480 slots of one lattice hold op_p90_ms, and the
    # L=960 slot takes about half of the round's time.
    POOL = [
        ((48, 4, 6), "tight"), ((48, 4, 6), "tight*1e3"), ((48, 4, 6), "gauss"),
        ((48, 6, 8), "tight"), ((48, 6, 8), "tight*1e-3"), ((48, 4, 3), "coset0"),
        ((48, 8, 12), "gauss"),
        ((96, 4, 6), "tight"), ((96, 4, 6), "tight*1e3"), ((96, 4, 6), "gauss"),
        ((96, 4, 6), "coset0"), ((96, 4, 6), "tight*1e-3"), ((120, 6, 10), "tight"),
        ((120, 12, 20), "gauss"), ((48, 1, 1), "tight*1e3"),
        ((240, 12, 20), "tight*1e-3"), ((240, 12, 10), "coset0"), ((240, 6, 10), "gauss"),
        ((480, 16, 15), "gauss"), ((480, 16, 15), "tight*1e3"),
        ((960, 24, 20), "tight"),
    ]
    REPS = {48: 3, 96: 3, 120: 3, 240: 2, 480: 3, 960: 2}

    def op(self, i, T):
        s = self.slots[i]
        with T.span("tightness.classify", L=s.lat.L) as rec:
            report = wf.classify(s.lat, s.g)
            rec["not_a_frame"] = int(not report.is_frame)
        return report

    def split(self, i, result, T):
        s = self.slots[i]
        lat, g = s.lat, s.g
        ab = lat.a * lat.b
        T.call("correlation.table", wf.correlation_profile, lat, g, L=lat.L, split=True)
        T.call("frame.operator", wf.frame_operator, lat, g, L=lat.L, split=True)
        T.call("frame.bounds", wf.frame_bounds, lat, g, L=lat.L, split=True)
        T.call("tightness.cond2", wf.check_cond_walnut, lat, g, split=True)
        T.call("tightness.cond3", wf.check_cond_adjoint, lat, g, split=True)
        T.call("tightness.cond4", wf.check_cond_orthogonal_system, lat, g,
               pairs=ab * (ab - 1) // 2, split=True)
        T.call("tightness.cond5", wf.check_cond_fixed_point, lat, g, TOL, L=lat.L, split=True)
        with T.span("lattice.atoms", atoms=lat.atom_count + ab, split=True):
            for m in range(lat.M):
                for n in range(lat.N):
                    wf.gabor_atom(lat, g, m, n)
            for k in range(lat.a):
                for l in range(lat.b):
                    wf.adjoint_atom(lat, g, k, l)

    def _label(self, s: Slot, r) -> str | None:
        if s.kind.startswith("tight*"):
            c2 = float(s.kind.partition("*")[2]) ** 2
            if r.tight_constant is None or abs(r.tight_constant - c2) > 1e-6 * c2:
                return f"tight_constant {r.tight_constant} for c^2 = {c2:g}"
            ok = r.is_frame and not r.normalized_tight
        elif s.kind == "tight":
            ok = r.is_frame and r.normalized_tight
        elif s.kind == "gauss" and s.lat.a * s.lat.b <= s.lat.L:
            ok = r.is_frame and r.tight_constant is None
        else:
            ok = not r.is_frame
        return None if ok else f"verdict {r.is_frame=} {r.normalized_tight=}"

    def check(self, records, T=NULL):
        oracle_label = {}
        for i, s in enumerate(self.slots):
            if s.lat.L > ORACLE_MAX_L:
                continue
            t0 = time.perf_counter()
            r = wf.classify(s.lat, s.g)
            prod = time.perf_counter() - t0
            with T.span("oracle.check", L=s.lat.L, prod_s=prod) as rec:
                ob = oracle.oracle_frame_bounds(s.lat, s.g)
                otc = oracle.oracle_tight_constant(s.lat, s.g)
            agree = (
                abs(r.bounds.A - ob.A) <= 1e-7 * ob.B
                and abs(r.bounds.B - ob.B) <= 1e-7 * ob.B
                and (r.tight_constant is None) == (otc is None)
                and (otc is None or abs(r.tight_constant - otc) <= 1e-7 * otc)
            )
            rec["disagree"] = int(not agree)
            if not agree:
                oracle_label[i] = f"oracle: tight_constant {otc}, bounds {ob}"
        return _outcomes(records, lambda i, result: (
            self._label(self.slots[i], result) or oracle_label.get(i)))


class DualDesign(Workload):
    """One design job: window, canonical dual, dual space, alternate dual,
    its decomposition and a reconstruction, on 2x and 4x lattices."""

    name = "dual-design"
    # One round, cheapest first: six small slots; five Gaussian slots of
    # one lattice that hold op_p50_ms; three slower slots; two Gaussian
    # L=240 slots that hold op_p90_ms; one L=480 slot. 9 tight, 8 Gaussian.
    POOL = [
        ((48, 4, 6), "tight"), ((48, 4, 6), "tight"), ((48, 4, 3), "tight"),
        ((48, 4, 3), "gauss"), ((96, 6, 8), "tight"), ((96, 6, 8), "tight"),
        ((120, 6, 10), "gauss"), ((120, 6, 10), "gauss"), ((120, 6, 10), "gauss"),
        ((120, 6, 10), "gauss"), ((120, 6, 10), "gauss"),
        ((96, 4, 6), "tight"), ((120, 5, 6), "tight"), ((120, 5, 6), "tight"),
        ((240, 12, 10), "gauss"), ((240, 12, 10), "gauss"),
        ((480, 16, 15), "tight"),
    ]
    REPS = {48: 2, 96: 2, 120: 2, 240: 2, 480: 3}
    MIN_ROUNDS = 4

    def make_slot(self, lat, kind, rng, T):
        dim = lat.L - lat.a * lat.b  # generic windows: the a*b adjoint atoms are independent
        return Slot(lat, kind, extra={
            "job_seed": int(rng.integers(2**31)),
            "coeffs": _gaussian(rng, dim),
            "f": _gaussian(rng, lat.L),
        })

    def op(self, i, T):
        s = self.slots[i]
        lat, x = s.lat, s.extra
        if s.kind == "tight":
            g = T.call(_synthesis_span(lat), wf.random_tight_generator, lat, x["job_seed"], L=lat.L)
        else:
            g = _gaussian(np.random.default_rng(x["job_seed"]), lat.L)
        h0 = T.call("frame.dual", wf.canonical_dual, lat, g, L=lat.L)
        with T.span("duality.dual_space", L=lat.L) as rec:
            dim = wf.dual_space(lat, g).dimension
            rec["dim"] = dim
        h = T.call("duality.alternate_dual", wf.make_alternate_dual, lat, g, x["coeffs"], L=lat.L)
        report = T.call("duality.decompose", wf.decompose_dual, lat, g, h, L=lat.L)
        f_rec = T.call("frame.reconstruct", wf.reconstruct, lat, g, h, x["f"], L=lat.L)
        return g, h0, dim, h, report, f_rec

    def split(self, i, result, T):
        s = self.slots[i]
        g, _, _, h, _, _ = result
        with T.span("duality.certificates", split=True):
            wf.wexler_raz_check(s.lat, g, h)
            wf.dual_conditions_walnut(s.lat, g, h)

    def _label(self, s: Slot, result) -> str | None:
        g, h0, dim, h, report, f_rec = result
        if dim != s.lat.L - s.lat.a * s.lat.b:
            return f"dual space dimension {dim}"
        if not (report.is_dual and report.free_part_in_complement):
            return f"alternate dual rejected: wr={report.wexler_raz_residual:.2e}"
        if not _rel_close(f_rec, s.extra["f"], 1e-8):
            return "reconstruct(g, h, f) != f"
        if s.kind == "tight" and not _rel_close(h0, g, 1e-8):
            return "canonical dual of a tight window != window"
        return None

    def check(self, records, T=NULL):
        oracle_label = {}
        first = {}
        for i, _, result, err in records:
            if err is None:
                first.setdefault(i, result)
        for i, result in sorted(first.items()):
            s = self.slots[i]
            if s.lat.L > ORACLE_MAX_L:
                continue
            g, _, _, h, report, _ = result
            t0 = time.perf_counter()
            wf.decompose_dual(s.lat, g, h)
            prod = time.perf_counter() - t0
            with T.span("oracle.check", L=s.lat.L, prod_s=prod) as rec:
                is_dual = oracle.oracle_is_dual(s.lat, g, h)
            rec["disagree"] = int(is_dual != report.is_dual)
            if not is_dual:
                oracle_label[i] = "oracle rejects the alternate dual"
        return _outcomes(records, lambda i, result: (
            self._label(self.slots[i], result) or oracle_label.get(i)))


def _pairs(s) -> list:
    return [[float(z.real), float(z.imag)] for z in np.asarray(s, dtype=np.complex128)]


def _unpairs(raw) -> np.ndarray:
    arr = np.asarray(raw, dtype=float)
    return arr[:, 0] + 1j * arr[:, 1]


@dataclass
class CliResult:
    code: int
    out: Path
    err: Path
    maxrss_kib: int


class CliJobs(Workload):
    """One `python -m whframe <cmd>` child process per op, all ten commands."""

    name = "cli-jobs"
    # Input files: lattice, window kind, and what else the file carries.
    FILES = {
        "F1": ((48, 4, 6), "tight", ("h_alt", "f")),
        "F2": ((48, 4, 6), "tight*1e3", ()),
        "F3": ((96, 4, 6), "gauss", ("h_self", "f")),
        "F4": ((48, 4, 6), "gauss", ("f",)),
        "F5": ((48, 6, 8), "coset0", ()),
        "F6": ((48, 6, 8), "near-singular", ()),
        "F7": ((96, 4, 6), "coset0", ()),
        "F8": ((48, 6, 8), "phases", ()),
        "F9": ((96, 4, 6), "lattice-only", ()),
        "F10": ((240, 12, 10), "tight", ()),
        "F11": ((240, 12, 10), "gauss", ()),
        "F12": ((240, 12, 10), "tight*1e-3", ()),
        "F13": ((480, 16, 15), "tight", ("h_self",)),
        "F14": ((240, 12, 10), "tight", ()),
    }
    # (command, file, exit code the construction calls for). One round,
    # cheapest first: 20 small jobs hold op_p50_ms, the four L=240 `dual`
    # jobs hold op_p90_ms, and `analyze` at L=480 is the slowest.
    JOBS = [
        ("check-tight", "F1", 0), ("check-tight", "F2", 1), ("check-tight", "F3", 1),
        ("analyze", "F1", 0), ("analyze", "F5", 1), ("analyze", "F6", 0),
        ("dual", "F1", 0), ("dual", "F5", 2), ("dual", "F6", 0),
        ("verify-dual", "F1", 0), ("profile", "F1", 0), ("profile", "F13", 0),
        ("wh-identity", "F4", 0), ("bounds", "F7", 0),
        ("make-tight", "F8", 0), ("make-tight", "F9", 0), ("fourier-dual", "F1", 0),
        ("wexler-raz", "F1", 0), ("wexler-raz", "F3", 1), ("wexler-raz", "F13", 0),
        ("dual", "F10", 0), ("dual", "F11", 0), ("dual", "F12", 0), ("dual", "F14", 0),
        ("analyze", "F13", 0),
    ]
    MIN_ROUNDS = 5

    def __init__(self, seed, workdir, T):
        self.workdir = workdir
        self.files = {}
        workdir.mkdir(parents=True, exist_ok=True)
        for j, (key, (lattice, kind, carries)) in enumerate(self.FILES.items()):
            rng = np.random.default_rng([seed, j])
            lat = wf.GaborLattice(*lattice)
            data = {"L": lat.L, "a": lat.a, "b": lat.b}
            arrays = {"lat": lat, "kind": kind}
            if kind == "phases":
                arrays["phases"] = rng.random((lat.a, lat.b))
                data["phases"] = arrays["phases"].tolist()
            elif kind != "lattice-only":
                arrays["g"] = _window(lat, kind, rng, T)
                if "h_alt" in carries:
                    dim = lat.L - lat.a * lat.b
                    arrays["h"] = wf.make_alternate_dual(lat, arrays["g"], _gaussian(rng, dim))
                if "h_self" in carries:
                    arrays["h"] = arrays["g"]
                if "f" in carries:
                    arrays["f"] = _gaussian(rng, lat.L)
                for name in ("g", "h", "f"):
                    if name in arrays:
                        data[name] = _pairs(arrays[name])
            path = workdir / f"{key}.json"
            path.write_text(json.dumps(data))
            arrays["path"] = path
            self.files[key] = arrays
        self.slots = [Slot(self.files[f]["lat"], cmd, extra={"file": f, "expect": e})
                      for cmd, f, e in self.JOBS]
        self.env = dict(os.environ)
        self.env.pop("WHFRAME_TOL", None)
        self.env["PYTHONPATH"] = str(Path(wf.__file__).resolve().parent.parent)
        self.n_out = 0
        self.extra_metrics = {}

    def warmup(self):
        self.op(0, NULL)

    def op(self, i, T):
        s = self.slots[i]
        out = self.workdir / f"out-{self.n_out}"
        err = self.workdir / f"err-{self.n_out}"
        self.n_out += 1
        args = [sys.executable, "-m", "whframe", s.kind,
                "--input", str(self.files[s.extra["file"]]["path"]), "--output", str(out)]
        with T.span("cli.process", L=s.lat.L), open(err, "wb") as ef:
            proc = subprocess.Popen(args, stdout=subprocess.DEVNULL, stderr=ef, env=self.env)
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        return CliResult(proc.returncode, out, err, usage.ru_maxrss)

    def library(self, cmd: str, key: str, T):
        """The in-process library verdict for one job: (exit code, fields)."""
        x = self.files[key]
        lat, g, h, f = x["lat"], x.get("g"), x.get("h"), x.get("f")
        try:
            if cmd in ("check-tight", "analyze"):
                with T.span("tightness.classify", L=lat.L) as rec:
                    r = wf.classify(lat, g, TOL)
                    rec["not_a_frame"] = int(not r.is_frame)
                fields = {"is_frame": r.is_frame, "normalized_tight": r.normalized_tight,
                          "tight_constant": r.tight_constant}
                if cmd == "check-tight":
                    return (0 if r.normalized_tight else 1), fields
                T.call("frame.norm_audit", wf.norm_audit, lat, g, TOL, L=lat.L)
                if r.is_frame:
                    T.call("tightness.density_diag", wf.density_diagnostics, lat, g, L=lat.L)
                return (0 if r.is_frame else 1), fields
            if cmd == "dual":
                h0 = T.call("frame.dual", wf.canonical_dual, lat, g, L=lat.L)
                with T.span("duality.dual_space", L=lat.L) as rec:
                    rec["dim"] = wf.dual_space(lat, g).dimension
                return 0, {"canonical_dual": h0, "dimension": rec["dim"]}
            if cmd == "verify-dual":
                rep = T.call("duality.decompose", wf.decompose_dual, lat, g, h, TOL, L=lat.L)
                return (0 if rep.is_dual else 1), {"is_dual": rep.is_dual}
            if cmd == "wexler-raz":
                ok = T.call("duality.certificates", wf.wexler_raz_check, lat, g, h) <= TOL
                return (0 if ok else 1), {"is_dual": ok}
            if cmd == "fourier-dual":
                ok = T.call("tightness.fourier_dual", wf.fourier_dual_check, lat, g, TOL, L=lat.L)
                return (0 if ok else 1), {"agree": ok}
            if cmd == "wh-identity":
                f1, f2 = T.call("correlation.energy_split", wf.frame_energy_split, lat, g, f)
                # <S f, f> is the coefficient energy, computed without the oracle
                energy = float(np.real(np.vdot(f, T.call("frame.walnut_apply", wf.walnut_apply, lat, g, f))))
                scale = 1.0 + wf.norm_sq(f) * wf.norm_sq(g)
                ok = abs(f1 + f2.real - energy) <= TOL * scale and abs(f2.imag) <= TOL * scale
                return (0 if ok else 1), {"holds": ok}
            if cmd == "bounds":
                b = T.call("frame.bounds", wf.frame_bounds, lat, g, L=lat.L)
                return 0, {"A": b.A, "B": b.B}
            if cmd == "profile":
                p = T.call("correlation.table", wf.correlation_profile, lat, g, L=lat.L)
                return 0, {"table": p.table}
            if cmd == "make-tight":
                if "phases" in x:
                    spec = wf.PhaseSpec(lat, x["phases"])
                    g_out = T.call("synthesis.critical", wf.tight_generator_from_phases, spec, L=lat.L)
                else:
                    g_out = T.call(_synthesis_span(lat), wf.random_tight_generator, lat, 0, L=lat.L)
                return 0, {"g": g_out}
        except NotAFrameError:
            return 2, {}
        raise ValueError(f"unknown command {cmd!r}")

    def split(self, i, result, T):
        s = self.slots[i]
        path = str(self.files[s.extra["file"]]["path"])
        T.call("cli.parse", cli.parse_signal_file, path, split=True)
        config = cli.JobConfig(command=s.kind, input_path=path,
                               output_path=str(self.workdir / "inproc-out"))
        T.call("cli.run", cli.run, config, split=True)
        with T.span("library", split=True):
            self.library(s.kind, s.extra["file"], T)

    def _hard(self, cmd, res: CliResult, lib_code, lib) -> str | None:
        """CLI output against the library verdict on the same file."""
        if res.code != lib_code:
            return f"exit {res.code}, library says {lib_code}"
        if res.code == 2:
            err = json.loads(res.err.read_text())
            return None if "error" in err else "exit 2 without a JSON error"
        text = res.out.read_text()
        if cmd == "profile":
            rows = text.splitlines()[1:]
            table = lib["table"]
            if len(rows) != table.size:
                return f"profile has {len(rows)} rows"
            vals = np.array([[float(v) for v in r.split(",")[2:4]] for r in rows])
            return None if _rel_close(vals[:, 0] + 1j * vals[:, 1], table.reshape(-1), 1e-12) else "profile values"
        out = json.loads(text)
        if cmd in ("check-tight", "analyze"):
            t = out["tightness"]
            same = (t["is_frame"], t["normalized_tight"], t["tight_constant"] is None) == (
                lib["is_frame"], lib["normalized_tight"], lib["tight_constant"] is None)
            return None if same else "tightness report differs from classify"
        if cmd == "dual":
            ok = (_rel_close(_unpairs(out["canonical_dual"]), lib["canonical_dual"], 1e-9)
                  and out["dual_space"]["dimension"] == lib["dimension"])
            return None if ok else "dual report differs from canonical_dual/dual_space"
        if cmd == "verify-dual":
            return None if out["dual_report"]["is_dual"] == lib["is_dual"] else "is_dual differs"
        if cmd == "wexler-raz":
            return None if out["is_dual"] == lib["is_dual"] else "is_dual differs"
        if cmd == "fourier-dual":
            return None if out["agree"] == lib["agree"] else "agree differs"
        if cmd == "wh-identity":
            return None if out["holds"] == lib["holds"] else "holds differs"
        if cmd == "bounds":
            ok = _rel_close([out["bounds"]["A"], out["bounds"]["B"]], [lib["A"], lib["B"]], 1e-9)
            return None if ok else "bounds differ"
        if cmd == "make-tight":
            return None if _rel_close(_unpairs(out["g"]), lib["g"], 1e-12) else "window differs"
        return None

    def _label(self, s: Slot, res: CliResult, codes) -> str | None:
        """CLI output against the construction of its input file."""
        cmd, key = s.kind, s.extra["file"]
        if res.code != s.extra["expect"]:
            return f"exit {res.code}, construction says {s.extra['expect']}"
        kind = self.files[key]["kind"]
        if cmd == "dual":
            analyze = codes.get(("analyze", key))
            if analyze is not None and (analyze == 0) != (res.code == 0):
                return f"dual exit {res.code} but analyze exit {analyze} on the same file"
        if res.code == 2:
            return None
        if cmd == "check-tight" and kind.startswith("tight"):
            c2 = float(kind.partition("*")[2] or 1.0) ** 2
            tc = json.loads(res.out.read_text())["tightness"]["tight_constant"]
            if tc is None or abs(tc - c2) > 1e-6 * c2:
                return f"tight_constant {tc} for c^2 = {c2:g}"
        if cmd == "make-tight":
            lat = self.files[key]["lat"]
            g = _unpairs(json.loads(res.out.read_text())["g"])
            if not wf.classify(lat, g).normalized_tight:
                return "make-tight window is not normalized tight"
        return None

    def check(self, records, T=NULL):
        lib = {}
        for cmd, key, _ in self.JOBS:
            lib[(cmd, key)] = self.library(cmd, key, NULL)
        codes = {k: v[0] for k, v in lib.items()}
        oracle_label = {}
        for key, x in self.files.items():
            if "g" not in x or x["lat"].L > ORACLE_MAX_L:
                continue
            lat, g = x["lat"], x["g"]
            t0 = time.perf_counter()
            r = wf.classify(lat, g)
            prod = time.perf_counter() - t0
            with T.span("oracle.check", L=lat.L, prod_s=prod) as rec:
                ob = oracle.oracle_frame_bounds(lat, g)
                otc = oracle.oracle_tight_constant(lat, g)
            agree = (abs(r.bounds.A - ob.A) <= 1e-7 * ob.B and abs(r.bounds.B - ob.B) <= 1e-7 * ob.B
                     and (r.tight_constant is None) == (otc is None))
            rec["disagree"] = int(not agree)
            if not agree:
                oracle_label[key] = f"oracle: tight_constant {otc}, bounds {ob}"
        outcomes, seen = [], {}
        mismatches = 0
        out_bytes = 0
        for i, _, res, err in records:
            if err is not None:
                outcomes.append(Outcome(hard=f"{type(err).__name__}: {err}"))
                continue
            s = self.slots[i]
            out_bytes += res.out.stat().st_size if res.out.exists() else 0
            digest = (i, res.code, _digest(res.out), _digest(res.err))
            if digest not in seen:
                lib_code, fields = lib[(s.kind, s.extra["file"])]
                try:
                    hard = self._hard(s.kind, res, lib_code, fields)
                    label = None if hard else self._label(s, res, codes)
                except (OSError, ValueError, KeyError, TypeError, IndexError) as e:
                    hard, label = f"malformed output: {type(e).__name__}: {e}", None
                seen[digest] = Outcome(hard=hard, label=label or oracle_label.get(s.extra["file"]))
            outcome = seen[digest]
            mismatches += int(res.code != lib[(s.kind, s.extra["file"])][0])
            outcomes.append(Outcome(outcome.hard, outcome.label))
        self.extra_metrics["cli.exit_mismatch"] = mismatches
        self.extra_metrics["cli.output_mib"] = out_bytes / 2**20 / max(len(records), 1)
        return outcomes

    def peak_rss_mib(self, records):
        return max((res.maxrss_kib for _, _, res, err in records if err is None),
                   default=0) / 1024.0

    def import_ms(self, repeats: int = 5) -> float:
        code = ("import time; t = time.perf_counter(); import whframe.cli; "
                "print(time.perf_counter() - t)")
        times = []
        for _ in range(repeats):
            done = subprocess.run([sys.executable, "-c", code], env=self.env, check=True,
                                  capture_output=True, text=True, timeout=60)
            times.append(float(done.stdout.strip()) * 1000)
        return float(np.median(times))

    def cleanup(self):
        for p in self.workdir.iterdir():
            p.unlink()
        self.workdir.rmdir()


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else ""


WORKLOADS = {w.name: w for w in (VerdictLadder, DualDesign, CliJobs)}
