"""whframe benchmark: one seeded, closed-loop, single-caller workload per run.

    python3 perfbench/run.py --workload verdict-ladder --seed 1 --seconds 25 --trace 0

Run it from the root of a checkout; it imports whframe from ./src. With
--trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics from a traced run. The last line of stdout is one JSON object with
the keys correct, attempted, failed and metrics. Full results, with run
metadata and, for traced runs, every span, go to .perfbench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

from tracing import NullTracer, Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
WORKLOADS = ("verdict-ladder", "dual-design", "cli-jobs")
# A run sets up once in-process, then again in child processes between
# rounds, as long as those have taken at most SETUP_SHARE of the rounds'
# time so far, and at least SETUP_MIN times in all; setup_s is the median.
# Spread over the run, the set-ups are not all timed in one slow stretch
# of the host.
SETUP_MIN = 3
SETUP_SHARE = 0.1
# One BLAS thread: on a shared 2-CPU machine two threads widened the
# run-to-run spread of every timing metric.
BLAS_THREADS = 1
# Per-layer busy-time metrics: "<span name>_s" sums that span's self time.
BUSY_SPANS = (
    "lattice.atoms", "correlation.table", "correlation.energy_split",
    "frame.operator", "frame.bounds", "frame.dual", "frame.reconstruct", "frame.norm_audit",
    "tightness.classify", "tightness.cond2", "tightness.cond3", "tightness.cond4",
    "tightness.cond5", "tightness.density_diag", "tightness.fourier_dual",
    "synthesis.critical", "synthesis.oversampled", "synthesis.phases_from",
    "duality.dual_space", "duality.alternate_dual", "duality.decompose", "duality.certificates",
)
# Spans whose call assembles a dense L x L frame operator.
DENSE_S = {
    "frame.operator", "frame.bounds", "frame.dual", "frame.norm_audit",
    "tightness.classify", "tightness.cond5", "tightness.density_diag",
    "tightness.fourier_dual", "synthesis.oversampled", "duality.dual_space",
    "duality.alternate_dual", "duality.decompose",
}
CLASSIFY_PARTS = {
    "correlation.table", "frame.operator", "frame.bounds", "tightness.cond2",
    "tightness.cond3", "tightness.cond4", "tightness.cond5", "lattice.atoms",
}


def timed_setup(name: str, seed: int, workdir: Path, T):
    """Import whframe from ./src and build the workload's inputs; time both."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import whframe

    if Path(whframe.__file__).resolve().parent != (SRC / "whframe").resolve():
        raise RuntimeError(f"whframe imported from {whframe.__file__}, not from {SRC}")
    import workloads

    wl = workloads.WORKLOADS[name](seed, workdir, T)
    return wl, time.perf_counter() - t0


def run_loop(wl, seconds: float, rng, T, split: bool, min_rounds: int,
             probe=None, between_rounds=None):
    """Closed loop over whole seeded rounds of the pool until time and min_rounds are met.

    A round runs each slot wl.reps(i) times, in a seeded order. The host
    probe, if given, runs after each op, outside its time, and
    between_rounds(rounds' time so far), if given, after each round but
    the last, outside the rounds' time. Returns every op as (slot,
    seconds, result, exception) and the wall time of each round.
    """
    import numpy as np

    records, round_s = [], []
    pool = np.array([i for i in range(len(wl.slots)) for _ in range(wl.reps(i))])
    while True:
        round_start = time.perf_counter()
        for i in rng.permutation(pool):
            i = int(i)
            T.op_id = len(records)
            with T.span("op", slot=i):
                t0 = time.perf_counter()
                try:
                    result, err = wl.op(i, T), None
                except Exception as e:  # counted as a failed op, never fatal
                    result, err = None, e
                dt = time.perf_counter() - t0
                if split and err is None:
                    wl.split(i, result, T)
            records.append((i, dt, result, err))
            if probe is not None:
                probe.run()
        round_s.append(time.perf_counter() - round_start)
        # stop at the round boundary nearest to `seconds`
        if sum(round_s) * (1 + 0.5 / len(round_s)) >= seconds and len(round_s) >= min_rounds:
            return records, round_s
        if between_rounds is not None:
            between_rounds(sum(round_s))


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def run_metadata(args, ops: int, rounds: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    src_hash = hashlib.sha256()
    for p in sorted((SRC / "whframe").glob("*.py")):
        src_hash.update(p.read_bytes())
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "ops": ops, "rounds": rounds,
        "git_commit": git_commit(), "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": blas.get("name"), "blas_version": blas.get("version"),
        "blas_threads": BLAS_THREADS, "nproc": len(os.sched_getaffinity(0)),
    }


class SetupSamples:
    """Set-up times: one in-process, the rest in child processes."""

    def __init__(self, args, first_s: float):
        self.cmd = [sys.executable, __file__, "--probe", "--workload", args.workload,
                    "--seed", str(args.seed), "--seconds", "0"]
        self.samples = [first_s]
        self.spent_s = 0.0

    def child(self) -> None:
        t0 = time.perf_counter()
        done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=170, check=True)
        self.samples.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
        self.spent_s += time.perf_counter() - t0

    def between_rounds(self, rounds_s: float) -> None:
        while self.spent_s <= SETUP_SHARE * rounds_s:
            self.child()

    def finish(self) -> list[float]:
        while len(self.samples) < SETUP_MIN:
            self.child()
        return self.samples


def slot_mean_ms(records, factor: float = 1.0) -> list[float]:
    """Each op's time, taken as the mean op time of its slot in the run, times factor.

    A slot's ops all run the same input, so they differ only by what other
    load on the machine added to them. Their mean, times the run's host
    factor, is the slot's cost at the reference host speed; taken per slot,
    it keeps the quantiles inside clusters of slots of one cost.
    """
    ops = defaultdict(list)
    for i, dt, _, _ in records:
        ops[i].append(dt)
    mean = {i: statistics.fmean(v) for i, v in ops.items()}
    return [mean[i] * 1000 * factor for i, _, _, _ in records]


def end_to_end(records, round_s, outcomes, setup_samples, peak_mib, probe) -> tuple[dict, dict]:
    """End-to-end metrics; every time is scaled to the reference host speed."""
    factor = probe.factor()
    times_ms = slot_mean_ms(records, factor)
    p90 = statistics.quantiles(times_ms, n=10, method="inclusive")[8]
    ok = sum(o.hard is None and o.label is None for o in outcomes)
    metrics = {
        "setup_s": (statistics.median(setup_samples) * factor, "s"),
        # one closed-loop caller: the rate is ops over the time they took
        "ops_per_s": (1000 * len(times_ms) / sum(times_ms), "op/s"),
        "op_p50_ms": (statistics.median(times_ms), "ms"),
        "op_p90_ms": (p90, "ms"),
        "ok_rate": (ok / len(records), "fraction"),
        "peak_rss_mib": (peak_mib, "MiB"),
    }
    raw_ms = [dt * 1000 for _, dt, _, _ in records]
    mean_ms = slot_mean_ms(records)
    extra = {
        "error_rate": 1 - ok / len(records),
        "p90_samples_beyond": sum(t > p90 for t in times_ms),
        "setup_samples_s": setup_samples,
        "host_probe_ms": probe.mean_ms(),
        "host_factor": factor,
        # the same quantities unscaled, from the slots' mean op times ...
        "unscaled_ops_per_s": 1000 * len(mean_ms) / sum(mean_ms),
        "unscaled_op_p50_ms": statistics.median(mean_ms),
        "unscaled_op_p90_ms": statistics.quantiles(mean_ms, n=10, method="inclusive")[8],
        # ... and from every op's own time
        "raw_ops_per_s": len(records) / sum(round_s),
        "raw_op_p50_ms": statistics.median(raw_ms),
        "raw_op_p90_ms": statistics.quantiles(raw_ms, n=10, method="inclusive")[8],
    }
    return metrics, extra


def layer_metrics(T: Tracer, wl, base_records) -> dict:
    spans = T.spans
    self_s = T.self_times()
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)

    def dur(s):
        return s["end"] - s["start"]

    def median_ms(name):
        d = [dur(s) * 1000 for s in by_name[name]]
        return statistics.median(d) if d else 0.0

    m = {f"{name}_s": (sum(self_s[s["id"]] for s in by_name[name]), "s") for name in BUSY_SPANS}
    m["lattice.atoms"] = (sum(s["atoms"] for s in by_name["lattice.atoms"]), "count")
    m["correlation.calls"] = (sum(s["name"].startswith("correlation.") for s in spans), "count")
    m["frame.not_a_frame"] = (sum(
        s.get("not_a_frame", 0) + (s.get("error") == "NotAFrameError") for s in spans), "count")
    m["frame.dense_mib"] = (max(
        (16 * s["L"] ** 2 / 2**20 for s in spans if s["name"] in DENSE_S),
        default=0.0), "MiB")
    m["frame.peak_mib"] = (max(
        (s.get("peak_bytes", 0) for s in spans if s["name"].startswith("frame.")),
        default=0) / 2**20, "MiB")
    m["tightness.cond4_pairs"] = (sum(s["pairs"] for s in by_name["tightness.cond4"]), "count")
    op_ids = {s["id"] for s in by_name["op"]}
    whole = sum(dur(s) for s in by_name["tightness.classify"]
                if s["parent"] in op_ids and not s.get("split"))
    parts = sum(dur(s) for s in spans if s.get("split") and s["name"] in CLASSIFY_PARTS)
    m["tightness.parts_ratio"] = (parts / whole if whole else 0.0, "ratio")
    m["duality.complement_dim"] = (sum(s["dim"] for s in by_name["duality.dual_space"]), "count")
    checks = by_name["oracle.check"]
    oracle_s = sum(dur(s) for s in checks)
    prod_s = sum(s["prod_s"] for s in checks)
    m["oracle.checks"] = (len(checks), "count")
    m["oracle.busy_s"] = (oracle_s, "s")
    m["oracle.disagreements"] = (sum(s["disagree"] for s in checks), "count")
    m["oracle.speedup"] = (oracle_s / prod_s if prod_s else 0.0, "ratio")
    m["cli.import_ms"] = (wl.extra_metrics.get("cli.import_ms", 0.0), "ms")
    m["cli.process_ms"] = (median_ms("cli.process"), "ms")
    m["cli.run_ms"] = (median_ms("cli.run"), "ms")
    m["cli.parse_ms"] = (median_ms("cli.parse"), "ms")
    m["cli.output_mib"] = (wl.extra_metrics.get("cli.output_mib", 0.0), "MiB")
    m["cli.exit_mismatch"] = (wl.extra_metrics.get("cli.exit_mismatch", 0), "count")
    # Same op, same slot: time of the op's own calls under tracing against
    # the untraced round run just before.
    traced = defaultdict(list)
    children = defaultdict(float)
    for s in spans:
        if s["parent"] in op_ids and not s.get("split"):
            children[s["parent"]] += dur(s)
    for s in by_name["op"]:
        traced[s["slot"]].append(children[s["id"]])
    base = {i: dt for i, dt, _, _ in base_records}
    both = [i for i in traced if i in base]
    untraced_s = sum(base[i] for i in both)
    traced_s = sum(statistics.mean(traced[i]) for i in both)
    m["trace.overhead"] = (traced_s / untraced_s if untraced_s else 0.0, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help="only time one set-up and print it (used by the run itself)")
    args = parser.parse_args(argv)

    if not (SRC / "whframe" / "__init__.py").is_file():
        print(f"error: no whframe sources under {SRC}; run from a whframe checkout",
              file=sys.stderr)
        return 2
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    workdir = OUT / f"work-{os.getpid()}"

    if args.probe:
        wl, seconds = timed_setup(args.workload, args.seed, workdir, NullTracer())
        wl.cleanup()
        print(json.dumps({"setup_s": seconds}))
        return 0

    phase_s = {}
    t_phase = time.perf_counter()
    T = Tracer() if args.trace else NullTracer()
    wl, seconds = timed_setup(args.workload, args.seed, workdir, T)
    setups = SetupSamples(args, seconds)

    import numpy as np

    rng = np.random.default_rng([args.seed, 7])
    null = NullTracer()
    try:
        phase_s["setup"] = time.perf_counter() - t_phase
        t_phase = time.perf_counter()
        wl.warmup()
        phase_s["warmup"] = time.perf_counter() - t_phase
        t_phase = time.perf_counter()
        if args.trace:
            base, base_rounds = run_loop(wl, 0, rng, null, split=False, min_rounds=1)
            if args.workload == "cli-jobs":
                wl.extra_metrics["cli.import_ms"] = wl.import_ms()
            tracemalloc.start()
            records, round_s = run_loop(wl, args.seconds - sum(base_rounds), rng, T,
                                        split=True, min_rounds=1)
            tracemalloc.stop()
            T.op_id = None
        else:
            from hostspeed import HostProbe  # imports numpy: only after set-up is timed

            probe = HostProbe()
            records, round_s = run_loop(wl, args.seconds, rng, null, split=False,
                                        min_rounds=wl.MIN_ROUNDS, probe=probe,
                                        between_rounds=setups.between_rounds)
            setup_samples = setups.finish()
        phase_s["loop"] = time.perf_counter() - t_phase
        phase_s["child_setups"] = setups.spent_s
        t_phase = time.perf_counter()
        peak_mib = wl.peak_rss_mib(records)
        outcomes = wl.check(records, T)
        phase_s["check"] = time.perf_counter() - t_phase
    finally:
        wl.cleanup()

    failed = sum(o.hard is not None for o in outcomes)
    reasons = defaultdict(int)
    for (i, _, _, _), o in zip(records, outcomes):
        if o.hard or o.label:
            reasons[f"{wl.slots[i].label}: {o.hard or o.label}"] += 1
    meta = run_metadata(args, len(records), len(round_s))
    meta["pool_size"] = len(wl.slots)
    meta["phase_s"] = {k: round(v, 3) for k, v in phase_s.items()}
    meta["round_s"] = [round(r, 4) for r in round_s]
    meta["hard_failures"] = failed
    meta["label_failures"] = sum(o.hard is None and o.label is not None for o in outcomes)
    meta["failure_reasons"] = dict(sorted(reasons.items()))
    per_slot = defaultdict(list)
    for i, dt, _, _ in records:
        per_slot[wl.slots[i].label].append(dt * 1000)
    meta["slot_median_ms"] = {k: round(statistics.median(v), 3) for k, v in per_slot.items()}
    if args.trace:
        metrics = layer_metrics(T, wl, base)
    else:
        metrics, extra = end_to_end(records, round_s, outcomes, setup_samples, peak_mib, probe)
        meta.update(extra)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    result_file.write_text(json.dumps(
        {"meta": meta, "metrics": metrics,
         "slots": [s.label for s in wl.slots],
         "ops": [(i, dt * 1000) for i, dt, _, _ in records],
         "host_probe_ms": [t * 1000 for t in probe.times] if not args.trace else [],
         "spans": T.spans if args.trace else []}, default=str))
    print(json.dumps({"meta": meta}))
    for k, v in metrics.items():
        print(f"# {k} = {v['value']:.6g} {v['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(records),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
