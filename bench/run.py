#!/usr/bin/env python3
"""Layered benchmark for interax.

Run one workload (from the root of a checkout; interax is imported from
./src, never from an installed copy):

    python3 bench/run.py --workload exact-dense --seed 1 --seconds 30 --trace 0

Workloads are listed in BENCHMARK.json and built in bench/jobs.py.  A run is
a closed loop: one client runs the seed-generated job list back to back,
each job waiting for the previous one, and repeats the list (at least
twice) while another pass still fits in --seconds of timed job time.  In
the in-process workloads, jobs that take a quarter second or more run only
in the first pass and in one closing pass, so the many short jobs, which
set the median and the tail, get many runs.  A fixed reference task runs
right before every job, and each job time is scaled to a fixed host speed
by the reference times around it (bench/speed.py), so drift of a shared
host's speed cancels; a job's latency is the median of its scaled runs.
Each job builds a fresh game, so per-game costs are counted, and every
output is checked against a reference the benchmark owns; a job that
raises, exits non-zero or misses its tolerance is counted as failed.  The
library runs at its default threads=1, the CLI at its default --threads
(os.cpu_count()).

--trace 0 prints the end-to-end metrics; --trace 1 alternates an untraced
and a traced pass and prints the per-layer metrics, measured from spans
around the library's public functions (bench/tracing.py).  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.

Other modes:

    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 bench/run.py ... --out DIR          # also write a record per run
    python3 bench/run.py --compare OLD_DIR NEW_DIR
    python3 bench/selftest.py                   # the benchmark's own tests
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCES, HostSpeed, run_child

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"
SETUP_PROBES = 5
SETUP_REFERENCES = 3     # bare interpreter starts on each side of a set-up probe
IMPORT_PROBES = 5
MIN_PASSES = 2
PASS_BUDGET_S = 150      # never start a pass that would push a run past this
TAIL_BEYOND = 10         # the tail percentile keeps this many jobs above it
HEAVY_REFERENCES = 5     # reference tasks on each side of a heavy job


def import_library():
    """Import interax from this checkout's src, or stop with an error."""
    package = SRC / "interax" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package} not found; run from the root of an interax checkout")
    sys.path.insert(0, str(SRC))
    import interax
    if Path(interax.__file__).resolve() != package.resolve():
        sys.exit(f"error: imported interax from {interax.__file__}, not {package}")
    return interax


def load_spec() -> dict:
    return json.loads(SPEC.read_text(encoding="utf-8"))


def workdir_for(workload: str, seed: int) -> Path:
    return WORK / f"{workload}-{seed}-{os.getpid()}"


def remove_workdir(path: Path):
    shutil.rmtree(path, ignore_errors=True)
    try:
        WORK.rmdir()
    except OSError:
        pass


# ---------------------------------------------------------------------------
# Set-up time: fresh interpreters, interpreter start to the first job
# ---------------------------------------------------------------------------

def probe_setup(workload: str, seed: int):
    """Child side: set the workload up, report the monotonic clock, clean up."""
    import_library()
    import jobs
    path = workdir_for(workload, seed)
    try:
        jobs.build(workload, seed, path)
        print(f"READY {time.monotonic()!r}", flush=True)
    finally:
        remove_workdir(path)


def measure_setup(workload: str, seed: int, speed: HostSpeed) -> float:
    """Seconds from spawning a fresh interpreter until its first job could
    start, scaled to the fixed host speed by `speed`, an interpreter-start
    reference sampled on both sides of the probe."""
    speed.probe(SETUP_REFERENCES)
    start, start_perf = time.monotonic(), time.perf_counter()
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=120, cwd=ROOT)
    ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        sys.exit(f"error: set-up probe failed ({proc.returncode}): {proc.stderr[-400:]}")
    seconds = float(ready[0].split()[1]) - start
    speed.probe(SETUP_REFERENCES)
    return seconds * speed.scale(start_perf, start_perf + seconds)


def measure_import() -> float:
    """Fresh `import interax` minus a bare interpreter, medians of a few launches."""
    bare, full = [], []
    program = f"import sys; sys.path.insert(0, {str(SRC)!r}); import interax"
    for _ in range(IMPORT_PROBES):
        for argv, out in (([sys.executable, "-c", "pass"], bare),
                          ([sys.executable, "-c", program], full)):
            start = time.perf_counter()
            status, _ = run_child(argv, 60, cwd=ROOT, stdin=subprocess.DEVNULL)
            out.append(time.perf_counter() - start)
            if status != 0:
                sys.exit(f"error: {argv[-1]!r} exited with {status}")
    return statistics.median(full) - statistics.median(bare)


# ---------------------------------------------------------------------------
# The closed loop
# ---------------------------------------------------------------------------

class Ledger:
    """Latencies and verdicts per job, over all passes of one mode.

    A job's latency is the median of its runs, each scaled to the fixed host
    speed by the reference tasks run around it.
    """

    def __init__(self, jobs, speed: HostSpeed | None = None):
        self.jobs = jobs
        self.speed = speed if speed is not None else HostSpeed()
        self.runs = [[] for _ in jobs]      # (start, raw seconds) per job
        self.first = [None] * len(jobs)     # first pass verdicts
        self.attempted = 0
        self.failures: list[str] = []
        self.maxrss_kb = 0
        self.round_trips = 0                # queries answered by protocol children
        self.timed = 0.0                    # seconds of job time, all passes

    def record(self, idx: int, start: float, seconds: float, verdict):
        job = self.jobs[idx]
        self.attempted += 1
        self.timed += seconds
        self.runs[idx].append((start, seconds))
        first = self.first[idx]
        if first is None:
            self.first[idx] = verdict
        elif verdict.ok and first.ok and (verdict.fingerprint != first.fingerprint
                                          or verdict.oracle_calls != first.oracle_calls):
            verdict.ok = False
            verdict.detail = "output or oracle calls differ from the first pass"
        if not verdict.ok:
            self.failures.append(f"{job.name}: {verdict.detail}")

    def scaled(self) -> list[list[float]]:
        """Every run of every job, at the fixed host speed."""
        return [[seconds * self.speed.scale(start, start + seconds, job.reference)
                 for start, seconds in runs]
                for job, runs in zip(self.jobs, self.runs)]

    def typical(self) -> list[float]:
        return [statistics.median(lat) for lat in self.scaled()]


def run_pass(ledger: Ledger, which: str, in_process: bool = False):
    """Run every job ("all"), or only the light or only the heavy ones.

    Each job starts right after a full garbage collection, so garbage left
    by earlier jobs and by the checks is not collected on its time, and
    right after a reference task, which measures the host's speed.
    """
    from jobs import Verdict
    for idx, job in enumerate(ledger.jobs):
        if which != "all" and job.heavy != (which == "heavy"):
            continue
        run = job.inproc if (in_process and job.inproc is not None) else job.run
        gc.collect()
        # a heavy job gets reference samples of its own on both sides; a
        # short job shares those of its neighbours
        ledger.speed.probe(HEAVY_REFERENCES if job.heavy else 1)
        start = time.perf_counter()
        try:
            outcome = run()
        except Exception as exc:  # a raising job is a failed job, not a crash
            seconds = time.perf_counter() - start
            ledger.record(idx, start, seconds, Verdict(False, f"raised {exc!r}"))
            continue
        seconds = time.perf_counter() - start
        if job.heavy:
            ledger.speed.probe(HEAVY_REFERENCES)
        ledger.maxrss_kb = max(ledger.maxrss_kb, getattr(outcome[0], "maxrss_kb", 0))
        from_child = isinstance(outcome[1], Path)
        try:
            verdict = job.check(outcome)
        except Exception as exc:
            verdict = Verdict(False, f"check raised {exc!r}")
        if from_child:
            ledger.round_trips += verdict.oracle_calls
        ledger.record(idx, start, seconds, verdict)
    ledger.speed.probe()        # the last job's reference samples on both sides


def settle():
    """Freeze what outlives a pass (references, fingerprints, spans) so later
    collections, in jobs or between them, do not walk it again."""
    gc.collect()
    gc.freeze()


def keep_going(passes: int, ledger: Ledger, started: float, seconds: float,
               last_pass: float) -> bool:
    """Start another pass if the timed job time should stay within --seconds.

    Checks and set-up probes are not timed and do not count.  At least
    MIN_PASSES run, unless the run's wall time would pass PASS_BUDGET_S.
    """
    if time.perf_counter() - started + last_pass > PASS_BUDGET_S:
        return False
    return passes < MIN_PASSES or ledger.timed + last_pass <= seconds


def tail(latencies: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND jobs above it: (value, percentile)."""
    ordered = sorted(latencies)
    count = len(ordered)
    if count <= TAIL_BEYOND:
        return ordered[-1], 100.0
    rank = count - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * (rank + 1) / count


def end_to_end(ledger: Ledger, workload: str, setup: list[float]) -> tuple[dict, dict]:
    scaled = ledger.scaled()
    typical = [statistics.median(lat) for lat in scaled]
    values = sum(v.values for v in ledger.first)
    errors = [e for v in ledger.first for e in v.errors]
    tail_value, percentile = tail(typical)
    rss_kb = (ledger.maxrss_kb if workload == "cli-cold"
              else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    failed = len(ledger.failures)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "job_p50_ms": (1e3 * statistics.median(typical), "ms"),
        "job_tail_ms": (1e3 * tail_value, "ms"),
        "values_per_s": (values / sum(typical), "1/s"),
        "oracle_calls": (sum(v.oracle_calls for v in ledger.first), "count"),
        "sampled_rmse": (math.sqrt(sum(e * e for e in errors) / len(errors))
                         if errors else float("nan"), "value"),
        "success_ratio": (1.0 - failed / ledger.attempted, "ratio"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    extra = {"tail_percentile": percentile, "tail_jobs": len(typical),
             "sampled_values": len(errors),
             "reference_median_ms": ledger.speed.medians_ms(),
             "jobs": [{"name": job.name, "median_ms": 1e3 * median,
                       "latency_ms": [1e3 * s for s in lat],
                       "raw_ms": [1e3 * s for _, s in runs], "values": v.values,
                       "oracle_calls": v.oracle_calls}
                      for job, median, lat, runs, v in zip(ledger.jobs, typical, scaled,
                                                            ledger.runs, ledger.first)]}
    return metrics, extra


# ---------------------------------------------------------------------------
# Per-layer metrics from the traced passes
# ---------------------------------------------------------------------------

def per_layer(tracer, traced_passes: int, round_trips: int, import_s: float,
              overhead: float) -> dict:
    by_name: dict[str, list] = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)

    def total(*names, attr="duration"):
        return sum(getattr(s, attr) for n in names for s in by_name.get(n, []))

    def count(*names):
        return sum(len(by_name.get(n, [])) for n in names)

    sampling_spans = by_name.get("sampling.stv_sampled", []) + \
        by_name.get("sampling.stv_sampled_mom", [])
    draws = 0
    for span in sampling_spans:
        result = span.result
        if result is None:
            continue
        targets = sum(1 for p in result.values if p.size == result.k)
        draws += result.meta["samples"] * targets
        if result.meta.get("range_source") == "warmup-estimate":
            draws += 64 * targets
    sampling_time = sum(s.duration for s in sampling_spans)
    sampling_evals = sum(s.value_calls for s in sampling_spans)
    stats = tracer.values
    per = 1.0 / traced_passes
    index_names = [n for n in by_name if n.startswith("indices.")]
    m = {
        "games.fill_s": (per * total("games.dense_table"), "s"),
        "games.value_calls": (per * stats.calls, "count"),
        "games.distinct_evals": (per * stats.distinct, "count"),
        "games.memo_hit_ratio": (1.0 - stats.distinct / stats.calls if stats.calls else 0.0,
                                 "ratio"),
        "games.value_us": (1e6 * stats.seconds / stats.outer_calls
                           if stats.outer_calls else 0.0, "us"),
        "games.external.spawn_s": (per * total("games.external.spawn"), "s"),
        "games.external.round_trips": (per * round_trips, "count"),
        "games.external.rt_us": (1e6 * stats.external_miss_s / stats.external_misses
                                 if stats.external_misses else 0.0, "us"),
        "calculus.mobius_s": (per * total("calculus.mobius_dense", attr="self_s"), "s"),
        "calculus.mobius_calls": (per * count("calculus.mobius_dense"), "count"),
        "calculus.derivative_table_s": (per * total("calculus.derivative_table"), "s"),
        "calculus.derivative_table_calls": (per * count("calculus.derivative_table"), "count"),
        "indices.stv_exact_self_s": (per * total("indices.stv_exact", "indices.shapley",
                                                 attr="self_s"), "s"),
        "indices.sii_self_s": (per * total("indices.sii_index", "indices.sii_exact",
                                           "indices.sii_main_effects", attr="self_s"), "s"),
        "indices.oracle_self_s": (per * total("indices.stv_permutation_oracle",
                                              attr="self_s"), "s"),
        "indices.calls": (per * count(*index_names), "count"),
        "sampling.draws": (per * draws, "count"),
        "sampling.draws_per_s": (draws / sampling_time if sampling_time else 0.0, "1/s"),
        "sampling.evals_per_draw": (sampling_evals / draws if draws else 0.0, "count"),
        "sampling.perm_s": (per * total("sampling.sample_permutation"), "s"),
        "sampling.perm_calls": (per * count("sampling.sample_permutation"), "count"),
        "sampling.self_s": (per * total("sampling.stv_sampled", "sampling.stv_sampled_mom",
                                        attr="self_s"), "s"),
        "multilinear.taylor_s": (per * total("multilinear.taylor_identity_check"), "s"),
        "multilinear.remainder_calls": (per * count("multilinear.lagrange_remainder_term"),
                                        "count"),
        "axioms.checks_s": (per * total("axioms.run_axiom_checks"), "s"),
        "analysis.sweep_s": (per * total("analysis.majority_sweep"), "s"),
        "analysis.crosses_s": (per * total("analysis.cross_comparison"), "s"),
        "cli.import_s": (import_s, "s"),
        "cli.run_s": (per * total("cli.run"), "s"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    return m


# ---------------------------------------------------------------------------
# One workload run
# ---------------------------------------------------------------------------

def environment(workload, seed: int, seconds: int, trace: int) -> dict:
    import numpy
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "platform": platform.platform(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "workload": workload.name, "seed": seed,
            "seconds": seconds, "trace": trace, "settings": workload.settings,
            "job_sizes": [job.name for job in workload.jobs]}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    import_library()
    setup: list[float] = []
    import jobs
    path = workdir_for(name, seed)
    try:
        workload = jobs.build(name, seed, path)
        env = environment(workload, seed, seconds, trace)
        if trace:
            return traced_run(workload, seconds, env)
        speed = HostSpeed(*workload.references)
        setup_speed = HostSpeed("interpreter")  # set-up runs in a fresh interpreter
        ledger = Ledger(workload.jobs, speed)
        started, passes, last_pass = time.perf_counter(), 0, 0.0
        while keep_going(passes, ledger, started, seconds, last_pass):
            # set-up probes sit between passes, so they meet different host phases
            if len(setup) < SETUP_PROBES:
                setup.append(measure_setup(name, seed, setup_speed))
            before = ledger.timed
            run_pass(ledger, "all" if passes == 0 else "light")
            last_pass = ledger.timed - before
            passes += 1
            settle()
        # heavy jobs get a second sample, far in time from their first
        run_pass(ledger, "heavy")
        while len(setup) < SETUP_PROBES:
            setup.append(measure_setup(name, seed, setup_speed))
        metrics, extra = end_to_end(ledger, name, setup)
        extra.update(passes=passes, setup_samples_s=setup)
        return {"env": env, "attempted": ledger.attempted, "failures": ledger.failures,
                "metrics": metrics, "extra": extra}
    finally:
        remove_workdir(path)


def traced_run(workload, seconds: int, env: dict) -> dict:
    import tracing
    in_process = workload.name == "cli-cold"
    # traced passes run every job, CLI commands too, in this process
    speed = HostSpeed(*(("in-process",) if "interpreter" in workload.references
                        else workload.references))
    plain, traced = Ledger(workload.jobs, speed), Ledger(workload.jobs, speed)
    tracer = tracing.Tracer()
    started, pairs, last_pair = time.perf_counter(), 0, 0.0
    while pairs == 0 or keep_going(MIN_PASSES, plain, started, seconds / 2, last_pair / 2):
        before = plain.timed + traced.timed
        which = "all" if pairs == 0 else "light"
        run_pass(plain, which, in_process)
        with tracer:
            run_pass(traced, which, in_process)
        last_pair = plain.timed + traced.timed - before
        pairs += 1
        settle()
    # untraced values_per_s over traced values_per_s: same values, so a time ratio
    overhead = sum(traced.typical()) / sum(plain.typical())
    metrics = per_layer(tracer, pairs, traced.round_trips, measure_import(), overhead)
    failures = plain.failures + traced.failures
    return {"env": env, "attempted": plain.attempted + traced.attempted,
            "failures": failures, "metrics": metrics,
            "extra": {"passes": pairs, "spans": len(tracer.spans)}}


def result_line(record: dict) -> dict:
    failed = len(record["failures"])
    return {"correct": failed == 0, "attempted": record["attempted"], "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in record["metrics"].items()}}


def print_report(record: dict):
    env = record["env"]
    print(f"# interax benchmark  workload={env['workload']} seed={env['seed']} "
          f"trace={env['trace']} passes={record['extra']['passes']}")
    print("# env " + json.dumps({k: env[k] for k in ("python", "numpy", "nproc", "cpu_count",
                                                      "platform", "settings")}))
    print(f"# jobs: {len(env['job_sizes'])} per pass")
    extra = record["extra"]
    for name, median_ms in extra.get("reference_median_ms", {}).items():
        print(f"# host speed: {name} reference median {median_ms:.3f} ms; times below "
              f"are scaled to {1e3 * REFERENCES[name][1]:g} ms per reference")
    for key, (value, unit) in record["metrics"].items():
        note = ""
        if key == "job_tail_ms":
            note = f"   (p{extra['tail_percentile']:.1f} of {extra['tail_jobs']} jobs)"
        elif key == "sampled_rmse":
            note = f"   ({extra['sampled_values']} sampled values)"
        print(f"# {key:32s} {value:>16.6g} {unit}{note}")
    for failure in record["failures"]:
        print(f"# FAILED {failure}")


def save_record(record: dict, out: Path):
    out.mkdir(parents=True, exist_ok=True)
    env = record["env"]
    name = f"{env['workload']}-seed{env['seed']}-trace{env['trace']}-{time.time_ns()}.json"
    (out / name).write_text(json.dumps(record, indent=1), encoding="utf-8")


# ---------------------------------------------------------------------------
# --workload all and --compare
# ---------------------------------------------------------------------------

def run_all(args) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in [w["name"] for w in load_spec()["workloads"]]:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        if args.out:
            argv += ["--out", str(args.out)]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            sys.exit(f"error: workload {workload} failed: {proc.stderr[-400:]}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, val in result["metrics"].items():
            combined["metrics"][f"{workload}/{key}"] = val
    print(json.dumps(combined))
    return 0


def load_records(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text(encoding="utf-8")) for f in files]


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(old: list[float], new: list[float], lower_better: bool, bound: float) -> str:
    """better / worse / within bound / unresolved, against the fixed bound.

    Runs are paired in seed order.  A spread (quartile distance over median)
    wider than the bound leaves the metric unresolved unless every new run
    beats every old one.  "better" otherwise needs nine tenths of the pairs
    won and a median gain larger than the old runs' spread.
    """
    sign = 1.0 if lower_better else -1.0
    q1o, mo, q3o = quartiles(old)
    q1n, mn, q3n = quartiles(new)
    if mo == 0 or mn == 0:
        return "unresolved"
    worse_by = sign * (mn - mo) / abs(mo)
    spread_old = (q3o - q1o) / abs(mo)
    if max(spread_old, (q3n - q1n) / abs(mn)) > bound:
        beats_all = all(sign * n < sign * o for n in new for o in old)
        return "better" if beats_all else "unresolved"
    if worse_by > bound:
        return "worse"
    pairs = list(zip(old, new))
    wins = sum(1 for o, n in pairs if sign * n < sign * o)
    if -worse_by > spread_old and wins >= 0.9 * len(pairs):
        return "better"
    return "within bound"


def compare(old_path: Path, new_path: Path) -> int:
    spec = load_spec()
    old, new = load_records(old_path), load_records(new_path)

    def group(records, trace):
        out: dict[tuple[str, str], list[float]] = {}
        for rec in sorted(records, key=lambda r: r["env"]["seed"]):
            if rec["env"]["trace"] != trace:
                continue
            for key, (value, _) in rec["metrics"].items():
                out.setdefault((rec["env"]["workload"], key), []).append(value)
        return out

    old_e2e, new_e2e = group(old, 0), group(new, 0)
    print(f"{'workload':16s} {'metric':14s} {'old median [q1, q3]':>34s} "
          f"{'new median [q1, q3]':>34s} {'change':>8s}  verdict (bound)")
    for w in spec["workloads"]:
        for metric in spec["end_to_end"]:
            key = (w["name"], metric["name"])
            if key not in old_e2e or key not in new_e2e:
                continue
            o, n = old_e2e[key], new_e2e[key]
            q1o, mo, q3o = quartiles(o)
            q1n, mn, q3n = quartiles(n)
            change = (mn - mo) / abs(mo) if mo else math.nan
            v = verdict(o, n, metric["better"] == "lower", metric["bound"])
            print(f"{w['name']:16s} {metric['name']:14s} "
                  f"{mo:12.5g} [{q1o:9.4g}, {q3o:9.4g}] {mn:12.5g} [{q1n:9.4g}, {q3n:9.4g}] "
                  f"{change:+8.1%}  {v} ({metric['bound']:.0%})")
    old_layer, new_layer = group(old, 1), group(new, 1)
    if old_layer and new_layer:
        print(f"\n{'workload':16s} {'per-layer metric':34s} {'old median':>12s} "
              f"{'new median':>12s} {'change':>8s}")
        for key in sorted(set(old_layer) & set(new_layer)):
            mo, mn = statistics.median(old_layer[key]), statistics.median(new_layer[key])
            change = f"{(mn - mo) / abs(mo):+8.1%}" if mo else "     n/a"
            print(f"{key[0]:16s} {key[1]:34s} {mo:12.5g} {mn:12.5g} {change}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="interax benchmark")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", type=Path, help="also write a JSON record per run here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("OLD", "NEW"))
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    spec = load_spec()
    if args.compare:
        return compare(*args.compare)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload == "all":
        args.seconds = args.seconds or spec["run_seconds"]
        return run_all(args)
    if args.workload not in names:
        parser.error(f"--workload must be one of {names} or 'all'")
    if args.probe_setup:
        probe_setup(args.workload, args.seed)
        return 0
    seconds = args.seconds or spec["run_seconds"]
    record = run_workload(args.workload, args.seed, seconds, args.trace)
    print_report(record)
    if args.out:
        save_record(record, args.out)
    print(json.dumps(result_line(record)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
