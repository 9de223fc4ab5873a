"""The workloads: seed-generated job lists, each job with its own check.

A job is a closure that builds a fresh game and computes one result, so
every job pays the per-game costs (memo and derived tables start empty).
Its check compares the result with a reference from `refs` and is never
timed.  References are computed once per run, on first use.

Workloads (why each exists is also in BENCHMARK.json):

exact-dense     dense 2^n sweeps: calculus and indices do the work
sampled-wide    the permutation sampler at n up to 64, no dense table
cli-cold        a fresh interpreter per job, through the command line; one
                command also drives a protocol child
"""

from __future__ import annotations

import functools
import io
import json
import os
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from math import comb
from pathlib import Path
from typing import Any, Callable

import numpy as np

import refs
from refs import all_sets, exact_tol, ids, mask_of, sampled_tol
from speed import run_child

import interax as ix
import interax.cli

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
CLI_BOOT = "from interax.cli import main; main()"
CLI_TIMEOUT_S = 120


@dataclass
class Verdict:
    ok: bool
    detail: str = ""
    values: int = 0                 # attribution values (or CLI rows) delivered
    errors: list[float] = field(default_factory=list)  # sampled value - reference
    fingerprint: Any = None         # output compared across passes and runs
    oracle_calls: int = 0


@dataclass
class Job:
    name: str
    run: Callable[[], Any]          # timed: returns (output, oracle-call source)
    check: Callable[[Any], Verdict]
    inproc: Callable[[], Any] | None = None   # cli jobs: same argv via cli.run
    heavy: bool = False             # a quarter second or more: first and closing pass only
    reference: str | None = None    # host-speed reference (bench/speed.py); None: workload's


@dataclass
class Workload:
    name: str
    seed: int
    jobs: list[Job]
    settings: dict
    references: tuple[str, ...] = ("in-process",)  # host-speed references (bench/speed.py)


# ---------------------------------------------------------------------------
# Shared helpers
# ---------------------------------------------------------------------------

class CountedGame:
    """A sparse game as an opaque callable that counts its invocations."""

    def __init__(self, terms: dict[int, float]):
        self.ordered = sorted(terms.items())
        self.calls = 0

    def __call__(self, mask: int) -> float:
        self.calls += 1
        return refs.sparse_value(self.ordered, mask)


def oracle_calls(source) -> int:
    """Invocations of a value function the benchmark owns."""
    if isinstance(source, CountedGame):
        return source.calls
    if isinstance(source, Path):          # count file written by child.py
        try:
            return int(source.read_text().strip())
        finally:
            source.unlink(missing_ok=True)
    return int(source or 0)


def sparse_terms(rng, n: int, count: int, max_size: int) -> dict[int, float]:
    terms: dict[int, float] = {}
    while len(terms) < count:
        size = int(rng.integers(1, max_size + 1))
        mask = mask_of(rng.choice(n, size, replace=False))
        # magnitudes in [0.5, 1] keep the games' scales alike across seeds
        terms[mask] = float(rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.0))
    return terms


def write_mobius(path: Path, n: int, terms: dict[int, float]) -> Path:
    doc = {"format": "mobius", "n": n,
           "terms": [{"set": list(ids(t)), "coef": c} for t, c in sorted(terms.items())]}
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def as_values(result) -> dict[int, float]:
    return {pset.bits: val for pset, val in result.values.items()}


def compare(got: dict[int, float], expected: dict, tol, sampled=frozenset()) -> Verdict:
    """Check every value against its reference; tol is a float or mask -> float."""
    if set(got) != set(expected):
        missing = sorted(set(expected) - set(got))[:3]
        extra = sorted(set(got) - set(expected))[:3]
        return Verdict(False, f"set mismatch (missing {missing}, extra {extra})", len(got))
    errors, worst = [], (0.0, None)
    for mask, val in got.items():
        err = val - float(expected[mask])
        if mask in sampled:
            errors.append(err)
        limit = tol[mask] if isinstance(tol, dict) else tol
        if not abs(err) <= limit and (worst[1] is None or abs(err) / limit > worst[0]):
            worst = (abs(err) / limit, (ids(mask), val, float(expected[mask]), limit))
    if worst[1] is not None:
        return Verdict(False, f"value outside tolerance: {worst[1]}", len(got), errors)
    return Verdict(True, "", len(got), errors, tuple(sorted(got.items())))


def index_check(reference: Callable[[], dict], tol, method: str | None = None,
                sampled_size: int | None = None, sampled_tol_value=0.0,
                extra: Callable[[Any], str] | None = None):
    """Check an IndexResult output against a cached reference.

    Values of size `sampled_size` are estimates and get `sampled_tol_value`
    (a float, or a function of the result); all others are exact.
    """
    ref = functools.cache(reference)

    def check(outcome) -> Verdict:
        result, source = outcome
        got = as_values(result)
        if method is not None and result.method != method:
            return Verdict(False, f"method {result.method!r}, expected {method!r}")
        sampled = frozenset(m for m in got if m.bit_count() == sampled_size)
        limits = tol
        if sampled_size is not None:
            bound = (sampled_tol_value(result) if callable(sampled_tol_value)
                     else sampled_tol_value)
            limits = {m: (bound if m in sampled else tol) for m in got}
        verdict = compare(got, ref(), limits, sampled)
        if verdict.ok and extra is not None:
            problem = extra(result)
            if problem:
                verdict = Verdict(False, problem, verdict.values, verdict.errors)
        verdict.oracle_calls = oracle_calls(source)
        return verdict

    return check


def efficiency_problem(span: float, scale: float):
    def extra(result) -> str:
        residual = result.total() - span
        limit = exact_tol(scale)
        return "" if abs(residual) <= limit else f"efficiency residual {residual:.3e}"
    return extra


# ---------------------------------------------------------------------------
# exact-dense
# ---------------------------------------------------------------------------

def exact_dense(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 1])
    tables = {n: rng.normal(size=1 << n) for n in (14, 16, 18, 20)}
    winners = {n: mask_of(rng.choice(n, int(rng.integers(3, 7)), replace=False))
               for n in (14, 16, 18, 20)}
    sparse = {"sii12": (12, sparse_terms(rng, 12, 24, 4)),
              "mobius20": (20, sparse_terms(rng, 20, 40, 6)),
              "taylor18": (18, sparse_terms(rng, 18, 36, 5)),
              "taylor12": (12, sparse_terms(rng, 12, 24, 4)),
              "axioms12": (12, sparse_terms(rng, 12, 24, 4)),
              "oracle8": (8, sparse_terms(rng, 8, 16, 4))}
    mobius_table = refs.zeta_dense(sparse["mobius20"][1], 20)
    jobs: list[Job] = []

    def kind_game(kind: str, n: int):
        if kind == "tabular":
            return lambda: ix.make_tabular(n, tables[n])
        if kind == "majority":
            return lambda: ix.make_majority(n)
        return lambda: ix.make_unanimity(n, ids(winners[n]))

    @functools.cache
    def tabular_sti(n: int, k: int):
        return refs.dense_sti(tables[n], n, k, all_sets(n, range(1, k + 1)))

    def sti_reference(kind: str, n: int, k: int):
        sets = all_sets(n, range(1, k + 1))
        if kind == "tabular":
            return lambda: tabular_sti(n, k)
        if kind == "majority":
            def majority():
                by_size = refs.majority_sti(n, k)
                return {m: by_size[m.bit_count()] for m in sets}
            return majority
        return lambda: refs.sparse_sti({winners[n]: 1.0}, k, sets)

    def stv_job(kind: str, n: int, k):
        build = kind_game(kind, n)
        method = "shapley" if k == "shapley" else "stv"
        order = 1 if k == "shapley" else k
        extra = None
        if kind == "tabular":
            table = tables[n]
            extra = efficiency_problem(float(table[-1] - table[0]),
                                       float(np.max(np.abs(table))))
        if k == "shapley":
            run = lambda: (ix.shapley(build()), 0)
        else:
            run = lambda: (ix.stv_exact(build(), order), 0)
        jobs.append(Job(f"{method}[{kind},n={n}" + ("" if k == "shapley" else f",k={k}") + "]",
                        run, index_check(sti_reference(kind, n, order), exact_tol(4.0),
                                         method, extra=extra),
                        heavy=n >= 20 or (n, order) in ((18, 2), (18, 3), (16, 3))))

    for n in (14, 16):
        for kind in ("tabular", "majority", "unanimity"):
            for k in (1, 2, 3, "shapley"):
                stv_job(kind, n, k)
    for kind, k in (("majority", 1), ("tabular", 2), ("unanimity", 3), ("tabular", "shapley")):
        stv_job(kind, 18, k)
    for kind, k in (("unanimity", 1), ("tabular", 2), ("majority", "shapley")):
        stv_job(kind, 20, k)

    # interaction index, k = 2, at n <= 16
    n12, terms12 = sparse["sii12"]
    sets12 = all_sets(12, (1, 2))
    jobs.append(Job("sii_index[mobius,n=12,k=2]",
                    lambda: (ix.sii_index(ix.make_mobius_game(12, terms12), 2), 0),
                    index_check(lambda: refs.sparse_sii(terms12, 2, sets12),
                                exact_tol(4.0), "sii")))
    sets14 = all_sets(14, (1, 2))
    jobs.append(Job("sii_index[majority,n=14,k=2]",
                    lambda: (ix.sii_index(ix.make_majority(14), 2), 0),
                    index_check(lambda: {m: refs.majority_sii(14, m.bit_count()) for m in sets14},
                                exact_tol(1.0), "sii")))
    sets16 = all_sets(16, (1, 2))
    jobs.append(Job("sii_index[unanimity,n=16,k=2]",
                    lambda: (ix.sii_index(ix.make_unanimity(16, ids(winners[16])), 2), 0),
                    index_check(lambda: refs.sparse_sii({winners[16]: 1.0}, 2,
                                                        sets16), exact_tol(1.0), "sii")))

    t16 = tables[16]
    jobs.append(Job("sii_main_effects[tabular,n=16]",
                    lambda: (ix.sii_main_effects(ix.make_tabular(16, t16)), 0),
                    index_check(lambda: refs.dense_main_effects(t16, 16), exact_tol(4.0), "sii",
                                extra=efficiency_problem(float(t16[-1] - t16[0]),
                                                         float(np.max(np.abs(t16)))))))

    # Mobius transform of a dense table built from known sparse coefficients
    terms20 = sparse["mobius20"][1]

    def check_mobius(outcome) -> Verdict:
        expansion, _ = outcome
        got = expansion.coefficients
        tol = exact_tol(refs.sparse_abs_mass(terms20))
        worst = max([abs(got.get(t, 0.0) - c) for t, c in terms20.items()]
                    + [abs(v) for m, v in got.items() if m not in terms20], default=0.0)
        if not worst <= tol:
            return Verdict(False, f"Mobius coefficient off by {worst:.3e}")
        return Verdict(True, fingerprint=tuple(sorted((m, got[m]) for m in terms20 if m in got)))

    jobs.append(Job("mobius_transform[tabular,n=20]",
                    lambda: (ix.mobius_transform(ix.make_tabular(20, mobius_table)), 0),
                    check_mobius))

    # Taylor identity, analytic remainder at n = 18 and quadrature at n = 12
    def taylor_job(tag: str, mode: str, rel_tol: float):
        n, terms = sparse[tag]
        span = float(refs.sparse_span(terms))

        def check(outcome) -> Verdict:
            report, _ = outcome
            limit = rel_tol * max(1.0, abs(span))
            gaps = (abs(report.lhs - span), abs(report.rhs - span))
            if not report.passed or not max(gaps) <= limit:
                return Verdict(False, f"taylor check failed: passed={report.passed}, gaps={gaps}")
            return Verdict(True, fingerprint=(report.lhs, report.rhs))

        jobs.append(Job(f"taylor_identity_check[mobius,n={n},k=2,{mode}]",
                        lambda: (ix.taylor_identity_check(ix.make_mobius_game(n, terms), 2,
                                                          mode), 0), check))

    taylor_job("taylor18", "analytic", refs.EXACT_TOL)
    taylor_job("taylor12", "quadrature", 1e-7)

    # axioms around an opaque game whose callable the benchmark counts
    n_ax, terms_ax = sparse["axioms12"]

    def run_axioms():
        fn = CountedGame(terms_ax)
        return ix.run_axiom_checks(ix.from_function(n_ax, fn), 2, seed), fn

    def check_axioms(outcome) -> Verdict:
        checks, source = outcome
        failed = [c.name for c in checks if not c.passed]
        ok = len(checks) == 5 and not failed
        return Verdict(ok, f"failed axioms: {failed}" if failed else "", 0,
                       fingerprint=tuple((c.name, c.worst_error) for c in checks),
                       oracle_calls=oracle_calls(source))

    jobs.append(Job("run_axiom_checks[function,n=12,k=2]", run_axioms, check_axioms,
                    reference="in-process"))

    # n! ordering oracle at n = 8 on an opaque counted game
    n8, terms8 = sparse["oracle8"]
    sets8 = all_sets(8, (1, 2))

    def run_oracle():
        fn = CountedGame(terms8)
        return ix.stv_permutation_oracle(ix.from_function(n8, fn), 2), fn

    jobs.append(Job("stv_permutation_oracle[function,n=8,k=2]", run_oracle,
                    index_check(lambda: refs.sparse_sti(terms8, 2, sets8), exact_tol(4.0), "stv"),
                    heavy=True, reference="in-process"))

    # the only sampled jobs here feed sampled_rmse and take a small share of the time
    m16 = 96
    r16 = 4.0 * float(np.max(np.abs(t16)))
    for s in rng.integers(0, 2**31, size=6):
        plan = ix.SamplingPlan.from_samples(m16, int(s))
        jobs.append(Job(f"stv_sampled[tabular,n=16,k=2,m={m16},seed={s}]",
                        lambda plan=plan: (ix.stv_sampled(ix.make_tabular(16, t16), 2, plan), 0),
                        index_check(lambda: tabular_sti(16, 2), exact_tol(4.0), "stv",
                                    sampled_size=2, sampled_tol_value=sampled_tol(r16, m16)),
                        reference="in-process"))
    # dense sweeps are scaled by the reference with a cache-busting table;
    # jobs that evaluate a game point by point (opaque callables, sampling)
    # by the interpreter-loop one, which follows them more closely
    return Workload("exact-dense", seed, jobs, {"library_threads": 1},
                    references=("dense", "in-process"))


# ---------------------------------------------------------------------------
# sampled-wide
# ---------------------------------------------------------------------------

def sampled_wide(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 2])
    jobs: list[Job] = []

    def seeds(count):
        return [int(s) for s in rng.integers(0, 2**31, size=count)]

    def majority_ref(n: int, k: int, sets):
        def ref():
            by_size = refs.majority_sti(n, k)
            return {m: by_size[m.bit_count()] for m in sets}
        return ref

    # k = 1 at n = 64 with a Hoeffding plan: eps 0.1, delta 0.05, range 1
    sets64_1 = all_sets(64, (1,))
    m64 = ix.required_samples(0.1, 0.05, 1.0)
    for s in seeds(2):
        plan = ix.SamplingPlan.from_error_budget(0.1, 0.05, seed=s, range_bound=1.0)
        jobs.append(Job(f"stv_sampled[majority,n=64,k=1,hoeffding,seed={s}]",
                        lambda plan=plan: (ix.stv_sampled(ix.make_majority(64), 1, plan), 0),
                        index_check(majority_ref(64, 1, sets64_1), exact_tol(1.0), "stv",
                                    sampled_size=1, sampled_tol_value=sampled_tol(1.0, m64))))

    # k = 2 at n = 32, every one of the 496 pairs, fixed m
    sets32 = all_sets(32, (1, 2))
    m32 = 20
    for s in seeds(8):
        plan = ix.SamplingPlan.from_samples(m32, s)
        jobs.append(Job(f"stv_sampled[majority,n=32,k=2,m={m32},seed={s}]",
                        lambda plan=plan: (ix.stv_sampled(ix.make_majority(32), 2, plan), 0),
                        index_check(majority_ref(32, 2, sets32), exact_tol(1.0), "stv",
                                    sampled_size=2, sampled_tol_value=sampled_tol(2.0, m32))))

    # k = 3 at n = 64 on a few chosen targets
    m3 = 200
    for s in seeds(8):
        targets = tuple(sorted({mask_of(rng.choice(64, 3, replace=False)) for _ in range(6)}))
        scope = 0
        for t in targets:
            scope |= t
        sets = [m for m in all_sets(64, (1, 2)) if m & ~scope == 0] + list(targets)
        plan = ix.SamplingPlan.from_samples(
            m3, s, targets=tuple(ix.PlayerSet(t, 64) for t in targets))
        jobs.append(Job(f"stv_sampled[majority,n=64,k=3,targets={len(targets)},m={m3},seed={s}]",
                        lambda plan=plan: (ix.stv_sampled(ix.make_majority(64), 3, plan), 0),
                        index_check(majority_ref(64, 3, sets), exact_tol(1.0), "stv",
                                    sampled_size=3, sampled_tol_value=sampled_tol(4.0, m3))))

    # range from the warmup estimate (no range given) at n = 12
    sets12 = all_sets(12, (1,))
    for s in seeds(8):
        plan = ix.SamplingPlan.from_error_budget(0.3, 0.05, seed=s)

        def warm_extra(result) -> str:
            return ("" if result.meta.get("range_source") == "warmup-estimate"
                    else f"range source {result.meta.get('range_source')!r}")

        # the sample count follows the estimated range; the tolerance uses the
        # game's true derivative range, which is 1
        check_warm = index_check(majority_ref(12, 1, sets12), exact_tol(1.0), "stv",
                                 sampled_size=1, extra=warm_extra,
                                 sampled_tol_value=lambda r: sampled_tol(1.0, r.meta["samples"]))
        jobs.append(Job(f"stv_sampled[majority,n=12,k=1,warmup-range,seed={s}]",
                        lambda plan=plan: (ix.stv_sampled(ix.make_majority(12), 1, plan), 0),
                        check_warm))

    # median of means at n = 16 on a sparse game
    groups, per_group = 5, 8
    for s in seeds(7):
        terms = sparse_terms(rng, 16, 20, 4)
        sets = all_sets(16, (1, 2))
        jobs.append(Job(f"stv_sampled_mom[mobius,n=16,k=2,{groups}x{per_group},seed={s}]",
                        lambda terms=terms, s=s: (ix.stv_sampled_mom(
                            ix.make_mobius_game(16, terms), 2, groups, per_group, s), 0),
                        index_check(lambda terms=terms, sets=sets: refs.sparse_sti(terms, 2, sets),
                                    exact_tol(4.0), "stv", sampled_size=2,
                                    sampled_tol_value=sampled_tol(
                                        refs.sparse_abs_mass(terms), per_group))))

    # an opaque callable at n = 48: no vectorised builtin path can apply
    m48 = 4
    sets48 = all_sets(48, (1, 2))
    for s in seeds(7):
        terms = sparse_terms(rng, 48, 40, 4)
        plan = ix.SamplingPlan.from_samples(m48, s)

        def run_opaque(terms=terms, plan=plan):
            fn = CountedGame(terms)
            return ix.stv_sampled(ix.from_function(48, fn), 2, plan), fn

        jobs.append(Job(f"stv_sampled[function,n=48,k=2,m={m48},seed={s}]", run_opaque,
                        index_check(lambda terms=terms: refs.sparse_sti(terms, 2, sets48),
                                    exact_tol(4.0), "stv", sampled_size=2,
                                    sampled_tol_value=sampled_tol(
                                        refs.sparse_abs_mass(terms), m48))))
    return Workload("sampled-wide", seed, jobs, {"library_threads": 1})


# ---------------------------------------------------------------------------
# cli-cold
# ---------------------------------------------------------------------------

class ChildCommands:
    """Command lines for child.py, each with a fresh count file."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.serial = 0

    def __call__(self, game_file: Path) -> tuple[str, Path]:
        self.serial += 1
        count = self.workdir / f"count-{self.serial}.txt"
        cmd = " ".join(shlex.quote(str(p)) for p in
                       (sys.executable, CHILD, "--game", game_file, "--count-file", count))
        return cmd, count


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str
    maxrss_kb: int = 0


def launch_cli(argv: list[str], workdir: Path) -> CliOutcome:
    """Run `interax <argv>` in a fresh interpreter with src on the path.

    `python -m interax.cli` would exit 0 without running anything (cli.py
    has no __main__ guard), so the entry point is called explicitly.
    """
    root = HERE.parent
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out_path, err_path = workdir / "cli.out", workdir / "cli.err"
    with open(out_path, "w", encoding="utf-8") as out, open(err_path, "w", encoding="utf-8") as err:
        code, usage = run_child([sys.executable, "-c", CLI_BOOT, *argv], CLI_TIMEOUT_S,
                                stdout=out, stderr=err, stdin=subprocess.DEVNULL,
                                env=env, cwd=root)
    return CliOutcome(code, out_path.read_text(encoding="utf-8"),
                      err_path.read_text(encoding="utf-8"), usage.ru_maxrss)


def cli_in_process(argv: list[str]) -> CliOutcome:
    """Same command through interax.cli.run in this process (traced runs)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = interax.cli.run(argv)
    return CliOutcome(code, out.getvalue(), err.getvalue())


def parse_index_csv(text: str) -> dict[int, float]:
    lines = text.strip().splitlines()
    if not lines or lines[0] != "set,size,method,k,value":
        raise ValueError(f"unexpected CSV header {lines[:1]!r}")
    out = {}
    for line in lines[1:]:
        players, _, _, _, value = line.split(",")
        out[mask_of(int(p) for p in players.split())] = float(value)
    return out


def cli_check(parse: Callable[[CliOutcome], Verdict]):
    """Fail on a non-zero exit or empty output, then apply the parser's check."""
    def check(outcome) -> Verdict:
        result, source = outcome
        if result.code != 0 or not result.stdout.strip():
            return Verdict(False, f"exit {result.code}, {len(result.stdout)} bytes of output, "
                           f"stderr {result.stderr.strip()[-200:]!r}")
        try:
            verdict = parse(result)
        except (ValueError, KeyError, IndexError) as exc:
            return Verdict(False, f"unparsable output: {exc!r}")
        verdict.oracle_calls = oracle_calls(source)
        return verdict
    return check


def cli_cold(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng([seed, 4])
    commands = ChildCommands(workdir)
    jobs: list[Job] = []
    variants = 3

    def add(name: str, argv_fn: Callable[[], tuple[list[str], Any]], parse):
        def run():
            argv, source = argv_fn()
            return launch_cli(argv, workdir), source

        def inproc():
            argv, source = argv_fn()
            if argv[0] == "index":
                argv = [*argv, "--threads", "1"]
            return cli_in_process(argv), source

        jobs.append(Job(name, run, cli_check(parse), inproc))

    def index_parser(in_process: Callable[[], Any], reference: Callable[[], dict], tol,
                     sampled_size=None, sampled_tol_value=0.0, extra=None):
        lib = functools.cache(lambda: as_values(in_process()))
        ref = functools.cache(reference)

        def parse(result: CliOutcome) -> Verdict:
            got = parse_index_csv(result.stdout)
            if got != lib():
                return Verdict(False, "CLI values differ from the in-process result", len(got))
            sampled = frozenset(m for m in got if m.bit_count() == sampled_size)
            limits = {m: (sampled_tol_value if m in sampled else tol) for m in got}
            verdict = compare(got, ref(), limits, sampled)
            problem = extra(got) if verdict.ok and extra is not None else ""
            return Verdict(False, problem, len(got)) if problem else verdict

        return parse

    n = 12
    sets = all_sets(n, (1, 2))
    for v in range(variants):
        table = rng.normal(size=1 << n)
        tab_path = workdir / f"tab{n}-{v}.json"
        tab_path.write_text(json.dumps({"format": "tabular", "n": n,
                                        "values": [float(x) for x in table]}), encoding="utf-8")
        span, scale = float(table[-1] - table[0]), float(np.max(np.abs(table)))
        tab_sti = functools.cache(lambda table=table: refs.dense_sti(table, n, 2, sets))

        def efficiency(got, span=span, scale=scale):
            residual = sum(got.values()) - span
            return "" if abs(residual) <= exact_tol(scale) else f"efficiency residual {residual:.3e}"

        add(f"index[tabular,n={n},stv,k=2,exact,v={v}]",
            lambda p=tab_path: (["index", "--tabular", str(p), "--method", "stv", "--k", "2",
                                 "--format", "csv"], 0),
            index_parser(lambda p=tab_path: ix.stv_exact(ix.load_tabular(p), 2), tab_sti,
                         exact_tol(4.0), extra=efficiency))

        # three sampled runs per file: sampled_rmse then rests on nine
        # independent runs, enough for it to repeat closely across seeds
        m = 50
        for draw in range(3):
            sample_seed = int(rng.integers(0, 2**31))
            add(f"index[tabular,n={n},stv,k=2,sample,m={m},v={v},draw={draw}]",
                lambda p=tab_path, s=sample_seed: (
                    ["index", "--tabular", str(p), "--k", "2", "--mode", "sample",
                     "--samples", str(m), "--seed", str(s), "--format", "csv"], 0),
                index_parser(lambda p=tab_path, s=sample_seed: ix.stv_sampled(
                    ix.load_tabular(p), 2, ix.SamplingPlan.from_samples(m, s)),
                    tab_sti, exact_tol(4.0), 2, sampled_tol(4.0 * scale, m)))

        add(f"index[tabular,n={n},sii,main-effects,v={v}]",
            lambda p=tab_path: (["index", "--tabular", str(p), "--method", "sii", "--k", "2",
                                 "--main-effects", "--format", "csv"], 0),
            index_parser(lambda p=tab_path: ix.sii_main_effects(ix.load_tabular(p)),
                         lambda table=table: refs.dense_main_effects(table, n),
                         exact_tol(4.0), extra=efficiency))

        def parse_axioms(result: CliOutcome) -> Verdict:
            lines = [ln.strip() for ln in result.stdout.splitlines()]
            passed = [ln for ln in lines if ln.startswith("PASS")]
            failed = [ln for ln in lines if ln.startswith("FAIL")]
            ok = len(passed) == 5 and not failed
            return Verdict(ok, "" if ok else f"axiom lines: {lines}", len(passed),
                           fingerprint=tuple(passed))

        axiom_seed = int(rng.integers(0, 2**31))
        add(f"verify_axioms[tabular,n={n},k=2,v={v}]",
            lambda p=tab_path, s=axiom_seed: (["verify", "axioms", "--tabular", str(p), "--k", "2",
                                               "--seed", str(s)], 0),
            parse_axioms)

        mob_terms = sparse_terms(rng, 10, 16, 4)
        mob_path = write_mobius(workdir / f"mob10-{v}.json", 10, mob_terms)
        mode = "analytic" if v % 2 == 0 else "quadrature"
        mob_span = float(refs.sparse_span(mob_terms))

        def parse_taylor(result: CliOutcome, mob_span=mob_span, mode=mode) -> Verdict:
            lines = result.stdout.splitlines()
            fields = {ln.split("=")[0].strip(): ln.split("=", 1)[1].strip()
                      for ln in lines[1:] if "=" in ln and "|" not in ln}
            lhs = float(fields["lhs  (grand span)"])
            rhs = float(fields["rhs  (expansion)"])
            limit = (refs.EXACT_TOL if mode == "analytic" else 1e-7) * max(1.0, abs(mob_span))
            ok = lines[0].startswith("PASS") and max(abs(lhs - mob_span), abs(rhs - mob_span)) <= limit
            return Verdict(ok, "" if ok else f"taylor output {lines[:3]}", 1,
                           fingerprint=(lhs, rhs))

        add(f"verify_taylor[mobius,n=10,k=2,{mode},v={v}]",
            lambda p=mob_path, mode=mode: (["verify", "taylor", "--mobius", str(p), "--k", "2",
                                            "--mode", mode], 0),
            parse_taylor)

        max_n = 10 + v

        def parse_majority(result: CliOutcome, max_n=max_n) -> Verdict:
            lines = result.stdout.strip().splitlines()
            if lines[0] != "n,sii_sum_all,sii_sum_nonsingleton,sign,log10_abs":
                raise ValueError(f"unexpected header {lines[0]!r}")
            rows = [ln.split(",") for ln in lines[1:]]
            if [int(r[0]) for r in rows] != list(range(3, max_n + 1)):
                return Verdict(False, "wrong sweep range", len(rows))
            for row in rows:
                size_n = int(row[0])
                totals = [sum(comb(size_n, s) * refs.majority_sii(size_n, s)
                              for s in range(lo, size_n + 1)) for lo in (1, 2)]
                for got, want in zip((float(row[1]), float(row[2])), totals):
                    if not abs(got - float(want)) <= exact_tol(float(abs(want))):
                        return Verdict(False, f"sweep n={size_n}: {got} vs {float(want)}", len(rows))
            return Verdict(True, "", len(rows), fingerprint=tuple(lines))

        add(f"analyze_majority[3..{max_n},v={v}]",
            lambda max_n=max_n: (["analyze", "majority", "--min-n", "3", "--max-n", str(max_n)], 0),
            parse_majority)

        c = round(float(rng.uniform(0.5, 5.0)), 3)

        def parse_crosses(result: CliOutcome, c=c) -> Verdict:
            lines = result.stdout.strip().splitlines()
            if lines[0] != "family,n,quantity,value":
                raise ValueError(f"unexpected header {lines[0]!r}")
            want = {("linear-crosses", 3, "stv_singleton"): 1.0,
                    ("linear-crosses", 3, "stv_pair"): c / 3,
                    ("linear-crosses", 3, "stv_pair_total"): c,
                    ("linear-crosses", 3, "sii_pair"): c / 2,
                    ("linear-crosses", 3, "sii_pair_total"): 1.5 * c,
                    ("linear-crosses", 3, "sii_main_effect"): 1 - c / 6}
            for pn in range(3, 11):
                want.update({("product", pn, "stv_pair"): 1 / comb(pn, 2),
                             ("product", pn, "stv_total"): 1.0,
                             ("product", pn, "sii_pair"): 1 / (pn - 1),
                             ("product", pn, "sii_total"): pn / 2,
                             ("product", pn, "inflation"): pn / 2})
            got = {}
            for line in lines[1:]:
                family, pn, quantity, value = line.split(",")
                got[(family, int(pn), quantity)] = float(value)
            if set(got) != set(want):
                return Verdict(False, "cross table rows differ", len(got))
            bad = [k for k in want if not abs(got[k] - want[k]) <= exact_tol(abs(want[k]))]
            return Verdict(not bad, f"cross values off: {bad[:3]}" if bad else "", len(got),
                           fingerprint=tuple(lines))

        add(f"analyze_crosses[c={c},v={v}]",
            lambda c=c: (["analyze", "crosses", "--c", repr(c)], 0), parse_crosses)

        emit_n = 9 + v

        def parse_emit(result: CliOutcome, emit_n=emit_n) -> Verdict:
            doc = json.loads(result.stdout)
            a = refs.majority_mobius_by_size(emit_n)
            got = {mask_of(rec["set"]): rec["coef"] for rec in doc["terms"]}
            want = {m: float(a[m.bit_count()]) for m in range(1 << emit_n)
                    if a[m.bit_count()] != 0}
            bad = [m for m in set(got) | set(want)
                   if not abs(got.get(m, 0.0) - want.get(m, 0.0)) <= exact_tol(max(map(abs, a)))]
            ok = doc.get("format") == "mobius" and doc.get("n") == emit_n and not bad
            return Verdict(ok, "" if ok else f"emitted coefficients off at {bad[:3]}", 1,
                           fingerprint=tuple(sorted(got.items())))

        add(f"game_emit[majority,n={emit_n},mobius,v={v}]",
            lambda emit_n=emit_n: (["game", "emit", "--builtin", f"majority:n={emit_n}",
                                    "--format", "mobius"], 0),
            parse_emit)

        ext_seed = int(rng.integers(0, 2**31))
        ext_m = 150
        ext_sets = all_sets(10, (1, 2))

        def ext_argv(p=mob_path, s=ext_seed):
            cmd, count = commands(p)
            return (["index", "--external", cmd, "--n", "10", "--k", "2", "--mode", "sample",
                     "--samples", str(ext_m), "--seed", str(s), "--format", "csv"], count)

        add(f"index[external,n=10,stv,k=2,sample,m={ext_m},v={v}]", ext_argv,
            index_parser(lambda t=mob_terms, s=ext_seed: ix.stv_sampled(
                ix.from_function(10, ix.make_mobius_game(10, t).value), 2,
                ix.SamplingPlan.from_samples(ext_m, s)),
                lambda t=mob_terms: refs.sparse_sti(t, 2, ext_sets), exact_tol(4.0), 2,
                sampled_tol(refs.sparse_abs_mass(mob_terms), ext_m)))
    return Workload("cli-cold", seed, jobs,
                    {"library_threads": 1, "cli_threads": os.cpu_count() or 1,
                     "traced_cli_threads": 1}, references=("interpreter",))


BUILDERS = {"exact-dense": exact_dense, "sampled-wide": sampled_wide, "cli-cold": cli_cold}


def build(name: str, seed: int, workdir: Path) -> Workload:
    """Inputs, files and jobs for one workload; the same seed gives the same jobs.

    Jobs run in a seeded shuffled order, so variants of one kind are spread
    over the pass and do not all meet the same slow phase of a shared host.
    """
    workdir.mkdir(parents=True, exist_ok=True)
    workload = BUILDERS[name](seed, workdir)
    np.random.default_rng([seed, 5]).shuffle(workload.jobs)
    return workload
