"""Tests of the benchmark itself.  Run from the root of a checkout:

    python3 bench/selftest.py

They check that the benchmark's references agree with the library at small
n, that a fixed seed repeats its counts, errors and outputs exactly, that
a wrong reference or a silent CLI shows up as a failed job, and that job
times are scaled by the reference samples taken near them.
"""

from __future__ import annotations

import shutil
import sys
import unittest
from fractions import Fraction
from math import comb

import numpy as np

import run
from speed import REFERENCES, HostSpeed, run_child

ix = run.import_library()

import jobs  # noqa: E402  (needs the library on the path)
import refs  # noqa: E402
from refs import all_sets  # noqa: E402

TOL = 1e-12


def values_of(result) -> dict[int, float]:
    return jobs.as_values(result)


class ReferencesAgreeWithLibrary(unittest.TestCase):
    """The benchmark's references against interax at n <= 8."""

    def assert_close(self, got: dict, want: dict, tol=TOL):
        self.assertEqual(set(got), set(want))
        for mask, val in got.items():
            self.assertAlmostEqual(val, float(want[mask]), delta=tol, msg=refs.ids(mask))

    def test_sparse_sti_and_sii(self):
        rng = np.random.default_rng(11)
        for n in (5, 6, 7, 8):
            terms = jobs.sparse_terms(rng, n, 2 * n, 4)
            game = ix.make_mobius_game(n, terms)
            for k in (1, 2, 3):
                sets = all_sets(n, range(1, k + 1))
                self.assert_close(values_of(ix.stv_exact(game, k)),
                                  refs.sparse_sti(terms, k, sets))
                self.assert_close(values_of(ix.sii_index(game, k)),
                                  refs.sparse_sii(terms, k, sets))
            self.assert_close(values_of(ix.sii_main_effects(game)),
                              refs.sparse_main_effects(terms, n))

    def test_majority_closed_forms(self):
        for n in (5, 6, 7, 8):
            for k in (1, 2, 3):
                by_size = refs.majority_sti(n, k)
                if 2 * (k - 1) < n:
                    for size in range(1, k + 1):
                        self.assertEqual(by_size[size], refs.majority_closed_form(n, k, size))
                sets = all_sets(n, range(1, k + 1))
                self.assert_close(values_of(ix.stv_exact(ix.make_majority(n), k)),
                                  {m: by_size[m.bit_count()] for m in sets})
                self.assert_close(values_of(ix.sii_index(ix.make_majority(n), k)),
                                  {m: refs.majority_sii(n, m.bit_count()) for m in sets})
        self.assertEqual(refs.majority_sti(12, 1)[1], Fraction(1, 12))

    def test_unanimity_closed_form(self):
        for n, winners, k in ((6, 0b111, 2), (8, 0b10110110, 3), (7, 0b1, 1)):
            t = winners.bit_count()
            want = refs.sparse_sti({winners: 2.5}, k,
                                   all_sets(n, range(1, k + 1)))
            for mask, val in want.items():
                inside = mask & ~winners == 0
                expect = Fraction(5, 2) / comb(t, k) if inside and mask.bit_count() == k else 0
                self.assertEqual(val, expect)
            self.assert_close(values_of(ix.stv_exact(
                ix.make_interaction(n, refs.ids(winners), 2.5), k)), want)

    def test_dense_references(self):
        rng = np.random.default_rng(12)
        for n in (6, 8):
            table = rng.normal(size=1 << n)
            game = ix.make_tabular(n, table)
            for k in (1, 2, 3):
                sets = all_sets(n, range(1, k + 1))
                self.assert_close(values_of(ix.stv_exact(game, k)),
                                  refs.dense_sti(table, n, k, sets), 1e-10)
                self.assert_close(values_of(ix.sii_index(game, k)),
                                  refs.dense_sii(table, n, sets), 1e-10)

    def test_sparse_helpers(self):
        rng = np.random.default_rng(13)
        terms = jobs.sparse_terms(rng, 8, 12, 4)
        table = refs.zeta_dense(terms, 8)
        ordered = sorted(terms.items())
        for mask in range(1 << 8):
            self.assertAlmostEqual(table[mask], refs.sparse_value(ordered, mask), delta=TOL)
        keep = (1, 3, 4, 6)
        inner = ix.restrict_players(ix.make_mobius_game(8, terms), keep)
        inner_terms = refs.restrict_terms(terms, keep)
        for mask in range(1 << len(keep)):
            self.assertAlmostEqual(inner.value(mask),
                                   refs.sparse_value(sorted(inner_terms.items()), mask),
                                   delta=TOL)


class FixedSeedRepeats(unittest.TestCase):
    """Two builds with one seed give identical counts, errors and outputs."""

    def run_subset(self, name: str, seed: int):
        path = run.workdir_for(f"selftest-{name}", seed)
        try:
            workload = jobs.build(name, seed, path)
            # one job of each kind keeps the test short
            picked, kinds = [], set()
            for job in workload.jobs:
                kind = job.name.split("[")[0] + job.name.split(",")[0]
                if kind not in kinds:
                    kinds.add(kind)
                    picked.append(job)
            ledger = run.Ledger(picked)
            run.run_pass(ledger, "all")
            self.assertEqual(ledger.failures, [])
            return [(v.fingerprint, v.oracle_calls, v.errors) for v in ledger.first]
        finally:
            shutil.rmtree(path, ignore_errors=True)

    def test_sampled_wide(self):
        first = self.run_subset("sampled-wide", 5)
        self.assertEqual(first, self.run_subset("sampled-wide", 5))
        self.assertTrue(any(calls for _, calls, _ in first))
        self.assertTrue(any(errors for _, _, errors in first))
        self.assertNotEqual(first, self.run_subset("sampled-wide", 6))

    def test_external_cli_job(self):
        # the protocol child's query count and the CLI's CSV repeat exactly
        def external_only(seed):
            path = run.workdir_for("selftest-cli-cold", seed)
            try:
                workload = jobs.build("cli-cold", seed, path)
                picked = [j for j in workload.jobs if "external" in j.name][:1]
                ledger = run.Ledger(picked)
                run.run_pass(ledger, "all")
                self.assertEqual(ledger.failures, [])
                return [(v.fingerprint, v.oracle_calls, v.errors) for v in ledger.first]
            finally:
                shutil.rmtree(path, ignore_errors=True)
        first = external_only(5)
        self.assertEqual(first, external_only(5))
        self.assertGreater(first[0][1], 0)


class FailuresAreReported(unittest.TestCase):

    def ledger_for(self, job):
        ledger = run.Ledger([job])
        run.run_pass(ledger, "all")
        return ledger

    def test_wrong_reference_counts_as_failed(self):
        n, k = 12, 1
        plan = ix.SamplingPlan.from_samples(400, 3)
        sets = all_sets(n, (1,))
        right = jobs.index_check(lambda: {m: Fraction(1, n) for m in sets}, 1e-9, "stv",
                                 sampled_size=1, sampled_tol_value=refs.sampled_tol(1.0, 400))
        wrong = jobs.index_check(lambda: {m: Fraction(1, n) + 1 for m in sets}, 1e-9, "stv",
                                 sampled_size=1, sampled_tol_value=refs.sampled_tol(1.0, 400))
        compute = lambda: (ix.stv_sampled(ix.make_majority(n), k, plan), 0)  # noqa: E731
        good = self.ledger_for(jobs.Job("right", compute, right))
        bad = self.ledger_for(jobs.Job("wrong", compute, wrong))
        self.assertEqual(good.failures, [])
        self.assertEqual(len(bad.failures), 1)
        metrics, _ = run.end_to_end(bad, "sampled-wide", [0.1])
        self.assertEqual(metrics["success_ratio"][0], 0.0)
        line = run.result_line({"failures": bad.failures, "attempted": bad.attempted,
                                "metrics": metrics})
        self.assertFalse(line["correct"])
        self.assertEqual((line["attempted"], line["failed"]), (1, 1))

    def test_raising_job_counts_as_failed(self):
        def explode():
            raise ValueError("boom")
        ledger = self.ledger_for(jobs.Job("raises", explode, lambda outcome: jobs.Verdict(True)))
        self.assertEqual(len(ledger.failures), 1)
        self.assertIn("boom", ledger.failures[0])

    def test_silent_cli_counts_as_failed(self):
        check = jobs.cli_check(lambda result: jobs.Verdict(True))
        for outcome in (jobs.CliOutcome(0, "", ""), jobs.CliOutcome(1, "rows\n", "error")):
            self.assertFalse(check((outcome, 0)).ok)
        self.assertTrue(check((jobs.CliOutcome(0, "rows\n", ""), 0)).ok)

    def test_cli_launch_runs_the_entry_point(self):
        path = run.workdir_for("selftest-cli", 0)
        path.mkdir(parents=True, exist_ok=True)
        try:
            outcome = jobs.launch_cli(["analyze", "majority", "--min-n", "3", "--max-n", "4"],
                                      path)
        finally:
            shutil.rmtree(path, ignore_errors=True)
        self.assertEqual(outcome.code, 0)
        self.assertTrue(outcome.stdout.startswith("n,sii_sum_all"))


class HostSpeedScaling(unittest.TestCase):

    def test_scale_uses_reference_samples_near_the_job(self):
        speed = HostSpeed("dense", "in-process")
        # a host at half speed from t = 10 on: the references take twice as long
        speed.times = [float(t) for t in range(20)]
        loop_s, dense_s = REFERENCES["in-process"][1], REFERENCES["dense"][1]
        for part, nominal in (("loop", loop_s), ("large", dense_s - loop_s)):
            speed.part_s[part] = [2 * nominal if t >= 10 else nominal for t in range(20)]
        for reference in ("dense", "in-process"):
            self.assertAlmostEqual(speed.scale(3.0, 4.0, reference), 1.0)
            self.assertAlmostEqual(speed.scale(15.0, 16.0, reference), 0.5)

    def test_scale_falls_back_to_the_nearest_samples(self):
        speed = HostSpeed()
        speed.times = [0.0, 1.0, 2.0, 3.0, 4.0, 100.0]
        speed.part_s["loop"] = [speed.nominal_s] * 5 + [10 * speed.nominal_s]
        self.assertAlmostEqual(speed.scale(50.0, 50.1), 1.0)

    def test_run_child_reports_exit_code_and_kills_on_timeout(self):
        self.assertEqual(run_child([sys.executable, "-c", "raise SystemExit(3)"], 60)[0], 3)
        code, _ = run_child([sys.executable, "-c", "import time; time.sleep(30)"], 0.5)
        self.assertLess(code, 0)


class Statistics(unittest.TestCase):

    def test_tail_keeps_ten_jobs_beyond(self):
        latencies = [float(i) for i in range(41)]
        value, percentile = run.tail(latencies)
        self.assertEqual(sum(1 for x in latencies if x > value), run.TAIL_BEYOND)
        self.assertAlmostEqual(percentile, 100.0 * 31 / 41)

    def test_compare_verdicts(self):
        old = [100.0, 101.0, 99.0, 100.5, 99.5]
        self.assertEqual(run.verdict(old, [x * 1.3 for x in old], True, 0.1), "worse")
        self.assertEqual(run.verdict(old, [x * 0.7 for x in old], True, 0.1), "better")
        self.assertEqual(run.verdict(old, [x * 1.01 for x in old], True, 0.1), "within bound")
        noisy = [50.0, 150.0, 100.0, 70.0, 130.0]
        self.assertEqual(run.verdict(old, noisy, True, 0.1), "unresolved")
        self.assertEqual(run.verdict(old, [x * 0.7 for x in old], False, 0.1), "worse")


if __name__ == "__main__":
    unittest.main()
