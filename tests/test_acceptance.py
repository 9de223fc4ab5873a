"""Acceptance gate: nine end-to-end criteria, one test and one verdict line each.

Every criterion prints ``ACCEPTANCE <i>: PASS|FAIL`` (run pytest with -s to
see the lines as they happen; they also appear in captured output).  The
checks pin exact expected values at fixed tolerances and, where stated,
wall-clock budgets.

Criteria 2 and 7 run a second time on tabular copies of their games: the
built-in games record their Mobius terms and are summed from them, the
copies take the dense Mobius kernel.
"""

import time
from math import comb, fsum

import numpy as np

from helpers import random_tabular
from interax import (PlayerSet, SamplingPlan, attach_external,
                     discrete_derivative, efficiency_residual,
                     lagrange_remainder_term, majority_sweep, make_interaction,
                     make_linear_crosses, make_majority, make_product,
                     make_tabular, make_unanimity, mixed_partial_diagonal, relabel,
                     required_samples, shapley, sii_exact, sii_main_effects,
                     stv_exact, stv_permutation_oracle, stv_sampled,
                     taylor_identity_check)
from interax.games import combine, from_function


def _verdict(number, failures, elapsed, label):
    status = "PASS" if not failures else "FAIL"
    print(f"ACCEPTANCE {number}: {status} ({elapsed:.2f}s) - {label}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def test_criterion_01_linear_cross_table():
    """Order-2 values on the three-player cross model, five coefficients."""
    start = time.perf_counter()
    failures = []
    tol = 1e-10
    for c in (-3.0, 0.0, 1.0, 3.0, 10.0):
        game = make_linear_crosses(c)
        taylor = stv_exact(game, 2)
        for i in range(3):
            got = taylor.get([i], 3)
            if abs(got - 1.0) > tol:
                failures.append(f"c={c}: taylor singleton {i} = {got}, want 1")
        for pair in ([0, 1], [0, 2], [1, 2]):
            got = taylor.get(pair, 3)
            if abs(got - c / 3) > tol:
                failures.append(f"c={c}: taylor pair {pair} = {got}, want {c/3}")
            sii = sii_exact(game, pair)
            if abs(sii - c / 2) > tol:
                failures.append(f"c={c}: interaction pair {pair} = {sii}, "
                                f"want {c/2}")
        # Mobius coefficients a({i}) = 1, a({0,1,2}) = c give phi_i = 1 + c/3
        # and pairs c/2; subtracting half of each pair involving i leaves
        # 1 + c/3 - c/2 = 1 - c/6, and 3(1 - c/6) + 3(c/2) = 3 + c = v(N) - v(0)
        mains = sii_main_effects(game)
        for i in range(3):
            got = mains.get([i], 3)
            want = 1.0 - c / 6
            if abs(got - want) > tol:
                failures.append(
                    f"c={c}: sii main effect {i} = {got}, want {want} "
                    f"(phi_i minus half the pair interactions; the published "
                    f"{1 - c / 3} is not efficient; see README "
                    f"'Interaction-index main effects')")
        residual = efficiency_residual(mains, game)
        if abs(residual) > tol:
            failures.append(f"c={c}: sii main effects efficiency residual "
                            f"{residual}, want 0")
    elapsed = time.perf_counter() - start
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s, budget 1s")
    _verdict(1, failures, elapsed, "linear-cross reference table")


def test_criterion_02_product_game():
    """Pair values and totals on the all-players cross, n = 3..10."""
    _criterion_02(make_product, "product-game scaling")


def test_criterion_02_dense_copy():
    """Criterion 2 on tabular copies of the games, which take the dense kernel."""
    _criterion_02(lambda n: make_tabular(n, make_product(n).dense_table()),
                  "product-game scaling, dense copies")


def _criterion_02(make_game, label):
    start = time.perf_counter()
    failures = []
    tol = 1e-10
    for n in range(3, 11):
        game = make_game(n)
        taylor = stv_exact(game, 2)
        pair_vals = [v for s, v in taylor.values.items() if s.size == 2]
        want = 1.0 / comb(n, 2)
        if any(abs(v - want) > tol for v in pair_vals):
            failures.append(f"n={n}: taylor pair off {want}")
        if abs(fsum(pair_vals) - 1.0) > tol:
            failures.append(f"n={n}: taylor total {fsum(pair_vals)}, want 1")
        sii_pair = sii_exact(game, [0, 1])
        if abs(sii_pair - 1.0 / (n - 1)) > tol:
            failures.append(f"n={n}: interaction pair {sii_pair}, "
                            f"want {1.0/(n-1)}")
        sii_total = sii_pair * comb(n, 2)
        if abs(sii_total - n / 2) > tol:
            failures.append(f"n={n}: interaction total {sii_total}, want {n/2}")
    _verdict(2, failures, time.perf_counter() - start, label)


def test_criterion_03_majority():
    """Majority-game values at n=3 plus the n = 3..16 sweep behavior.

    The nonsingleton interaction total follows the sign pattern
    -,+,+,-,-,... : it alternates at every step of two in n (exactly, within
    each parity class) and keeps flipping without settling.  Magnitudes are
    checked only qualitatively (they grow), matching the property-based
    reading of the sweep.
    """
    start = time.perf_counter()
    failures = []
    game3 = make_majority(3)
    taylor3 = stv_exact(game3, 2)
    for i in range(3):
        if taylor3.get([i], 3) != 0.0:
            failures.append(f"n=3 singleton {i} nonzero")
    for pair in ([0, 1], [0, 2], [1, 2]):
        if abs(taylor3.get(pair, 3) - 1 / 3) > 1e-9:
            failures.append(f"n=3 taylor pair {pair} != 1/3")
        if abs(sii_exact(game3, pair)) > 1e-9:
            failures.append(f"n=3 interaction pair {pair} nonzero")
    if abs(sii_exact(game3, [0, 1, 2]) + 2.0) > 1e-9:
        failures.append("n=3 interaction triple != -2")

    for n in range(3, 17):
        taylor = stv_exact(make_majority(n), 2)
        want = 2.0 / (n * (n - 1))
        worst = max(abs(v - want) for s, v in taylor.values.items()
                    if s.size == 2)
        if worst > 1e-9:
            failures.append(f"n={n}: taylor pairs off 2/(n(n-1)) by {worst:.2e}")

    rows = {row.n: row for row in majority_sweep(3, 16)}
    signs = {n: rows[n].sign for n in range(3, 17)}
    if any(signs[n] == "0" for n in signs):
        failures.append("nonsingleton interaction total hit zero")
    for n in range(3, 15):
        if signs[n] == signs[n + 2]:
            failures.append(f"sign failed to alternate between n={n} and {n+2}")
    flips = sum(signs[n] != signs[n + 1] for n in range(3, 16))
    if flips < 6:
        failures.append(f"sign settled: only {flips} flips across the sweep")
    for n in range(3, 15):
        if abs(rows[n + 2].sii_sum_nonsingleton) <= \
                abs(rows[n].sii_sum_nonsingleton):
            failures.append(f"magnitude failed to grow from n={n} to {n+2}")

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.2f}s, budget 30s")
    _verdict(3, failures, elapsed, "majority-game values and sweep")


def test_criterion_04_oracle_equivalence():
    """Closed form vs full-permutation average on 200 seeded games."""
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(20240)
    worst = 0.0
    for trial in range(200):
        n = int(rng.integers(2, 7))
        game = random_tabular(rng, n)
        for k in (1, 2, 3):
            if k > n:
                continue
            exact = stv_exact(game, k)
            oracle = stv_permutation_oracle(game, k)
            gap = max(abs(exact.values[s] - oracle.values[s])
                      for s in exact.values)
            worst = max(worst, gap)
            if gap > 1e-10:
                failures.append(f"trial {trial} n={n} k={k}: gap {gap:.2e}")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.2f}s, budget 60s")
    _verdict(4, failures, elapsed,
             f"oracle equivalence (worst gap {worst:.2e})")


def test_criterion_05_axiom_suite():
    """Efficiency, linearity, dummy, symmetry, interaction distribution
    across 500 seeded games, n <= 10."""
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(50500)
    distribution_cases = set()
    for trial in range(500):
        n = int(rng.integers(3, 11))
        k = int(rng.integers(1, 4))
        game = random_tabular(rng, n)

        # efficiency
        result = stv_exact(game, k)
        residual = abs(efficiency_residual(result, game))
        if residual > 1e-9 * max(1.0, abs(game.span())):
            failures.append(f"trial {trial}: efficiency residual {residual:.2e}")

        # linearity
        other = random_tabular(rng, n)
        alpha, beta = 1.5, -2.5
        mixed = stv_exact(combine(alpha, game, beta, other), k)
        right = stv_exact(other, k)
        worst = max(abs(mixed.values[s]
                        - (alpha * result.values[s] + beta * right.values[s]))
                    for s in mixed.values)
        if worst > 1e-9 * max(1.0, abs(game.span()), abs(other.span())):
            failures.append(f"trial {trial}: linearity gap {worst:.2e}")

        # dummy: append an additive player
        c = float(rng.normal()) or 1.0
        shift = game.value(0)
        bit = 1 << n

        def fn(mask, game=game, shift=shift, c=c, bit=bit):
            return game.value(mask & (bit - 1)) - shift + (c if mask & bit else 0.0)

        extended = from_function(n + 1, fn, "dummy-extended")
        dummy_res = stv_exact(extended, k)
        scale = max(1.0, abs(c), abs(extended.span()))
        if abs(dummy_res.values[PlayerSet(bit, n + 1)] - c) > 1e-9 * scale:
            failures.append(f"trial {trial}: dummy singleton off")
        worst = max((abs(v) for s, v in dummy_res.values.items()
                     if s.size >= 2 and s.contains(n)), default=0.0)
        if worst > 1e-9 * scale:
            failures.append(f"trial {trial}: dummy containing-set {worst:.2e}")

        # symmetry under relabeling
        perm = [int(p) for p in rng.permutation(n)]
        imaged = stv_exact(relabel(game, perm), k)
        worst = 0.0
        for pset, val in result.values.items():
            image = 0
            for i in pset.members():
                image |= 1 << perm[i]
            worst = max(worst, abs(imaged.values[PlayerSet(image, n)] - val))
        if worst > 1e-10:
            failures.append(f"trial {trial}: symmetry gap {worst:.2e}")

        distribution_cases.add((n, k))

    # interaction distribution depends only on (n, k); check each case once
    for n, k in sorted(distribution_cases):
        for order in range(2, n + 1):
            game = make_interaction(n, range(order), 2.5)
            result = stv_exact(game, k)
            winners = (1 << order) - 1
            for pset, val in result.values.items():
                if pset.bits & ~winners == 0 and pset.size < min(k, order):
                    if val != 0.0:
                        failures.append(
                            f"interaction distribution leak at n={n} k={k} "
                            f"order={order}: {val!r}")
    elapsed = time.perf_counter() - start
    _verdict(5, failures, elapsed, "axiom suite on 500 seeded games")


def test_criterion_06_taylor_bridging():
    """Expansion identity plus per-set bridging on 200 seeded games."""
    start = time.perf_counter()
    failures = []
    rng = np.random.default_rng(60600)
    for trial in range(200):
        n = int(rng.integers(2, 9))
        game = random_tabular(rng, n)
        for k in (1, 2, 3):
            if k > n:
                continue
            report = taylor_identity_check(game, k)
            if not report.passed:
                failures.append(f"trial {trial} n={n} k={k}: identity "
                                f"error {report.abs_error:.2e}")
            exact = stv_exact(game, k)
            for pset, want in exact.values.items():
                if pset.size < k:
                    got = mixed_partial_diagonal(game, pset.bits, 0.0)
                    if abs(got - want) > 1e-7:
                        failures.append(f"trial {trial}: low-order bridge "
                                        f"{pset} gap {abs(got-want):.2e}")
                else:
                    for mode in ("analytic", "quadrature"):
                        got = lagrange_remainder_term(game, pset.bits, k, mode)
                        if abs(got - want) > 1e-7:
                            failures.append(
                                f"trial {trial}: {mode} remainder {pset} "
                                f"gap {abs(got-want):.2e}")
    elapsed = time.perf_counter() - start
    _verdict(6, failures, elapsed, "expansion identity and bridging")


def test_criterion_07_unanimity_closed_form():
    """Every k-subset inside the winning set gets exactly 1/C(t, k)."""
    _criterion_07(make_unanimity, "unanimity closed form")


def test_criterion_07_dense_copy():
    """Criterion 7 on tabular copies of the games, which take the dense kernel."""
    def dense_copy(n, winners):
        return make_tabular(n, make_unanimity(n, winners).dense_table())

    _criterion_07(dense_copy, "unanimity closed form, dense copies")


def _criterion_07(make_game, label):
    start = time.perf_counter()
    failures = []
    for t in range(1, 11):
        n = min(t + 2, 12)
        winners_mask = (1 << t) - 1
        game = make_game(n, range(t))
        for k in range(1, min(t, 4) + 1):
            result = stv_exact(game, k)
            want_inside = 1.0 / comb(t, k)
            for pset, val in result.values.items():
                inside = pset.bits & ~winners_mask == 0
                want = want_inside if (pset.size == k and inside) else 0.0
                if abs(val - want) > 1e-12:
                    failures.append(f"t={t} k={k} {pset}: {val!r}, want {want!r}")
    _verdict(7, failures, time.perf_counter() - start, label)


def test_criterion_08_sampling_coverage():
    """Hoeffding budget honored empirically on the eight-player majority game."""
    start = time.perf_counter()
    failures = []
    game = make_majority(8)
    target = PlayerSet.from_ids([0, 1], 8)

    # true derivative range by brute force over the complement
    truth_range = 0.0
    for t_mask in range(1 << 8):
        if t_mask & target.bits:
            continue
        truth_range = max(truth_range,
                          abs(discrete_derivative(game, target.bits, t_mask)))
    if truth_range != 1.0:
        failures.append(f"derivative range {truth_range}, expected 1.0")

    epsilon, delta = 0.1, 0.05
    m = required_samples(epsilon, delta, truth_range)
    if m != 738:
        failures.append(f"required samples {m}, expected 738")

    exact = stv_exact(game, 2).values[target]
    runs, misses = 500, 0
    for seed in range(runs):
        plan = SamplingPlan.from_samples(m, seed=seed, targets=(target,))
        estimate = stv_sampled(game, 2, plan).values[target]
        if abs(estimate - exact) > epsilon:
            misses += 1
    rate = misses / runs
    if rate > delta + 0.02:
        failures.append(f"failure rate {rate:.3f} above {delta} + 0.02 slack")
    elapsed = time.perf_counter() - start
    if elapsed >= 300.0:
        failures.append(f"runtime {elapsed:.2f}s, budget 300s")
    _verdict(8, failures, elapsed,
             f"sampling coverage (m={m}, miss rate {rate:.3f})")


def test_criterion_09_external_protocol_conformance(majority_child_command):
    """A scripted majority child must reproduce builtin indices bit for bit."""
    start = time.perf_counter()
    failures = []
    builtin = make_majority(3)
    with attach_external(majority_child_command, 3) as ext:
        for maker, label in ((lambda g: stv_exact(g, 2), "stv"),
                             (shapley, "shapley"),
                             (lambda g: sii_main_effects(g), "sii")):
            got = maker(ext)
            want = maker(builtin)
            if got.values != want.values:
                failures.append(f"{label} values differ from builtin")
    _verdict(9, failures, time.perf_counter() - start,
             "external evaluator conformance")
