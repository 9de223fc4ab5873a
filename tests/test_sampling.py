import math
from math import fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_masks_of_size, fresh_permutation, prefix_before,
                     random_mobius_terms, random_tabular)
from interax import (PlayerSet, SamplingPlan, discrete_derivative,
                     make_linear_crosses, make_majority, make_mobius_game,
                     make_tabular, make_unanimity, required_samples,
                     sample_permutation, sampling, stv_exact, stv_sampled,
                     stv_sampled_mom)

# (n, k, seed, m): a random tabular game on n players, seeded by `seed`
DRAW_CASES = st.integers(2, 7).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, min(n, 3)), st.integers(0, 2 ** 64 - 1),
    st.integers(1, 16)))
PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)


class TestRequiredSamples:
    def test_reference_point(self):
        assert required_samples(0.1, 0.05, 1.0) == 738

    def test_trivially_loose_error(self):
        for delta in (0.01, 0.2, 0.9):
            assert required_samples(1.0, delta, 1.0) == \
                math.ceil(2 * math.log(2 / delta))

    def test_monotone_lower_bound_as_delta_grows(self):
        floor = math.ceil(2 * math.log(2.0) * 4.0)  # delta -> 1, r/eps = 2
        seen = [required_samples(0.5, d, 1.0) for d in (0.5, 0.9, 0.999)]
        assert seen == sorted(seen, reverse=True)
        assert seen[-1] >= floor

    def test_domain_violations(self):
        with pytest.raises(ValueError):
            required_samples(0.0, 0.1, 1.0)
        with pytest.raises(ValueError):
            required_samples(0.1, 1.0, 1.0)
        with pytest.raises(ValueError):
            required_samples(0.1, 0.1, 0.0)


class TestPlanValidation:
    def test_needs_samples_or_budget(self):
        with pytest.raises(ValueError):
            SamplingPlan(seed=1)
        with pytest.raises(ValueError):
            SamplingPlan(seed=1, epsilon=0.1)

    def test_sample_count_positive(self):
        with pytest.raises(ValueError):
            SamplingPlan.from_samples(0, seed=1)

    def test_range_positive(self):
        with pytest.raises(ValueError):
            SamplingPlan.from_error_budget(0.1, 0.1, seed=1, range_bound=-1.0)

    def test_wrong_size_target_rejected(self):
        g = make_majority(4)
        plan = SamplingPlan.from_samples(
            5, seed=1, targets=(PlayerSet.from_ids([0], 4),))
        with pytest.raises(ValueError, match="size"):
            stv_sampled(g, 2, plan)


class TestStvSampled:
    def test_unanimity_target_is_exact(self):
        g = make_unanimity(6, [1, 3])
        plan = SamplingPlan.from_samples(
            40, seed=9, targets=(PlayerSet.from_ids([1, 3], 6),))
        result = stv_sampled(g, 2, plan)
        assert result.get([1, 3], 6) == 1.0

    def test_linear_crosses_concentrates(self):
        g = make_linear_crosses(3.0)
        plan = SamplingPlan.from_samples(10000, seed=2024)
        result = stv_sampled(g, 2, plan)
        for pair in ([0, 1], [0, 2], [1, 2]):
            assert abs(result.get(pair, 3) - 1.0) < 0.05
        for i in range(3):
            assert result.get([i], 3) == 1.0  # ordering-independent, exact

    def test_single_sample_equals_single_ordering(self):
        rng = np.random.default_rng(77)
        g = random_tabular(rng, 6)
        seed = 31337
        target = PlayerSet.from_ids([2, 4], 6)
        plan = SamplingPlan.from_samples(1, seed=seed, targets=(target,))
        result = stv_sampled(g, 2, plan)
        perm = sample_permutation(seed, 0, 6)
        order = list(perm)
        first = min(order.index(2), order.index(4))
        prefix = 0
        for p in order[:first]:
            prefix |= 1 << p
        assert result.values[target] == discrete_derivative(g, target.bits, prefix)

    def test_deterministic_given_plan(self):
        g = make_majority(10)
        plan = SamplingPlan.from_samples(64, seed=5)
        a = stv_sampled(g, 2, plan)
        b = stv_sampled(g, 2, plan)
        assert a.values == b.values
        assert a.meta == b.meta

    def test_error_budget_derives_count(self):
        g = make_majority(8)
        plan = SamplingPlan.from_error_budget(0.25, 0.1, seed=3, range_bound=1.0)
        result = stv_sampled(g, 2, plan)
        assert result.meta["samples"] == required_samples(0.25, 0.1, 1.0)
        assert result.meta["range_source"] == "user"

    def test_warmup_range_estimate(self):
        g = make_majority(8)
        plan = SamplingPlan.from_error_budget(
            0.5, 0.2, seed=3, targets=(PlayerSet.from_ids([0, 1], 8),))
        result = stv_sampled(g, 2, plan)
        assert result.meta["range_source"] == "warmup-estimate"
        assert result.meta["range"] > 0
        # majority derivatives live in [-1, 1]: spread 2, doubled
        assert result.meta["range"] == 4.0

    def test_flat_warmup_rejected(self):
        flat = make_tabular(4, np.full(16, 2.5))
        plan = SamplingPlan.from_error_budget(0.1, 0.1, seed=1)
        with pytest.raises(ValueError, match="flat"):
            stv_sampled(flat, 2, plan)

    def test_restricted_targets_limit_lower_orders(self):
        g = make_majority(10)
        targets = (PlayerSet.from_ids([0, 1], 10), PlayerSet.from_ids([1, 2], 10))
        plan = SamplingPlan.from_samples(8, seed=6, targets=targets)
        result = stv_sampled(g, 2, plan)
        singles = [s for s in result.values if s.size == 1]
        assert sorted(s.bits for s in singles) == [1, 2, 4]

    def test_lower_orders_are_the_exact_values(self):
        # the sampler reads the same a(S) as stv_exact: recorded terms for
        # the Mobius game, derivatives at the empty set for the table
        n = 24
        terms = random_mobius_terms(np.random.default_rng(3), n, max_size=4)
        mobius, table = make_mobius_game(n, terms), random_tabular(np.random.default_rng(4), 10)
        for g in (mobius, table):
            exact = stv_exact(g, 3).values
            targets = (PlayerSet(0b111, g.n), PlayerSet(0b1110000, g.n))
            for result in (stv_sampled(g, 3, SamplingPlan.from_samples(4, seed=5)),
                           stv_sampled_mom(g, 3, 3, 2, seed=6),
                           stv_sampled(g, 3, SamplingPlan.from_samples(4, 7, targets))):
                lower = {s: v for s, v in result.values.items() if s.size < 3}
                assert len(lower) in (6 + 15, g.n + g.n * (g.n - 1) // 2)
                assert [v.hex() for v in lower.values()] == [exact[s].hex() for s in lower]
                if g is mobius:
                    assert all(v == terms.get(s.bits, 0.0) for s, v in lower.items())

    def test_large_n_stays_sparse(self):
        g = make_unanimity(64, [0, 63])
        plan = SamplingPlan.from_samples(
            12, seed=8, targets=(PlayerSet.from_ids([0, 63], 64),))
        result = stv_sampled(g, 2, plan)
        assert result.get([0, 63], 64) == 1.0

    def test_sparse_game_at_sixty_four_players_within_the_bound(self):
        # exact ground truth from the game's recorded Mobius terms; each
        # target's derivatives are bounded by the mass of its superset terms
        n = 64
        terms = random_mobius_terms(np.random.default_rng(64), n, max_size=4)
        g = make_mobius_game(n, terms)
        exact = stv_exact(g, 2)
        targets = tuple(sorted({PlayerSet(m, n) for t in terms
                                for m in all_masks_of_size(n, 2) if m & t == m},
                               key=lambda s: s.bits))
        bound = max(fsum(abs(c) for t, c in terms.items() if s.bits & t == s.bits)
                    for s in targets)
        epsilon, delta = 0.25, 1e-3 / len(targets)
        plan = SamplingPlan.from_error_budget(epsilon, delta, seed=64, range_bound=bound,
                                              targets=targets)
        result = stv_sampled(g, 2, plan)
        assert result.meta["samples"] == required_samples(epsilon, delta, bound)
        for s in targets:
            assert abs(result.values[s] - exact.values[s]) <= epsilon

    def test_unbiased_across_seeds(self):
        # grand mean of 1000 single-draw estimates vs the exact value
        rng = np.random.default_rng(99)
        g = random_tabular(rng, 6)
        target = PlayerSet.from_ids([0, 1], 6)
        exact = stv_exact(g, 2).values[target]
        draws = []
        for seed in range(1000):
            plan = SamplingPlan.from_samples(1, seed=seed, targets=(target,))
            draws.append(stv_sampled(g, 2, plan).values[target])
        grand = fsum(draws) / len(draws)
        spread = np.std(draws, ddof=1) / math.sqrt(len(draws))
        assert abs(grand - exact) <= 3.0 * spread

    def test_coverage_matches_the_bound(self):
        # with r set to the true derivative range, the bound's failure rate
        # must hold empirically
        rng = np.random.default_rng(123)
        g = random_tabular(rng, 6)
        target = PlayerSet.from_ids([0, 1], 6)
        exact = stv_exact(g, 2).values[target]
        rest = [m for m in range(64) if m & 0b11 == 0]
        truth_range = max(abs(discrete_derivative(g, 0b11, t)) for t in rest)
        epsilon, delta = 0.3, 0.1
        m = required_samples(epsilon, delta, truth_range)
        failures = 0
        runs = 200
        for seed in range(runs):
            plan = SamplingPlan.from_samples(m, seed=seed, targets=(target,))
            est = stv_sampled(g, 2, plan).values[target]
            if abs(est - exact) > epsilon:
                failures += 1
        assert failures / runs <= delta + 0.02


class TestSizeGuard:
    def test_order_past_the_derivative_guard(self):
        g = make_majority(64)
        with pytest.raises(ValueError, match="derivative order 40 exceeds"):
            stv_sampled(g, 40, SamplingPlan.from_samples(1, 1))
        with pytest.raises(ValueError, match="derivative order 40 exceeds"):
            stv_sampled_mom(g, 40, 1, 1, seed=1)

    def test_result_past_two_to_the_twenty_four_sets(self):
        g = make_majority(64)
        with pytest.raises(ValueError, match=r"more than 2\^24 sets at n=64, k=6"):
            stv_sampled(g, 6, SamplingPlan.from_samples(1, 1))
        # two size-24 targets over 25 players: every smaller set over the 25
        targets = (PlayerSet((1 << 24) - 1, 64), PlayerSet((1 << 25) - 2, 64))
        with pytest.raises(ValueError, match=r"more than 2\^24 sets at n=64, k=24"):
            stv_sampled_mom(g, 24, 1, 1, seed=1, targets=targets)

    def test_lower_orders_past_two_to_the_twenty_four_evaluations(self):
        # one size-24 target: 2^24 - 1 sets pass the result guard, but their
        # derivatives at the empty set take 3^24 - 2^24 evaluations
        plan = SamplingPlan.from_samples(1, 1, targets=(PlayerSet((1 << 24) - 1, 64),))
        count = 3 ** 24 - 2 ** 24 - 1
        with pytest.raises(ValueError, match=rf"need {count} evaluations, more than 2\^24"):
            stv_sampled(make_majority(64), 24, plan)

    def test_size_fourteen_target_still_runs(self):
        g = make_majority(64)
        target = PlayerSet((1 << 14) - 1, 64)
        result = stv_sampled(g, 14, SamplingPlan.from_samples(1, 1, targets=(target,)))
        assert len(result.values) == (1 << 14) - 1
        some = PlayerSet(0b1011, 64)
        assert result.values[some] == discrete_derivative(g, some, [])


class TestDrawBlocks:
    @pytest.mark.parametrize("make_game,k,m", [
        (lambda: make_majority(64), 2, 5),
        (lambda: random_tabular(np.random.default_rng(9), 9), 3, 40)])
    def test_values_do_not_depend_on_the_block_size(self, monkeypatch, make_game, k, m):
        plan = SamplingPlan.from_samples(m, seed=2718)
        results = []
        for evaluations in (1, 1 << 40):  # one draw per block, all draws in one
            monkeypatch.setattr(sampling, "_DRAW_BLOCK", evaluations)
            results.append(stv_sampled(make_game(), k, plan).values)
        assert results[0] == results[1]


class TestMedianOfMeans:
    def test_single_group_reduces_to_plain_mean(self):
        g = make_linear_crosses(2.0)
        mom = stv_sampled_mom(g, 2, 1, 250, seed=3)
        plain = stv_sampled(g, 2, SamplingPlan.from_samples(250, seed=3))
        assert mom.values == plain.values

    def test_constant_game_estimates_zero(self):
        g = make_tabular(5, np.full(32, 4.2))
        mom = stv_sampled_mom(g, 2, 5, 10, seed=4)
        for pset, val in mom.values.items():
            assert val == 0.0

    def test_even_group_count_rejected(self):
        with pytest.raises(ValueError):
            stv_sampled_mom(make_majority(4), 2, 4, 10, seed=1)

    def test_median_beats_mean_on_heavy_tails(self):
        # symmetric rare outliers: a pair of huge opposite-sign coefficients
        # on large crosses; the median shrugs off outlier groups the mean
        # must absorb
        big = 100.0
        terms = {sum(1 << i for i in [0, 1, 2, 3, 4, 5, 6]): big,
                 sum(1 << i for i in [0, 1, 2, 3, 4, 5, 7]): -big,
                 1 << 0: 1.0, 1 << 1: 1.0, 0b11: 1.5}
        g = make_mobius_game(8, terms)
        target = PlayerSet.from_ids([0, 1], 8)
        exact = stv_exact(g, 2).values[target]
        groups, per = 9, 10
        wins = 0
        trials = 200
        for seed in range(trials):
            mom = stv_sampled_mom(g, 2, groups, per, seed,
                                  targets=(target,)).values[target]
            plan = SamplingPlan.from_samples(groups * per, seed=seed,
                                             targets=(target,))
            plain = stv_sampled(g, 2, plan).values[target]
            if abs(mom - exact) <= abs(plain - exact):
                wins += 1
        assert wins / trials >= 0.6


class TestPermutationStream:
    def test_counter_separation(self):
        a = sample_permutation(5, 0, 8)
        b = sample_permutation(5, 1, 8)
        assert not np.array_equal(a, b)
        assert np.array_equal(a, sample_permutation(5, 0, 8))

    def test_uniformity_smoke(self):
        # every player should land first roughly equally often
        n, draws = 5, 2000
        firsts = np.zeros(n)
        for i in range(draws):
            firsts[sample_permutation(1234, i, n)[0]] += 1
        assert np.all(firsts > draws / n * 0.7)

    @pytest.mark.parametrize("n", [1, 2, 3, 17, 64])
    def test_block_rows_match_fresh_generators(self, n):
        # index 2^64 wraps to counter 0; neighbouring rows share a generator
        indices = [0, 1, 2 ** 64 - 1, 2 ** 64]
        for seed in (0, 1, 2 ** 63, 2 ** 64 - 1, -1):
            for stream in (0, 1):
                rows = np.concatenate([sampling._orderings(seed, 0, 2, n, stream),
                                       sampling._orderings(seed, 2 ** 64 - 1, 2 ** 64 + 1,
                                                           n, stream)])
                for i, row in zip(indices, rows):
                    want = fresh_permutation(seed, i, n, stream)
                    assert np.array_equal(row, want)
                    assert np.array_equal(sample_permutation(seed, i, n, stream), want)

    def test_published_stream_is_pinned(self):
        # published values of the (seed, stream, i) stream; a change to the
        # generator must not move them
        assert sample_permutation(7, 3, 10).tolist() == [4, 6, 1, 5, 7, 2, 8, 3, 0, 9]
        result = stv_sampled(make_majority(6), 2, SamplingPlan.from_samples(5, seed=7))
        assert [(s.bits, v) for s, v in result.values.items()] == [
            (1, 0.0), (2, 0.0), (4, 0.0), (8, 0.0), (16, 0.0), (32, 0.0),
            (3, -0.4), (5, 0.2), (6, -0.2), (9, 0.0), (10, -0.2), (12, -0.4),
            (17, -0.2), (18, -0.4), (20, 0.2), (24, 0.0), (33, 0.4), (34, 0.4),
            (36, 0.2), (40, 0.6), (48, 0.8)]

    def test_all_sizes_present_in_default_targets(self):
        g = make_majority(5)
        plan = SamplingPlan.from_samples(4, seed=2)
        result = stv_sampled(g, 2, plan)
        assert len([s for s in result.values if s.size == 2]) == 10
        assert len([s for s in result.values if s.size == 1]) == 5


class TestDrawProperties:
    @PROPERTY
    @given(DRAW_CASES)
    def test_values_are_mean_ordering_derivatives(self, case):
        n, k, seed, m = case
        g = random_tabular(np.random.default_rng(seed), n)
        result = stv_sampled(g, k, SamplingPlan.from_samples(m, seed=seed))
        perms = [fresh_permutation(seed, i, n) for i in range(m)]
        for s_mask in all_masks_of_size(n, k):
            want = fsum(discrete_derivative(g, s_mask, prefix_before(perm, s_mask))
                        for perm in perms) / m
            assert result.values[PlayerSet(s_mask, n)] == pytest.approx(want, abs=1e-12)

    @PROPERTY
    @given(DRAW_CASES)
    def test_warmup_range_is_twice_the_spread(self, case):
        n, k, seed, _ = case
        g = random_tabular(np.random.default_rng(seed), n)
        draws = [discrete_derivative(g, s_mask, prefix_before(perm, s_mask))
                 for perm in (fresh_permutation(seed, i, n, stream=1) for i in range(64))
                 for s_mask in all_masks_of_size(n, k)]
        spread = max(draws) - min(draws)
        plan = SamplingPlan.from_error_budget(1e3, 0.5, seed=seed)
        if spread == 0.0:  # k = n: every ordering gives the derivative at empty
            result = stv_sampled(g, k, plan)
            assert (result.meta["samples"], result.meta["range_source"]) == (1, "exact")
            assert result.values[PlayerSet.full(n)] == discrete_derivative(g, (1 << n) - 1, 0)
        else:
            assert stv_sampled(g, k, plan).meta["range"] == 2.0 * spread
