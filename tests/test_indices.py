from fractions import Fraction
from math import comb, fsum

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_masks_of_size, interaction_weight, mobius_sums_fractions,
                     random_mobius_terms, random_tabular, shapley_by_orderings,
                     sii_by_sweep, sii_exact_fractions, sii_main_effects_by_sweeps,
                     stv_by_sweeps, taylor_weight)
from interax import (IndexResult, PlayerSet, combine, efficiency_residual,
                     lagrange_remainder_term, make_interaction, make_linear_crosses,
                     make_majority, make_mobius_game, make_product, make_tabular,
                     make_unanimity, restrict_players, shapley, sii_exact, sii_index,
                     sii_main_effects, stv_exact, stv_permutation_oracle)
from interax import axioms
from interax.analysis import majority_sii_by_size
from interax.axioms import EFFICIENCY_TOL, SYMMETRY_TOL, run_axiom_checks
from interax.calculus import superset_sum, superset_sums
from interax.games import DENSE_LIMIT, from_function, relabel

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# (n, k, seed, sparse): a random game on n players, tabular or with up to
# 12 recorded Mobius terms, and an order k
INDEX_CASES = st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, min(n, 3)), st.integers(0, 2 ** 32 - 1), st.booleans()))


def random_game(n, seed, sparse):
    rng = np.random.default_rng(seed)
    if not sparse:
        return random_tabular(rng, n)
    return make_mobius_game(n, random_mobius_terms(rng, n, min(12, (1 << n) - 1),
                                                   min(n, 4)))


class TestShapley:
    def test_unanimity_splits_evenly(self):
        for t in (1, 2, 4):
            g = make_unanimity(5, range(t))
            result = shapley(g)
            for i in range(5):
                expect = 1.0 / t if i < t else 0.0
                assert result.get([i], 5) == pytest.approx(expect, abs=1e-12)

    def test_additive_game_returns_weights(self):
        weights = [0.5, -2.0, 3.25, 0.0]
        table = [fsum(w for i, w in enumerate(weights) if m >> i & 1)
                 for m in range(16)]
        result = shapley(make_tabular(4, table))
        for i, w in enumerate(weights):
            assert result.get([i], 4) == pytest.approx(w, abs=1e-12)

    def test_majority_three_players(self):
        result = shapley(make_majority(3))
        for i in range(3):
            assert result.get([i], 3) == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_ordering_average(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            g = random_tabular(rng, n)
            result = shapley(g)
            oracle = shapley_by_orderings(g)
            for i in range(n):
                assert result.get([i], n) == pytest.approx(oracle[i], abs=1e-10)

    def test_is_order_one_taylor_bit_for_bit(self):
        rng = np.random.default_rng(8)
        g = random_tabular(rng, 6)
        assert shapley(g).values == stv_exact(g, 1).values


class TestStvExact:
    @pytest.mark.parametrize("c", [-3.0, 0.0, 1.0, 3.0, 10.0])
    def test_linear_crosses(self, c):
        result = stv_exact(make_linear_crosses(c), 2)
        for i in range(3):
            assert result.get([i], 3) == pytest.approx(1.0, abs=1e-12)
        for pair in ([0, 1], [0, 2], [1, 2]):
            assert result.get(pair, 3) == pytest.approx(c / 3, abs=1e-12)

    def test_unanimity_closed_form(self):
        for t in range(1, 9):
            n = min(t + 2, 10)
            winners = list(range(t))
            g = make_unanimity(n, winners)
            for k in range(1, min(t, 4) + 1):
                result = stv_exact(g, k)
                for pset, val in result.values.items():
                    inside = pset.bits & ~sum(1 << i for i in winners) == 0
                    if pset.size == k and inside and k <= t:
                        assert val == pytest.approx(1.0 / comb(t, k), abs=1e-12)
                    else:
                        assert val == pytest.approx(0.0, abs=1e-12)

    def test_majority_three_players_order_two(self):
        result = stv_exact(make_majority(3), 2)
        for i in range(3):
            assert result.get([i], 3) == 0.0
        for pair in ([0, 1], [0, 2], [1, 2]):
            assert result.get(pair, 3) == pytest.approx(1 / 3, abs=1e-12)

    def test_product_pairs(self):
        for n in (3, 5, 8):
            result = stv_exact(make_product(n), 2)
            pair_vals = [v for s, v in result.values.items() if s.size == 2]
            assert all(v == pytest.approx(1.0 / comb(n, 2), abs=1e-12)
                       for v in pair_vals)
            assert fsum(pair_vals) == pytest.approx(1.0, abs=1e-10)

    def test_order_bounds_rejected(self):
        g = make_product(3)
        with pytest.raises(ValueError):
            stv_exact(g, 0)
        with pytest.raises(ValueError):
            stv_exact(g, 4)

    def test_result_keys_cover_all_small_subsets(self):
        result = stv_exact(make_product(5), 3)
        assert len(result.values) == 5 + 10 + 10
        assert all(1 <= s.size <= 3 for s in result.values)

    def test_efficiency_on_random_games(self):
        rng = np.random.default_rng(17)
        for _ in range(40):
            n = int(rng.integers(2, 11))
            g = random_tabular(rng, n)
            for k in (1, 2, 3):
                if k > n:
                    continue
                res = efficiency_residual(stv_exact(g, k), g)
                assert abs(res) <= 1e-9 * max(1.0, abs(g.span()))


class TestPermutationOracle:
    def test_matches_exact_on_random_games(self):
        rng = np.random.default_rng(4)
        for _ in range(25):
            n = int(rng.integers(2, 7))
            g = random_tabular(rng, n)
            for k in (1, 2, 3):
                if k > n:
                    continue
                exact = stv_exact(g, k)
                oracle = stv_permutation_oracle(g, k)
                worst = max(abs(exact.values[s] - oracle.values[s])
                            for s in exact.values)
                assert worst <= 1e-10

    def test_order_one_equals_shapley(self):
        rng = np.random.default_rng(6)
        g = random_tabular(rng, 5)
        oracle = stv_permutation_oracle(g, 1)
        phi = shapley(g)
        for key in phi.values:
            assert oracle.values[key] == pytest.approx(phi.values[key], abs=1e-12)

    def test_unanimity_pair(self):
        result = stv_permutation_oracle(make_unanimity(2, [0, 1]), 2)
        assert result.get([0, 1], 2) == pytest.approx(1.0, abs=1e-12)
        assert result.get([0], 2) == 0.0

    def test_factorial_guard(self):
        with pytest.raises(ValueError):
            stv_permutation_oracle(make_product(9), 2)

    def test_each_subset_is_evaluated_once(self):
        table = np.random.default_rng(8).normal(size=256)
        for index in (stv_exact, stv_permutation_oracle):
            for k in (1, 2, 3):
                seen = []
                g = from_function(8, lambda m: seen.append(m) or float(table[m]))
                index(g, k)
                assert sorted(seen) == list(range(256))


class TestSii:
    @pytest.mark.parametrize("c", [-3.0, 1.0, 3.0, 10.0])
    def test_linear_crosses_pairs(self, c):
        g = make_linear_crosses(c)
        for pair in ([0, 1], [0, 2], [1, 2]):
            assert sii_exact(g, pair) == pytest.approx(c / 2, abs=1e-12)

    def test_majority_three_players(self):
        g = make_majority(3)
        for pair in ([0, 1], [0, 2], [1, 2]):
            assert sii_exact(g, pair) == pytest.approx(0.0, abs=1e-12)
        assert sii_exact(g, [0, 1, 2]) == pytest.approx(-2.0, abs=1e-12)

    def test_product_pairs(self):
        for n in (3, 6, 9):
            assert sii_exact(make_product(n), [0, 1]) == pytest.approx(
                1.0 / (n - 1), abs=1e-12)

    def test_empty_subset_rejected(self):
        with pytest.raises(ValueError):
            sii_exact(make_product(3), [])

    def test_matches_exact_rational_oracle(self):
        rng = np.random.default_rng(14)
        for _ in range(8):
            n = int(rng.integers(2, 7))
            g = random_tabular(rng, n)
            s_mask = int(rng.integers(1, 1 << n))
            assert sii_exact(g, s_mask) == pytest.approx(
                sii_exact_fractions(g, s_mask), abs=1e-12)

    def test_sii_index_keys(self):
        result = sii_index(make_product(4), 2)
        assert len(result.values) == 4 + 6
        assert result.method == "sii"

    def test_agrees_with_taylor_on_pairwise_games(self):
        # when no coefficient lives above size 2, the two indices coincide
        # on pairs
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            terms = {1 << i: float(rng.normal()) for i in range(n)}
            for m in all_masks_of_size(n, 2):
                terms[m] = float(rng.normal())
            g = make_mobius_game(n, terms)
            taylor = stv_exact(g, 2)
            for m in all_masks_of_size(n, 2):
                assert taylor.values[PlayerSet(m, n)] == pytest.approx(
                    sii_exact(g, m), abs=1e-10)


class TestSiiMainEffects:
    def test_additive_game(self):
        weights = [1.5, -0.5, 2.0]
        table = [fsum(w for i, w in enumerate(weights) if m >> i & 1)
                 for m in range(8)]
        result = sii_main_effects(make_tabular(3, table))
        for i, w in enumerate(weights):
            assert result.get([i], 3) == pytest.approx(w, abs=1e-12)
        for pair in ([0, 1], [0, 2], [1, 2]):
            assert result.get(pair, 3) == pytest.approx(0.0, abs=1e-12)

    def test_convention_formula(self):
        rng = np.random.default_rng(25)
        g = random_tabular(rng, 5)
        result = sii_main_effects(g)
        phi = shapley(g)
        for i in range(5):
            cross = fsum(v for s, v in result.values.items()
                         if s.size == 2 and s.contains(i))
            expect = phi.get([i], 5) - 0.5 * cross
            assert result.get([i], 5) == pytest.approx(expect, abs=1e-12)

    def test_efficient_by_construction(self):
        rng = np.random.default_rng(26)
        for _ in range(10):
            g = random_tabular(rng, int(rng.integers(2, 8)))
            res = efficiency_residual(sii_main_effects(g), g)
            assert abs(res) <= 1e-9 * max(1.0, abs(g.span()))

    def test_linear_crosses_values(self):
        # the subtract-half-the-pairs convention yields 1 - c/6 here; the
        # efficiency check above pins that this is the efficient assignment
        for c in (-3.0, 0.0, 3.0, 10.0):
            result = sii_main_effects(make_linear_crosses(c))
            for i in range(3):
                assert result.get([i], 3) == pytest.approx(1 - c / 6, abs=1e-12)
            for pair in ([0, 1], [0, 2], [1, 2]):
                assert result.get(pair, 3) == pytest.approx(c / 2, abs=1e-12)


class TestKernelAgainstOracles:
    """The Mobius superset-sum kernel against per-subset fsum derivative
    sweeps on dense games, and against exact rational Mobius sums."""

    SIZES = (2, 5, 9, 12, 14)

    @staticmethod
    def assert_matches(got: IndexResult, want: dict, n: int, tol: float):
        assert set(got.values) == {PlayerSet(m, n) for m in want}
        for m, v in want.items():
            assert got.values[PlayerSet(m, n)] == pytest.approx(v, abs=tol)

    def test_taylor_values_and_efficiency(self):
        rng = np.random.default_rng(31)
        for n in self.SIZES:
            g = random_tabular(rng, n)
            for k in range(1, min(n, 3) + 1):
                result = stv_exact(g, k)
                want = stv_by_sweeps(g, k)
                self.assert_matches(result, want, n, 1e-11)
                assert abs(efficiency_residual(result, g)) <= 1e-9 * max(1.0, abs(g.span()))
                for m in all_masks_of_size(n, k):
                    assert lagrange_remainder_term(g, m, k, "analytic") == \
                        pytest.approx(want[m], abs=5e-13)

    def test_interaction_values(self):
        rng = np.random.default_rng(32)
        for n in self.SIZES:
            g = random_tabular(rng, n)
            want = {m: sii_by_sweep(g, m) for s in (1, 2) for m in all_masks_of_size(n, s)}
            self.assert_matches(sii_index(g, 2), want, n, 1e-11)
            for m, v in want.items():
                assert sii_exact(g, m) == pytest.approx(v, abs=1e-11)

    def test_main_effects_and_efficiency(self):
        rng = np.random.default_rng(33)
        for n in self.SIZES:
            g = random_tabular(rng, n)
            result = sii_main_effects(g)
            self.assert_matches(result, sii_main_effects_by_sweeps(g), n, 1e-11)
            assert abs(efficiency_residual(result, g)) <= 1e-9 * max(1.0, abs(g.span()))

    def test_sparse_game_at_twenty_players(self):
        terms = random_mobius_terms(np.random.default_rng(34), 20)
        self.check_against_fraction_sums(make_mobius_game(20, terms), terms)

    def test_dense_copy_of_the_sparse_game_at_twenty_players(self):
        # the same game without its recorded terms takes the dense kernel
        terms = random_mobius_terms(np.random.default_rng(34), 20)
        g = make_tabular(20, make_mobius_game(20, terms).dense_table())
        self.check_against_fraction_sums(g, terms)

    @staticmethod
    def check_against_fraction_sums(g, terms):
        n = g.n
        stv = stv_exact(g, 2)
        sii = sii_index(g, 2)
        assert set(stv.values) == set(sii.values)
        for pset in stv.values:
            s = pset.size
            want_stv = (terms.get(pset.bits, 0.0) if s == 1 else
                        mobius_sums_fractions(terms, pset.bits, lambda t: Fraction(1, comb(t, 2))))
            want_sii = mobius_sums_fractions(terms, pset.bits,
                                             lambda t, s=s: Fraction(1, t - s + 1))
            assert abs(stv.values[pset] - want_stv) <= 1e-12
            assert abs(sii.values[pset] - want_sii) <= 1e-12
        # the single-set gathers against the same references
        for m in all_masks_of_size(n, 2)[:10]:
            want_sii = mobius_sums_fractions(terms, m, lambda t: Fraction(1, t - 1))
            want_stv = mobius_sums_fractions(terms, m, lambda t: Fraction(1, comb(t, 2)))
            assert abs(sii_exact(g, m) - want_sii) <= 1e-12
            assert abs(lagrange_remainder_term(g, m, 2, "analytic") - want_stv) <= 1e-12

    def test_majority_axioms_at_twenty_players(self):
        # majority's Mobius coefficients reach 9e4 in magnitude at n = 20 and
        # cancel down to pair values of 1/190; every axiom check must still
        # hold at its shipped tolerance
        for check in run_axiom_checks(make_majority(20), 2, 11):
            assert check.passed, check.detail

    def test_majority_closed_forms_at_twenty_two_players(self):
        n = 22
        g = make_majority(n)
        stv = stv_exact(g, 2)
        assert abs(efficiency_residual(stv, g)) <= EFFICIENCY_TOL * max(1.0, abs(g.span()))
        # singletons carry a({i}) = 0; the pairs split v(N) = 1 evenly
        pair = 2.0 / (n * (n - 1))
        for pset, v in stv.values.items():
            assert v == pytest.approx(0.0 if pset.size == 1 else pair, abs=1e-12)
        by_size = majority_sii_by_size(n)
        for pset, v in sii_index(g, 2).values.items():
            assert abs(v - float(by_size[pset.size])) <= 1e-12
        assert abs(sii_exact(g, 0b11) - float(by_size[2])) <= 1e-12


class TestSparseRoute:
    """Games that record their Mobius terms are summed from the terms alone,
    exactly and rounded once, past the dense route's n <= 24 gate."""

    @pytest.mark.parametrize("n", [48, 64])
    def test_indices_match_fraction_sums(self, n):
        terms = random_mobius_terms(np.random.default_rng(n), n)
        g = make_mobius_game(n, terms)
        stv, sii = stv_exact(g, 2), sii_index(g, 2)
        sets = {PlayerSet(m, n) for s in (1, 2) for m in all_masks_of_size(n, s)}
        assert set(stv.values) == sets and set(sii.values) == sets
        for pset in sets:
            s = pset.size
            want_stv = (terms.get(pset.bits, 0.0) if s == 1 else
                        mobius_sums_fractions(terms, pset.bits, taylor_weight(2)))
            want_sii = mobius_sums_fractions(terms, pset.bits,
                                             lambda t, s=s: Fraction(1, t - s + 1))
            assert stv.values[pset] == want_stv
            assert sii.values[pset] == want_sii
            assert sii_exact(g, pset) == want_sii
        assert abs(efficiency_residual(stv, g)) <= EFFICIENCY_TOL * max(1.0, abs(g.span()))

    # n = 9 and 12 are a tabular and a majority game: the dense route runs
    # one pass for the whole size and for one set's gathered supersets
    @pytest.mark.parametrize("n", [48, 64, 9, 12])
    def test_single_set_sum_equals_the_whole_size_pass(self, n):
        rng = np.random.default_rng(n + 1)
        g = (make_mobius_game(n, random_mobius_terms(rng, n)) if n > DENSE_LIMIT
             else random_tabular(rng, n, scale=100.0) if n == 9 else make_majority(n))
        for size in (1, 2, 3):
            for weight in (taylor_weight(size), interaction_weight(size)):
                for pset, v in superset_sums(g, size, weight).items():
                    assert superset_sum(g, pset, weight).hex() == v.hex()
            if n <= DENSE_LIMIT:  # test_indices_match_fraction_sums pins the term route
                self.assert_single_sets_match(g, size)

    def test_single_set_indices_on_criterion_six_tables(self):
        rng = np.random.default_rng(60600)
        for _ in range(40):
            n = int(rng.integers(2, 9))
            g = random_tabular(rng, n)
            for size in range(1, min(n, 3) + 1):
                self.assert_single_sets_match(g, size)

    @staticmethod
    def assert_single_sets_match(g, size):
        """sii_exact is sii_index's float, the analytic remainder stv_exact's."""
        sii, stv = sii_index(g, size).values, stv_exact(g, size).values
        for pset in (p for p in stv if p.size == size):
            assert sii_exact(g, pset).hex() == sii[pset].hex()
            assert lagrange_remainder_term(g, pset, size).hex() == stv[pset].hex()

    def test_games_with_terms_skip_the_dense_table(self):
        for g in (make_unanimity(40, [0, 5, 39]), make_interaction(64, [1, 2], 2.5),
                  make_product(12), make_linear_crosses(2.0)):
            stv_exact(g, 2)
            sii_main_effects(g)
            assert "dense_table" not in g.derived and "mobius_dense" not in g.derived
        with pytest.raises(ValueError, match="n <= 24"):
            stv_exact(make_majority(30), 1)
        with pytest.raises(ValueError, match="2\\^24 sets"):
            stv_exact(make_unanimity(64, [0, 1]), 9)


class TestEfficiencyResidual:
    def test_zero_game_empty_result(self):
        g = make_tabular(2, [0.0, 0.0, 0.0, 0.0])
        empty = IndexResult("stv", 1, {})
        assert efficiency_residual(empty, g) == 0.0

    @pytest.mark.parametrize("c", [1.0, 3.0, -6.0])
    def test_raw_sii_with_marginals_misses_by_half_c(self, c):
        # marginals-from-empty for singletons plus raw pairwise interaction
        # values: the shortfall against the grand span is exactly c/2
        g = make_linear_crosses(c)
        values = {}
        for i in range(3):
            values[PlayerSet(1 << i, 3)] = g.value([i]) - g.value([])
        for pair in ([0, 1], [0, 2], [1, 2]):
            values[PlayerSet.from_ids(pair, 3)] = sii_exact(g, pair)
        result = IndexResult("sii", 2, values)
        assert efficiency_residual(result, g) == pytest.approx(c / 2, abs=1e-10)


    def test_recorded_terms_are_summed_exactly(self):
        # the span adds the terms in float, 1.0 + 1e-16 + 1e-16 = 1.0; the
        # exact sum and the index total round to 1.0000000000000002
        g = make_mobius_game(3, {1: 1.0, 2: 1e-16, 4: 1e-16})
        for k in (1, 2, 3):
            result = stv_exact(g, k)
            assert efficiency_residual(result, g) == 0.0
            assert axioms.check_efficiency(g, result).worst_error == 0.0


class TestIndexProperties:
    @PROPERTY
    @given(INDEX_CASES)
    def test_efficiency(self, case):
        n, k, seed, sparse = case
        g = random_game(n, seed, sparse)
        residual = efficiency_residual(stv_exact(g, k), g)
        assert abs(residual) <= EFFICIENCY_TOL * max(1.0, abs(g.span()))

    @PROPERTY
    @given(INDEX_CASES)
    def test_symmetry_under_relabel(self, case):
        n, k, seed, sparse = case
        g = random_game(n, seed, sparse)
        perm = [int(p) for p in np.random.default_rng(seed).permutation(n)]
        imaged = stv_exact(relabel(g, perm), k).values
        for pset, val in stv_exact(g, k).values.items():
            image = sum(1 << perm[i] for i in pset.members())
            assert abs(imaged[PlayerSet(image, n)] - val) <= SYMMETRY_TOL


class TestRestrictPlayers:
    def test_keep_all_is_identity(self):
        rng = np.random.default_rng(31)
        g = random_tabular(rng, 5)
        same = restrict_players(g, range(5), "baseline")
        for mask in range(32):
            assert same.value(mask) == g.value(mask)

    def test_majority_baseline(self):
        g = restrict_players(make_majority(5), [0, 2, 4], "baseline")
        assert g.n == 3
        for mask in range(8):
            members = bin(mask).count("1")
            assert g.value(mask) == (1.0 if members >= 2.5 else 0.0)

    def test_product_grand_fill(self):
        g = restrict_players(make_product(3), [0], "grand")
        assert g.value([0]) == 1.0
        assert g.value([]) == 0.0

    def test_empty_keep_rejected(self):
        with pytest.raises(ValueError):
            restrict_players(make_product(3), [], "baseline")

    def test_bad_fill_rejected(self):
        with pytest.raises(ValueError):
            restrict_players(make_product(3), [0], "sideways")


class TestAxiomProperties:
    def test_linearity_componentwise(self):
        rng = np.random.default_rng(41)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            a, b = random_tabular(rng, n), random_tabular(rng, n)
            alpha, beta = 2.25, -0.75
            k = int(rng.integers(1, min(3, n) + 1))
            mixed = stv_exact(combine(alpha, a, beta, b), k)
            left, right = stv_exact(a, k), stv_exact(b, k)
            for key, val in mixed.values.items():
                expect = alpha * left.values[key] + beta * right.values[key]
                assert val == pytest.approx(expect, abs=1e-9)

    def test_dummy_player(self):
        rng = np.random.default_rng(43)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            base = random_tabular(rng, n)
            shift = base.value(0)
            c = float(rng.normal()) or 1.0
            bit = 1 << n

            def fn(mask, base=base, shift=shift, c=c, bit=bit):
                inner = base.value(mask & (bit - 1)) - shift
                return inner + (c if mask & bit else 0.0)

            g = from_function(n + 1, fn, "dummy")
            for k in (1, 2, 3):
                if k > n + 1:
                    continue
                result = stv_exact(g, k)
                assert result.get([n], n + 1) == pytest.approx(c, abs=1e-9)
                for pset, val in result.values.items():
                    if pset.size >= 2 and pset.contains(n):
                        assert val == pytest.approx(0.0, abs=1e-9)

    def test_symmetry_under_relabeling(self):
        rng = np.random.default_rng(47)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            g = random_tabular(rng, n)
            perm = [int(p) for p in rng.permutation(n)]
            k = int(rng.integers(1, min(3, n) + 1))
            original = stv_exact(g, k)
            imaged = stv_exact(relabel(g, perm), k)
            for pset, val in original.values.items():
                image = sum(1 << perm[i] for i in pset.members())
                assert abs(imaged.values[PlayerSet(image, n)] - val) <= 1e-10

    def test_axiom_checks_compute_the_index_once(self, monkeypatch):
        g = make_majority(12)
        calls = []

        def counting(game, k):
            calls.append(game)
            return stv_exact(game, k)

        monkeypatch.setattr(axioms, "stv_exact", counting)
        checks = run_axiom_checks(g, 2, 11)
        assert all(check.passed for check in checks)
        assert sum(game is g for game in calls) == 1
        # the combined, extended, relabeled and crossed companions get their own
        assert len(calls) > 1

    def test_axiom_checks_leave_room_for_the_dummy_player(self):
        g = from_function(DENSE_LIMIT, lambda mask: float(mask.bit_count()))
        limit = f"need n <= {DENSE_LIMIT - 1}, got n={DENSE_LIMIT}"
        with pytest.raises(ValueError, match=limit):
            run_axiom_checks(g, 1, 0)

    def test_interaction_distribution_past_the_dense_gate(self):
        # interaction games carry their one Mobius term, so the check makes
        # no dense sweep and runs where the dense route is gated
        check = axioms.check_interaction_distribution(40, 2)
        assert check.passed, check.detail

    def test_interaction_distribution_exact_zero(self):
        for n, order, k in [(5, 3, 2), (6, 4, 3), (4, 4, 2)]:
            g = make_interaction(n, range(order), -2.5)
            result = stv_exact(g, k)
            winners = (1 << order) - 1
            for pset, val in result.values.items():
                if pset.bits & ~winners == 0 and pset.size < min(k, order):
                    assert val == 0.0


class TestSerialization:
    def test_csv_shape(self):
        result = stv_exact(make_linear_crosses(3.0), 2)
        lines = result.to_csv().strip().split("\n")
        assert lines[0] == "set,size,method,k,value"
        assert lines[1].startswith("0,1,stv,2,")
        assert len(lines) == 7

    def test_csv_round_trips_floats(self):
        rng = np.random.default_rng(51)
        result = stv_exact(random_tabular(rng, 4), 2)
        lines = result.to_csv().strip().split("\n")[1:]
        parsed = [float(line.rsplit(",", 1)[1]) for line in lines]
        assert parsed == [v for _, v in result.sorted_items()]

    def test_json_document(self):
        result = stv_exact(make_product(3), 2)
        doc = result.to_json_document()
        assert doc["method"] == "stv" and doc["k"] == 2
        assert {"set": [0, 1, 2][:1], "size": 1, "method": "stv", "k": 2,
                "value": 0.0}.items() <= doc["values"][0].items()
