import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (all_masks_of_size, derivative_recursive, interaction_weight,
                     mobius_sums_fractions, prefix_before, random_mobius_terms,
                     random_tabular, superset_sums_full_butterfly, taylor_weight)
from interax import (calculus, combine, discrete_derivative, make_interaction,
                     make_linear_crosses, make_majority, make_mobius_game, make_tabular,
                     make_unanimity, mobius_derivative_relation, mobius_transform)
from interax.calculus import (derivative, iter_submasks, masks_of_size, mobius_below,
                              mobius_dense, ordering_prefixes, superset_sum,
                              superset_sums)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=100)

# (n, size, rule, terms): Mobius terms {mask: coefficient} on n players, a
# set size and the weight rule of the superset sums
SUM_CASES = st.integers(1, 10).flatmap(lambda n: st.tuples(
    st.just(n), st.integers(1, min(n, 3)),
    st.sampled_from([taylor_weight, interaction_weight]),
    st.dictionaries(st.integers(0, (1 << n) - 1), st.floats(-1.0, 1.0), max_size=40)))


class TestDiscreteDerivative:
    def test_unanimity_pair_at_empty(self):
        g = make_unanimity(2, [0, 1])
        assert discrete_derivative(g, [0, 1], []) == 1.0

    def test_empty_diff_set_returns_value(self):
        rng = np.random.default_rng(3)
        g = random_tabular(rng, 4)
        for t_mask in range(1 << 4):
            assert discrete_derivative(g, 0, t_mask) == g.value(t_mask)

    def test_additive_game_has_no_interaction(self):
        g = make_tabular(3, [bin(m).count("1") for m in range(8)])
        assert discrete_derivative(g, [0, 1], []) == 0.0

    def test_overlap_rejected(self):
        g = make_unanimity(3, [0])
        with pytest.raises(ValueError, match="overlaps"):
            discrete_derivative(g, [0, 1], [1])

    def test_matches_recursive_definition(self):
        rng = np.random.default_rng(11)
        for _ in range(30):
            n = int(rng.integers(2, 7))
            g = random_tabular(rng, n)
            s_mask = int(rng.integers(1, 1 << n))
            rest = ((1 << n) - 1) & ~s_mask
            t_mask = int(rng.integers(0, rest + 1)) & rest
            lhs = discrete_derivative(g, s_mask, t_mask)
            rhs = derivative_recursive(g, s_mask, t_mask)
            assert lhs == pytest.approx(rhs, abs=1e-10)

    def test_linearity(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 9))
            a, b = random_tabular(rng, n), random_tabular(rng, n)
            alpha, beta = 1.7, -0.4
            mix = combine(alpha, a, beta, b)
            s_mask = int(rng.integers(1, 1 << n))
            t_mask = int(rng.integers(0, 1 << n)) & ~s_mask
            got = discrete_derivative(mix, s_mask, t_mask)
            want = (alpha * discrete_derivative(a, s_mask, t_mask)
                    + beta * discrete_derivative(b, s_mask, t_mask))
            assert got == pytest.approx(want, abs=1e-10)

    def test_vanishes_below_interaction_order(self):
        g = make_interaction(5, [0, 1, 2, 3], 4.0)
        for s_mask in masks_of_size(5, 2):
            if s_mask & 0b1111 == s_mask:  # inside the cross
                assert discrete_derivative(g, s_mask, []) == 0.0


class TestMobiusTransform:
    def test_unanimity_is_basis_element(self):
        g = make_unanimity(4, [1, 3])
        expansion = mobius_transform(g)
        assert expansion.coefficients == {0b1010: 1.0}

    def test_additive_game(self):
        g = make_tabular(3, [bin(m).count("1") for m in range(8)])
        expansion = mobius_transform(g)
        assert expansion.coefficients == {0b001: 1.0, 0b010: 1.0, 0b100: 1.0}

    def test_linear_crosses(self):
        c = 6.5
        expansion = mobius_transform(make_linear_crosses(c))
        assert expansion.coefficients == {1: 1.0, 2: 1.0, 4: 1.0, 7: c}

    def test_round_trip_identity(self):
        rng = np.random.default_rng(9)
        for n in range(1, 11):
            g = random_tabular(rng, n)
            expansion = mobius_transform(g)
            rebuilt = make_mobius_game(n, expansion.coefficients)
            original = g.dense_table()
            again = rebuilt.dense_table()
            scale = np.maximum(np.abs(original), 1.0)
            assert np.max(np.abs(again - original) / scale) <= 1e-12

    def test_round_trip_identity_through_files(self, tmp_path):
        import json

        from interax import load_mobius
        from interax.games import mobius_document

        rng = np.random.default_rng(10)
        for n in (3, 6, 10):
            g = random_tabular(rng, n)
            doc = mobius_document(n, mobius_transform(g).coefficients)
            path = tmp_path / f"m{n}.json"
            path.write_text(json.dumps(doc))
            rebuilt = load_mobius(path)
            original = g.dense_table()
            again = rebuilt.dense_table()
            scale = np.maximum(np.abs(original), 1.0)
            assert np.max(np.abs(again - original) / scale) <= 1e-12

    def test_reconstruct_value_matches_game(self):
        rng = np.random.default_rng(13)
        g = random_tabular(rng, 5)
        expansion = mobius_transform(g)
        for mask in range(32):
            assert expansion.reconstruct_value(mask) == pytest.approx(
                g.value(mask), abs=1e-12)

    def test_dense_cache_reused(self):
        g = make_linear_crosses(1.0)
        assert mobius_dense(g) is mobius_dense(g)


class TestMobiusDerivativeRelation:
    def test_unanimity_example(self):
        g = make_unanimity(2, [0, 1])
        lhs, rhs = mobius_derivative_relation(g, [0], [1])
        assert lhs == pytest.approx(1.0, abs=1e-12)
        assert rhs == pytest.approx(1.0, abs=1e-12)

    def test_empty_diff_set_reduces_to_definition(self):
        rng = np.random.default_rng(21)
        g = random_tabular(rng, 5)
        expansion = mobius_transform(g)
        for t_mask in (0b101, 0b11010, 0):
            lhs, rhs = mobius_derivative_relation(g, 0, t_mask)
            assert lhs == pytest.approx(rhs, abs=1e-10)
            assert lhs == pytest.approx(expansion.coefficient(t_mask), abs=1e-10)

    def test_random_games_agree(self):
        rng = np.random.default_rng(30)
        worst = 0.0
        for _ in range(100):
            g = random_tabular(rng, 5)
            s_mask = int(rng.integers(1, 32))
            t_mask = int(rng.integers(0, 32)) & ~s_mask
            lhs, rhs = mobius_derivative_relation(g, s_mask, t_mask)
            worst = max(worst, abs(lhs - rhs))
        assert worst <= 1e-10

    def test_overlap_rejected(self):
        g = make_unanimity(3, [0])
        with pytest.raises(ValueError):
            mobius_derivative_relation(g, [0], [0, 1])

    def test_recorded_terms_are_the_left_side(self):
        # differencing the values of this game gives 0.30000000000000004
        g = make_mobius_game(2, {0b01: 0.1, 0b10: 0.2, 0b11: 0.3})
        lhs, rhs = mobius_derivative_relation(g, [0], [1])
        assert lhs == 0.3
        assert rhs == pytest.approx(0.3, abs=1e-15)


class TestMobiusBelow:
    @staticmethod
    def wide_tabular(rng, n):
        return make_tabular(n, rng.normal(size=1 << n) * 10.0 ** rng.uniform(-3, 5, 1 << n))

    def test_equals_the_dense_transform_bit_for_bit(self):
        rng = np.random.default_rng(15)
        for n in range(1, 13):
            for g in (self.wide_tabular(rng, n), make_majority(n)):
                dense = mobius_dense(g)
                for k in range(2, min(n, 3) + 2):
                    got = mobius_below(g, k)
                    assert [s.bits for s in got] == [m for size in range(1, k)
                                                     for m in masks_of_size(n, size)]
                    assert [v.hex() for v in got.values()] == \
                        [float(dense[s.bits]).hex() for s in got]

    def test_scope_gives_the_derivatives_at_the_empty_set(self):
        rng = np.random.default_rng(16)
        g = self.wide_tabular(rng, 9)
        scope = (1, 4, 5, 8)
        got = mobius_below(g, 4, scope)
        inside = [m for m in range(1, 1 << 9)
                  if m.bit_count() < 4 and all(p in scope for p in range(9) if m >> p & 1)]
        assert sorted(s.bits for s in got) == inside
        for s, v in got.items():
            assert v.hex() == float(derivative(g, s.bits, 0)).hex()

    def test_recorded_terms_are_read(self):
        terms = random_mobius_terms(np.random.default_rng(17), 64, max_size=3)
        g = make_mobius_game(64, terms)
        got = mobius_below(g, 3)
        assert len(got) == 64 + 64 * 63 // 2
        assert all(v == terms.get(s.bits, 0.0) for s, v in got.items())
        assert "dense_table" not in g.derived


class TestIterationHelpers:
    def test_submasks_ascending_and_complete(self):
        subs = list(iter_submasks(0b1010))
        assert subs == [0b0000, 0b0010, 0b1000, 0b1010]

    def test_masks_of_size_ascending(self):
        masks = list(masks_of_size(5, 2))
        assert masks == sorted(masks)
        assert len(masks) == 10
        assert all(bin(m).count("1") == 2 for m in masks)

    def test_masks_of_size_edges(self):
        assert list(masks_of_size(4, 0)) == [0]
        assert list(masks_of_size(3, 3)) == [0b111]
        assert list(masks_of_size(2, 3)) == []


class TestOrderingPrefixes:
    def test_sixty_four_players_with_the_top_bit(self):
        rng = np.random.default_rng(63)
        perms = np.array([rng.permutation(64) for _ in range(40)])
        for k in (1, 2, 3, 4):
            targets = [sum(1 << int(p) for p in rng.choice(64, k, replace=False))
                       for _ in range(30)]
            targets += [1 << 63 | ((1 << k - 1) - 1), (1 << 64) - (1 << 64 - k)]
            want = [[prefix_before(perm, s) for s in targets] for perm in perms]
            assert ordering_prefixes(perms, targets).tolist() == want

    def test_every_ordering_of_six_players(self):
        perms = np.array(list(itertools.permutations(range(6))))
        for k in range(1, 7):
            targets = all_masks_of_size(6, k)
            want = [[prefix_before(perm, s) for s in targets] for perm in perms]
            assert ordering_prefixes(perms, targets).tolist() == want


class TestSupersetSums:
    # n = 16 and 17 span two and four chunks of 2^15 coefficients
    @pytest.mark.parametrize("n", [1, 2, 5, 14, 16, 17])
    def test_pruned_pass_equals_the_full_butterfly(self, n):
        rng = np.random.default_rng(n)
        for game in (random_tabular(rng, n, scale=100.0), make_majority(n)):
            for size in sorted({*range(1, min(n, 4) + 1), n}):
                got, want = (sums(game, size, taylor_weight(size))
                             for sums in (superset_sums, superset_sums_full_butterfly))
                assert [(p.bits, v.hex()) for p, v in got.items()] == \
                    [(p.bits, v.hex()) for p, v in want.items()]

    @pytest.mark.parametrize("n", [9, 14])
    def test_chunk_size_does_not_change_the_sums(self, monkeypatch, n):
        # chunks of 2^6 coefficients: many chunks, and later levels on many
        # blocks of rows, whose survivors are no longer in ascending order
        game = random_tabular(np.random.default_rng(n), n, scale=100.0)
        for size in (1, 2, 3, 4, n):
            weight = taylor_weight(size)
            want = superset_sums_full_butterfly(game, size, weight)
            with monkeypatch.context() as patch:
                patch.setattr(calculus, "_BLOCK", 1 << 6)
                got = superset_sums(game, size, weight)
                # single sets gather 2^(n - size) coefficients: several chunks
                # below size n; a spread of at most eight sets per size
                picked = list(want)[::max(1, len(want) // 8)]
                single = {pset: superset_sum(game, pset, weight) for pset in picked}
            assert [(p.bits, v.hex()) for p, v in got.items()] == \
                [(p.bits, v.hex()) for p, v in want.items()]
            assert [v.hex() for v in single.values()] == [want[p].hex() for p in picked]


class TestSupersetSumProperties:
    @PROPERTY
    @given(SUM_CASES)
    def test_dense_sums_match_exact_rationals(self, case):
        # the tabular copy drops the terms: both sums take the dense pass
        n, size, rule, terms = case
        game = make_tabular(n, make_mobius_game(n, terms).dense_table())
        weight = rule(size)
        for pset, v in superset_sums(game, size, weight).items():
            want = mobius_sums_fractions(terms, pset.bits, weight)
            assert abs(v - want) <= 1e-12
            assert abs(superset_sum(game, pset, weight) - want) <= 1e-12
