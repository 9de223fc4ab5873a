import json
import math

import numpy as np
import pytest

from interax import SamplingPlan, games, restrict_players, stv_exact, stv_sampled
from interax.games import (PlayerSet, from_function, load_game, load_mobius,
                           load_tabular, make_interaction, make_linear_crosses,
                           make_majority, make_mobius_game, make_product,
                           make_tabular, make_unanimity, mobius_document,
                           tabular_document)


class TestPlayerSet:
    def test_basics(self):
        s = PlayerSet.from_ids([0, 2, 5], 6)
        assert s.bits == 0b100101
        assert s.size == 3
        assert s.members() == (0, 2, 5)
        assert s.contains(2) and not s.contains(1)
        assert s.issubset(PlayerSet.full(6))
        assert str(s) == "{0,2,5}"

    def test_bits_outside_ground_set_rejected(self):
        with pytest.raises(ValueError):
            PlayerSet(0b1000, 3)

    def test_player_count_bounds(self):
        with pytest.raises(ValueError):
            PlayerSet(0, 0)
        with pytest.raises(ValueError):
            PlayerSet(0, 65)
        assert PlayerSet.full(64).size == 64


class TestUnanimity:
    def test_values(self):
        g = make_unanimity(3, [0, 1])
        assert g.value([0, 1, 2]) == 1.0
        assert g.value([0]) == 0.0
        assert g.value([]) == 0.0

    def test_empty_winning_set_rejected(self):
        with pytest.raises(ValueError):
            make_unanimity(3, [])


class TestInteraction:
    def test_scaled_values(self):
        g = make_interaction(3, [0, 1, 2], 2.5)
        assert g.value([0, 1, 2]) == 2.5
        assert g.value([0, 1]) == 0.0

    def test_unit_coefficient_matches_unanimity(self):
        g = make_interaction(3, [0, 1], 1.0)
        u = make_unanimity(3, [0, 1])
        for mask in range(8):
            assert g.value(mask) == u.value(mask)

    def test_negative_coefficient(self):
        g = make_interaction(4, [1, 3], -1.0)
        assert g.value([1, 2, 3]) == -1.0

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            make_interaction(3, [], 1.0)


class TestMajority:
    def test_three_players(self):
        g = make_majority(3)
        assert g.value([0]) == 0.0
        assert g.value([0, 1]) == 1.0

    def test_even_tie_counts(self):
        assert make_majority(4).value([0, 1]) == 1.0

    def test_single_player(self):
        assert make_majority(1).value([0]) == 1.0


class TestLinearCrosses:
    def test_values(self):
        g = make_linear_crosses(3.0)
        assert g.value([0, 1, 2]) == 6.0
        assert g.value([0, 1]) == 2.0

    @pytest.mark.parametrize("c", [-3.0, 0.0, 7.5])
    def test_empty_is_zero(self, c):
        assert make_linear_crosses(c).value([]) == 0.0


class TestProduct:
    def test_values(self):
        g = make_product(5)
        assert g.value([0, 1, 2, 3, 4]) == 1.0
        assert g.value([0, 1, 3, 4]) == 0.0
        assert make_product(1).value([0]) == 1.0

    def test_matches_unanimity_on_full_set(self):
        g = make_product(5)
        u = make_unanimity(5, range(5))
        for mask in range(1 << 5):
            assert g.value(mask) == u.value(mask)


class TestTabular:
    def test_lookup(self):
        g = make_tabular(2, [0.0, 1.0, 1.0, 3.0])
        assert g.value([0, 1]) == 3.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            make_tabular(2, [0.0, 1.0, 1.0])

    def test_single_player(self):
        g = make_tabular(1, [0.0, 7.0])
        assert g.value([]) == 0.0
        assert g.value([0]) == 7.0

    def test_dense_size_guard(self):
        with pytest.raises(ValueError):
            make_tabular(25, np.zeros(2))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            make_tabular(1, [0.0, float("nan")])


class TestNonFiniteValues:
    @staticmethod
    def nan_on_grand(n):
        full = (1 << n) - 1
        return from_function(n, lambda m: math.nan if m == full else float(m.bit_count()))

    def test_value_names_the_subset(self):
        g = self.nan_on_grand(3)
        assert g.value([0, 2]) == 2.0
        with pytest.raises(ValueError, match=r"\(0, 1, 2\) is nan"):
            g.value([0, 1, 2])

    def test_exact_and_sampled_indices_raise(self):
        with pytest.raises(ValueError, match="not finite"):
            stv_exact(self.nan_on_grand(4), 2)
        # every ordering ends in a pair whose derivative reaches the grand set
        with pytest.raises(ValueError, match="not finite"):
            stv_sampled(self.nan_on_grand(4), 2, SamplingPlan.from_samples(4, seed=1))

    def test_dense_fill_rejected(self):
        g = make_interaction(3, [0, 1], math.nan)
        with pytest.raises(ValueError, match="non-finite"):
            g.dense_table()


class TestMobiusGame:
    def test_matches_linear_crosses(self):
        c = 4.5
        g = make_mobius_game(3, {1: 1.0, 2: 1.0, 4: 1.0, 7: c})
        lc = make_linear_crosses(c)
        for mask in range(8):
            assert g.value(mask) == pytest.approx(lc.value(mask), abs=1e-12)

    def test_pair_coefficient(self):
        g = make_mobius_game(2, {0b11: 1.0})
        assert g.value([0]) == 0.0
        assert g.value([0, 1]) == 1.0

    def test_empty_set_offset(self):
        g = make_mobius_game(2, {0: 5.0})
        assert g.value([]) == 5.0
        assert g.value([0, 1]) == 5.0

    def test_duplicate_terms_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_mobius_game(2, {(0,): 1.0, 1: 2.0})


class TestMemoization:
    def test_values_are_pure(self):
        calls = []

        def flaky(mask):
            calls.append(mask)
            return float(len(calls))  # would differ on a second call

        g = from_function(3, flaky, "stateful")
        first = g.value([0, 2])
        assert g.value([0, 2]) == first
        assert calls.count(0b101) == 1

    def test_builtin_bit_identical(self, majority_child_command):
        rng = np.random.default_rng(12)
        terms = {}
        while len(terms) < 24:
            ids = rng.choice(12, int(rng.integers(1, 5)), replace=False)
            terms[PlayerSet.from_ids(ids.tolist(), 12).bits] = float(rng.uniform(-1, 1))
        mobius12 = make_mobius_game(12, terms)
        table = make_tabular(5, rng.normal(size=32))
        families = [make_linear_crosses(0.3), make_majority(5),
                    make_unanimity(4, [1, 2]), make_interaction(4, [0, 3], -2.5),
                    make_product(4), make_mobius_game(4, {0b11: 1.5, 0b100: -1.0}),
                    mobius12, table,
                    from_function(5, lambda m: math.sin(m) / 3.0),
                    games.combine(0.3, table, -1.7, make_mobius_game(5, {0b11: 0.1})),
                    games.relabel(table, [3, 0, 4, 1, 2]),
                    restrict_players(mobius12, [1, 4, 5, 7, 9, 11], "grand")]
        with games.attach_external(majority_child_command, 5) as external:
            for g in families + [external]:
                table_values = g.dense_table()
                for mask in range(1 << g.n):
                    assert g.value(mask) == g.value(mask)
                    assert g.value(mask) == g.values(np.array([mask]))[0]
                    assert g.value(mask) == table_values[mask]
        # a Mobius game adds its terms in ascending mask order on every route
        ordered = sorted(terms.items())
        for mask in range(1 << 12):
            assert mobius12.value(mask) == sum(c for t, c in ordered if t & ~mask == 0)


class TestFiles:
    def test_tabular_round_trip(self, tmp_path):
        g = make_majority(4)
        path = tmp_path / "maj.json"
        path.write_text(json.dumps(tabular_document(g)))
        loaded = load_tabular(path)
        assert np.array_equal(loaded.dense_table(), g.dense_table())

    def test_mobius_document_round_trip(self, tmp_path):
        doc = mobius_document(3, {0b11: 2.0, 0b100: -1.0})
        path = tmp_path / "m.json"
        path.write_text(json.dumps(doc))
        g = load_mobius(path)
        assert g.value([0, 1]) == 2.0
        assert g.value([2]) == -1.0
        assert g.value([0]) == 0.0

    def test_duplicate_file_terms_rejected(self, tmp_path):
        doc = {"format": "mobius", "n": 2,
               "terms": [{"set": [0], "coef": 1.0}, {"set": [0], "coef": 2.0}]}
        path = tmp_path / "dup.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="duplicate"):
            load_mobius(path)

    def test_wrong_format_rejected(self, tmp_path):
        path = tmp_path / "weird.json"
        path.write_text(json.dumps({"format": "tabular", "n": 1,
                                    "values": [0.0, 1.0]}))
        with pytest.raises(ValueError, match="expected format"):
            load_mobius(path)
        path.write_text(json.dumps({"n": 1}))
        with pytest.raises(ValueError, match="format"):
            load_game(path)

    def test_load_game_dispatch(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(tabular_document(make_product(3))))
        assert load_game(path).kind == "tabular"
        path.write_text(json.dumps(mobius_document(2, {0b11: 1.0})))
        assert load_game(path).kind == "mobius"

    def test_load_game_reads_the_file_once(self, tmp_path, monkeypatch):
        calls = []
        read = games._read_document

        def counting(*args):
            calls.append(args[0])
            return read(*args)

        monkeypatch.setattr(games, "_read_document", counting)
        for doc in (tabular_document(make_product(3)), mobius_document(2, {0b11: 1.0})):
            path = tmp_path / f"{doc['format']}.json"
            path.write_text(json.dumps(doc))
            calls.clear()
            assert load_game(path).kind == doc["format"]
            assert calls == [path]

    def test_tabular_length_mismatch_in_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"format": "tabular", "n": 2,
                                    "values": [0.0, 1.0, 2.0]}))
        with pytest.raises(ValueError, match="length mismatch"):
            load_tabular(path)


class TestConcurrency:
    def test_parallel_evaluation_is_pure(self):
        from concurrent.futures import ThreadPoolExecutor

        calls = []

        def racy(mask):
            calls.append(mask)
            return mask + 1000.0 * len(calls)  # distinct on every raw call

        g = from_function(6, racy, "hammered")
        masks = list(range(64)) * 8
        with ThreadPoolExecutor(max_workers=8) as pool:
            values = list(pool.map(g.value, masks))
        # every caller must observe the single stored value for its subset,
        # even when raw evaluations raced
        for mask, val in zip(masks, values):
            assert val == g.value(mask)
        assert len({v for v in values}) == 64


class TestCombinators:
    def test_combine(self):
        g = games.combine(2.0, make_product(3), -1.0, make_majority(3))
        assert g.value([0, 1, 2]) == 2.0 * 1.0 - 1.0
        assert g.value([0, 1]) == -1.0

    def test_combine_mixed_sizes_rejected(self):
        with pytest.raises(ValueError):
            games.combine(1.0, make_product(3), 1.0, make_product(4))

    def test_relabel(self):
        g = make_unanimity(3, [0])
        flipped = games.relabel(g, [2, 1, 0])  # player 0 becomes player 2
        assert flipped.value([2]) == 1.0
        assert flipped.value([0]) == 0.0
