from math import comb, fsum

import numpy as np
import pytest

from helpers import random_mobius_terms, random_tabular
from interax import (SamplingPlan, aggregate_crosses, cross_comparison,
                     majority_sweep, make_interaction, make_linear_crosses,
                     make_majority, make_mobius_game, make_tabular, sii_exact,
                     stv_exact)
from interax.analysis import (majority_sii_by_size, sweep_gnuplot_script,
                              sweep_to_csv)
from interax.games import from_function


class TestMajoritySweep:
    def test_by_size_matches_generic_index(self):
        for n in range(3, 9):
            g = make_majority(n)
            by_size = majority_sii_by_size(n)
            for size in range(1, n + 1):
                mask = (1 << size) - 1
                assert float(by_size[size]) == pytest.approx(
                    sii_exact(g, mask), abs=1e-10)

    def test_three_player_row(self):
        row = majority_sweep(3, 3)[0]
        # pairs contribute nothing, the triple contributes -2
        assert row.sii_sum_nonsingleton == pytest.approx(-2.0, abs=1e-12)
        assert row.sii_sum_all == pytest.approx(-1.0, abs=1e-12)
        assert row.sign == "-"

    def test_sign_alternates_within_parity(self):
        rows = {row.n: row for row in majority_sweep(3, 16)}
        for n in range(3, 15):
            assert rows[n].sign in "+-"
            assert rows[n].sign != rows[n + 2].sign

    def test_magnitude_diverges_within_parity(self):
        rows = {row.n: row for row in majority_sweep(3, 16)}
        for n in range(3, 15):
            assert abs(rows[n + 2].sii_sum_nonsingleton) > \
                abs(rows[n].sii_sum_nonsingleton)

    def test_all_vs_nonsingleton_differ_by_grand_span(self):
        # singleton interaction values are the Shapley values, which sum to 1
        for row in majority_sweep(3, 10):
            assert row.sii_sum_all - row.sii_sum_nonsingleton == \
                pytest.approx(1.0, abs=1e-9)

    def test_range_guard(self):
        with pytest.raises(ValueError):
            majority_sweep(3, 17)
        with pytest.raises(ValueError):
            majority_sweep(5, 4)

    def test_csv_and_script(self):
        rows = majority_sweep(3, 6)
        csv_text = sweep_to_csv(rows)
        lines = csv_text.strip().split("\n")
        assert lines[0] == "n,sii_sum_all,sii_sum_nonsingleton,sign,log10_abs"
        assert len(lines) == 5
        signs = [line.split(",")[3] for line in lines[1:]]
        assert signs == ["-", "+", "+", "-"]
        script = sweep_gnuplot_script("sweep.csv")
        assert "plot 'sweep.csv'" in script


class TestCrossComparison:
    def test_reference_coefficient(self):
        report = cross_comparison(3.0)
        assert report.stv_singleton == pytest.approx(1.0, abs=1e-12)
        assert report.stv_pair == pytest.approx(1.0, abs=1e-12)
        assert report.stv_pair_total == pytest.approx(3.0, abs=1e-12)
        assert report.sii_pair == pytest.approx(1.5, abs=1e-12)
        assert report.sii_pair_total == pytest.approx(4.5, abs=1e-12)

    def test_totals_track_coefficient(self):
        for c in (-3.0, 1.0, 10.0):
            report = cross_comparison(c)
            assert report.stv_pair_total == pytest.approx(c, abs=1e-10)
            assert report.sii_pair_total == pytest.approx(1.5 * c, abs=1e-10)

    def test_product_rows(self):
        report = cross_comparison(3.0, max_product_n=10)
        assert [row.n for row in report.product_rows] == list(range(3, 11))
        for row in report.product_rows:
            assert row.stv_pair == pytest.approx(1 / comb(row.n, 2), abs=1e-12)
            assert row.stv_total == pytest.approx(1.0, abs=1e-10)
            assert row.sii_pair == pytest.approx(1 / (row.n - 1), abs=1e-12)
            assert row.sii_total == pytest.approx(row.n / 2, abs=1e-10)
            assert row.inflation == pytest.approx(row.n / 2, abs=1e-10)

    def test_product_four(self):
        report = cross_comparison(3.0, max_product_n=4)
        row = report.product_rows[1]
        assert row.stv_pair == pytest.approx(1 / 6, abs=1e-12)
        assert row.sii_pair == pytest.approx(1 / 3, abs=1e-12)
        assert row.sii_total == pytest.approx(2.0, abs=1e-12)

    def test_no_cross_no_pairs(self):
        report = cross_comparison(0.0)
        assert report.stv_pair == 0.0
        assert report.sii_pair == 0.0

    def test_csv(self):
        text = cross_comparison(3.0, max_product_n=3).to_csv()
        assert text.startswith("family,n,quantity,value\n")
        assert "linear-crosses,3,stv_pair,1.0" in text


class TestAggregateCrosses:
    def test_copies_match_single_game_ordering(self):
        g = make_linear_crosses(2.0)
        single = stv_exact(g, 2)
        ranking = aggregate_crosses([g] * 10, 2, "mean")
        for pset, val, _rank in ranking.entries:
            assert val == pytest.approx(single.values[pset], abs=1e-12)

    def test_opposite_crosses_cancel_in_mean(self):
        games = [make_linear_crosses(3.0), make_linear_crosses(-3.0)]
        mean = aggregate_crosses(games, 2, "mean")
        mean_abs = aggregate_crosses(games, 2, "mean-abs")
        for pset, val, _ in mean.entries:
            if pset.size == 2:
                assert val == pytest.approx(0.0, abs=1e-12)
        for pset, val, _ in mean_abs.entries:
            if pset.size == 2:
                assert val == pytest.approx(1.0, abs=1e-12)

    def test_interaction_game_tops_with_its_pairs(self):
        g = make_interaction(6, [1, 2, 4], 5.0)
        ranking = aggregate_crosses([g], 2, "mean")
        top = ranking.top(3)
        top_sets = {pset.members() for pset, _val, _rank in top}
        assert top_sets == {(1, 2), (1, 4), (2, 4)}

    def test_mean_preserves_efficiency(self):
        rng = np.random.default_rng(81)
        games = [random_tabular(rng, 5) for _ in range(7)]
        ranking = aggregate_crosses(games, 2, "mean")
        total = fsum(val for _, val, _ in ranking.entries)
        spans = fsum(g.span() for g in games) / len(games)
        assert total == pytest.approx(spans, abs=1e-9)

    def test_deterministic(self):
        rng = np.random.default_rng(82)
        games = [random_tabular(rng, 4) for _ in range(3)]
        a = aggregate_crosses(games, 2, "mean")
        b = aggregate_crosses(games, 2, "mean")
        assert a.entries == b.entries

    def test_tie_break_is_lexicographic(self):
        flat = make_tabular(3, np.zeros(8))
        ranking = aggregate_crosses([flat], 2, "mean")
        ordered = [pset.members() for pset, _, _ in ranking.entries]
        assert ordered == sorted(ordered)
        assert [rank for _, _, rank in ranking.entries] == [1, 2, 3, 4, 5, 6]

    def test_mixed_player_counts_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            aggregate_crosses([make_majority(3), make_majority(4)], 2)

    def test_sampled_aggregation(self):
        games = [make_linear_crosses(3.0), make_linear_crosses(3.0)]
        plan = SamplingPlan.from_samples(4000, seed=55)
        ranking = aggregate_crosses(games, 2, "mean", plan=plan)
        for pset, val, _ in ranking.entries:
            if pset.size == 2:
                assert val == pytest.approx(1.0, abs=0.1)

    def test_exact_past_the_dense_gate_for_games_with_terms(self):
        # recorded Mobius terms need no dense table, so stv_exact takes n = 48
        rng = np.random.default_rng(48)
        games = [make_mobius_game(48, random_mobius_terms(rng, 48)) for _ in range(3)]
        results = [stv_exact(g, 2).values for g in games]
        ranking = aggregate_crosses(games, 2, "mean")
        assert len(ranking.entries) == len(results[0])
        for pset, val, _ in ranking.entries:
            assert val == fsum(r[pset] for r in results) / 3

    def test_dense_game_past_the_gate_rejected(self):
        g = from_function(25, lambda mask: float(mask.bit_count()))
        with pytest.raises(ValueError, match="n <= 24"):
            aggregate_crosses([g], 1)

    def test_empty_collection_rejected(self):
        with pytest.raises(ValueError):
            aggregate_crosses([], 2)

    def test_csv(self):
        ranking = aggregate_crosses([make_linear_crosses(3.0)], 2, "mean")
        lines = ranking.to_csv().strip().split("\n")
        assert lines[0] == "set,size,aggregation,k,value,rank"
        assert len(lines) == 7
