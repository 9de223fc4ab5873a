"""Comparative analyses across games: majority sweeps, cross tables, rankings.

The majority sweep tracks the total Shapley interaction index of the
majority game as the table grows; the majority game is symmetric, so
same-size subsets share one interaction value and the per-size totals are
computed with exact rational arithmetic (cross-checked against the
generic path in the tests).  Because the literature is ambiguous about
whether singleton terms belong in that total, both sums are reported.

The cross comparison tabulates Shapley-Taylor against interaction-index
values on the linear-cross and product families, and `aggregate_crosses`
ranks subsets by their mean attribution across a collection of games
(meaningful because the Taylor values are efficient, so means stay in
prediction units).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial, fsum

from .games import Game, PlayerSet, make_linear_crosses, make_product
from .indices import IndexResult, sii_exact, sii_main_effects, stv_exact
from .sampling import SamplingPlan, stv_sampled

SWEEP_LIMIT = 16


# ---------------------------------------------------------------------------
# Majority sweep
# ---------------------------------------------------------------------------

@dataclass
class MajoritySweepRow:
    """Total interaction of one majority game.

    sii_sum_all sums the interaction index over every nonempty subset;
    sii_sum_nonsingleton drops the singletons.  sign and log10_abs
    describe the nonsingleton sum (log10_abs is None when it is zero).
    """

    n: int
    sii_sum_all: float
    sii_sum_nonsingleton: float
    sign: str
    log10_abs: float | None


def _majority_value(size: int, n: int) -> int:
    return 1 if 2 * size >= n else 0


def majority_sii_by_size(n: int) -> dict[int, Fraction]:
    """Exact per-subset interaction index of the majority game, by size.

    The game is symmetric, so the index of a subset depends only on its
    cardinality; the derivative and its weights reduce to sums over sizes.
    """
    out: dict[int, Fraction] = {}
    for s in range(1, n + 1):
        total = Fraction(0)
        for t in range(0, n - s + 1):
            deriv = sum((-1 if (s - w) & 1 else 1) * comb(s, w)
                        * _majority_value(t + w, n) for w in range(s + 1))
            weight = Fraction(factorial(n - t - s) * factorial(t),
                              factorial(n - s + 1))
            total += comb(n - s, t) * weight * deriv
        out[s] = total
    return out


def majority_sweep(n_min: int, n_max: int) -> list[MajoritySweepRow]:
    """Interaction totals of the majority game for each n in [n_min, n_max]."""
    if not 1 <= n_min <= n_max <= SWEEP_LIMIT:
        raise ValueError(
            f"sweep range must satisfy 1 <= n_min <= n_max <= {SWEEP_LIMIT}")
    rows = []
    for n in range(n_min, n_max + 1):
        by_size = majority_sii_by_size(n)
        sum_all = sum(comb(n, s) * by_size[s] for s in range(1, n + 1))
        sum_ns = sum(comb(n, s) * by_size[s] for s in range(2, n + 1))
        sign = "+" if sum_ns > 0 else ("-" if sum_ns < 0 else "0")
        log10_abs = math.log10(abs(float(sum_ns))) if sum_ns != 0 else None
        rows.append(MajoritySweepRow(n, float(sum_all), float(sum_ns),
                                     sign, log10_abs))
    return rows


def sweep_to_csv(rows: list[MajoritySweepRow]) -> str:
    lines = ["n,sii_sum_all,sii_sum_nonsingleton,sign,log10_abs"]
    for row in rows:
        log_cell = "" if row.log10_abs is None else repr(row.log10_abs)
        lines.append(f"{row.n},{row.sii_sum_all!r},{row.sii_sum_nonsingleton!r},"
                     f"{row.sign},{log_cell}")
    return "\n".join(lines) + "\n"


def sweep_gnuplot_script(csv_path: str) -> str:
    """Plot script for the sweep CSV (log magnitude, sign via point type)."""
    return (
        "set datafile separator ','\n"
        "set xlabel 'players'\n"
        "set ylabel 'log10 |total interaction|'\n"
        "set key left top\n"
        f"plot '{csv_path}' every ::1 using 1:5 with linespoints "
        "title 'nonsingleton interaction total', \\\n"
        f"     '{csv_path}' every ::1 using 1:(strcol(4) eq '+' ? $5 : 1/0) "
        "with points pt 7 title 'positive', \\\n"
        f"     '{csv_path}' every ::1 using 1:(strcol(4) eq '-' ? $5 : 1/0) "
        "with points pt 6 title 'negative'\n"
    )


# ---------------------------------------------------------------------------
# Cross comparison
# ---------------------------------------------------------------------------

@dataclass
class ProductGameRow:
    n: int
    stv_pair: float
    stv_total: float
    sii_pair: float
    sii_total: float
    inflation: float  # sii_total / stv_total


@dataclass
class CrossComparison:
    """Taylor vs interaction-index values on the two stock families."""

    c: float
    stv_singleton: float
    stv_pair: float
    stv_pair_total: float
    sii_pair: float
    sii_pair_total: float
    sii_main_effect: float
    product_rows: list[ProductGameRow]

    def to_csv(self) -> str:
        lines = ["family,n,quantity,value"]
        for name, val in [("stv_singleton", self.stv_singleton),
                          ("stv_pair", self.stv_pair),
                          ("stv_pair_total", self.stv_pair_total),
                          ("sii_pair", self.sii_pair),
                          ("sii_pair_total", self.sii_pair_total),
                          ("sii_main_effect", self.sii_main_effect)]:
            lines.append(f"linear-crosses,3,{name},{val!r}")
        for row in self.product_rows:
            for name, val in [("stv_pair", row.stv_pair),
                              ("stv_total", row.stv_total),
                              ("sii_pair", row.sii_pair),
                              ("sii_total", row.sii_total),
                              ("inflation", row.inflation)]:
                lines.append(f"product,{row.n},{name},{val!r}")
        return "\n".join(lines) + "\n"


def cross_comparison(c: float, max_product_n: int = 10) -> CrossComparison:
    """Compare the two indices on linear-crosses(c) and product games.

    Every number is computed by the actual index implementations, not
    transcribed; the product rows show how the interaction-index total
    inflates with the size of the cross while the Taylor total stays put.
    """
    if max_product_n < 3:
        raise ValueError("product sweep needs max_product_n >= 3")
    game = make_linear_crosses(c)
    taylor = stv_exact(game, 2)
    singles = [taylor.get([i], 3) for i in range(3)]
    pairs = [taylor.get(p, 3) for p in ([0, 1], [0, 2], [1, 2])]
    sii_pairs = [sii_exact(game, p) for p in ([0, 1], [0, 2], [1, 2])]
    mains = sii_main_effects(game)

    product_rows = []
    for n in range(3, max_product_n + 1):
        prod = make_product(n)
        ptaylor = stv_exact(prod, 2)
        pair_vals = [val for pset, val in ptaylor.values.items() if pset.size == 2]
        sii_val = sii_exact(prod, [0, 1])
        stv_total = fsum(pair_vals)
        sii_total = sii_val * comb(n, 2)
        product_rows.append(ProductGameRow(
            n, ptaylor.get([0, 1], n), stv_total, sii_val, sii_total,
            sii_total / stv_total))

    return CrossComparison(
        c=float(c),
        stv_singleton=singles[0],
        stv_pair=pairs[0],
        stv_pair_total=fsum(pairs),
        sii_pair=sii_pairs[0],
        sii_pair_total=fsum(sii_pairs),
        sii_main_effect=mains.get([0], 3),
        product_rows=product_rows)


# ---------------------------------------------------------------------------
# Cross aggregation over collections of games
# ---------------------------------------------------------------------------

@dataclass
class CrossRanking:
    """Subsets ordered by aggregate attribution across a game collection.

    entries hold (subset, aggregate value, 1-based rank), sorted by
    descending value with ties broken by the ascending sorted player list.
    """

    aggregation: str
    k: int
    entries: list[tuple[PlayerSet, float, int]]

    def to_csv(self) -> str:
        lines = ["set,size,aggregation,k,value,rank"]
        for pset, val, rank in self.entries:
            ids = " ".join(str(i) for i in pset.members())
            lines.append(f"{ids},{pset.size},{self.aggregation},{self.k},"
                         f"{val!r},{rank}")
        return "\n".join(lines) + "\n"

    def top(self, count: int) -> list[tuple[PlayerSet, float, int]]:
        return self.entries[:count]


def aggregate_crosses(games: list[Game], k: int, aggregation: str = "mean",
                      plan: SamplingPlan | None = None) -> CrossRanking:
    """Rank subsets by mean (or mean absolute) Taylor value across games.

    All games must share one player count.  Without a sampling plan each
    game takes `stv_exact`, within its limits.
    """
    if not games:
        raise ValueError("need at least one game to aggregate")
    if aggregation not in ("mean", "mean-abs"):
        raise ValueError(f"aggregation must be 'mean' or 'mean-abs', got "
                         f"{aggregation!r}")
    n = games[0].n
    for game in games[1:]:
        if game.n != n:
            raise ValueError(f"games mix player counts {n} and {game.n}")
    results: list[IndexResult] = []
    for game in games:
        if plan is None:
            results.append(stv_exact(game, k))
        else:
            results.append(stv_sampled(game, k, plan))

    keys = list(results[0].values.keys())
    count = len(games)
    aggregated = {}
    for key in keys:
        vals = [res.values[key] for res in results]
        if aggregation == "mean-abs":
            vals = [abs(v) for v in vals]
        aggregated[key] = fsum(vals) / count

    ordered = sorted(aggregated.items(), key=lambda kv: (-kv[1], kv[0].members()))
    entries = [(pset, val, rank + 1) for rank, (pset, val) in enumerate(ordered)]
    return CrossRanking(aggregation, k, entries)
