"""Exact attribution indices: Shapley, Shapley-Taylor, and Shapley interaction.

The Shapley-Taylor index of order k assigns a value to every subset of at
most k players: sets smaller than k get their Mobius coefficient a(S), the
derivative at the empty set, read by `calculus.mobius_below` on every
route; a set S of size exactly k gets the sum of a(T) / C(|T|, k) over
its supersets T.  `stv_permutation_oracle` recomputes the size-k case by
literal enumeration of all n! orderings and exists purely as a cross-check.

The Shapley interaction index is the older alternative: the sum of
a(T) / (|T| - |S| + 1) over supersets T.  It does not satisfy efficiency;
`sii_main_effects` adds the usual repair convention (subtract half of each
pairwise interaction from the Shapley value), which restores efficiency by
construction.

Every index size is one `superset_sums` call with the index's weight, and
`sii_exact` is one set's `superset_sum`, the same float as its `sii_index`
entry.  A game that records its Mobius terms (unanimity, interaction,
product, linear-crosses and Mobius games) is summed from those terms
alone, exactly and rounded once, at any n; any other game takes one
superset-sum pass over the cached Mobius coefficients, about (k + 1) 2^n
additions for index size k, so exact runs reach n = 24.  The pass carries
exact products and compensated sums, so large coefficients that cancel
(the majority game's reach 1e6) do not cost accuracy; the order of
operations is fixed, so results are bit-reproducible.  The README's notes
on numerics give measured errors and times.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cache
from math import comb, factorial, fsum

import numpy as np

from .calculus import (derivative, masks_of_size, mobius_below, ordering_prefixes,
                       superset_sum, superset_sums)
from .games import (DENSE_LIMIT, Game, PlayerSet, as_mask, ids_from_mask,
                    mask_from_ids, spread_bits)

ORACLE_LIMIT = 8  # n! permutations are enumerated outright


@dataclass
class IndexResult:
    """Attribution values for all scored subsets, tagged with provenance.

    values maps PlayerSet -> real for every subset that was scored; meta
    records how they were produced (exact / oracle / sampled, sample
    count, seed, and similar knobs).
    """

    method: str
    k: int
    values: dict[PlayerSet, float]
    meta: dict = field(default_factory=dict)

    def get(self, subset, n: int | None = None) -> float:
        if isinstance(subset, PlayerSet):
            return self.values[subset]
        if n is None:
            n = next(iter(self.values)).n
        return self.values[PlayerSet(as_mask(subset, n), n)]

    def total(self) -> float:
        """Sum of all stored values (exactly rounded)."""
        return fsum(self.values.values())

    def sorted_items(self) -> list[tuple[PlayerSet, float]]:
        return sorted(self.values.items(), key=lambda kv: (kv[0].size, kv[0].bits))

    def to_csv(self) -> str:
        lines = ["set,size,method,k,value"]
        for pset, val in self.sorted_items():
            ids = " ".join(str(i) for i in pset.members())
            lines.append(f"{ids},{pset.size},{self.method},{self.k},{val!r}")
        return "\n".join(lines) + "\n"

    def to_json_document(self) -> dict:
        return {
            "method": self.method,
            "k": self.k,
            "meta": self.meta,
            "values": [
                {"set": list(pset.members()), "size": pset.size,
                 "method": self.method, "k": self.k, "value": val}
                for pset, val in self.sorted_items()
            ],
        }


def _require_dense(game: Game, what: str, k: int = 1):
    """Dense sweeps need n <= 24; known Mobius terms need no sweep, only a
    result of at most 2^24 sets."""
    if game.n > DENSE_LIMIT and "mobius_terms" not in game.derived:
        raise ValueError(f"{what} needs n <= {DENSE_LIMIT}, got n={game.n}")
    require_result_size(what, game.n, k)


def require_result_size(what: str, n: int, k: int, targets: int | None = None,
                        scope: int | None = None):
    """Refuse an order-k result of more than 2^24 sets: the size-k targets
    (all C(n, k) unless counted) plus every smaller nonempty set over the
    `scope` players in play (all n unless given)."""
    scope = n if scope is None else scope
    count = comb(n, k) if targets is None else targets
    if count + sum(comb(scope, j) for j in range(1, k)) > 1 << DENSE_LIMIT:
        raise ValueError(f"{what} would score more than 2^{DENSE_LIMIT} sets "
                         f"at n={n}, k={k}")


# each index's superset weight, one object per order so that `weight_table`
# sets it up once: Shapley-Taylor 1 / C(|T|, k), interaction 1 / (|T| - |S| + 1)
taylor_weight = cache(lambda k: lambda t: Fraction(1, comb(t, k)))
interaction_weight = cache(lambda s: lambda t: Fraction(1, t - s + 1))


def stv_exact(game: Game, k: int) -> IndexResult:
    """Order-k Shapley-Taylor values for every subset of size 1..k.

    Sizes below k get the Mobius coefficient a(S) from `mobius_below`;
    size k gets the sum of a(T) / C(|T|, k) over supersets T.  The result
    satisfies efficiency: the values sum to v(N) - v(0) up to roundoff.
    """
    if not 1 <= k <= game.n:
        raise ValueError(f"order k must be in 1..{game.n}, got {k}")
    _require_dense(game, "exact index computation", k)
    values = mobius_below(game, k)
    values.update(superset_sums(game, k, taylor_weight(k)))
    return IndexResult("stv", k, values, {"mode": "exact"})


def shapley(game: Game) -> IndexResult:
    """Classic Shapley values: the order-1 Shapley-Taylor index."""
    result = stv_exact(game, 1)
    return IndexResult("shapley", 1, result.values, result.meta)


def stv_permutation_oracle(game: Game, k: int) -> IndexResult:
    """Order-k values by exact averaging over all n! player orderings.

    Brute-force oracle for `stv_exact`: for each size-k set the derivative
    is taken at the set of players preceding all its members, tallied over
    every ordering, and divided by n!.  Gated to n <= 8.
    """
    n = game.n
    if n > ORACLE_LIMIT:
        raise ValueError(
            f"permutation oracle enumerates n! orderings; needs n <= {ORACLE_LIMIT}")
    if not 1 <= k <= n:
        raise ValueError(f"order k must be in 1..{n}, got {k}")
    values = mobius_below(game, k)
    targets = list(masks_of_size(n, k))
    prefixes = ordering_prefixes(np.array(list(itertools.permutations(range(n)))), targets)
    for s_mask, column in zip(targets, prefixes.T):
        at, count = np.unique(column, return_counts=True)
        terms = count * derivative(game, s_mask, at)
        values[PlayerSet(s_mask, n)] = fsum(terms.tolist()) / factorial(n)
    return IndexResult("stv", k, values, {"mode": "permutation-oracle"})


def sii_exact(game: Game, subset) -> float:
    """Shapley interaction index of one nonempty subset.

    The sum of a(T) / (|T| - |S| + 1) over the supersets T of S: one
    `superset_sum` gather rather than a full sweep, accurate to about the
    last unit.
    """
    s_mask = as_mask(subset, game.n)
    if s_mask == 0:
        raise ValueError("interaction index needs a nonempty subset")
    _require_dense(game, "exact index computation")
    return superset_sum(game, s_mask, interaction_weight(s_mask.bit_count()))


def sii_index(game: Game, k: int) -> IndexResult:
    """Shapley interaction indices for every subset of size 1..k."""
    if not 1 <= k <= game.n:
        raise ValueError(f"order k must be in 1..{game.n}, got {k}")
    _require_dense(game, "exact index computation", k)
    values: dict[PlayerSet, float] = {}
    for s in range(1, k + 1):
        values.update(superset_sums(game, s, interaction_weight(s)))
    return IndexResult("sii", k, values, {"mode": "exact"})


def sii_main_effects(game: Game) -> IndexResult:
    """Pairwise interaction indices plus efficiency-restoring main effects.

    The interaction index defines no main effects of its own; the usual
    convention subtracts half of each pairwise interaction from the
    player's Shapley value.  Main effects and pairs then sum to
    v(N) - v(0) by construction.
    """
    n = game.n
    # the size-1 interaction weight 1/|T| is the order-1 Taylor weight, so
    # the singletons of the interaction index are the Shapley values
    values = sii_index(game, min(2, n)).values
    pairs = {pset: v for pset, v in values.items() if pset.size == 2}
    for i in range(n):
        cross = fsum(v for pset, v in pairs.items() if pset.bits >> i & 1)
        values[PlayerSet(1 << i, n)] -= 0.5 * cross
    return IndexResult("sii", 2, values,
                       {"mode": "exact", "convention": "main-effects"})


def efficiency_residual(result: IndexResult, game: Game) -> float:
    """Sum of all attribution values minus v(N) - v(0), which for recorded
    Mobius terms is the exactly rounded sum of the nonempty ones."""
    terms = game.derived.get("mobius_terms")
    span = game.span() if terms is None else fsum(c for m, c in terms if m)
    return result.total() - span


def restrict_players(game: Game, keep, fill: str = "baseline") -> Game:
    """Induced game on a nonempty subset of the players.

    Players outside `keep` are frozen: absent under fill="baseline",
    present under fill="grand".  The kept players are renumbered
    0..m-1 in ascending original id; the mapping is recorded in params.
    """
    keep_mask = as_mask(keep, game.n)
    if keep_mask == 0:
        raise ValueError("must keep at least one player")
    if fill not in ("baseline", "grand"):
        raise ValueError(f"fill must be 'baseline' or 'grand', got {fill!r}")
    kept = ids_from_mask(keep_mask)
    outside = ((1 << game.n) - 1) & ~keep_mask
    base = np.uint64(outside if fill == "grand" else 0)
    return Game(len(kept), lambda m: game.values(base | spread_bits(m, kept)), "restricted",
                {"kept": kept, "fill": fill, "parent": game.kind})


def relabel_result(result: IndexResult, kept: tuple[int, ...], n: int) -> IndexResult:
    """Map a restricted game's result back to the original player ids."""
    values = {}
    for pset, val in result.values.items():
        original = mask_from_ids(kept[j] for j in pset.members())
        values[PlayerSet(original, n)] = val
    meta = dict(result.meta)
    meta["restricted_to"] = list(kept)
    return IndexResult(result.method, result.k, values, meta)
