"""Unbiased permutation sampling for order-k Shapley-Taylor values.

For a size-k target set, each sample draws a uniformly random player
ordering and takes the discrete derivative at the set of players
preceding all target members; the estimator is the mean over m draws.
Sets smaller than k do not depend on the ordering and are returned
exactly.  Works up to n = 64 and never touches a dense table, so it is
the route for external evaluators.

Permutations come from a counter-based generator (Philox, 64-bit keys):
the stream for sample i is keyed by (seed, i), so any partition of the
sample range across workers draws identical permutations, and per-target
accumulation goes through numpy's pairwise reduction, so worker count
never changes the result.  The sample-size rule
m = ceil(2 ln(2/delta) r^2 / eps^2) gives the usual Hoeffding guarantee
for derivatives bounded by r in magnitude.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from math import fsum

import numpy as np

from .calculus import iter_submasks, masks_of_size, signed_by_parity
from .games import Game, PlayerSet, as_mask, ids_from_mask
from .indices import IndexResult

_MASK64 = (1 << 64) - 1
_WARMUP_DRAWS = 64
_MAIN_STREAM = 0
_WARMUP_STREAM = 1


def required_samples(epsilon: float, delta: float, range_bound: float) -> int:
    """Samples needed for additive error epsilon with failure odds delta.

    range_bound bounds the magnitude of the sampled derivatives.
    """
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0 < delta < 1:
        raise ValueError(f"delta must be in (0, 1), got {delta}")
    if not range_bound > 0:
        raise ValueError(f"range bound must be positive, got {range_bound}")
    return math.ceil(2.0 * math.log(2.0 / delta) * range_bound ** 2 / epsilon ** 2)


@dataclass(frozen=True)
class SamplingPlan:
    """Knobs for the permutation sampler.

    Either fix the sample count directly, or give (epsilon, delta) and a
    range bound; a missing range bound is estimated from a 64-permutation
    warmup (max minus min of the observed derivatives, doubled) and noted
    in the result metadata.  targets, when given, restricts estimation to
    those size-k sets.
    """

    seed: int
    samples: int | None = None
    epsilon: float | None = None
    delta: float | None = None
    range_bound: float | None = None
    targets: tuple[PlayerSet, ...] | None = None

    def __post_init__(self):
        if self.samples is not None:
            if self.samples < 1:
                raise ValueError(f"sample count must be >= 1, got {self.samples}")
        else:
            if self.epsilon is None or self.delta is None:
                raise ValueError(
                    "plan needs either an explicit sample count or (epsilon, delta)")
            if not self.epsilon > 0:
                raise ValueError(f"epsilon must be positive, got {self.epsilon}")
            if not 0 < self.delta < 1:
                raise ValueError(f"delta must be in (0, 1), got {self.delta}")
        if self.range_bound is not None and not self.range_bound > 0:
            raise ValueError(f"range bound must be positive, got {self.range_bound}")

    @classmethod
    def from_samples(cls, samples: int, seed: int, targets=None) -> "SamplingPlan":
        return cls(seed=seed, samples=samples, targets=targets)

    @classmethod
    def from_error_budget(cls, epsilon: float, delta: float, seed: int,
                          range_bound: float | None = None,
                          targets=None) -> "SamplingPlan":
        return cls(seed=seed, epsilon=epsilon, delta=delta,
                   range_bound=range_bound, targets=targets)


def sample_permutation(seed: int, index: int, n: int,
                       stream: int = _MAIN_STREAM) -> np.ndarray:
    """The index-th permutation of range(n) in the given seeded stream."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    counter = np.array([0, index & _MASK64, 0, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(counter=counter, key=key))
    return gen.permutation(n)


def _ordering_derivative(game: Game, s_mask: int, members, perm) -> float:
    """Derivative of the target at the set preceding all its members."""
    first = len(perm)
    for p in members:
        pos = int(np.nonzero(perm == p)[0][0])
        if pos < first:
            first = pos
    prefix = 0
    for i in range(first):
        prefix |= 1 << int(perm[i])
    s = s_mask.bit_count()
    return fsum(signed_by_parity(s - w.bit_count()) * game.value(w | prefix)
                for w in iter_submasks(s_mask))


def _draw_matrix(game: Game, target_masks, m: int, seed: int,
                 threads: int, stream: int = _MAIN_STREAM) -> np.ndarray:
    """Per-target, per-sample derivative draws; column i uses stream (seed, i)."""
    n = game.n
    members = [ids_from_mask(t) for t in target_masks]
    matrix = np.empty((len(target_masks), m), dtype=np.float64)

    def fill(bounds):
        lo, hi = bounds
        for idx in range(lo, hi):
            perm = sample_permutation(seed, idx, n, stream)
            pos = np.empty(n, dtype=np.int64)
            pos[perm] = np.arange(n)
            prefixes = [0] * (n + 1)
            acc = 0
            for i, player in enumerate(perm):
                acc |= 1 << int(player)
                prefixes[i + 1] = acc
            for t_idx, (s_mask, mem) in enumerate(zip(target_masks, members)):
                first = min(int(pos[p]) for p in mem)
                prefix = prefixes[first]
                s = s_mask.bit_count()
                matrix[t_idx, idx] = fsum(
                    signed_by_parity(s - w.bit_count()) * game.value(w | prefix)
                    for w in iter_submasks(s_mask))

    workers = max(1, min(threads, m))
    step = -(-m // workers)
    chunks = [(lo, min(lo + step, m)) for lo in range(0, m, step)]
    if len(chunks) == 1:
        fill(chunks[0])
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, chunks))
    return matrix


def _resolve_targets(game: Game, k: int, targets) -> list[int]:
    n = game.n
    if targets is None:
        return list(masks_of_size(n, k))
    masks = []
    for t in targets:
        mask = as_mask(t, n)
        if mask.bit_count() != k:
            raise ValueError(
                f"target {ids_from_mask(mask)} has size {mask.bit_count()}, "
                f"but the order is k={k}")
        masks.append(mask)
    if not masks:
        raise ValueError("target list must not be empty")
    return masks


def _lower_order_values(game: Game, k: int, scope_mask: int) -> dict[PlayerSet, float]:
    """Exact derivative-at-empty values for every size < k set in scope."""
    n = game.n
    values: dict[PlayerSet, float] = {}
    scope = ids_from_mask(scope_mask)
    for j in range(1, k):
        for packed in masks_of_size(len(scope), j):
            s_mask = 0
            for b, player in enumerate(scope):
                if packed >> b & 1:
                    s_mask |= 1 << player
            s = j
            val = fsum(signed_by_parity(s - w.bit_count()) * game.value(w)
                       for w in iter_submasks(s_mask))
            values[PlayerSet(s_mask, n)] = val
    return values


def _estimate_range(game: Game, target_masks, seed: int) -> float:
    members = [ids_from_mask(t) for t in target_masks]
    seen = []
    for idx in range(_WARMUP_DRAWS):
        perm = sample_permutation(seed, idx, game.n, _WARMUP_STREAM)
        for s_mask, mem in zip(target_masks, members):
            seen.append(_ordering_derivative(game, s_mask, mem, perm))
    spread = max(seen) - min(seen)
    if spread == 0.0:
        raise ValueError(
            "warmup draws found a flat derivative range; "
            "pass an explicit range bound")
    return 2.0 * spread


def stv_sampled(game: Game, k: int, plan: SamplingPlan,
                threads: int = 1) -> IndexResult:
    """Sampled order-k Shapley-Taylor values per the plan.

    Size-k sets get the mean derivative over m seeded random orderings;
    sets below size k are ordering-independent and returned exactly.  When
    targets are restricted, the lower-order sweep covers just the players
    those targets mention.  Identical (plan, seed) input reproduces the
    result bit for bit.
    """
    n = game.n
    if not 1 <= k <= n:
        raise ValueError(f"order k must be in 1..{n}, got {k}")
    target_masks = _resolve_targets(game, k, plan.targets)

    range_bound = plan.range_bound
    range_source = "user" if range_bound is not None else None
    if plan.samples is not None:
        m = plan.samples
    else:
        if range_bound is None:
            range_bound = _estimate_range(game, target_masks, plan.seed)
            range_source = "warmup-estimate"
        m = required_samples(plan.epsilon, plan.delta, range_bound)

    scope = (1 << n) - 1
    if plan.targets is not None:
        scope = 0
        for t in target_masks:
            scope |= t
    values = _lower_order_values(game, k, scope)

    matrix = _draw_matrix(game, target_masks, m, plan.seed, threads)
    estimates = matrix.sum(axis=1) / m
    for s_mask, est in zip(target_masks, estimates):
        values[PlayerSet(s_mask, n)] = float(est)
    meta = {"mode": "sampled", "samples": m, "seed": plan.seed,
            "epsilon": plan.epsilon, "delta": plan.delta,
            "range": range_bound, "range_source": range_source}
    return IndexResult("stv", k, values, meta)


def stv_sampled_mom(game: Game, k: int, groups: int, per_group: int, seed: int,
                    targets=None, threads: int = 1) -> IndexResult:
    """Median-of-means variant: median over group means of permutation draws.

    groups must be odd so the median is an actual draw mean.  groups=1 is
    exactly `stv_sampled` with per_group samples.
    """
    if groups < 1 or groups % 2 == 0:
        raise ValueError(f"group count must be odd and >= 1, got {groups}")
    if per_group < 1:
        raise ValueError(f"per-group sample count must be >= 1, got {per_group}")
    n = game.n
    if not 1 <= k <= n:
        raise ValueError(f"order k must be in 1..{n}, got {k}")
    target_masks = _resolve_targets(game, k, targets)

    scope = (1 << n) - 1
    if targets is not None:
        scope = 0
        for t in target_masks:
            scope |= t
    values = _lower_order_values(game, k, scope)

    m = groups * per_group
    matrix = _draw_matrix(game, target_masks, m, seed, threads)
    group_means = matrix.reshape(len(target_masks), groups, per_group) \
                        .sum(axis=2) / per_group
    estimates = np.median(group_means, axis=1)
    for s_mask, est in zip(target_masks, estimates):
        values[PlayerSet(s_mask, n)] = float(est)
    meta = {"mode": "median-of-means", "groups": groups, "per_group": per_group,
            "samples": m, "seed": seed}
    return IndexResult("stv", k, values, meta)
