"""Unbiased permutation sampling for order-k Shapley-Taylor values.

For a size-k target set, each sample draws a uniformly random player
ordering and takes the discrete derivative at the set of players
preceding all target members; the estimator is the mean over m draws.
Sets smaller than k do not depend on the ordering and get their Mobius
coefficients exactly, read as in `stv_exact`.  Works up to n = 64 and
never touches a dense table, so it is the route for external evaluators.

Permutations come from a counter-based generator (Philox, 64-bit keys):
the permutation for sample i is keyed by (seed, stream, i), and per-target
sums go through numpy's pairwise reduction, so a result is reproducible
bit for bit from its seed.  A block of orderings shares one generator,
reseated before draw i at counter [0, i, 0, 0] with nothing buffered, so
each ordering is the one a fresh generator at that counter would give;
an ordering of 64 players costs about 5 us this way, against about 18 us
for a fresh generator per draw (2-vCPU Xeon, numpy 2.4).  The draws of a
block of orderings reach the game as one batch of subsets.  The
sample-size rule m = ceil(2 ln(2/delta) r^2 / eps^2) gives the usual
Hoeffding guarantee for derivatives bounded by r in magnitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from operator import or_

import numpy as np

from .calculus import derivative, masks_of_size, mobius_below, ordering_prefixes
from .games import DENSE_LIMIT, Game, PlayerSet, as_mask, ids_from_mask
from .indices import IndexResult, require_result_size

_MASK64 = (1 << 64) - 1
_DRAW_BLOCK = 1 << 18  # game evaluations per block of draws
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
    in the result metadata.  At k = n an error budget needs one draw: the
    only size-k set is N, whose derivative is the same in every ordering.
    targets, when given, restricts estimation to those size-k sets.
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
    return _orderings(seed, index, index + 1, n, stream)[0]


def _orderings(seed: int, start: int, stop: int, n: int, stream: int) -> np.ndarray:
    """Row i - start: the i-th permutation of range(n) in the stream, for
    start <= i < stop.

    The block shares one Philox generator keyed by (seed, stream).  Before
    each draw the whole state is assigned back with the counter at
    [0, i, 0, 0] and nothing buffered, so row i is the shuffle a fresh
    Philox(counter=[0, i, 0, 0], key=[seed, stream]) would make.
    """
    bitgen = np.random.Philox(key=np.array([seed & _MASK64, stream & _MASK64],
                                           dtype=np.uint64))
    gen = np.random.Generator(bitgen)
    state = bitgen.state  # buffer_pos 4, has_uint32 0: no buffered output
    counter = state["state"]["counter"]
    perms = np.tile(np.arange(n), (stop - start, 1))
    for i, row in enumerate(perms, start):
        counter[1] = i & _MASK64
        bitgen.state = state
        gen.shuffle(row)
    return perms


def _draw_matrix(game: Game, target_masks, m: int, seed: int,
                 stream: int = _MAIN_STREAM) -> np.ndarray:
    """Per-target, per-sample derivative draws; column i uses stream (seed, i)."""
    targets = np.array(target_masks, dtype=np.uint64)
    matrix = np.empty((len(target_masks), m), dtype=np.float64)
    step = max(1, _DRAW_BLOCK // (len(target_masks) << target_masks[0].bit_count()))
    for start in range(0, m, step):
        stop = min(start + step, m)
        prefixes = ordering_prefixes(_orderings(seed, start, stop, game.n, stream), targets)
        matrix[:, start:stop] = derivative(game, targets[:, None], prefixes.T)
    return matrix


def _exact_part(game: Game, k: int, targets) -> tuple[list[int], dict[PlayerSet, float]]:
    """The size-k target masks, and the exact value of every smaller set.

    Sets below size k do not depend on the ordering: each gets its Mobius
    coefficient from `mobius_below`, over the players the targets mention
    when targets are given.  Before any work, refuses an order past the
    derivative guard, a result of more than 2^24 sets, and lower-order
    derivatives of more than 2^24 terms in all (2^j per size-j set).
    """
    n = game.n
    if not 1 <= k <= n:
        raise ValueError(f"order k must be in 1..{n}, got {k}")
    if k > DENSE_LIMIT:
        raise ValueError(f"derivative order {k} exceeds the {DENSE_LIMIT} guard")
    if targets is None:
        require_result_size("sampling", n, k)
        target_masks, scope = list(masks_of_size(n, k)), range(n)
    else:
        target_masks = [as_mask(t, n) for t in targets]
        if not target_masks:
            raise ValueError("target list must not be empty")
        for mask in target_masks:
            if mask.bit_count() != k:
                raise ValueError(
                    f"target {ids_from_mask(mask)} has size {mask.bit_count()}, "
                    f"but the order is k={k}")
        scope = ids_from_mask(reduce(or_, target_masks))
        require_result_size("sampling", n, k, len(target_masks), len(scope))
    evaluations = sum(math.comb(len(scope), j) << j for j in range(1, k))
    if evaluations > 1 << DENSE_LIMIT:
        raise ValueError(f"lower-order derivatives need {evaluations} evaluations, "
                         f"more than 2^{DENSE_LIMIT}")
    return target_masks, mobius_below(game, k, scope)


def _estimate_range(game: Game, target_masks, seed: int) -> float:
    warmup = _draw_matrix(game, target_masks, _WARMUP_DRAWS, seed, _WARMUP_STREAM)
    spread = float(warmup.max() - warmup.min())
    if spread == 0.0:
        raise ValueError(
            "warmup draws found a flat derivative range; "
            "pass an explicit range bound")
    return 2.0 * spread


def stv_sampled(game: Game, k: int, plan: SamplingPlan) -> IndexResult:
    """Sampled order-k Shapley-Taylor values per the plan.

    Size-k sets get the mean derivative over m seeded random orderings;
    sets below size k get their Mobius coefficients, as in `stv_exact`.
    When targets are restricted, the lower-order sets cover just the
    players those targets mention.  Identical (plan, seed) input
    reproduces the result bit for bit.
    """
    target_masks, values = _exact_part(game, k, plan.targets)
    range_bound = plan.range_bound
    range_source = "user" if range_bound is not None else None
    if plan.samples is not None:
        m = plan.samples
    elif k == game.n:
        # the one target is N: every ordering gives its derivative at the empty set
        m, range_source = 1, "exact"
    else:
        if range_bound is None:
            range_bound = _estimate_range(game, target_masks, plan.seed)
            range_source = "warmup-estimate"
        m = required_samples(plan.epsilon, plan.delta, range_bound)

    estimates = _draw_matrix(game, target_masks, m, plan.seed).sum(axis=1) / m
    for s_mask, est in zip(target_masks, estimates):
        values[PlayerSet(s_mask, game.n)] = float(est)
    meta = {"mode": "sampled", "samples": m, "seed": plan.seed,
            "epsilon": plan.epsilon, "delta": plan.delta,
            "range": range_bound, "range_source": range_source}
    return IndexResult("stv", k, values, meta)


def stv_sampled_mom(game: Game, k: int, groups: int, per_group: int, seed: int,
                    targets=None) -> IndexResult:
    """Median-of-means variant: median over group means of permutation draws.

    groups must be odd so the median is an actual draw mean.  groups=1 is
    exactly `stv_sampled` with per_group samples.
    """
    if groups < 1 or groups % 2 == 0:
        raise ValueError(f"group count must be odd and >= 1, got {groups}")
    if per_group < 1:
        raise ValueError(f"per-group sample count must be >= 1, got {per_group}")
    target_masks, values = _exact_part(game, k, targets)
    m = groups * per_group
    matrix = _draw_matrix(game, target_masks, m, seed)
    group_means = matrix.reshape(len(target_masks), groups, per_group) \
                        .sum(axis=2) / per_group
    estimates = np.median(group_means, axis=1)
    for s_mask, est in zip(target_masks, estimates):
        values[PlayerSet(s_mask, game.n)] = float(est)
    meta = {"mode": "median-of-means", "groups": groups, "per_group": per_group,
            "samples": m, "seed": seed}
    return IndexResult("stv", k, values, meta)
