"""Shared test helpers: seeded game factories and independent mini-oracles."""

import itertools
from fractions import Fraction
from math import comb, factorial, fsum

import numpy as np

from interax import make_tabular
from interax.calculus import (_BLOCK, derivative_table, masks_of_size, mobius_dense,
                              weight_table, weighted_terms)
from interax.games import PlayerSet, ids_from_mask, popcounts


def random_tabular(rng, n, scale=1.0):
    """Dense game with iid normal values (empty set included)."""
    return make_tabular(n, scale * rng.normal(size=1 << n))


def random_mobius_terms(rng, n, count=40, max_size=6):
    """`count` distinct Mobius terms, each on 1..max_size random players
    with a standard normal coefficient, as {mask: coef}."""
    terms = {}
    while len(terms) < count:
        members = rng.choice(n, int(rng.integers(1, max_size + 1)), replace=False)
        terms[sum(1 << int(p) for p in members)] = float(rng.normal())
    return terms


def fresh_permutation(seed, index, n, stream=0):
    """The index-th ordering of range(n) in the stream (seed, stream), from a
    fresh Philox generator with key [seed, stream] and counter [0, index, 0, 0].

    Reference for the sampler, which shares one generator across a block.
    """
    mask64 = (1 << 64) - 1
    key = np.array([seed & mask64, stream & mask64], dtype=np.uint64)
    counter = np.array([0, index & mask64, 0, 0], dtype=np.uint64)
    gen = np.random.Generator(np.random.Philox(counter=counter, key=key))
    return gen.permutation(n)


def prefix_before(perm, s_mask):
    """The players of the ordering that precede every member of s_mask."""
    prefix = 0
    for player in perm.tolist():
        if s_mask >> player & 1:
            return prefix
        prefix |= 1 << player


def derivative_recursive(game, s_mask, t_mask):
    """Discrete derivative by the recursive marginal definition.

    Independent of the library's alternating-sum path: peels one player
    at a time, d_S v(T) = d_{S-i} v(T+i) - d_{S-i} v(T).
    """
    if s_mask == 0:
        return game.value(t_mask)
    low = s_mask & -s_mask
    rest = s_mask ^ low
    return (derivative_recursive(game, rest, t_mask | low)
            - derivative_recursive(game, rest, t_mask))


def shapley_by_orderings(game):
    """Shapley values by literal averaging of marginals over all orderings."""
    n = game.n
    totals = [0.0] * n
    for perm in itertools.permutations(range(n)):
        mask = 0
        for player in perm:
            totals[player] += game.value(mask | (1 << player)) - game.value(mask)
            mask |= 1 << player
    count = factorial(n)
    return [t / count for t in totals]


def sii_exact_fractions(game, s_mask):
    """Interaction index in exact rational arithmetic (floats lifted exactly)."""
    n = game.n
    s = bin(s_mask).count("1")
    rest = [p for p in range(n) if not s_mask >> p & 1]
    total = Fraction(0)
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            t_mask = 0
            for p in combo:
                t_mask |= 1 << p
            weight = Fraction(factorial(n - r - s) * factorial(r),
                              factorial(n - s + 1))
            deriv = Fraction(0)
            for w_players in _submask_players(s_mask):
                sign = -1 if (s - len(w_players)) & 1 else 1
                w_mask = 0
                for p in w_players:
                    w_mask |= 1 << p
                deriv += sign * Fraction(game.value(w_mask | t_mask))
            total += weight * deriv
    return float(total)


def _submask_players(mask):
    players = ids_from_mask(mask)
    for r in range(len(players) + 1):
        yield from itertools.combinations(players, r)


def all_masks_of_size(n, size):
    out = []
    for combo in itertools.combinations(range(n), size):
        mask = 0
        for p in combo:
            mask |= 1 << p
        out.append(mask)
    return out


def _weighted_sweep(table, n, s_mask, weights):
    deriv = derivative_table(table, n, s_mask)
    return fsum((deriv * weights[popcounts(deriv.size)]).tolist())


def stv_by_sweeps(game, k):
    """Order-k Shapley-Taylor values, one derivative sweep per subset.

    Independent of the library's Mobius kernel: sizes below k take the
    recursive derivative at the empty set; each size-k subset S sums its
    derivative table against the complement-size weights k / (n C(n-1, t))
    with math.fsum.  Returns {mask: value}.
    """
    n = game.n
    table = game.dense_table()
    weights = np.array([k / (n * comb(n - 1, t)) for t in range(n - k + 1)])
    out = {m: derivative_recursive(game, m, 0)
           for j in range(1, k) for m in all_masks_of_size(n, j)}
    for m in all_masks_of_size(n, k):
        out[m] = _weighted_sweep(table, n, m, weights)
    return out


def sii_by_sweep(game, s_mask):
    """Interaction index of one subset by an fsum derivative sweep with
    factorial weights (t)! (n-t-s)! / (n-s+1)! over complement sizes t."""
    n = game.n
    s = bin(s_mask).count("1")
    weights = np.array([factorial(n - t - s) * factorial(t) / factorial(n - s + 1)
                        for t in range(n - s + 1)])
    return _weighted_sweep(game.dense_table(), n, s_mask, weights)


def sii_main_effects_by_sweeps(game):
    """Pairs by `sii_by_sweep`, singles as the swept Shapley value minus half
    of each pair holding the player.  Returns {mask: value}."""
    n = game.n
    phi = stv_by_sweeps(game, 1)
    out = {m: sii_by_sweep(game, m) for m in all_masks_of_size(n, 2)}
    for i in range(n):
        cross = fsum(v for m, v in sorted(out.items()) if m >> i & 1)
        out[1 << i] = phi[1 << i] - 0.5 * cross
    return out


def mobius_sums_fractions(terms, s_mask, weight):
    """Sum over the terms T containing S of weight(|T|) * a(T), in exact
    rationals.  `terms` maps masks to float Mobius coefficients."""
    return float(sum(weight(bin(t).count("1")) * Fraction(c)
                     for t, c in terms.items() if t & s_mask == s_mask))


def multilinear_eval_probability_form(game, point):
    """f(x) straight from the definition: expectation over random subsets.

    Sums v(S) prod_{i in S} x_i prod_{i not in S} (1 - x_i) over all S,
    independent of the library's Mobius route.
    """
    x = np.asarray(point, dtype=np.float64)
    table = game.dense_table()
    weights = np.ones(1, dtype=np.float64)
    for i in range(game.n):
        weights = np.concatenate([weights * (1.0 - x[i]), weights * x[i]])
    return fsum((table * weights).tolist())


def taylor_weight(k):
    """The order-k Taylor weight 1/C(|T|, k) of the superset sums."""
    return lambda t: Fraction(1, comb(t, k))


def interaction_weight(s):
    """The interaction weight 1/(|T| - s + 1) of a size-s set's superset sums."""
    return lambda t: Fraction(1, t - s + 1)


def superset_sums_full_butterfly(game, size, weight):
    """`calculus.superset_sums` by the full compensated butterfly: all n
    levels over all 2^n entries, then the size-`size` entries read out.

    Reference for the library's pruned, chunked pass, which must equal it
    bit for bit, key order included.
    """
    n = game.n
    high, low = weighted_terms(mobius_dense(game), popcounts(1 << n),
                               weight_table(weight, size, n))
    for i in range(n):
        half = 1 << i
        rows, cols = max(1, _BLOCK // half), min(half, _BLOCK)
        hv, lv = high.reshape(-1, 2, half), low.reshape(-1, 2, half)
        for r in range(0, hv.shape[0], rows):
            for c in range(0, half, cols):
                x, y = hv[r:r + rows, :, c:c + cols].swapaxes(0, 1)
                lx, ly = lv[r:r + rows, :, c:c + cols].swapaxes(0, 1)
                s = x + y  # Knuth's two-sum: the rounding error goes to low
                z = s - x
                err = x - (s - z)
                err += y - z
                x[...] = s
                lx += ly
                lx += err
    masks = list(masks_of_size(n, size))
    sums = (high[masks] + low[masks]).tolist()
    return {PlayerSet(m, n): v for m, v in zip(masks, sums)}
