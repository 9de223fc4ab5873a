"""Set-function calculus: discrete derivatives and the Mobius transform.

The discrete derivative of v with respect to a set S, evaluated at a
disjoint set T, is the alternating sum over W subseteq S of v(W | T),
signed by the parity of |S| - |W|.  The Mobius coefficients a(T) are the
coordinates of v in the unanimity basis; a(T) equals the derivative with
respect to T at the empty set.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import fsum, lcm

import numpy as np

from .games import (DENSE_LIMIT, Game, PlayerSet, as_mask, ids_from_mask, popcounts,
                    spread_bits)


def iter_submasks(mask: int):
    """All submasks of `mask` in ascending numeric order (includes 0 and mask)."""
    sub = 0
    while True:
        yield sub
        if sub == mask:
            return
        sub = (sub - mask) & mask


def masks_of_size(n: int, size: int):
    """All n-bit masks with `size` set bits, ascending (Gosper's hack)."""
    if size == 0:
        yield 0
        return
    if size > n:
        return
    mask = (1 << size) - 1
    limit = 1 << n
    while mask < limit:
        yield mask
        low = mask & -mask
        ripple = mask + low
        mask = ripple | ((mask ^ ripple) >> (low.bit_length() + 1))


def discrete_derivative(game: Game, diff_set, at) -> float:
    """Derivative of the game with respect to diff_set, evaluated at `at`.

    The two sets must be disjoint.  diff_set of size 1 is the plain
    marginal v(T | i) - v(T); the empty diff_set returns v(T) itself.
    """
    s_mask = as_mask(diff_set, game.n)
    t_mask = as_mask(at, game.n)
    if s_mask & t_mask:
        raise ValueError(
            f"differentiation set {ids_from_mask(s_mask)} overlaps "
            f"evaluation point {ids_from_mask(t_mask)}")
    if s_mask.bit_count() > DENSE_LIMIT:
        raise ValueError(
            f"derivative order {s_mask.bit_count()} exceeds the {DENSE_LIMIT} guard")
    return float(derivative(game, s_mask, t_mask))


def derivative(game: Game, s_masks, t_masks) -> np.ndarray:
    """`discrete_derivative` on arrays of bitmasks, without the checks.

    s_masks (all of one size k) and t_masks broadcast together.  Each pair
    takes one `values` batch of the 2^k sets W | T, W a submask of S, and
    differences it one member of S at a time, smallest first: a fixed
    sequence of float operations, so a derivative is the same float in
    any batch.
    """
    s_masks, t_masks = np.broadcast_arrays(np.asarray(s_masks, dtype=np.uint64),
                                           np.asarray(t_masks, dtype=np.uint64))
    sizes = np.bitwise_count(s_masks)
    if sizes.size and (sizes != sizes.flat[0]).any():
        raise ValueError("derivative sets must all have the same size")
    subs, rest = np.zeros(s_masks.shape + (1,), dtype=np.uint64), s_masks
    for _ in range(int(sizes.flat[0]) if sizes.size else 0):
        low = rest & (~rest + np.uint64(1))  # the smallest member left
        rest = rest ^ low
        subs = np.concatenate([subs, subs | low[..., None]], axis=-1)
    vals = game.values(subs | t_masks[..., None])
    while vals.shape[-1] > 1:
        vals = vals[..., 1::2] - vals[..., 0::2]
    return vals[..., 0]


def ordering_prefixes(perms: np.ndarray, s_masks) -> np.ndarray:
    """Entry [i, j]: the players that ordering i places before all of set j.

    perms stacks orderings of range(n) as rows; s_masks are nonempty sets
    of one size.
    """
    bits = np.uint64(1) << perms.astype(np.uint64)
    before = np.empty_like(bits)  # before[i, p]: the players ahead of p
    np.put_along_axis(before, perms, np.cumsum(bits, axis=1) - bits, axis=1)
    # prefixes are nested, so the earliest member's is the smallest mask
    rest = np.asarray(s_masks, dtype=np.uint64)
    prefixes = None
    for _ in range(int(rest[0]).bit_count()):
        low = rest & (~rest + np.uint64(1))  # the smallest member left
        rest = rest ^ low
        column = before[:, np.bitwise_count(low - np.uint64(1))]
        prefixes = column if prefixes is None else np.minimum(prefixes, column,
                                                              out=prefixes)
    return prefixes


def derivative_table(table: np.ndarray, n: int, s_mask: int) -> np.ndarray:
    """Derivative with respect to s_mask at every point of the complement.

    `table` is the dense 2^n value array.  The result has one entry per
    subset of N minus S, indexed by the packed mask whose bit j stands for
    the j-th smallest remaining player.  Computed by successive axis
    differencing, so each entry costs O(1) amortized.
    """
    cube = table.reshape((2,) * n)
    axis_player = list(range(n - 1, -1, -1))  # axis 0 is the highest player bit
    for player in ids_from_mask(s_mask):
        axis = axis_player.index(player)
        cube = cube.take(1, axis=axis) - cube.take(0, axis=axis)
        axis_player.pop(axis)
    return cube.reshape(-1)


@dataclass
class MobiusExpansion:
    """Sparse coordinates of a game in the unanimity basis.

    `coefficients` maps bitmasks to reals; absent masks mean zero.  The
    empty set may carry a coefficient (a constant offset of the game).
    """

    n: int
    coefficients: dict[int, float] = field(default_factory=dict)

    def coefficient(self, subset) -> float:
        return self.coefficients.get(as_mask(subset, self.n), 0.0)

    def dense(self) -> np.ndarray:
        out = np.zeros(1 << self.n, dtype=np.float64)
        for mask, c in self.coefficients.items():
            out[mask] = c
        return out

    def reconstruct_value(self, subset) -> float:
        """v(S) rebuilt as the sum of coefficients over subsets of S."""
        mask = as_mask(subset, self.n)
        return fsum(c for t, c in sorted(self.coefficients.items())
                    if t & ~mask == 0)


def mobius_transform(game: Game) -> MobiusExpansion:
    """Mobius coefficients of a game: its known terms, else the in-place
    subset-sum transform, O(n 2^n) over the dense table and so gated at
    n <= 24.  Exact zeros are dropped from the sparse result.
    """
    terms = game.derived.get("mobius_terms")
    if terms is not None:
        return MobiusExpansion(game.n, {m: c for m, c in terms if c != 0.0})
    dense = mobius_dense(game)
    coefs = {int(mask): float(dense[mask]) for mask in np.flatnonzero(dense)}
    return MobiusExpansion(game.n, coefs)


def mobius_dense(game: Game) -> np.ndarray:
    """Dense 2^n array of Mobius coefficients (n <= 24), cached on the game."""
    cached = game.derived.get("mobius_dense")
    if cached is not None:
        return cached
    n = game.n
    terms = game.derived.get("mobius_terms")
    if terms is None:
        out = game.dense_table().copy()
        for i in range(n):
            view = out.reshape(-1, 2, 1 << i)
            view[:, 1, :] -= view[:, 0, :]
    elif n > DENSE_LIMIT:
        raise ValueError(f"dense Mobius table needs n <= {DENSE_LIMIT}, got n={n}")
    else:
        out = MobiusExpansion(n, dict(terms)).dense()
    out.setflags(write=False)
    return game.derived.setdefault("mobius_dense", out)


def mobius_below(game: Game, k: int, scope=None) -> dict[PlayerSet, float]:
    """a(S) for every nonempty S of fewer than k players from `scope`
    (ascending ids; all n unless given), by size, then by mask: recorded
    Mobius terms, else each set's derivative at the empty set from one
    evaluation per set.  Step r differences every set along its r-th
    smallest member in place, so a(S) is the same float as
    `derivative(game, S, 0)` and as S's `mobius_dense` entry.
    """
    width = game.n if scope is None else len(scope)
    masks = np.fromiter(itertools.chain.from_iterable(
        masks_of_size(width, j) for j in range(k)), np.uint64)  # the empty set first
    if width < game.n:
        masks = spread_bits(masks, scope)
    terms = game.derived.get("mobius_terms")
    if terms is not None:
        known = dict(terms)
        coefs = [known.get(m, 0.0) for m in masks.tolist()]
    else:
        coefs, rest, sorter = np.array(game.values(masks)), masks, np.argsort(masks)
        for _ in range(k - 1):
            low = rest & (~rest + np.uint64(1))  # each set's smallest member left
            rest = rest ^ low
            has = np.flatnonzero(low)
            # the right side is read before any entry of this step is written
            coefs[has] -= coefs[sorter[np.searchsorted(masks, masks[has] ^ low[has],
                                                       sorter=sorter)]]
        coefs = coefs.tolist()
    return {PlayerSet(m, game.n): c for m, c in zip(masks[1:].tolist(), coefs[1:])}


def superset_view(game: Game, subset) -> np.ndarray:
    """The Mobius coefficients a(T) of every superset T of S, as a flat array.

    Entry j holds a(S | T') where bit i of j stands for the i-th smallest
    player outside S, so popcounts(view.size) gives |T| - |S| per entry.
    """
    n = game.n
    s_mask = as_mask(subset, n)
    # axis 0 of the cube is the highest player; fixing S's axes at 1 leaves
    # the other players in order
    cube = mobius_dense(game).reshape((2,) * n)
    return cube[tuple(1 if s_mask >> p & 1 else slice(None)
                      for p in range(n - 1, -1, -1))].reshape(-1)


_SPLITTER = 134217729.0  # 2^27 + 1: Veltkamp's exact split of a float64
_BLOCK = 1 << 15  # elements per chunk, to keep the temporaries small


def _split(x):
    c = _SPLITTER * x
    high = c - (c - x)
    return high, x - high


@lru_cache(maxsize=256)
def weight_table(weight, size: int, n: int) -> np.ndarray:
    """Rows (float, its two halves, residue) of weight(t), t = 0..n, zero
    below `size`: `weighted_terms`' set-up, cached per weight object."""
    exact = [Fraction(weight(t)) if t >= size else Fraction(0) for t in range(n + 1)]
    w = np.array([float(x) for x in exact])
    table = np.stack([w, *_split(w), [float(x - Fraction(float(x))) for x in exact]])
    table.setflags(write=False)
    return table


def weighted_terms(coefs: np.ndarray, sizes: np.ndarray, table: np.ndarray) -> tuple:
    """A `weight_table`'s weights[sizes] * coefs as a pair (product, error),
    exact in sum to about twice the working precision.

    Each rational weight is a float plus its residue, and its product with
    the float is split exactly (Dekker's two-product): where large
    coefficients cancel, one rounding per term costs more than the sum.
    """
    w, wh, wl, w_rest = (row[sizes] for row in table)  # 1-D gathers: faster than 2-D
    product, (ah, al) = w * coefs, _split(coefs)
    return product, ((wh * ah - product) + wh * al + wl * ah) + wl * al + w_rest * coefs


def _pruned_levels(high, low, rows, first, stop, size):
    """Butterfly levels first..stop-1 of `_superset_pass` on a block of rows.

    Row r holds the entries whose bits below `first` form the pattern
    rows[r]; column c sets the bits from `first` on to c.  Each level adds
    the odd columns into the even ones by two-sum, keeps every even half
    and the odd half of the rows that can still gain a member: no later
    level changes an entry's low bits, so an entry whose low bits hold
    more than `size` members never reaches a size-`size` set.
    """
    for i in range(first, stop):
        x, y = high[:, 0::2], high[:, 1::2]
        lx, ly = low[:, 0::2], low[:, 1::2]
        s = x + y  # Knuth's two-sum: the rounding error goes to low
        z = s - x
        err = x - (s - z)
        err += y - z
        carry = lx + ly
        carry += err
        odd = np.bitwise_count(rows) < size
        if not odd.any():  # no row gains a member: skip three empty copies
            high, low = s, carry
            continue
        high, low = np.concatenate([s, y[odd]]), np.concatenate([carry, ly[odd]])
        rows = np.concatenate([rows, rows[odd] | 1 << i])
    return high, low, rows


def _superset_pass(coefs: np.ndarray, size: int, table: np.ndarray) -> tuple:
    """Superset sums of 2^m coefficients with `weight_table` weights:
    (masks, sums) of the size-`size` entries, ascending.  The butterfly
    carries only the entries that can still reach a size-`size` set, about
    (size + 1) 2^m two-sums, one chunk of 2^15 coefficients at a time for
    its levels below bit 15.  No level writes an entry holding its bit, so
    an entry's sum depends only on its supersets, in a fixed order."""
    width = min(coefs.size, _BLOCK)
    bits, sizes = width.bit_length() - 1, popcounts(width)
    parts = []
    for start in range(0, coefs.size, width):  # levels below `bits` stay in a chunk
        ones = (start >> bits).bit_count()  # members among the chunk's fixed bits
        high, low = weighted_terms(coefs[start:start + width], sizes,
                                   table[:, ones:ones + bits + 1])
        high, low, rows = _pruned_levels(high[None], low[None], np.zeros(1, np.int64),
                                         0, bits, size)
        parts.append((high, low))
    # one column per chunk, whose index sets the bits from `bits` on; the
    # remaining levels run on blocks of rows to keep the temporaries small
    high, low = (np.hstack(part) for part in zip(*parts))
    step = max(1, _BLOCK // high.shape[1])
    blocks = [_pruned_levels(high[r:r + step], low[r:r + step], rows[r:r + step],
                             bits, coefs.size.bit_length() - 1, size)
              for r in range(0, len(rows), step)]
    high, low, rows = (np.concatenate(part) for part in zip(*blocks))
    keep = np.flatnonzero(np.bitwise_count(rows) == size)
    keep = keep[np.argsort(rows[keep])]
    return rows[keep].tolist(), (high[keep, 0] + low[keep, 0]).tolist()


def superset_sums(game: Game, size: int, weight) -> dict[PlayerSet, float]:
    """Sum over T containing S of weight(|T|) * a(T), for every S of `size`.

    `weight` maps a size to an exact rational such as a Fraction.  A game
    with known Mobius terms adds each term's weighted coefficient to its
    size-`size` subsets as integers over one common denominator, then
    divides once (int / int rounds correctly): each result is the exact
    sum, rounded.  Any other game takes `_superset_pass` over the cached
    Mobius coefficients, the mirror of `mobius_dense`, with exact products
    and compensated additions: each result is the sum of the float
    coefficients to about the last unit, even where large coefficients
    cancel.  The order of operations is fixed, so results are
    bit-reproducible.  Returns {PlayerSet: sum} in ascending mask order.
    """
    n = game.n
    terms = game.derived.get("mobius_terms")
    if terms is not None:
        weighted = [(t_mask, Fraction(weight(t_mask.bit_count())) * Fraction(coef))
                    for t_mask, coef in terms if t_mask.bit_count() >= size]
        den = lcm(*(w.denominator for _, w in weighted))
        exact = defaultdict(int)
        for t_mask, w in weighted:
            num = w.numerator * (den // w.denominator)
            members = [1 << i for i in ids_from_mask(t_mask)]
            for bits in itertools.combinations(members, size):
                exact[sum(bits)] += num
        return {PlayerSet(m, n): exact.get(m, 0) / den for m in masks_of_size(n, size)}
    masks, sums = _superset_pass(mobius_dense(game), size, weight_table(weight, size, n))
    return {PlayerSet(m, n): v for m, v in zip(masks, sums)}


def superset_sum(game: Game, subset, weight) -> float:
    """`superset_sums`' float for one set S, with the same weights.

    Known Mobius terms are summed in exact rationals and rounded once.
    Otherwise `_superset_pass` sums the 2^(n - |S|) gathered coefficients
    of S's supersets into their empty set: the same operations, in the
    same order, as S's entry of the whole-size pass.
    """
    s_mask = as_mask(subset, game.n)
    known = game.derived.get("mobius_terms")
    if known is not None:
        return float(sum(Fraction(weight(t.bit_count())) * Fraction(c)
                         for t, c in known if t & s_mask == s_mask))
    s = s_mask.bit_count()
    table = weight_table(weight, s, game.n)[:, s:]
    return _superset_pass(superset_view(game, s_mask), 0, table)[1][0]


def mobius_derivative_relation(game: Game, diff_set, at) -> tuple[float, float]:
    """Both sides of the coefficient/derivative identity, for checking.

    Left: the Mobius coefficient of the union of the two (disjoint) sets.
    Right: the alternating sum over W subseteq T of the S-derivative at W.
    The two agree up to roundoff; callers assert the gap.
    """
    s_mask = as_mask(diff_set, game.n)
    t_mask = as_mask(at, game.n)
    if s_mask & t_mask:
        raise ValueError("sets must be disjoint")
    union = s_mask | t_mask
    if union.bit_count() > DENSE_LIMIT:
        raise ValueError(f"combined order exceeds the {DENSE_LIMIT} guard")
    # a(S | T), read over its own players; a of the empty set is v(empty set)
    lhs = (mobius_below(game, union.bit_count() + 1, ids_from_mask(union))[
        PlayerSet(union, game.n)] if union else game.value(0))
    t = t_mask.bit_count()
    subs = list(iter_submasks(t_mask))
    rhs = fsum(-d if (t - w.bit_count()) & 1 else d
               for w, d in zip(subs, derivative(game, s_mask, subs).tolist()))
    return lhs, rhs
