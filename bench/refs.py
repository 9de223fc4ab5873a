"""Reference values the benchmark owns, computed without calling interax.

Exact references work on Mobius coefficients (the coordinates of a game in
the unanimity basis) with Fraction arithmetic:

* Shapley-Taylor of order k: a set S with |S| < k gets a(S); a set with
  |S| = k gets the sum over T containing S of a(T) / C(|T|, k).
* Shapley interaction index: the sum over T containing S of
  a(T) / (|T| - |S| + 1).

Sparse games (a dict mask -> coefficient) use these sums directly.  The
majority game is symmetric, so its coefficients depend only on the set
size and the sums collapse to sums over sizes.  Dense random tables have
no closed form; they get a numpy derivative sweep written here, which is
well conditioned, plus the efficiency residual.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import numpy as np


def ids(mask: int) -> tuple[int, ...]:
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def mask_of(players) -> int:
    out = 0
    for p in players:
        out |= 1 << int(p)
    return out


def all_sets(n: int, sizes) -> list[int]:
    return [mask_of(c) for s in sizes for c in combinations(range(n), s)]


# ---------------------------------------------------------------------------
# Sparse Mobius games
# ---------------------------------------------------------------------------

def sparse_value(ordered, mask: int) -> float:
    """v(S) of a sparse game, summed in ascending term order.

    This is the evaluation order the protocol child uses, so a game built
    from the same terms by the library answers with identical floats.
    """
    return float(sum(c for t, c in ordered if t & ~mask == 0))


def sparse_sti(terms: dict[int, float], k: int, sets) -> dict[int, Fraction]:
    """Order-k Shapley-Taylor values of the given sets (sizes 1..k)."""
    out = {s: Fraction(0) for s in sets}
    for t, c in terms.items():
        size = t.bit_count()
        if size == 0:
            continue
        if size < k:
            if t in out:
                out[t] += Fraction(c)
            continue
        share = Fraction(c) / comb(size, k)
        for sub in combinations(ids(t), k):
            m = mask_of(sub)
            if m in out:
                out[m] += share
    return out


def sparse_sii(terms: dict[int, float], k: int, sets) -> dict[int, Fraction]:
    """Shapley interaction indices of the given sets (sizes 1..k)."""
    out = {s: Fraction(0) for s in sets}
    for t, c in terms.items():
        members = ids(t)
        for s in range(1, min(k, len(members)) + 1):
            share = Fraction(c) / (len(members) - s + 1)
            for sub in combinations(members, s):
                m = mask_of(sub)
                if m in out:
                    out[m] += share
    return out


def sparse_span(terms: dict[int, float]) -> Fraction:
    """v(N) - v(0): every coefficient except the empty set's."""
    return sum((Fraction(c) for t, c in terms.items() if t), Fraction(0))


def sparse_abs_mass(terms: dict[int, float]) -> float:
    """Sum of |a(T)|: bounds every discrete derivative of the game."""
    return float(sum(abs(c) for c in terms.values()))


def restrict_terms(terms: dict[int, float], keep: tuple[int, ...]) -> dict[int, float]:
    """Coefficients of the induced game on `keep` with absent outsiders.

    Terms inside `keep` survive, renumbered to the kept players' ranks.
    """
    keep_mask = mask_of(keep)
    rank = {p: j for j, p in enumerate(keep)}
    return {mask_of(rank[p] for p in ids(t)): c
            for t, c in terms.items() if t & ~keep_mask == 0}


def zeta_dense(terms: dict[int, float], n: int) -> np.ndarray:
    """Dense 2^n value table of a sparse game (subset-sum transform)."""
    out = np.zeros(1 << n, dtype=np.float64)
    for t, c in terms.items():
        out[t] = c
    for i in range(n):
        view = out.reshape(-1, 2, 1 << i)
        view[:, 1, :] += view[:, 0, :]
    return out


# ---------------------------------------------------------------------------
# Majority closed forms (a unanimity game is the single term {T: 1})
# ---------------------------------------------------------------------------

def majority_mobius_by_size(n: int) -> list[int]:
    """a_j of the majority game, which depends only on |T| = j."""
    v = [1 if 2 * i >= n else 0 for i in range(n + 1)]
    return [sum((-1) ** (j - i) * comb(j, i) * v[i] for i in range(j + 1))
            for j in range(n + 1)]


def majority_sti(n: int, k: int) -> dict[int, Fraction]:
    """Order-k Shapley-Taylor value of one majority set, by its size."""
    a = majority_mobius_by_size(n)
    out = {s: Fraction(a[s]) for s in range(1, k)}
    out[k] = sum((Fraction(comb(n - k, j - k) * a[j], comb(j, k))
                  for j in range(k, n + 1)), Fraction(0))
    return out


def majority_sii(n: int, size: int) -> Fraction:
    """Shapley interaction index of one majority set of the given size."""
    a = majority_mobius_by_size(n)
    return sum((Fraction(comb(n - size, j - size) * a[j], j - size + 1)
                for j in range(size, n + 1)), Fraction(0))


def majority_closed_form(n: int, k: int, size: int) -> Fraction:
    """Symmetry plus efficiency: 0 below size k, 1/C(n, k) at size k.

    Holds while every set smaller than k loses (2(k-1) < n).
    """
    return Fraction(1, comb(n, k)) if size == k else Fraction(0)


# ---------------------------------------------------------------------------
# Dense tables (random tabular games)
# ---------------------------------------------------------------------------

def _derivative(table: np.ndarray, n: int, s_mask: int) -> np.ndarray:
    """d_S v(T) for every T outside S, as a flat array (axis 0 = top player)."""
    cube = table.reshape((2,) * n)
    # player p sits on axis n-1-p; taking players in ascending order removes
    # axes from the back, so the axes of the players still to come stay put
    for p in ids(s_mask):
        axis = n - 1 - p
        cube = np.take(cube, 1, axis=axis) - np.take(cube, 0, axis=axis)
    return cube.reshape(-1)


def dense_sti(table: np.ndarray, n: int, k: int, sets) -> dict[int, float]:
    """Order-k Shapley-Taylor values of a dense game, by a numpy sweep."""
    sizes = np.bitwise_count(np.arange(1 << (n - k), dtype=np.uint64)).astype(np.int64)
    weights = np.array([k / (n * comb(n - 1, t)) for t in range(n - k + 1)])
    wk = weights[sizes]
    out = {}
    for s in sets:
        deriv = _derivative(table, n, s)
        out[s] = float(deriv[0]) if s.bit_count() < k else float(np.dot(deriv, wk))
    return out


def dense_sii(table: np.ndarray, n: int, sets) -> dict[int, float]:
    """Shapley interaction indices of a dense game, by a numpy sweep."""
    out = {}
    cache = {}
    for s in sets:
        size = s.bit_count()
        if size not in cache:
            sizes = np.bitwise_count(
                np.arange(1 << (n - size), dtype=np.uint64)).astype(np.int64)
            w = np.array([factorial(n - t - size) * factorial(t) / factorial(n - size + 1)
                          for t in range(n - size + 1)])
            cache[size] = w[sizes]
        out[s] = float(np.dot(_derivative(table, n, s), cache[size]))
    return out


def main_effects(sii_pairs: dict, shapley: dict, n: int) -> dict:
    """The main-effects convention: pairs as they are, each single the
    player's Shapley value minus half of its pairs."""
    out = dict(sii_pairs)
    for i in range(n):
        out[1 << i] = shapley[1 << i] - sum(v for m, v in sii_pairs.items() if m >> i & 1) / 2
    return out


def sparse_main_effects(terms: dict[int, float], n: int) -> dict[int, Fraction]:
    return main_effects(sparse_sii(terms, 2, all_sets(n, (2,))),
                        sparse_sti(terms, 1, all_sets(n, (1,))), n)


def dense_main_effects(table: np.ndarray, n: int) -> dict[int, float]:
    return main_effects(dense_sii(table, n, all_sets(n, (2,))),
                        dense_sti(table, n, 1, all_sets(n, (1,))), n)


# ---------------------------------------------------------------------------
# Tolerances
# ---------------------------------------------------------------------------

EXACT_TOL = 1e-9


def exact_tol(scale: float) -> float:
    """Tolerance for an exact route: 1e-9 relative to the game's scale."""
    return EXACT_TOL * max(1.0, abs(scale))


def sampled_tol(range_bound: float, samples: int, delta: float = 1e-12) -> float:
    """Hoeffding deviation of a mean of `samples` draws in [-r, r].

    At delta = 1e-12 per value a correct sampler essentially never exceeds
    it, while a wrong estimator (or reference) does.
    """
    return range_bound * math.sqrt(2.0 * math.log(2.0 / delta) / samples)
