"""Multilinear extension of a game and its Taylor/remainder identities.

The multilinear extension f is the unique multilinear polynomial agreeing
with the game on the hypercube corners; f(x) is the expected game value
when player i joins independently with probability x_i.  Along the
diagonal x = (t, ..., t), the order-j Taylor terms of f at 0 reproduce the
size-j Shapley-Taylor values (j < k), and the size-k values are the
Lagrange remainder integrals

    integral_0^1 k (1-t)^(k-1) D_S f(t, ..., t) dt.

The remainder is computed two independent ways: analytically, with exact
integer Beta weights 1 / C(w+k, k), as the kernel's single-set sum
`superset_sum`, and by adaptive Simpson quadrature of the diagonal mixed
partial.  The quadrature path exists purely as an oracle for the analytic
one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, fsum

import numpy as np

from .calculus import masks_of_size, mobius_dense, superset_sum, superset_view
from .games import Game, PlayerSet, as_mask, popcounts
from .indices import _mobius_values, stv_exact

TAYLOR_LIMIT = 20
_QUAD_TOL = 1e-9


def multilinear_eval(game: Game, point) -> float:
    """f(x) for componentwise x in [0, 1], via the Mobius form.

    f(x) is the coefficient-weighted sum of monomials prod_{i in T} x_i;
    at a binary corner it reproduces the game value.
    """
    x = np.asarray(point, dtype=np.float64)
    if x.shape != (game.n,):
        raise ValueError(f"point must have {game.n} coordinates, got shape {x.shape}")
    if np.any(x < 0.0) or np.any(x > 1.0):
        raise ValueError("coordinates must lie in [0, 1]")
    coefs = mobius_dense(game)
    monomials = np.ones(1, dtype=np.float64)
    for i in range(game.n):
        monomials = np.concatenate([monomials, monomials * x[i]])
    products = coefs * monomials
    if game.n <= 16:
        return fsum(products.tolist())
    return float(np.sum(products))


def diagonal_partial_poly(game: Game, subset) -> np.ndarray:
    """Coefficients c[w] with D_S f(t,...,t) = sum_w c[w] t^w.

    c[w] is the math.fsum of the Mobius coefficients of the supersets of S
    that add w extra players.  Cached per (game, subset).
    """
    s_mask = as_mask(subset, game.n)
    key = ("diagonal-poly", s_mask)
    cached = game.derived.get(key)
    if cached is not None:
        return cached
    supersets = superset_view(game, s_mask)
    extra = popcounts(supersets.size)
    poly = np.array([fsum(supersets[extra == w].tolist())
                     for w in range(game.n - s_mask.bit_count() + 1)])
    poly.setflags(write=False)
    return game.derived.setdefault(key, poly)


def mixed_partial_diagonal(game: Game, subset, t: float) -> float:
    """The mixed partial of f over `subset`, evaluated on the diagonal at t."""
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"diagonal coordinate must be in [0, 1], got {t}")
    return _horner(diagonal_partial_poly(game, subset), t)


def _horner(poly: np.ndarray, t: float) -> float:
    acc = 0.0
    for c in poly[::-1]:
        acc = acc * t + float(c)
    return acc


def adaptive_simpson(fn, a: float, b: float, tol: float,
                     max_depth: int = 40) -> float:
    """Adaptive Simpson quadrature with Richardson correction."""
    fa, fb = fn(a), fn(b)
    mid = 0.5 * (a + b)
    fm = fn(mid)
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)

    def recurse(a, fa, b, fb, mid, fm, whole, tol, depth):
        lm = 0.5 * (a + mid)
        rm = 0.5 * (mid + b)
        flm, frm = fn(lm), fn(rm)
        left = (mid - a) / 6.0 * (fa + 4.0 * flm + fm)
        right = (b - mid) / 6.0 * (fm + 4.0 * frm + fb)
        delta = left + right - whole
        if depth <= 0 or abs(delta) <= 15.0 * tol:
            return left + right + delta / 15.0
        return (recurse(a, fa, mid, fm, lm, flm, left, 0.5 * tol, depth - 1)
                + recurse(mid, fm, b, fb, rm, frm, right, 0.5 * tol, depth - 1))

    return recurse(a, fa, b, fb, mid, fm, whole, tol, max_depth)


def lagrange_remainder_term(game: Game, subset, k: int,
                            mode: str = "analytic") -> float:
    """The size-k remainder integral for one subset, |subset| = k.

    mode="analytic" is the `superset_sum` of a(T) / C(|T|, k), the exact
    Beta weights, to about the last unit; mode="quadrature" integrates the
    diagonal mixed partial numerically.  Both equal the subset's order-k
    Shapley-Taylor value.
    """
    s_mask = as_mask(subset, game.n)
    if s_mask.bit_count() != k:
        raise ValueError(
            f"remainder term needs |subset| = k; got size {s_mask.bit_count()} "
            f"with k={k}")
    if mode == "analytic":
        return superset_sum(game, s_mask, lambda t: Fraction(1, comb(t, k)))
    if mode == "quadrature":
        poly = diagonal_partial_poly(game, s_mask)
        return adaptive_simpson(lambda t: k * (1.0 - t) ** (k - 1) * _horner(poly, t),
                                0.0, 1.0, _QUAD_TOL)
    raise ValueError(f"mode must be 'analytic' or 'quadrature', got {mode!r}")


@dataclass
class TaylorReport:
    """Outcome of the truncated-expansion identity check."""

    k: int
    lhs: float                 # v(N) - v(0)
    lower_order_total: float   # sum of diagonal partials at 0, sizes < k
    remainder_total: float     # sum of remainder terms, size k
    rhs: float
    abs_error: float
    tolerance: float
    remainder_mode: str
    passed: bool


def taylor_identity_check(game: Game, k: int,
                          remainder_mode: str = "analytic") -> TaylorReport:
    """Check v(N) - v(0) against the order-(k-1) expansion plus remainder.

    The left side is evaluated directly on the game; the right side sums
    diagonal mixed partials at 0 for sizes below k and remainder terms for
    size k, both read from `stv_exact` in the analytic mode.  Passes when
    the two agree to 1e-7 relative.  The quadrature mode integrates one
    polynomial per size-k set and needs n <= 20; the analytic mode has
    the limits of `stv_exact`.
    """
    n = game.n
    if remainder_mode != "analytic" and n > TAYLOR_LIMIT:
        raise ValueError(f"quadrature identity check needs n <= {TAYLOR_LIMIT}, got n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"order k must be in 1..{n}, got {k}")
    lhs = game.span()
    if remainder_mode == "analytic":
        values = stv_exact(game, k).values
    else:
        values = _mobius_values(game, range(1, k))
        values.update((PlayerSet(m, n), lagrange_remainder_term(game, m, k, remainder_mode))
                      for m in masks_of_size(n, k))
    lower_terms = [v for pset, v in values.items() if pset.size < k]
    remainder_terms = [v for pset, v in values.items() if pset.size == k]
    lower_total = fsum(lower_terms)
    remainder_total = fsum(remainder_terms)
    rhs = fsum(lower_terms + remainder_terms)
    tolerance = 1e-7 * max(1.0, abs(lhs))
    abs_error = abs(lhs - rhs)
    return TaylorReport(k, lhs, lower_total, remainder_total, rhs,
                        abs_error, tolerance, remainder_mode,
                        abs_error <= tolerance)
