"""Multilinear extension of a game and its Taylor/remainder identities.

The multilinear extension f is the unique multilinear polynomial agreeing
with the game on the hypercube corners; f(x) is the expected game value
when player i joins independently with probability x_i.  Along the
diagonal x = (t, ..., t), the order-j Taylor terms of f at 0 reproduce the
size-j Shapley-Taylor values (j < k), and the size-k values are the
Lagrange remainder integrals

    integral_0^1 k (1-t)^(k-1) D_S f(t, ..., t) dt.

The remainder is computed two independent ways: analytically, as the
kernel's single-set sum `superset_sum` with the exact Beta weights
1 / C(|T|, k) of `stv_exact`, whose float it equals, and by Gauss-Legendre
quadrature of the diagonal mixed partial on ceil(n/2) nodes, exact up to
rounding for the degree n - 1 integrand.  The quadrature path exists purely
as an oracle for the analytic one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from math import fsum

import numpy as np

from .calculus import masks_of_size, mobius_below, mobius_dense, superset_sum, superset_view
from .games import Game, PlayerSet, as_mask, popcounts
from .indices import stv_exact, taylor_weight

TAYLOR_LIMIT = 20


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
    return float(np.polyval(diagonal_partial_poly(game, subset)[::-1], t))


@cache
def _gauss_legendre(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the count-node Gauss-Legendre rule on [0, 1]."""
    from numpy.polynomial.legendre import leggauss  # kept off the CLI's import path
    nodes, weights = leggauss(count)
    return 0.5 * (nodes + 1.0), 0.5 * weights


def lagrange_remainder_term(game: Game, subset, k: int,
                            mode: str = "analytic") -> float:
    """The size-k remainder integral for one subset, |subset| = k.

    mode="analytic" is the `superset_sum` of a(T) / C(|T|, k), the exact
    Beta weights: the subset's `stv_exact` float.  mode="quadrature"
    integrates the degree n - 1 diagonal integrand exactly by
    Gauss-Legendre on ceil(n/2) nodes.  Both equal the subset's order-k
    Shapley-Taylor value.
    """
    _check_mode(mode)
    s_mask = as_mask(subset, game.n)
    if s_mask.bit_count() != k:
        raise ValueError(
            f"remainder term needs |subset| = k; got size {s_mask.bit_count()} "
            f"with k={k}")
    if mode == "analytic":
        return superset_sum(game, s_mask, taylor_weight(k))
    poly = diagonal_partial_poly(game, s_mask)
    t, w = _gauss_legendre((game.n + 1) // 2)
    return float((w * k * (1.0 - t) ** (k - 1))
                 @ np.vander(t, len(poly), increasing=True) @ poly)


def _check_mode(mode: str) -> None:
    if mode not in ("analytic", "quadrature"):
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
    polynomial per size-k set by Gauss-Legendre and needs n <= 20; the
    analytic mode has the limits of `stv_exact`.
    """
    _check_mode(remainder_mode)
    n = game.n
    if remainder_mode != "analytic" and n > TAYLOR_LIMIT:
        raise ValueError(f"quadrature identity check needs n <= {TAYLOR_LIMIT}, got n={n}")
    if not 1 <= k <= n:
        raise ValueError(f"order k must be in 1..{n}, got {k}")
    lhs = game.span()
    if remainder_mode == "analytic":
        values = stv_exact(game, k).values
    else:
        values = mobius_below(game, k)
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
