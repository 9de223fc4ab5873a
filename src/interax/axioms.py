"""Executable checks of the five attribution axioms around a given game.

Each check builds whatever companion games it needs (seeded, so runs are
reproducible), computes the relevant indices, and reports the worst
deviation it saw.  These are the machine-checkable forms of linearity,
dummy, symmetry, efficiency, and interaction distribution for the
order-k Taylor values.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .games import (DENSE_LIMIT, Game, PlayerSet, combine, make_interaction, make_tabular,
                    relabel)
from .indices import IndexResult, efficiency_residual, stv_exact

LINEARITY_TOL = 1e-9
DUMMY_TOL = 1e-9
SYMMETRY_TOL = 1e-10
EFFICIENCY_TOL = 1e-9


@dataclass
class AxiomCheck:
    name: str
    passed: bool
    worst_error: float
    detail: str


def _scaled(tol: float, *magnitudes: float) -> float:
    return tol * max(1.0, *(abs(m) for m in magnitudes))


def check_linearity(game: Game, left: IndexResult, seed: int) -> AxiomCheck:
    """Index of alpha*v + beta*w must equal the same combination of indices."""
    rng = np.random.default_rng(seed)
    n, k = game.n, left.k
    other = make_tabular(n, rng.normal(size=1 << n))
    alpha, beta = 0.75, -1.25
    combined = stv_exact(combine(alpha, game, beta, other), k)
    right = stv_exact(other, k)
    worst = 0.0
    scale = 1.0
    for key, val in combined.values.items():
        expect = alpha * left.values[key] + beta * right.values[key]
        worst = max(worst, abs(val - expect))
        scale = max(scale, abs(expect))
    tol = _scaled(LINEARITY_TOL, scale)
    return AxiomCheck("linearity", worst <= tol, worst,
                      f"worst componentwise gap {worst:.3e} (tol {tol:.1e})")


def check_dummy(game: Game, k: int, seed: int) -> AxiomCheck:
    """An added purely-additive player gets its own value and kills its sets.

    Extends the game with one fresh player contributing a constant c
    whenever present (the base game is shifted so its empty value is
    zero, which is what makes the new player additive).  The singleton
    value must be c and every larger set containing the player must
    vanish.
    """
    rng = np.random.default_rng(seed)
    n = game.n + 1
    c = float(rng.normal()) or 1.0
    base_empty = game.value(0)
    new_bit = np.uint64(1 << (n - 1))

    def values(masks: np.ndarray) -> np.ndarray:
        inner = game.values(masks & (new_bit - np.uint64(1))) - base_empty
        return inner + np.where(masks & new_bit, c, 0.0)

    extended = Game(n, values, "dummy-extended")
    result = stv_exact(extended, k)
    span = abs(extended.span())
    worst_single = abs(result.values[PlayerSet(1 << (n - 1), n)] - c)
    worst_zero = 0.0
    for pset, val in result.values.items():
        if pset.size >= 2 and pset.contains(n - 1):
            worst_zero = max(worst_zero, abs(val))
    tol = _scaled(DUMMY_TOL, c, span)
    worst = max(worst_single, worst_zero)
    return AxiomCheck("dummy", worst <= tol, worst,
                      f"singleton gap {worst_single:.3e}, "
                      f"containing-set residue {worst_zero:.3e} (tol {tol:.1e})")


def check_symmetry(game: Game, original: IndexResult, seed: int) -> AxiomCheck:
    """Relabeling the players must relabel the values and nothing else."""
    rng = np.random.default_rng(seed)
    n = game.n
    perm = [int(p) for p in rng.permutation(n)]
    relabeled = stv_exact(relabel(game, perm), original.k)
    worst = 0.0
    for pset, val in original.values.items():
        image = 0
        for i in pset.members():
            image |= 1 << perm[i]
        worst = max(worst, abs(relabeled.values[PlayerSet(image, n)] - val))
    return AxiomCheck("symmetry", worst <= SYMMETRY_TOL, worst,
                      f"worst relabeled gap {worst:.3e} (tol {SYMMETRY_TOL:.1e})")


def check_efficiency(game: Game, result: IndexResult) -> AxiomCheck:
    """All values of the game's index must account for v(N) - v(0)."""
    residual = abs(efficiency_residual(result, game))
    tol = _scaled(EFFICIENCY_TOL, game.span())
    return AxiomCheck("efficiency", residual <= tol, residual,
                      f"residual {residual:.3e} (tol {tol:.1e})")


def check_interaction_distribution(n: int, k: int) -> AxiomCheck:
    """Pure crosses leak nothing to their proper subsets below size k.

    For interaction games of every order above 1 (on this player count),
    each proper subset of the cross with size < k must get exactly zero.
    """
    worst = 0.0
    checked = 0
    for order in range(2, n + 1):
        winners = list(range(order))
        game = make_interaction(n, winners, 2.5)
        result = stv_exact(game, k)
        for pset, val in result.values.items():
            inside = pset.bits & ~((1 << order) - 1) == 0
            if inside and pset.size < min(k, order):
                worst = max(worst, abs(val))
                checked += 1
    passed = worst == 0.0
    return AxiomCheck("interaction-distribution", passed, worst,
                      f"{checked} proper-subset values, worst {worst:.3e} "
                      "(must be exactly 0)")


def run_axiom_checks(game: Game, k: int, seed: int) -> list[AxiomCheck]:
    """All five axiom checks for the order-k Taylor index around a game."""
    if game.n >= DENSE_LIMIT:  # the dummy check sweeps a game of n + 1 players
        raise ValueError("axiom checks extend the game by one player and "
                         f"sweep it exactly; need n <= {DENSE_LIMIT - 1}, got n={game.n}")
    result = stv_exact(game, k)
    return [
        check_linearity(game, result, seed),
        check_dummy(game, k, seed + 1),
        check_symmetry(game, result, seed + 2),
        check_efficiency(game, result),
        check_interaction_distribution(game.n, k),
    ]
