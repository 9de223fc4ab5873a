import math
from math import comb

import numpy as np
import pytest

from helpers import (all_masks_of_size, multilinear_eval_probability_form,
                     random_mobius_terms, random_tabular)
from interax import (PlayerSet, lagrange_remainder_term, make_linear_crosses,
                     make_majority, make_mobius_game, make_product, make_tabular,
                     make_unanimity, mixed_partial_diagonal, multilinear_eval,
                     stv_exact, taylor_identity_check)
from interax.multilinear import _gauss_legendre, diagonal_partial_poly


class TestMultilinearEval:
    def test_unanimity_pair_at_half(self):
        g = make_unanimity(2, [0, 1])
        assert multilinear_eval(g, [0.5, 0.5]) == pytest.approx(0.25, abs=1e-15)

    def test_corners_reproduce_game(self):
        rng = np.random.default_rng(61)
        for n in (3, 6, 10):
            g = random_tabular(rng, n)
            for mask in range(1 << n):
                corner = [(mask >> i) & 1 for i in range(n)]
                val = multilinear_eval(g, corner)
                scale = max(1.0, abs(g.value(mask)))
                assert abs(val - g.value(mask)) <= 1e-12 * scale

    def test_additive_diagonal(self):
        g = make_tabular(4, [bin(m).count("1") for m in range(16)])
        for t in (0.0, 0.25, 0.7, 1.0):
            assert multilinear_eval(g, [t] * 4) == pytest.approx(4 * t, abs=1e-12)

    def test_diagonal_endpoints(self):
        rng = np.random.default_rng(62)
        g = random_tabular(rng, 5)
        assert multilinear_eval(g, [0.0] * 5) == pytest.approx(g.value(0), abs=1e-12)
        assert multilinear_eval(g, [1.0] * 5) == pytest.approx(g.value(31), abs=1e-12)

    def test_out_of_range_rejected(self):
        g = make_product(3)
        with pytest.raises(ValueError):
            multilinear_eval(g, [0.5, 1.5, 0.0])
        with pytest.raises(ValueError):
            multilinear_eval(g, [0.5, 0.5])

    def test_agrees_with_probability_form(self):
        rng = np.random.default_rng(63)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            g = random_tabular(rng, n)
            x = rng.uniform(size=n)
            assert multilinear_eval(g, x) == pytest.approx(
                multilinear_eval_probability_form(g, x), abs=1e-10)


class TestMixedPartialDiagonal:
    def test_unanimity_closed_form(self):
        winners = [0, 1, 2]
        g = make_unanimity(5, winners)
        for t in (0.0, 0.3, 1.0):
            inside = mixed_partial_diagonal(g, [0, 1], t)
            assert inside == pytest.approx(t, abs=1e-12)  # one extra winner
            outside = mixed_partial_diagonal(g, [0, 3], t)
            assert outside == pytest.approx(0.0, abs=1e-12)

    def test_at_zero_matches_low_order_taylor_values(self):
        rng = np.random.default_rng(64)
        for _ in range(10):
            n = int(rng.integers(3, 8))
            g = random_tabular(rng, n)
            k = 3 if n >= 3 else n
            exact = stv_exact(g, k)
            for pset, val in exact.values.items():
                if pset.size < k:
                    got = mixed_partial_diagonal(g, pset.bits, 0.0)
                    assert got == pytest.approx(val, abs=1e-10)

    def test_matches_box_differences(self):
        # mixed partials of a multilinear function equal its box differences
        # at any step; h = 0.5 keeps the cancellation noise near machine eps
        rng = np.random.default_rng(65)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            g = random_tabular(rng, n)
            size = int(rng.integers(1, min(3, n) + 1))
            s_mask = all_masks_of_size(n, size)[int(rng.integers(0, comb(n, size)))]
            members = [p for p in range(n) if s_mask >> p & 1]
            t = float(rng.uniform(0.25, 0.75))
            h = 0.5
            lo = max(t - h / 2, 0.0)
            hi = lo + h
            total = 0.0
            for w_mask in range(1 << size):
                point = np.full(n, t)
                bits = bin(w_mask).count("1")
                for j, p in enumerate(members):
                    point[p] = hi if w_mask >> j & 1 else lo
                sign = -1 if (size - bits) % 2 else 1
                total += sign * multilinear_eval(g, point)
            fd = total / h ** size
            analytic = mixed_partial_diagonal(g, s_mask, t)
            assert fd == pytest.approx(analytic, abs=1e-5 * max(1.0, abs(analytic)))

    def test_small_step_differences_low_order(self):
        rng = np.random.default_rng(66)
        g = random_tabular(rng, 6)
        h = 1e-4
        for s_mask in (0b1, 0b101):
            size = bin(s_mask).count("1")
            members = [p for p in range(6) if s_mask >> p & 1]
            t = 0.4
            total = 0.0
            for w_mask in range(1 << size):
                point = np.full(6, t)
                bits = bin(w_mask).count("1")
                for j, p in enumerate(members):
                    point[p] = t + h / 2 if w_mask >> j & 1 else t - h / 2
                sign = -1 if (size - bits) % 2 else 1
                total += sign * multilinear_eval(g, point)
            fd = total / h ** size
            analytic = mixed_partial_diagonal(g, s_mask, t)
            assert fd == pytest.approx(analytic, rel=1e-5, abs=1e-5)

    def test_bad_t_rejected(self):
        with pytest.raises(ValueError):
            mixed_partial_diagonal(make_product(3), [0], 1.5)


class TestLagrangeRemainder:
    def test_unanimity_family(self):
        for t in range(1, 9):
            n = min(t + 2, 10)
            g = make_unanimity(n, range(t))
            for k in range(1, min(t, 4) + 1):
                s_mask = (1 << k) - 1  # k-subset inside the winners
                for mode in ("analytic", "quadrature"):
                    val = lagrange_remainder_term(g, s_mask, k, mode)
                    assert val == pytest.approx(1.0 / comb(t, k), abs=1e-8)

    def test_modes_agree_on_random_games(self):
        rng = np.random.default_rng(67)
        worst = 0.0
        for n in range(2, 9):
            g = random_tabular(rng, n)
            for k in range(1, min(n, 3) + 1):
                for m in all_masks_of_size(n, k):
                    a = lagrange_remainder_term(g, m, k, "analytic")
                    q = lagrange_remainder_term(g, m, k, "quadrature")
                    worst = max(worst, abs(a - q))
        assert worst <= 1e-12

    def test_equals_order_k_taylor_value(self):
        rng = np.random.default_rng(68)
        for _ in range(10):
            n = int(rng.integers(2, 8))
            g = random_tabular(rng, n)
            for k in (1, 2, 3):
                if k > n:
                    continue
                exact = stv_exact(g, k)
                for m in all_masks_of_size(n, k):
                    want = exact.values[PlayerSet(m, n)]
                    assert lagrange_remainder_term(g, m, k, "analytic") == \
                        pytest.approx(want, abs=1e-7)
                    assert lagrange_remainder_term(g, m, k, "quadrature") == \
                        pytest.approx(want, abs=1e-7)

    def test_majority_pairs_hit_the_closed_form(self):
        # majority's Mobius coefficients reach 6.4e3 at n = 16 and cancel down
        # to pair values of 2 / (n (n - 1))
        n = 16
        g = make_majority(n)
        for m in all_masks_of_size(n, 2):
            got = lagrange_remainder_term(g, m, 2, "analytic")
            assert abs(got - 2.0 / (n * (n - 1))) <= 1e-15

    def test_zero_game(self):
        g = make_tabular(4, np.zeros(16))
        assert lagrange_remainder_term(g, [0, 1], 2, "analytic") == 0.0
        assert lagrange_remainder_term(g, [0, 1], 2, "quadrature") == 0.0

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            lagrange_remainder_term(make_product(4), [0], 2)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            lagrange_remainder_term(make_product(4), [0, 1], 2, "psychic")


class TestTaylorIdentity:
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_builtin_families(self, k):
        for g in (make_majority(6), make_product(5), make_linear_crosses(4.0),
                  make_unanimity(6, [1, 2, 4])):
            for mode in ("analytic", "quadrature"):
                report = taylor_identity_check(g, k, remainder_mode=mode)
                assert report.passed, report

    def test_order_one_is_the_diagonal_gradient_integral(self):
        # at k=1 there are no lower-order terms: the whole span must come
        # from integrating the per-player diagonal gradients
        rng = np.random.default_rng(69)
        g = random_tabular(rng, 5)
        report = taylor_identity_check(g, 1, remainder_mode="quadrature")
        assert report.lower_order_total == 0.0
        assert report.remainder_total == pytest.approx(g.span(), abs=1e-7)
        assert report.passed

    def test_constant_game(self):
        g = make_tabular(4, np.full(16, 3.3))
        report = taylor_identity_check(g, 2)
        assert report.lhs == 0.0
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.passed

    def test_size_guard(self):
        with pytest.raises(ValueError, match="needs n <= 20"):
            taylor_identity_check(make_unanimity(21, [0]), 2, remainder_mode="quadrature")

    @pytest.mark.parametrize("make_game", [lambda: make_unanimity(25, [0]),
                                           lambda: make_tabular(6, np.arange(64.0))],
                             ids=["n=25", "n=6"])
    def test_unknown_mode_rejected_before_any_work(self, make_game):
        g = make_game()
        before = set(g.derived)
        with pytest.raises(ValueError, match="mode must be"):
            taylor_identity_check(g, 2, remainder_mode="psychic")
        assert set(g.derived) == before

    def test_analytic_mode_past_the_quadrature_gate(self):
        terms = random_mobius_terms(np.random.default_rng(64), 64)
        g = make_mobius_game(64, terms)
        assert taylor_identity_check(g, 2).passed
        with pytest.raises(ValueError, match="needs n <= 20"):
            taylor_identity_check(g, 2, remainder_mode="quadrature")

    def test_random_games(self):
        rng = np.random.default_rng(70)
        for _ in range(10):
            n = int(rng.integers(2, 9))
            g = random_tabular(rng, n)
            for k in (1, 2, 3):
                if k > n:
                    continue
                assert taylor_identity_check(g, k).passed


class TestGaussLegendre:
    @pytest.mark.parametrize("m", range(1, 11))
    def test_exact_to_degree_2m_minus_1(self, m):
        # on [0, 1] the m-node rule misses t^(2m) by exactly
        # (m!)^4 / ((2m+1) ((2m)!)^2), the Gauss error term
        t, w = _gauss_legendre(m)
        assert abs(w @ t ** (2 * m - 1) - 1 / (2 * m)) <= 1e-15
        miss = 1 / (2 * m + 1) - w @ t ** (2 * m)
        gauss_error = math.factorial(m) ** 4 / (
            (2 * m + 1) * math.factorial(2 * m) ** 2)
        assert miss / gauss_error == pytest.approx(1.0, rel=1e-3)


class TestDiagonalPoly:
    def test_cached(self):
        g = make_product(4)
        assert diagonal_partial_poly(g, 0b11) is diagonal_partial_poly(g, 0b11)

    def test_product_poly(self):
        g = make_product(4)
        poly = diagonal_partial_poly(g, 0b11)
        assert list(poly) == [0.0, 0.0, 1.0]  # only the full cross remains
