"""Bernoulli numbers, polynomials, and the power-sum bridge."""

import math
from fractions import Fraction

import pytest

from worpitzky import bernoulli
from worpitzky.bernoulli import (
    bernoulli_number,
    bernoulli_poly_eval,
    power_sum,
    worpitzky_d_lhs,
)


def test_small_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    assert bernoulli_number(4) == Fraction(-1, 30)
    assert bernoulli_number(6) == Fraction(1, 42)


def test_odd_numbers_vanish():
    assert all(bernoulli_number(2 * k + 1) == 0 for k in range(1, 8))


def test_poly_at_zero_is_the_number():
    for n in range(11):
        assert bernoulli_poly_eval(n, 0) == bernoulli_number(n)


def test_poly_values():
    assert bernoulli_poly_eval(2, 4) == Fraction(73, 6)  # 16 - 4 + 1/6
    assert bernoulli_poly_eval(1, 1) == Fraction(1, 2)


def _poly_eval_by_fractions(n, x):
    """The n-th Bernoulli polynomial at x as a sum of Fraction terms."""
    x = Fraction(x)
    return sum((math.comb(n, k) * bernoulli_number(k) * x ** (n - k) for k in range(n + 1)), Fraction(0))


@pytest.mark.parametrize("x", [0, 1, 2, 7, -3, 1581, Fraction(1, 2), Fraction(-5, 3), Fraction(22, 7), Fraction(3, 1)])
def test_integer_horner_equals_the_fraction_sum(x):
    for n in range(31):
        assert bernoulli_poly_eval(n, x) == _poly_eval_by_fractions(n, x), n


def test_power_sum():
    assert power_sum(2, 3) == 12
    assert power_sum(5, 0) == 0
    assert power_sum(1, 4) == 4  # 1 * (1^0 + ... + 4^0)


@pytest.mark.parametrize("n", range(2, 11))
@pytest.mark.parametrize("m", range(0, 7))
def test_bridge_identity(n, m):
    bridge = bernoulli_poly_eval(n, m + 1) - bernoulli_number(n)
    assert bridge.denominator == 1
    assert bridge == power_sum(n, m)


@pytest.mark.parametrize("x", [Fraction(3, 7), Fraction(-2, 5), Fraction(11, 2)])
@pytest.mark.parametrize("n", range(1, 9))
def test_forward_difference(n, x):
    assert bernoulli_poly_eval(n, x + 1) - bernoulli_poly_eval(n, x) == n * x ** (n - 1)


def test_type_d_lhs_spot_values():
    assert worpitzky_d_lhs(2, 1) == 5  # 9 - 2*2
    assert worpitzky_d_lhs(3, 1) == 15  # 27 - 4*3
    assert worpitzky_d_lhs(4, 0) == 1
    assert worpitzky_d_lhs(2, 0) == 1


def test_type_d_lhs_requires_n_at_least_two():
    with pytest.raises(ValueError):
        worpitzky_d_lhs(1, 3)


@pytest.mark.parametrize("k", [0, 3, 6])
def test_a_wrong_bernoulli_coefficient_fails_the_cross_check(monkeypatch, k):
    # coefficient k of D B_6(x) off by one moves D B_6(m+1) by (m+1)^(6-k); k = 6 moves
    # the constant term, which the check does not take from the same table
    n, m = 6, 4
    d, coeffs = bernoulli._scaled_poly_coeffs(n)
    wrong = coeffs[:k] + (coeffs[k] + 1,) + coeffs[k + 1:]
    monkeypatch.setattr(bernoulli, "_scaled_poly_coeffs", lambda n: (d, wrong))
    right = (1 + 2 * m) ** n - 2 ** (n - 1) * power_sum(n, m)
    off = right - 2 ** (n - 1) * Fraction((m + 1) ** (n - k), d)
    with pytest.raises(ArithmeticError) as raised:
        worpitzky_d_lhs(n, m)
    assert str(raised.value) == f"Bernoulli and power-sum routes disagree at n={n}, m={m}: {off} vs {right}"
