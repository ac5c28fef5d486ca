"""Exact arithmetic: binomials and q-polynomials."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from worpitzky.exactnum import ONE_PLUS_Q, Q, QPolynomial, binom

small_polys = st.lists(st.integers(-8, 8), max_size=5).map(QPolynomial)


def test_binom_values():
    assert binom(6, 5) == 6
    assert binom(1, 2) == 0
    assert binom(4, 2) == 6
    assert binom(0, 0) == 1


def test_binom_rejects_negative():
    with pytest.raises(ValueError):
        binom(-1, 0)
    with pytest.raises(ValueError):
        binom(3, -2)


@given(st.integers(1, 40), st.integers(1, 40))
def test_binom_pascal(a, b):
    assert binom(a, b) == binom(a - 1, b - 1) + binom(a - 1, b)


def test_canonical_form():
    assert QPolynomial([1, 2, 0, 0]).coeffs == (1, 2)
    assert QPolynomial([0, 0]).coeffs == ()
    assert len(QPolynomial([5]).coeffs) - 1 == 0
    assert len(Q.coeffs) - 1 == 1


def test_product_example():
    assert ONE_PLUS_Q * ONE_PLUS_Q == QPolynomial([1, 2, 1])


def test_evaluate_sums_coefficients_at_one():
    p = QPolynomial([1, 4, 1])
    assert p.evaluate(1) == 6
    assert p.at_q1() == 6


def test_subtraction_cancels():
    p = QPolynomial([3, -1, 7])
    assert p - p == QPolynomial.zero()
    assert not (p - p)


def test_int_comparison_and_scalars():
    assert QPolynomial([5]) == 5
    assert QPolynomial() == 0
    assert 3 * Q == QPolynomial([0, 3])
    assert Q * 3 == QPolynomial([0, 3])
    assert 1 + Q == ONE_PLUS_Q
    assert Q - 1 == QPolynomial([-1, 1])
    assert 1 - Q == QPolynomial([1, -1])


def test_power():
    assert ONE_PLUS_Q ** 0 == 1
    assert ONE_PLUS_Q ** 2 == QPolynomial([1, 2, 1])
    assert QPolynomial([2]) ** 3 == 8
    with pytest.raises(ValueError):
        ONE_PLUS_Q ** -1


def test_sum_builtin():
    assert sum([Q, Q, QPolynomial([1])], QPolynomial.zero()) == QPolynomial([1, 2])


@given(small_polys, small_polys, small_polys)
def test_ring_axioms(p, r, s):
    assert p + r == r + p
    assert p * r == r * p
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


@given(small_polys, small_polys, st.fractions(max_denominator=7))
def test_evaluate_is_multiplicative(p, r, x):
    assert (p * r).evaluate(x) == p.evaluate(x) * r.evaluate(x)


def test_evaluate_rational():
    p = QPolynomial([1, 0, 2])  # 1 + 2q^2
    assert p.evaluate(Fraction(1, 2)) == Fraction(3, 2)


def test_text_form():
    assert str(QPolynomial()) == "0"
    assert str(QPolynomial([2, 2])) == "2+2q"
    assert str(QPolynomial([1, 4, 1])) == "1+4q+q^2"
    assert str(QPolynomial([0, -1, 3])) == "-q+3q^2"
    assert str(QPolynomial([0, 0, 1])) == "q^2"


def test_coefficient_access():
    p = QPolynomial([1, 4, 1])
    coefficient = dict(enumerate(p.coeffs)).get
    assert [coefficient(k, 0) for k in range(4)] == [1, 4, 1, 0]
    assert p.to_list() == [1, 4, 1]


def test_rejects_non_integer_coefficients():
    with pytest.raises(TypeError):
        QPolynomial([Fraction(1, 2)])
