"""Exact arithmetic: binomials and q-polynomials."""

from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from worpitzky.exactnum import ONE_PLUS_Q, Q, QPolynomial, binom

small_polys = st.lists(st.integers(-8, 8), max_size=5).map(QPolynomial)
# signed coefficients where a packed cell one bit too narrow, or a lost borrow,
# corrupts a neighbour: zeros, +-1 and magnitudes up to 2^300
coefficients = st.one_of(st.just(0), st.integers(-1, 1), st.integers(-(2**300), 2**300))
coefficient_lists = st.lists(coefficients, max_size=7)  # trailing zeros and [] included


def value_at(p, x):
    """p at the point x, by Horner over its coefficients."""
    acc = 0
    for c in reversed(p.coeffs):
        acc = acc * x + c
    return acc


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
    assert value_at(p, 1) == 6
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


def schoolbook(a, b):
    """The product of two coefficient lists term by term: the reference for the packed product."""
    out = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return QPolynomial(out)


@given(coefficient_lists, coefficient_lists)
@example([-(2**150)], [2**150])  # -2^300: the bound itself, negative
@example([2**150, 2**150], [2**150, -(2**150), 0])  # 2^301 and -2^300 beside 0
@example([-1, 0, 0, 2**300], [-1, 1])
def test_packed_product_equals_the_schoolbook_product(a, b):
    assert QPolynomial(a) * QPolynomial(b) == schoolbook(a, b)


@given(coefficient_lists, st.integers(0, 12))
@example([], 0)
@example([], 5)
@example([0, 0], 3)
@example([-(2**300), 2**300 - 1], 12)
def test_packed_power_equals_repeated_schoolbook_products(a, e):
    want = QPolynomial.one()
    for _ in range(e):
        want = schoolbook(want.coeffs, a)
    assert QPolynomial(a) ** e == want


@given(coefficients, coefficient_lists)
def test_int_times_polynomial(c, a):
    assert c * QPolynomial(a) == QPolynomial(a) * c == schoolbook([c], a)


@given(*[coefficient_lists.map(QPolynomial)] * 3)
def test_ring_axioms(p, r, s):
    assert p + r == r + p
    assert p * r == r * p
    assert (p + r) + s == p + (r + s)
    assert (p * r) * s == p * (r * s)
    assert p * (r + s) == p * r + p * s


@given(small_polys, small_polys, st.fractions(max_denominator=7))
def test_evaluate_is_multiplicative(p, r, x):
    assert value_at(p * r, x) == value_at(p, x) * value_at(r, x)


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
