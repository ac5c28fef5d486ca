"""Eulerian triangle rows of types A, B, D and their q-refinements."""

import csv
import io
import json
import math

import pytest

from worpitzky.eulerian import (
    MAX_ROW_N,
    _transfer_row,
    enumerated_row,
    eulerian_row,
    eulerian_row_a,
    eulerian_row_b_q,
    eulerian_row_d_q,
)
from worpitzky.exactnum import QPolynomial, binom
from worpitzky.map_b import rhs_eulerian_sum, verify_worpitzky_a
from worpitzky.map_d import verify_worpitzky_d_q1


def test_type_a_small_rows():
    assert eulerian_row_a(1).at_q1() == (1,)
    assert eulerian_row_a(2).at_q1() == (1, 1)
    assert eulerian_row_a(3).at_q1() == (1, 4, 1)


def test_type_b_small_rows():
    assert eulerian_row_b_q(1).entries == (QPolynomial([1]), QPolynomial([0, 1]))
    assert eulerian_row_b_q(2).entries == (
        QPolynomial([1]),
        QPolynomial([1, 4, 1]),
        QPolynomial([0, 0, 1]),
    )
    assert eulerian_row_b_q(2).at_q1() == (1, 6, 1)


def test_row_repr_names_its_fields():
    assert repr(eulerian_row_b_q(2)) == (
        "EulerianRow(group='B', n=2, entries=(QPolynomial([1]), QPolynomial([1, 4, 1]), QPolynomial([0, 0, 1])))"
    )


def test_type_d_small_rows():
    assert eulerian_row_d_q(2).entries == (
        QPolynomial([1]),
        QPolynomial([1, 1]),
        QPolynomial([0, 1]),
    )
    assert eulerian_row_d_q(3).at_q1() == (1, 11, 11, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_row_sums(n):
    assert sum(eulerian_row_a(n).at_q1()) == math.factorial(n)
    assert sum(eulerian_row_b_q(n).at_q1()) == 2 ** n * math.factorial(n)
    if n >= 2:
        assert sum(eulerian_row_d_q(n).at_q1()) == 2 ** (n - 1) * math.factorial(n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_type_b_against_inclusion_exclusion(n):
    # independent closed form for the type-B descent counts
    def closed(k):
        return sum(
            (-1) ** j * binom(n + 1, j) * (2 * (k - j) + 1) ** n for j in range(k + 1)
        )

    assert eulerian_row_b_q(n).at_q1() == tuple(closed(k) for k in range(n + 1))


@pytest.mark.parametrize("n", [*range(13, 21), 30])
def test_rows_against_the_closed_form_generating_functions(n):
    # B_n(t, q) = sum_k t^k sum_{j <= k} (-1)^(k-j) C(n+1, k-j) (1 + (1+q) j)^n
    powers = [QPolynomial((1 + j, j)) ** n for j in range(n + 1)]
    b_row = eulerian_row_b_q(n)
    for k, entry in enumerate(b_row.entries):
        terms = (powers[j] * ((-1) ** (k - j) * binom(n + 1, k - j)) for j in range(k + 1))
        assert entry == sum(terms, QPolynomial.zero()), k
    # at q = 1: D_n(t) = B_n(t) - n 2^(n-1) t A_{n-1}(t)
    shifted_a = (0,) + eulerian_row_a(n - 1).at_q1() + (0,)
    d_row = tuple(b - n * 2 ** (n - 1) * a for b, a in zip(b_row.at_q1(), shifted_a, strict=True))
    assert eulerian_row_d_q(n).at_q1() == d_row


def test_all_coefficients_nonnegative():
    for n in range(1, 5):
        for p in eulerian_row_b_q(n).entries:
            assert all(c >= 0 for c in p.coeffs)
    for n in range(2, 5):
        for p in eulerian_row_d_q(n).entries:
            assert all(c >= 0 for c in p.coeffs)


def test_rows_are_memoized():
    assert eulerian_row_b_q(3) is eulerian_row_b_q(3)


def test_dispatch_and_bounds():
    assert eulerian_row("A", 2) is eulerian_row_a(2)
    assert eulerian_row("B", 2) is eulerian_row_b_q(2)
    assert eulerian_row("D", 2) is eulerian_row_d_q(2)
    with pytest.raises(ValueError):
        eulerian_row("E", 2)
    with pytest.raises(ValueError):
        eulerian_row_d_q(1)
    with pytest.raises(ValueError):
        eulerian_row_a(0)
    with pytest.raises(ValueError):
        enumerated_row("E", 3)
    with pytest.raises(ValueError):
        enumerated_row("D", 1)


def test_rows_above_the_bound_are_refused_before_any_work():
    assert MAX_ROW_N == 50
    before = eulerian_row_d_q.cache_info().currsize
    for group in ("A", "B", "D"):
        with pytest.raises(ValueError, match="n must be <= 50"):
            eulerian_row(group, 51)
        with pytest.raises(ValueError, match="n must be <= 50"):
            _transfer_row(group, 51)
        with pytest.raises(ValueError, match="n must be <= 50"):
            enumerated_row(group, 51)
    assert eulerian_row_d_q.cache_info().currsize == before


def test_json_export():
    data = json.loads(eulerian_row_d_q(2).to_json())
    assert data == {"type": "D", "n": 2, "entries": [[1], [1, 1], [0, 1]]}


def test_csv_export():
    rows = list(csv.reader(io.StringIO(eulerian_row_d_q(2).to_csv())))
    assert rows[0] == ["k", "q^0", "q^1"]
    assert rows[1:] == [["0", "1", "0"], ["1", "1", "1"], ["2", "0", "1"]]


@pytest.mark.parametrize(
    "group,n",
    [("A", n) for n in range(1, 8)] + [("B", n) for n in range(1, 8)] + [("D", n) for n in range(2, 8)],
)
def test_transfer_dp_equals_enumeration_oracle(group, n):
    row, oracle = eulerian_row(group, n), enumerated_row(group, n)
    assert len(row.entries) == len(oracle.entries)
    for k, (got, want) in enumerate(zip(row.entries, oracle.entries)):
        assert got == want, (group, n, k)


@pytest.mark.parametrize("n", range(8, 13))
def test_transfer_dp_against_closed_forms_beyond_the_oracle(n):
    for k in range(n + 1):
        assert verify_worpitzky_a(n, k).passed
    # m = 0..n pins down every entry: the C(n+m-k, n) system is triangular
    for m in range(n + 1):
        rhs, _ = rhs_eulerian_sum(eulerian_row_b_q(n).entries, n, m)
        assert rhs == QPolynomial((1 + m, m)) ** n
        assert verify_worpitzky_d_q1(n, m).passed
