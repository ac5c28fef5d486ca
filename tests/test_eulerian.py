"""Eulerian triangle rows of types A, B, D and their q-refinements."""

import csv
import hashlib
import io
import json
import math
import tracemalloc

import pytest

from worpitzky import eulerian
from worpitzky.eulerian import (
    MAX_ROW_N,
    _insertion_row,
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


@pytest.mark.parametrize("n", [*range(13, 21), 30, MAX_ROW_N])
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
            _insertion_row(group, 51)
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


def test_the_dp_builds_every_row_without_the_oracle(monkeypatch):
    # the DP stands on its own from n = 1: it neither calls the oracle nor enumerates a group
    cases = [(group, n) for group in "ABD" for n in range(2 if group == "D" else 1, 8)]
    oracle = {case: enumerated_row(*case) for case in cases}

    def refused(*args):
        raise AssertionError("the DP enumerated a group")

    monkeypatch.setattr(eulerian, "enumerated_row", refused)
    monkeypatch.setattr(eulerian, "_elements", refused)
    for case in cases:
        assert _insertion_row(*case) == oracle[case], case


@pytest.mark.parametrize("n", range(8, 13))
def test_transfer_dp_against_closed_forms_beyond_the_oracle(n):
    for k in range(n + 1):
        assert verify_worpitzky_a(n, k).passed
    # m = 0..n pins down every entry: the C(n+m-k, n) system is triangular
    for m in range(n + 1):
        rhs = rhs_eulerian_sum(eulerian_row_b_q(n).entries, n, m)
        assert rhs == QPolynomial((1 + m, m)) ** n
        assert verify_worpitzky_d_q1(n, m).passed


# SHA-256 of eulerian_row(group, n).to_json() as the rank-state transfer DP
# built them, before the insertion DP replaced it; beyond n = 7 nothing else
# pins the type-D q-coefficients
ROW_DIGESTS = {
    ("B", 8): "7708d037600c12ad757bed4328ddf165eecc928d08278a64b9bfb45da15cc12e",
    ("B", 12): "eab99219942e51b178843aa53979c60eb4cb06b65783b579bf689f425e5cada7",
    ("B", 20): "91b5770fdfd3e3bf581fa4a350cdced3ba4654d6e2b7540e1a03984dab886b1e",
    ("B", 30): "db96b64c6bbee5789a29717dee38a73ea843eba3ee60a8729c20de10efe39260",
    ("B", 50): "631afa51c5dfc0ab20797be4d6fd10f715cdb0000303ae208eb7555cf7ab093f",
    ("D", 8): "8879bfc725579ee505ddad99774505ecee8817104e0ab96a62bd247f17a34067",
    ("D", 12): "ed701aa109b2ec94de41dbc6a18285faa7d4ac235f540b0508e4f713aa80f3c0",
    ("D", 20): "ac394cb2dffbf13234fb9f2e8fc892d8485f846fa419cae6d8031559b94aa87e",
    ("D", 30): "551737f46c09a9665fd12ac814a3e77359d3199958bdbca349d3473cf7be683c",
    ("D", 50): "1fe4003c0969d50cfcd69f550205f9e7a0f5ea78151b3061c41d88f88cd23753",
    ("A", 50): "d51fb0ec5dae2487ae72c346dcd5a74ae4d7f4603d091da79ecdf60ff65b352c",
}


@pytest.mark.parametrize("group,n", ROW_DIGESTS)
def test_large_rows_equal_the_recorded_digests(group, n):
    assert _row_digest(eulerian_row(group, n)) == ROW_DIGESTS[group, n]


def _row_digest(row):
    return hashlib.sha256(row.to_json().encode()).hexdigest()


@pytest.fixture
def cold_frontiers(monkeypatch):
    """The insertion DP from nothing built, whatever earlier tests asked of it."""
    monkeypatch.setattr(eulerian, "_frontiers", {})
    monkeypatch.setattr(eulerian, "_totals", {})


REQUEST_ORDERS = {
    "descending": [("D", 12), ("B", 8), ("D", 6), ("B", 5), ("A", 7), ("A", 3), ("D", 2), ("B", 1), ("A", 1)],
    "interleaved": [("A", 2), ("B", 3), ("D", 4), ("A", 6), ("B", 2), ("D", 8), ("A", 4), ("B", 12), ("D", 5), ("A", 50)],
    # twice at the frontier's own n, and B and D at the n the other advanced the frontier to
    "repeated": [("D", 5), ("D", 5), ("B", 5), ("B", 5), ("B", 8), ("B", 8), ("D", 8), ("A", 6), ("A", 6), ("D", 3), ("D", 3)],
}


@pytest.mark.parametrize("order", REQUEST_ORDERS)
def test_the_row_frontier_serves_every_request_order(cold_frontiers, order):
    for group, n in REQUEST_ORDERS[order]:
        row = _insertion_row(group, n)
        if n <= 7:
            assert row == enumerated_row(group, n), (group, n)
        else:
            assert _row_digest(row) == ROW_DIGESTS[group, n], (group, n)


def test_the_largest_d_row_builds_in_little_memory(cold_frontiers):
    # the rank-state DP peaked at 60-79 MB here; the insertion DP, which keeps the
    # packed totals of every B and D row it passes, at about 4 MB
    tracemalloc.start()
    try:
        row = _insertion_row("D", MAX_ROW_N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row == eulerian_row_d_q(MAX_ROW_N)
    assert peak < 8 * 10**6
