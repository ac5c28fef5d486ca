"""The vector-to-signed-permutation map, its fibers, and the type-B identity."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from worpitzky.exactnum import QPolynomial
from worpitzky.map_b import (
    phi,
    phi_fibers,
    verify_worpitzky_a,
    verify_worpitzky_b,
)
from worpitzky.map_d import fiber_size, fiber_vectors
from worpitzky.signed_perm import SignedPermutation
from worpitzky.sigma_vectors import enumerate_vectors, neg_vec


@st.composite
def bounded_vectors(draw, max_n=6, max_m=3):
    n = draw(st.integers(1, max_n))
    m = draw(st.integers(0, max_m))
    v = tuple(draw(st.lists(st.integers(-m, m), min_size=n, max_size=n)))
    return v, m


def test_phi_worked_example():
    assert phi((1, -2, 0, -1, 3, -2), 3) == SignedPermutation((3, -4, 1, -6, -2, 5))


def test_phi_all_zero_gives_identity():
    assert phi((0, 0, 0, 0)) == SignedPermutation((1, 2, 3, 4))


def test_phi_equal_negatives_read_right_to_left():
    assert phi((-1, -1), 1) == SignedPermutation((-2, -1))


def test_phi_builds_valid_windows():
    # phi skips the constructor's checks; revalidate each window it builds
    for n in range(1, 5):
        for m in range(3):
            for v in enumerate_vectors(n, m):
                sigma = phi(v)
                assert SignedPermutation(sigma.window) == sigma


def test_phi_rejects_out_of_bound_entries():
    with pytest.raises(ValueError):
        phi((2, 0), 1)


@given(bounded_vectors())
def test_phi_preserves_negative_count(vm):
    v, m = vm
    assert phi(v, m).neg() == neg_vec(v)


@given(bounded_vectors())
def test_phi_descent_strictness(vm):
    # at every type-B descent the absolute values must strictly increase,
    # with the convention that position 0 carries absolute value 0
    v, m = vm
    sigma = phi(v, m)
    abs_vals = [abs(v[abs(s) - 1]) for s in sigma.window]
    for j in sigma.descents("B"):
        if j == 0:
            assert abs_vals[0] > 0
        else:
            assert abs_vals[j - 1] < abs_vals[j]


def test_fiber_size_worked_example():
    assert fiber_size("B", SignedPermutation.parse("2,-1,4,-5,3"), 3) == 6


def test_fiber_size_identity_m0():
    assert fiber_size("B", SignedPermutation((1, 2, 3, 4)), 0) == 1
    assert fiber_vectors("B", SignedPermutation((1, 2, 3, 4)), 0) == [(0, 0, 0, 0)]


def test_fiber_single_negative_entry():
    sigma = SignedPermutation((-1,))
    assert fiber_size("B", sigma, 2) == 2
    assert set(fiber_vectors("B", sigma, 2)) == {(-1,), (-2,)}
    # forward-map oracle over all five vectors
    oracle = {v for v in enumerate_vectors(1, 2) if phi(v, 2) == sigma}
    assert oracle == {(-1,), (-2,)}


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_fibers_match_forward_oracle(n, m):
    oracle = phi_fibers(n, m)
    total = 0
    for sigma, vectors in oracle.items():
        decoded = fiber_vectors("B", sigma, m)
        assert set(decoded) == set(vectors)
        assert len(decoded) == fiber_size("B", sigma, m)
        total += len(vectors)
    assert total == (2 * m + 1) ** n


def test_fibers_partition_vector_space():
    n, m = 3, 2
    fibers = phi_fibers(n, m)
    seen = [v for vectors in fibers.values() for v in vectors]
    assert len(seen) == len(set(seen)) == (2 * m + 1) ** n


def test_worpitzky_b_n2_m1():
    report = verify_worpitzky_b(2, 1)
    assert report.passed
    assert report.lhs == report.rhs == QPolynomial([4, 4, 1])
    assert report.extras["brute"] == QPolynomial([4, 4, 1])
    # per-term breakdown: k=0 contributes 3, k=1 the full middle entry
    contributions = {k: contrib for k, _, _, contrib in report.terms}
    assert contributions[0] == 3
    assert contributions[1] == QPolynomial([1, 4, 1])
    assert contributions[2] == 0


def test_worpitzky_b_n1_m1():
    report = verify_worpitzky_b(1, 1)
    assert report.passed
    assert report.lhs == QPolynomial([2, 1])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_worpitzky_b_m0_is_trivial(n):
    report = verify_worpitzky_b(n, 0)
    assert report.passed
    assert report.lhs == 1


def test_worpitzky_a_small_grid():
    for n in range(1, 5):
        for k in range(0, 6):
            report = verify_worpitzky_a(n, k)
            assert report.passed
            assert report.lhs == (k + 1) ** n


def test_report_json_shape():
    d = verify_worpitzky_b(2, 1).to_json_dict()
    assert d["identity"] == "worpitzky-b"
    assert d["lhs"] == [4, 4, 1]
    assert d["brute"] == [4, 4, 1]
    assert d["pass"] is True
    assert d["terms"][1]["entry"] == [1, 4, 1]
