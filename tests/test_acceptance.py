"""Acceptance suite: every exit criterion at its stated grid and tolerance.

All checks are exact (integer or polynomial equality); each test prints a
single pass/fail line.  Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

from worpitzky.exactnum import QPolynomial, binom
from worpitzky.map_b import (
    phi,
    phi_fibers,
    verify_worpitzky_a,
    verify_worpitzky_b,
)
from worpitzky.map_d import (
    erratum_report_d,
    fiber_size,
    fiber_vectors,
    missing_case1_closed,
    missing_case2a_closed,
    missing_cases2b3_closed,
    missing_census,
    missing_total_closed,
    missing_weight_closed,
    printed_case_weights_q,
    printed_lhs_d_q,
    psi,
    psi_fibers,
    verify_balance_d_q,
    verify_worpitzky_d_q1,
)
from worpitzky.oeis import check_sequence
from worpitzky.sigma_vectors import neg2_vec, neg_vec
from worpitzky.signed_perm import SignedPermutation, enumerate_bn


def report(criterion, description, ok):
    print(f"ACCEPTANCE {criterion} [{description}]: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {criterion} failed: {description}"


def test_criterion_1_worpitzky_a():
    start = time.monotonic()
    ok = all(
        verify_worpitzky_a(n, k).passed for n in range(1, 9) for k in range(0, 13)
    )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 60
    report(1, f"type-A identity, n=1..8, k=0..12, {elapsed:.1f}s", ok)


def test_criterion_2_worpitzky_b_q():
    start = time.monotonic()
    ok = all(
        verify_worpitzky_b(n, m).passed for n in range(1, 7) for m in range(0, 5)
    )
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 300
    report(2, f"type-B q-identity three-way, n=1..6, m=0..4, {elapsed:.1f}s", ok)


def test_criterion_3_fiber_law_b():
    ok = True
    for n in range(1, 5):
        sigmas = list(enumerate_bn(n))
        for m in range(0, 4):
            oracle = phi_fibers(n, m)
            for sigma in sigmas:
                decoded = fiber_vectors("B", sigma, m)
                swept = oracle.get(sigma, [])
                ok = ok and set(decoded) == set(swept)
                ok = ok and len(swept) == fiber_size("B", sigma, m)
                ok = ok and fiber_size("B", sigma, m) == binom(
                    n + m - sigma.des("B"), n
                )
    report(3, "type-B fibers: oracle = chain decode, size = binom", ok)


def test_criterion_4_worpitzky_d_q1():
    ok = all(
        verify_worpitzky_d_q1(n, m).passed
        for n in range(2, 7)
        for m in range(0, 5)
    )
    ok = ok and verify_worpitzky_d_q1(2, 1).lhs == 5
    ok = ok and verify_worpitzky_d_q1(3, 1).lhs == 15
    report(4, "type-D identity at q=1, both routes, n=2..6, m=0..4", ok)


def test_criterion_5_balance_d_q():
    start = time.monotonic()
    ok = all(
        verify_balance_d_q(n, m).passed for n in range(2, 7) for m in range(1, 5)
    )
    spot = verify_balance_d_q(2, 1)
    ok = ok and spot.lhs == QPolynomial([6, 3])
    ok = ok and spot.extras["associated"] == QPolynomial([4, 1])
    ok = ok and spot.extras["missing"] == QPolynomial([2, 2])
    elapsed = time.monotonic() - start
    report(5, f"type-D q mass balance, n=2..6, m=1..4, {elapsed:.1f}s", ok)


def test_criterion_6_missing_census():
    ok = True
    for n in range(2, 6):
        for m in range(1, 4):
            census = missing_census(n, m)
            ok = ok and census.counts["case1"] == missing_case1_closed(n, m)
            ok = ok and census.counts["case2a"] == missing_case2a_closed(n, m)
            ok = ok and census.counts["case2b"] + census.counts["case3"] == (
                missing_cases2b3_closed(n, m)
            )
            ok = ok and census.total_count == missing_total_closed(n, m)
            ok = ok and census.total_weight == missing_weight_closed(n, m)
    report(6, "missing census vs closed forms, n=2..5, m=1..3", ok)


def test_criterion_7_erratum_probes():
    printed = printed_lhs_d_q(2, 1)
    rhs = verify_balance_d_q(2, 1).extras["associated"]
    ok = printed.at_q1() == 2 and rhs.at_q1() == 5
    ok = ok and all(
        erratum_report_d(n, m).passed for n in range(2, 5) for m in range(1, 4)
    )
    case_mismatch_seen = False
    for n in range(2, 5):
        for m in range(1, 4):
            census = missing_census(n, m)
            case1, case2a, cases2b3 = printed_case_weights_q(n, m)
            ok = ok and case1 + case2a + cases2b3 == census.total_weight
            if (
                case1 != census.weights["case1"]
                or case2a != census.weights["case2a"]
            ):
                case_mismatch_seen = True
    ok = ok and case_mismatch_seen  # the deviation is reproduced, not patched over
    report(7, "printed-form probes: q=1 gives 2 vs 5; per-case sums only", ok)


def test_criterion_8_worked_example_regressions():
    ok = phi((1, -2, 0, -1, 3, -2), 3) == SignedPermutation((3, -4, 1, -6, -2, 5))
    ok = ok and fiber_vectors("D", SignedPermutation.parse("2,-3,1,4,-5"), 4) == [
        (2, 1, -2, 2, -3),
        (2, 1, -2, 2, -4),
        (2, 1, -2, 3, -4),
        (3, 1, -2, 3, -4),
        (3, 1, -3, 3, -4),
        (3, 2, -3, 3, -4),
    ]
    ok = ok and set(fiber_vectors("D", SignedPermutation.parse("-1,2,-3"), 2)) == {
        (0, 0, -1),
        (0, 0, -2),
        (0, 1, -2),
        (-1, 1, -2),
    }
    outcome = psi((-2, 0, 0), 2)
    ok = ok and outcome.sigma == SignedPermutation((-2, 3, -1)) and outcome.flipped
    ok = ok and psi((2, 0, -1), 2).missing_case == "case2b"
    report(8, "worked-example regressions", ok)


def test_criterion_9_oeis_fixtures():
    ok = check_sequence("A060187", 5).passed and check_sequence("A262226", 5).passed
    report(9, "OEIS fixtures A060187 / A262226, n<=5", ok)


def _abs_chain(v, sigma):
    return [abs(v[abs(s) - 1]) for s in sigma.window]


def test_criterion_10_structural_invariants():
    ok = True
    for n in range(1, 5):
        for m in range(0, 4):
            space = (2 * m + 1) ** n

            fibers_b = phi_fibers(n, m)
            ok = ok and sum(len(vs) for vs in fibers_b.values()) == space
            for sigma, vectors in fibers_b.items():
                for v in vectors:
                    ok = ok and neg_vec(v) == sigma.neg()
                    chain = _abs_chain(v, sigma)
                    for j in sigma.descents("B"):
                        ok = ok and (chain[0] > 0 if j == 0 else chain[j - 1] < chain[j])

            if n < 2:
                continue
            fibers_d, missing = psi_fibers(n, m)
            associated = sum(len(vs) for vs in fibers_d.values())
            missing_total = sum(len(vs) for vs in missing.values())
            ok = ok and associated + missing_total == space
            for s, swept in fibers_d.items():
                decoded = fiber_vectors("D", s, m)
                ok = ok and set(decoded) == set(swept)
                ok = ok and len(decoded) == fiber_size("D", s, m)
            for vectors in missing.values():
                ok = ok and all(v.count(0) <= 1 for v in vectors)
            for sigma, vectors in fibers_d.items():
                for v in vectors:
                    ok = ok and neg2_vec(v) == sigma.neg2()
                    chain = _abs_chain(v, sigma)
                    for j in sigma.descents("D"):
                        ok = ok and (chain[0] > 0 if j == 0 else chain[j - 1] < chain[j])
    report(10, "partition, statistic preservation, descent strictness, n<=4 m<=3", ok)
