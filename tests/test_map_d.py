"""The partial type-D map, missing-vector census, and type-D identities."""

import ast
import json
import tracemalloc
import weakref
from array import array
from itertools import permutations
from math import factorial
from operator import gt
from pathlib import Path

import pytest

import worpitzky
from worpitzky import map_d
from worpitzky.exactnum import ONE_PLUS_Q, QPolynomial
from worpitzky.map_b import fiber_writer, phi, phi_fibers, verify_worpitzky_a, verify_worpitzky_b
from worpitzky.map_d import (
    MISSING_CASES,
    erratum_report_d,
    fiber_counts,
    fiber_report,
    fiber_reports,
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
from worpitzky.signed_perm import SignedPermutation, _descent_table, _signs, enumerate_bn, enumerate_dn
from worpitzky.sigma_vectors import enumerate_vectors, format_vector, neg2_vec, position_code


def test_psi_flip_example():
    outcome = psi((-2, 0, 0), 2)
    assert outcome.is_associated
    assert outcome.sigma == SignedPermutation((-2, 3, -1))
    assert outcome.flipped
    assert str(outcome) == "-2,3,-1 (flipped)"


def test_psi_missing_examples():
    assert psi((2, 0, -1), 2).missing_case == "case2b"
    assert psi((-1, 1), 1).missing_case == "case1"
    assert psi((-1, 0), 1).missing_case == "case2a"
    assert psi((0, -1, -2), 2).missing_case == "case3"


def test_psi_unflipped_association():
    outcome = psi((-1, -1), 1)
    assert outcome.sigma == SignedPermutation((-2, -1))
    assert not outcome.flipped


def test_map_outcome_repr():
    assert repr(psi((-1, -1), 1)) == (
        "MapOutcome(sigma=SignedPermutation(window=(-2, -1)), flipped=False, missing_case=None)"
    )
    assert repr(psi((-2, 0, 0), 2)) == (
        "MapOutcome(sigma=SignedPermutation(window=(-2, 3, -1)), flipped=True, missing_case=None)"
    )
    assert repr(psi((-1, 1), 1)) == "MapOutcome(sigma=None, flipped=False, missing_case='case1')"


def test_psi_needs_length_two():
    with pytest.raises(ValueError):
        psi((1,), 1)


def test_fiber_worked_example_a():
    sigma = SignedPermutation.parse("2,-3,1,4,-5")
    assert fiber_size("D", sigma, 4) == 6
    assert fiber_vectors("D", sigma, 4) == [
        (2, 1, -2, 2, -3),
        (2, 1, -2, 2, -4),
        (2, 1, -2, 3, -4),
        (3, 1, -2, 3, -4),
        (3, 1, -3, 3, -4),
        (3, 2, -3, 3, -4),
    ]


def test_fiber_worked_example_b():
    sigma = SignedPermutation.parse("-1,2,-3")
    assert set(fiber_vectors("D", sigma, 2)) == {
        (0, 0, -1),
        (0, 0, -2),
        (0, 1, -2),
        (-1, 1, -2),
    }


def test_fiber_all_negative_pair():
    sigma = SignedPermutation((-2, -1))
    assert fiber_vectors("D", sigma, 1) == [(-1, -1)]
    assert fiber_size("D", sigma, 1) == 1


def test_fiber_rejects_odd_sign_count():
    with pytest.raises(ValueError):
        fiber_vectors("D", SignedPermutation((-1, 2)), 1)


@pytest.mark.parametrize("fn", [fiber_size, fiber_vectors, fiber_report])
def test_fiber_functions_reject_an_unknown_type(fn):
    with pytest.raises(ValueError, match="unknown type 'A'"):
        fn("A", SignedPermutation((1, 2)), 1)


@pytest.mark.parametrize("fn", [fiber_size, fiber_vectors, fiber_report])
def test_fiber_functions_reject_a_sigma_outside_dn_and_a_negative_m(fn):
    with pytest.raises(ValueError, match="even number of negative entries"):
        fn("D", SignedPermutation((-1, 2)), 1)
    with pytest.raises(ValueError, match="m must be >= 0"):
        fn("B", SignedPermutation((1, 2)), -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_fiber_counts_equal_the_vector_oracles(n):
    for m in range(4):
        swept = phi_fibers(n, m)
        assert fiber_counts("B", n, m) == {s.window: len(vs) for s, vs in swept.items()}
        if n < 2:
            continue
        counts = fiber_counts("D", n, m)
        swept, _ = psi_fibers(n, m)
        assert counts == {s.window: len(vs) for s, vs in swept.items()}
        assert sum(counts.values()) + missing_census(n, m).total_count == (2 * m + 1) ** n


@pytest.mark.parametrize("group", ["B", "D"])
def test_images_are_the_forward_map_of_each_vector_in_order(group):
    # the pass walks prefixes of n-1 codes: empty for type B at n = 1, and a
    # single code for type D at n = 2, whose second-smallest code is the last
    least = 1 if group == "B" else 2
    grid = [(n, m) for n in range(least, 6) for m in range(3)] + [(least, m) for m in range(3, 9)]
    for n, m in grid:
        images = list(map_d._images(group, n, m))
        assert len(images) == (2 * m + 1) ** n
        missing = missing_census(n, m).total_count if group == "D" else 0
        assert images.count(None) == missing
        for v, image in zip(enumerate_vectors(n, m), images):
            sigma = phi(v) if group == "B" else psi(v).sigma
            assert image == (sigma and sigma.window), (v, m)


@pytest.mark.parametrize("group", ["B", "D"])
def test_streamed_fiber_count_equals_the_count_and_vector_oracles(group):
    for n in range(1 if group == "B" else 2, 5):
        for m in range(3):
            counts = fiber_counts(group, n, m)
            swept = phi_fibers(n, m) if group == "B" else psi_fibers(n, m)[0]
            for sigma in enumerate_bn(n) if group == "B" else enumerate_dn(n):
                streamed = fiber_report(group, sigma, m).oracle_size
                assert streamed == counts.get(sigma.window, 0) == len(swept.get(sigma, ()))


def test_fiber_counts_reject_an_unknown_type_and_a_short_d_space():
    with pytest.raises(ValueError, match="unknown type 'A'"):
        fiber_counts("A", 2, 1)
    with pytest.raises(ValueError, match="need n >= 2"):
        fiber_counts("D", 1, 1)


def _report_of(reports, sigma):
    (report,) = [r for r in reports if r.sigma == sigma]
    return report


@pytest.mark.parametrize("oracle", [False, True], ids=["streamed", "counted"])
@pytest.mark.parametrize("group", ["B", "D"])
def test_empty_fiber_passes_without_decoding(monkeypatch, group, oracle):
    # des(-1,-2) = 2 in both types, so C(2 + 1 - 2, 2) = 0 at m = 1; the
    # counted route reports every sigma of the group, so its decoder refuses
    # every empty fiber and decodes the others
    sigma = SignedPermutation((-1, -2))
    chains = map_d.decode_abs_chains

    def no_empty_chain(descents, n, m):
        if len(descents) > m:  # C(n + m - des, n) = 0
            raise AssertionError("an empty fiber was decoded")
        return chains(descents, n, m)

    monkeypatch.setattr(map_d, "decode_abs_chains", no_empty_chain)
    if oracle:
        report = _report_of(fiber_reports(group, 2, 1), sigma)
    else:
        report = fiber_report(group, sigma, 1)
    assert (report.expected_size, report.oracle_size, report.vectors) == (0, 0, ())
    assert report.passed


@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_reports_fail_a_count_on_an_empty_law(monkeypatch, group):
    # des(-1,-2) = 2 in both types, so C(2 + 1 - 2, 2) = 0 at m = 1, and the
    # real count is 0 too; the count oracle is made to read one vector more
    sigma = SignedPermutation((-1, -2))
    real = map_d.fiber_counts
    assert real(group, 2, 1)[sigma.window] == 0

    def one_more(*args):
        counts = real(*args)
        counts[sigma.window] += 1
        return counts

    monkeypatch.setattr(map_d, "fiber_counts", one_more)
    reports = list(fiber_reports(group, 2, 1))
    report = _report_of(reports, sigma)
    assert (report.expected_size, report.oracle_size, report.vectors) == (0, 1, ())
    assert not report.passed
    assert all(r.passed for r in reports if r.sigma != sigma)


@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_vectors_equal_the_brute_vector_oracles(group):
    for n in range(1 if group == "B" else 2, 5):
        for m in range(3):
            swept = phi_fibers(n, m) if group == "B" else psi_fibers(n, m)[0]
            for sigma in enumerate_bn(n) if group == "B" else enumerate_dn(n):
                decoded = sorted(fiber_vectors(group, sigma, m))
                assert decoded == sorted(swept.get(sigma, [])), (sigma, m)


@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_reports_equal_the_streamed_reports(group):
    # the counted group pass against one streamed report per sigma
    for n in range(1 if group == "B" else 2, 5):
        for m in range(3):
            elements = enumerate_bn(n) if group == "B" else enumerate_dn(n)
            streamed = [fiber_report(group, sigma, m) for sigma in elements]
            assert list(fiber_reports(group, n, m)) == streamed


@pytest.mark.parametrize(
    "args, message",
    [
        (("A", 2, 1), "unknown type 'A'"),
        (("B", 0, 1), "need n >= 1"),
        (("D", 1, 1), "need n >= 2"),
        (("B", 2, -1), "m must be >= 0"),
    ],
)
def test_fiber_reports_reject_bad_arguments_before_a_report(args, message):
    with pytest.raises(ValueError, match=message):
        next(fiber_reports(*args))


@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_report_json_writer_is_json_dumps(group):
    reports = [
        r for n in range(1 if group == "B" else 2, 5) for m in range(3)
        for r in fiber_reports(group, n, m)
    ]
    # a failing report covers the writer's false branch
    reports.append(reports[-1]._replace(passed=False))

    def written(report, vectors):
        head, rest = fiber_writer("json", report.group, report.m, vectors)
        fields = report.expected_size, report.oracle_size, report.passed, report.vectors
        return head + format_vector(report.sigma.window) + rest(*fields)

    for report in reports:
        payload = report.to_json_dict()
        assert written(report, True) == json.dumps(payload)
        del payload["vectors"]
        assert written(report, False) == json.dumps(payload)


@pytest.mark.parametrize("m", [0, 1, 2])
def test_fibers_match_forward_oracle(m):
    n = 3
    fibers, missing = psi_fibers(n, m)
    total = sum(len(vs) for vs in fibers.values())
    total += sum(len(vs) for vs in missing.values())
    assert total == (2 * m + 1) ** n
    for sigma, vectors in fibers.items():
        decoded = fiber_vectors("D", sigma, m)
        assert set(decoded) == set(vectors)
        assert len(decoded) == fiber_size("D", sigma, m)


@pytest.mark.parametrize(
    "group,sigma,m,vectors",
    [
        ("B", "-1", 2, [[-2], [-1]]),
        ("D", "-1,2,-3", 2, [[-1, 1, -2], [0, 0, -2], [0, 0, -1], [0, 1, -2]]),
    ],
    ids=["B", "D"],
)
def test_fiber_report(group, sigma, m, vectors):
    report = fiber_report(group, SignedPermutation.parse(sigma), m)
    assert report.passed
    assert report.expected_size == report.oracle_size == len(vectors)
    d = report.to_json_dict()
    assert d["type"] == group
    assert d["sigma"] == sigma
    assert d["expected"] == d["actual"] == len(vectors)
    assert sorted(d["vectors"]) == vectors


@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_vectors_rejects_a_chain_that_does_not_map_back(monkeypatch, group):
    # (1, 0) decodes to the vector (1, 0), which both maps send to 2,1
    monkeypatch.setattr(map_d, "decode_abs_chains", lambda des_set, n, m: iter([(1, 0)]))
    with pytest.raises(ArithmeticError, match="does not map back"):
        fiber_vectors(group, SignedPermutation((1, 2)), 1)


@pytest.mark.parametrize("group", ["B", "D"])
def test_image_table_is_the_forward_map_of_each_vector_by_rank(group):
    # the table the all-sigma pass checks its decoded vectors against
    for n in range(1 if group == "B" else 2, 6):
        for m in range(3):
            table = []
            counts = fiber_counts(group, n, m, table)
            assert counts == fiber_counts(group, n, m)
            assert len(table) == (2 * m + 1) ** n
            for rank, v in enumerate(enumerate_vectors(n, m)):
                assert rank == sum((a + m) * (2 * m + 1) ** (n - 1 - i) for i, a in enumerate(v))
                sigma = phi(v) if group == "B" else psi(v).sigma
                assert table[rank] == (sigma and sigma.window), v
            # every image is the oracle's key itself: one tuple per window however many
            # vectors map to it, which keeps the all-sigma pass of B_2 at m = 263 under 20 MiB
            keys = {w: w for w in counts}
            assert all(keys[w] is w for w in table if w is not None)
            assert None not in keys


@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_reports_reject_a_chain_that_does_not_map_back(monkeypatch, group):
    # the image-table counterpart of the forward-map test above
    monkeypatch.setattr(map_d, "decode_abs_chains", lambda des_set, n, m: iter([(1, 0)]))
    with pytest.raises(ArithmeticError, match="does not map back"):
        list(fiber_reports(group, 2, 1))


@pytest.mark.parametrize("group", ["B", "D"])
def test_a_decoded_entry_outside_the_letters_is_refused_not_aliased(monkeypatch, group):
    # the fiber of 1,2 at m = 1 is (0,0), (0,1), (1,1); (1,-2) has the
    # base-3 rank of (0,1), whose image is 1,2, so only the range check
    # can refuse the decoder that yields it in place of (0,1)
    chains = map_d.decode_abs_chains

    def alias_for_01(descents, n, m):
        return iter([(0, 0), (1, -2), (1, 1)]) if descents == () else chains(descents, n, m)

    monkeypatch.setattr(map_d, "decode_abs_chains", alias_for_01)
    with pytest.raises(ArithmeticError, match=r"\(1, -2\) of 1,2 has an entry outside -1..1"):
        list(fiber_reports(group, 2, 1))
    with pytest.raises(ArithmeticError, match="outside -1..1"):
        fiber_vectors(group, SignedPermutation((1, 2)), 1)


@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_reports_reject_a_chain_that_does_not_map_back_at_n3(monkeypatch, group):
    # (1, 0, 0) decodes, for 1,2,3, to the vector (1, 0, 0), which both maps
    # send to 2,3,1: the block check past n = 2, where a block has more windows
    monkeypatch.setattr(map_d, "decode_abs_chains", lambda des_set, n, m: iter([(1, 0, 0)]))
    with pytest.raises(ArithmeticError, match=r"\(1, 0, 0\) does not map back to 1,2,3 \(got \(2, 3, 1\)\)"):
        list(fiber_reports(group, 3, 1))
    with pytest.raises(ArithmeticError, match="does not map back"):
        fiber_vectors(group, SignedPermutation((1, 2, 3)), 1)


@pytest.mark.parametrize("group", ["B", "D"])
def test_a_decoded_entry_outside_the_letters_is_refused_at_n3(monkeypatch, group):
    # the fiber of 1,2,3 at m = 1 is (0,0,0), (0,0,1), (0,1,1), (1,1,1);
    # (0,1,-2) has the base-3 rank 14 of (0,0,1), whose image is 1,2,3
    chains = map_d.decode_abs_chains

    def alias_for_001(descents, n, m):
        return iter([(0, 0, 0), (0, 1, -2), (0, 1, 1), (1, 1, 1)]) if descents == () else chains(descents, n, m)

    monkeypatch.setattr(map_d, "decode_abs_chains", alias_for_001)
    with pytest.raises(ArithmeticError, match=r"\(0, 1, -2\) of 1,2,3 has an entry outside -1..1"):
        list(fiber_reports(group, 3, 1))
    with pytest.raises(ArithmeticError, match="outside -1..1"):
        fiber_vectors(group, SignedPermutation((1, 2, 3)), 1)


@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_blocks_keep_exactly_the_passing_law_zero_windows_bare(group):
    # a block asked for reports reports the windows of nonzero law; the
    # windows it leaves out are exactly the passing law-0 ones, and a passing
    # block not asked for reports carries none
    for n in range(1 if group == "B" else 2, 5):
        for m in range(3):
            assert [block for _, _, block in map_d.fiber_blocks(group, n, m)[1]] == [()] * factorial(n)
            rows, blocks = map_d.fiber_blocks(group, n, m, True)
            blocks = list(blocks)
            assert len(blocks) == factorial(n) and len(rows) == 2 ** (n - 1)
            counts = fiber_counts(group, n, m)
            reports = fiber_reports(group, n, m)
            for pattern, p, block in blocks:
                assert pattern == tuple(a > b for a, b in zip(p, p[1:]))
                signs, laws = rows[pattern]
                windows = [tuple(s * a for s, a in zip(sign, p)) for sign in signs]
                full = [next(reports) for _ in signs]
                assert [r.sigma.window for r in full] == windows
                assert [r.expected_size for r in full] == laws == [fiber_size(group, SignedPermutation(w), m) for w in windows]
                assert [r.oracle_size for r in full] == [counts[w] for w in windows]
                assert list(block) == [r for r in full if r.expected_size]
                assert all((r.oracle_size, r.vectors, r.passed) == (0, (), True) for r in full if not r.expected_size)
            assert next(reports, None) is None


@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_blocks_hold_a_patterns_plans_from_its_first_block_to_its_last(monkeypatch, group):
    # a plan is made at its pattern's first block and freed after the last,
    # so the pass holds only the plans of the patterns it is between
    class Plan(list):
        pass

    made = []
    real = map_d._plan

    def plan(window, m, descents):
        p, kept = tuple(map(abs, window)), Plan(real(window, m, descents))
        made.append((tuple(map(gt, p, p[1:])), weakref.ref(kept)))
        return kept

    monkeypatch.setattr(map_d, "_plan", plan)
    patterns = [tuple(map(gt, p, p[1:])) for p in permutations(range(1, 5))]
    rows, blocks = map_d.fiber_blocks(group, 4, 2)
    planned = {pattern for pattern, (_, laws) in rows.items() if any(laws)}
    assert made == []
    for k, (pattern, _, _) in enumerate(blocks):
        assert pattern == patterns[k]
        assert {pat for pat, _ in made} == set(patterns[: k + 1]) & planned
        assert {pat for pat, ref in made if ref() is not None} <= set(patterns[k:])
    assert all(ref() is None for _, ref in made)


@pytest.mark.parametrize(
    "group,n,m,narrowest",
    [("B", 1, 4, "B")] + [(g, *nm) for g in "BD" for nm in [(2, 1, "B"), (3, 2, "B"), (4, 1, "B"), (4, 2, "H"), (2, 150, "I")]],
)
def test_packed_ranks_are_the_ranks_of_the_decoded_vectors(group, n, m, narrowest):
    # a pattern's plans, read for every permutation with it, packed as the all-sigma
    # pass checks them: the base-(2m+1) rank of each vector in permutation, plan and
    # row order, for every item width that holds (2m+1)^n - 1
    widths = [c for c in "BHIQ" if array(c).itemsize * 8 >= ((2 * m + 1) ** n - 1).bit_length()]
    assert widths[0] == narrowest
    signs = _signs(n, group)
    for pattern, (sets, perms) in _descent_table(group, n).items():
        plans = [
            map_d._plan(tuple(s * a for s, a in zip(sign, perms[0])), m, tuple(i for i in range(n) if d >> i & 1))
            for sign, d in zip(signs, sets)
            if d.bit_count() <= m
        ]
        expected = [
            sum((a + m) * (2 * m + 1) ** (n - 1 - i) for i, a in enumerate(map_d._picker(p)(row)))
            for p in perms for plan in plans for row in plan
        ]
        for code in widths:
            assert list(map_d._ranks(plans, perms, m, code)) == expected, (pattern, code)


def test_all_sigma_blocks_of_the_largest_n2_corner_stay_under_20_mib():
    # fibers --type B --n 2 --m 263 is admitted at 9,998,260 of 10^7 steps, the
    # largest all-sigma space at n = 2: each of its two blocks checks about half of
    # its 277,729 vectors at once, so the rank check must pack its columns in place
    # (a bytes object per plan row took the whole command from 35 to 55 MB RSS)
    list(map_d.fiber_blocks("B", 2, 2)[1])  # imports and first-call allocations
    tracemalloc.start()
    try:
        _, blocks = map_d.fiber_blocks("B", 2, 263)
        assert [p for _, p, _ in blocks] == [(1, 2), (2, 1)]
        # a drained pass holds nothing: its image table alone is over 2 MiB
        left, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 20 * 2**20
    assert left < 2**20


@pytest.mark.parametrize("group", ["B", "D"])
def test_decode_plans_give_the_vectors_of_decode_in_its_order(group):
    # the all-sigma pass decodes each window from the plan of its (pattern,
    # signs) key, read from the pattern's first permutation; each sigma's
    # own decoding, through _decode and written out entry by entry, must
    # give the same list in the same order
    for n in range(1 if group == "B" else 2, 6):
        for m in range(4):
            for r in fiber_reports(group, n, m):
                w = r.sigma.window
                descents = r.sigma.descents(group)
                by_entry = []
                for abs_vals in map_d.decode_abs_chains(descents, n, m):
                    v = [0] * n
                    for x, a in zip(w, abs_vals):
                        v[abs(x) - 1] = a if x > 0 else -a
                    by_entry.append(tuple(v))
                own = map_d._decode(lambda v: w, w, map_d._plan(w, m, descents), map_d._picker(tuple(map(abs, w))))
                assert list(r.vectors) == by_entry == own, (w, m)


@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_report_fails_on_a_repeated_chain(monkeypatch, group):
    # a decoder that yields one chain twice still covers the swept fiber as a
    # set, and every decoded vector maps back; only the length rule catches it
    chains = map_d.decode_abs_chains

    def repeat_first(des_set, n, m):
        decoded = list(chains(des_set, n, m))
        return iter(decoded + decoded[:1])

    sigma = SignedPermutation.parse("-1,2,-3")
    expected = fiber_report(group, sigma, 2)
    monkeypatch.setattr(map_d, "decode_abs_chains", repeat_first)
    report = fiber_report(group, sigma, 2)
    assert set(report.vectors) == set(expected.vectors)
    assert report.oracle_size == report.expected_size == expected.expected_size
    assert not report.passed


@pytest.mark.parametrize("oracle", [False, True], ids=["streamed", "counted"])
@pytest.mark.parametrize("group", ["B", "D"])
def test_fiber_report_fails_on_a_repeat_that_keeps_the_length(monkeypatch, group, oracle):
    # the last chain replaced by the first: every size agrees and every
    # decoded vector maps back, so only the distinctness rule catches it
    chains = map_d.decode_abs_chains

    def repeat_for_last(des_set, n, m):
        decoded = list(chains(des_set, n, m))
        return iter(decoded[:-1] + decoded[:1])

    sigma = SignedPermutation.parse("-2,-1,3")
    monkeypatch.setattr(map_d, "decode_abs_chains", repeat_for_last)
    if oracle:
        report = _report_of(fiber_reports(group, 3, 2), sigma)
    else:
        report = fiber_report(group, sigma, 2)
    assert report.expected_size == report.oracle_size == len(report.vectors) > 1
    assert not report.passed


def test_missing_vectors_have_at_most_one_zero():
    for m in (1, 2):
        _, missing = psi_fibers(3, m)
        for vectors in missing.values():
            assert all(v.count(0) <= 1 for v in vectors)


def test_neg2_preserved_on_associated_pairs():
    fibers, _ = psi_fibers(3, 2)
    for sigma, vectors in fibers.items():
        for v in vectors:
            assert neg2_vec(v) == sigma.neg2()


def test_census_n2_m1():
    census = missing_census(2, 1)
    assert census.counts == {"case1": 2, "case2a": 1, "case2b": 1, "case3": 0}
    assert census.total_count == 4
    assert census.total_weight == QPolynomial([2, 2])
    assert census.passed


def test_census_n3_m1():
    census = missing_census(3, 1)
    assert census.counts["case1"] == 4
    assert census.counts["case2a"] == 3
    assert census.counts["case2b"] + census.counts["case3"] == 5
    assert census.total_count == 12
    assert census.total_weight == QPolynomial([3, 6, 3])
    assert census.passed


def test_census_closed_forms_n3_m1():
    assert missing_case1_closed(3, 1) == 4
    assert missing_case2a_closed(3, 1) == 3
    assert missing_cases2b3_closed(3, 1) == 5
    assert missing_total_closed(3, 1) == 12
    assert missing_weight_closed(3, 1) == QPolynomial([3, 6, 3])


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_census_matches_closed_forms(n, m):
    assert missing_census(n, m).passed


def test_census_m0_all_zero():
    census = missing_census(3, 0)
    assert census.total_count == 0
    assert census.total_weight == 0


def test_census_fails_a_fold_that_leaves_a_vector_unclassified(monkeypatch):
    # the all-zero vector is associated; a fold that drops it leaves every missing
    # count and weight on its closed form, but 3^3 vectors are not all classified
    real = map_d._census_fold

    def dropped(n, m):
        cells = real(n, m)
        cells[len(MISSING_CASES) * (n + 1)] -= 1
        return cells

    assert missing_census(3, 1).passed
    monkeypatch.setattr(map_d, "_census_fold", dropped)
    census = missing_census(3, 1)
    assert census.total_count == missing_total_closed(3, 1) and census.total_weight == missing_weight_closed(3, 1)
    assert census.total_count + census.associated_count == 3**3 - 1
    assert not census.passed


def _census_cell(v) -> int:
    """The census cell of v: its psi block, then neg2 within the block."""
    outcome = psi(v)
    block = len(MISSING_CASES) if outcome.is_associated else MISSING_CASES.index(outcome.missing_case)
    return block * (len(v) + 1) + neg2_vec(v)


def test_census_fold_classifies_every_vector_as_psi(monkeypatch):
    # one-vector spaces: one column per position, holding v's code alone
    columns = []
    monkeypatch.setattr(map_d, "_columns", lambda n, m: columns)
    for n in range(2, 6):
        for m in range(4):
            for v in enumerate_vectors(n, m):
                columns[:] = [(position_code(i, a, n),) for i, a in enumerate(v, start=1)]
                cells = map_d._census_fold(n, m)
                expected = [0] * len(cells)
                expected[_census_cell(v)] = 1
                assert cells == expected, v


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_census_fold_tallies_real_shards_as_psi(n):
    # whole vector spaces, where many prefixes share a key, so each key's
    # count must reach every cell its last-column letters fold it into
    for m in range(4):
        expected = [0] * ((len(MISSING_CASES) + 1) * (n + 1))
        for v in enumerate_vectors(n, m):
            expected[_census_cell(v)] += 1
        assert map_d._census_fold(n, m) == expected, m


def test_census_fold_case_cache_does_not_grow_with_m():
    # at n = 2 every vector is one step, with 2(2m+1) distinct smallest codes
    # per position; the census fold and the type-D image pass cache cases by
    # each code's entry class, whose count does not depend on m (an unbounded
    # cache of raw code pairs peaked near 51 MB at m = 300, and the image
    # pass near 13 MiB at m = 150)
    for vectors in (lambda m: sum(map_d._census_fold(2, m)), lambda m: sum(1 for _ in map_d._images("D", 2, m))):
        vectors(5)  # imports and first-call allocations
        tracemalloc.start()
        try:
            count = vectors(150)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert count == 301**2
        assert peak < 2 * 2**20


def test_census_json_schema():
    d = missing_census(2, 1).to_json_dict()
    assert d["n"] == 2 and d["m"] == 1
    assert d["cases"]["case1"] == {"count": 2, "weight": [2]}
    assert d["cases"]["case2a"] == {"count": 1, "weight": [0, 1]}
    assert d["closed_forms"] == {
        "A": 1,
        "B": 1,
        "case1": 2,
        "total": 4,
        "total_weight": [2, 2],
    }
    assert d["pass"] is True


def test_printed_case_weights_n2_m1():
    case1, case2a, cases2b3 = printed_case_weights_q(2, 1)
    assert case1 == ONE_PLUS_Q
    assert case2a == 1
    assert cases2b3 == QPolynomial([0, 1])
    assert case1 + case2a + cases2b3 == missing_census(2, 1).total_weight


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [1, 2])
def test_printed_case_weights_sum_matches_census(n, m):
    census = missing_census(n, m)
    case1, case2a, cases2b3 = printed_case_weights_q(n, m)
    assert case1 + case2a + cases2b3 == census.total_weight
    # q=1 specialization recovers the three closed-form counts
    assert case1.at_q1() == missing_case1_closed(n, m)
    assert case2a.at_q1() == missing_case2a_closed(n, m)
    assert cases2b3.at_q1() == missing_cases2b3_closed(n, m)


def test_printed_case_weights_differ_per_case():
    # only the sum matches: the printed case1 value deviates from the
    # direct per-case weighting (and so does case2a)
    census = missing_census(2, 1)
    case1, case2a, _ = printed_case_weights_q(2, 1)
    assert case1 != census.weights["case1"]
    assert case2a != census.weights["case2a"]


def test_worpitzky_d_q1_spot_values():
    report = verify_worpitzky_d_q1(2, 1)
    assert report.passed and report.lhs == 5 and report.rhs == 5
    report = verify_worpitzky_d_q1(3, 1)
    assert report.passed and report.lhs == 15
    report = verify_worpitzky_d_q1(4, 0)
    assert report.passed and report.lhs == 1


def test_balance_spot_values():
    report = verify_balance_d_q(2, 1)
    assert report.passed
    assert report.lhs == QPolynomial([6, 3])
    assert report.extras["associated"] == QPolynomial([4, 1])
    assert report.extras["missing"] == QPolynomial([2, 2])

    report = verify_balance_d_q(3, 1)
    assert report.passed
    assert report.lhs == QPolynomial([11, 12, 4])
    assert report.extras["associated"] == QPolynomial([8, 6, 1])
    assert report.extras["missing"] == QPolynomial([3, 6, 3])


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_balance_q1_specializes_to_worpitzky_d(n, m):
    balance = verify_balance_d_q(n, m)
    q1 = verify_worpitzky_d_q1(n, m)
    assert balance.lhs.at_q1() - balance.extras["missing"].at_q1() == q1.rhs
    assert q1.lhs + balance.extras["missing"].at_q1() == (2 * m + 1) ** n


def test_printed_lhs_deviates():
    printed = printed_lhs_d_q(2, 1)
    assert printed == ONE_PLUS_Q  # 3(1+q) - 2(1+q)
    assert printed.at_q1() == 2
    assert verify_balance_d_q(2, 1).extras["associated"].at_q1() == 5
    assert printed_lhs_d_q(3, 0) == 0


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("m", [0, 1, 2])
def test_erratum_confirmed(n, m):
    report = erratum_report_d(n, m)
    assert report.passed  # discrepancy confirmed, q=1 left side still correct
    assert report.lhs != report.rhs
    assert report.extras["correct_q1_lhs"] == report.extras["rhs_at_q1"]


@pytest.mark.parametrize(
    "verify, least_n",
    [(verify_worpitzky_a, 1), (verify_worpitzky_b, 1), (verify_worpitzky_d_q1, 2), (verify_balance_d_q, 2)],
    ids=["worpitzky-a", "worpitzky-b", "worpitzky-d", "balance-d"],
)
def test_terms_derived_from_the_row_sum_to_the_right_side(verify, least_n):
    for n in range(least_n, 9):
        for m in range(n + 2):
            report = verify(n, m)
            terms = report.terms
            assert len(terms) == len(report.row) > 0
            assert [(k, entry) for k, _, entry, _ in terms] == list(enumerate(report.row))
            # balance-d sums its row into the associated part; its right side adds the missing weight
            rhs = report.extras["associated"] if "associated" in report.extras else report.rhs
            assert sum((contribution for *_, contribution in terms), 0 * rhs) == rhs, (n, m)


def test_erratum_report_values():
    report = erratum_report_d(2, 1)
    assert report.extras["printed_at_q1"] == 2
    assert report.extras["rhs_at_q1"] == 5
    # the probe keeps no row, so its JSON has no terms
    assert report.row == report.terms == ()
    assert "terms" not in report.to_json_dict()


def test_type_d_identities_at_n20():
    # beyond any enumeration: the DP row against both closed-form routes
    assert all(verify_worpitzky_d_q1(20, m).passed for m in range(6))
    assert erratum_report_d(20, 1).passed


def test_invariant_checks_survive_optimize_flag():
    # `python -O` strips assert statements, so invariants must raise explicitly
    for path in sorted(Path(worpitzky.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        asserts = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
        assert asserts == [], f"{path.name}: assert at lines {asserts}"
