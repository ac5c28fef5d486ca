"""Alphabet order, vector statistics and total q-weights."""

import itertools
from collections import Counter

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from worpitzky import map_d
from worpitzky.exactnum import QPolynomial
from worpitzky.map_d import MISSING_CASES, missing_census, psi, verify_balance_d_q
from worpitzky.sigma_vectors import (
    NO_CODE,
    _columns,
    _neg2_fold,
    _neg_fold,
    _prefix_keys,
    enumerate_vectors,
    format_vector,
    neg2_vec,
    neg_vec,
    order_key,
    parse_vector,
    position_code,
    total_weight_neg,
    total_weight_neg2,
)


def test_order_key_values():
    assert order_key(0) == 0
    assert order_key(-1) == 1
    assert order_key(1) == 2
    assert order_key(-2) == 3
    assert order_key(2) == 4


def test_order_key_chain_is_increasing():
    m = 5
    chain = [0]
    for j in range(1, m + 1):
        chain += [-j, j]
    keys = [order_key(x) for x in chain]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)
    assert order_key(-m) < order_key(m)


def test_neg_vec():
    assert neg_vec((1, -2, 0, -1, 3, -2)) == 3
    assert neg_vec((0, 0, 0)) == 0
    assert neg_vec((-1, -1)) == 2


def test_neg2_vec_examples():
    assert neg2_vec((-1, 1)) == 0  # smallest is -1, excluded
    assert neg2_vec((-1, 0)) == 1  # smallest is 0, the -1 still counts
    assert neg2_vec((0, 0)) == 0


def test_neg2_vec_matches_definition_exhaustively():
    # independent re-derivation: drop one occurrence of the order-smallest value
    for v in itertools.product(range(-2, 3), repeat=3):
        ranked = sorted(v, key=order_key)
        rest = list(ranked[1:])
        assert neg2_vec(v) == sum(1 for a in rest if a < 0)


def test_neg2_vec_rejects_empty():
    with pytest.raises(ValueError):
        neg2_vec(())


def test_enumerate_vectors_counts():
    assert len(list(enumerate_vectors(2, 1))) == 9
    assert sum(1 for _ in enumerate_vectors(5, 3)) == 7 ** 5
    assert list(enumerate_vectors(1, 0)) == [(0,)]


def test_enumerate_vectors_distinct_and_bounded():
    vs = list(enumerate_vectors(3, 1))
    assert len(set(vs)) == len(vs)
    assert all(all(abs(a) <= 1 for a in v) for v in vs)


def test_total_weight_neg_small():
    assert total_weight_neg(1, 1) == QPolynomial([2, 1])
    assert total_weight_neg(2, 1) == QPolynomial([4, 4, 1])
    assert total_weight_neg(3, 0) == 1


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_total_weight_neg_closed_form(n, m):
    assert total_weight_neg(n, m) == QPolynomial([1 + m, m]) ** n


def test_total_weight_neg2_frozen():
    assert total_weight_neg2(2, 1) == QPolynomial([6, 3])
    assert total_weight_neg2(3, 1) == QPolynomial([11, 12, 4])


@pytest.mark.parametrize("m", [0, 1, 2, 3])
def test_total_weight_neg2_single_entry_is_constant(m):
    # the single entry is always the smallest, hence always excluded
    assert total_weight_neg2(1, m) == 2 * m + 1


@pytest.mark.parametrize("fold, stat", [(_neg_fold, neg_vec), (_neg2_fold, neg2_vec)])
def test_folds_equal_the_per_vector_statistics(fold, stat):
    for n in range(1, 6):
        for m in range(4):
            tally = [0] * (n + 1)
            for v in enumerate_vectors(n, m):
                tally[stat(v)] += 1
            assert fold(n, m) == tally


# a vector space (n, m) with n <= 6 and m <= 3
_spaces = st.tuples(st.integers(1, 6), st.integers(0, 3))


def _one_first_letter(n, m, first):
    """The columns of the vectors of length n, bound m, that start with ``first``."""
    return [(position_code(1, first, n),)] + _columns(n, m)[1:]


def _keys_of_every_prefix(columns, low):
    """The keys read off each (n-1)-prefix in turn: its code sum mod n+1,
    with for low > 0 its ``low`` smallest codes, padded with NO_CODE."""
    *head, _ = columns
    w = len(columns) + 1
    keys = Counter()
    for prefix in itertools.product(*head):
        s = sum(prefix) % w
        smallest = tuple(sorted(prefix + (NO_CODE,) * low)[:low])
        keys[s if not low else (s, smallest[0]) if low == 1 else (s, smallest)] += 1
    return keys


# (n, m, first): the vectors of a drawn space that start with one letter
_starts = _spaces.flatmap(lambda nm: st.tuples(st.just(nm[0]), st.just(nm[1]), st.integers(-nm[1], nm[1])))


@settings(max_examples=60, deadline=None)
@given(start=_starts, low=st.integers(0, 2))
@example(start=(1, 0, 0), low=1)  # an empty prefix: its smallest code is the pad
@example(start=(1, 3, -3), low=0)
@example(start=(2, 3, 2), low=2)  # a prefix of one code, padded to two
@example(start=(6, 3, -1), low=2)
def test_prefix_keys_count_every_prefix_by_its_key(start, low):
    n, m, first = start
    assume(n >= 2 or low < 2)  # the census, the only low-2 reader, needs n >= 2
    columns = _one_first_letter(n, m, first)
    last, keys = _prefix_keys(columns, low)
    assert last == columns[-1]
    assert keys == _keys_of_every_prefix(columns, low)


@pytest.mark.parametrize("n, low, key", [
    (1, 0, 0),
    (1, 1, (0, NO_CODE)),
    (2, 2, (position_code(1, -1, 2) % 3, (position_code(1, -1, 2), NO_CODE))),
])
def test_prefix_keys_pad_a_prefix_shorter_than_low(n, low, key):
    # the vectors starting with -1: their one prefix holds n-1 codes
    assert _prefix_keys(_one_first_letter(n, 1, -1), low)[1] == Counter({key: 1})


@settings(max_examples=40, deadline=None)
@given(space=_spaces)
@example(space=(1, 0))  # empty prefix: its smallest code is the NO_CODE pad
@example(space=(1, 3))
@example(space=(2, 3))  # prefixes of one code
@example(space=(6, 3))
def test_folds_count_every_prefix_of_a_drawn_shard(space):
    n, m = space
    neg, neg2 = [0] * (n + 1), [0] * (n + 1)
    # the census's blocks of n+1 cells: one per missing case, then the associated
    census = [0] * ((len(MISSING_CASES) + 1) * (n + 1))
    for v in enumerate_vectors(n, m):
        neg[neg_vec(v)] += 1
        neg2[neg2_vec(v)] += 1
        if n > 1:
            case = psi(v).missing_case
            block = len(MISSING_CASES) if case is None else MISSING_CASES.index(case)
            census[block * (n + 1) + neg2_vec(v)] += 1
    assert _neg_fold(n, m) == neg
    assert _neg2_fold(n, m) == neg2
    if n > 1:
        assert map_d._census_fold(n, m) == census


@pytest.mark.parametrize("n, m", [(6, 2), (7, 1)])
@pytest.mark.parametrize("calls", [1, 3])
def test_sweeps_equal_brute_sums_over_every_vector(n, m, calls):
    # calls > 1: a sweep run again in the same process gives the same sums
    neg, neg2 = [0] * (n + 1), [0] * (n + 1)
    cases = {case: [0] * (n + 1) for case in (*MISSING_CASES, None)}
    for v in enumerate_vectors(n, m):
        neg[neg_vec(v)] += 1
        neg2[neg2_vec(v)] += 1
        cases[psi(v).missing_case][neg2_vec(v)] += 1
    for _ in range(calls):
        assert total_weight_neg(n, m) == QPolynomial(neg)
        assert total_weight_neg2(n, m) == QPolynomial(neg2)
        census = missing_census(n, m)
        assert census.counts == {case: sum(cases[case]) for case in MISSING_CASES}
        assert census.weights == {case: QPolynomial(cases[case]) for case in MISSING_CASES}
        assert census.associated_count == sum(cases[None])


@pytest.mark.parametrize("n, m", [(14, 1), (10, 2), (8, 3)])
def test_large_sweeps_meet_their_closed_forms(n, m):
    # millions of vectors, but few prefix keys per shard
    assert total_weight_neg(n, m) == QPolynomial([1 + m, m]) ** n
    census = missing_census(n, m)
    assert census.total_count + census.associated_count == (2 * m + 1) ** n
    assert verify_balance_d_q(n, m).passed


def test_vector_text_round_trip():
    v = parse_vector("1,-2,0,-1,3,-2", m=3)
    assert v == (1, -2, 0, -1, 3, -2)
    assert format_vector(v) == "1,-2,0,-1,3,-2"


def test_format_vector_prints_letters_outside_its_table():
    v = (-65, 64, -64, 65, 1000, -10**30, 0)
    assert format_vector(v) == ",".join(map(str, v))
    assert format_vector(()) == ""


def test_parse_vector_errors():
    with pytest.raises(ValueError, match="position 2"):
        parse_vector("1,a,0")
    with pytest.raises(ValueError, match="exceeds bound"):
        parse_vector("1,-4", m=3)
