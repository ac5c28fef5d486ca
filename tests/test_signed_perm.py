"""Signed permutations: parsing, descent sets, sign statistics, enumeration."""

import copy
import itertools
import math
import pickle
from operator import gt

import pytest
from hypothesis import given
from hypothesis import strategies as st

from worpitzky.signed_perm import (
    SignedPermutation,
    _descent_table,
    _elements,
    _signed_windows,
    enumerate_bn,
    enumerate_dn,
)


@st.composite
def signed_perms(draw, max_n=6):
    n = draw(st.integers(1, max_n))
    perm = draw(st.permutations(list(range(1, n + 1))))
    signs = draw(st.lists(st.sampled_from([1, -1]), min_size=n, max_size=n))
    return SignedPermutation(tuple(s * p for s, p in zip(signs, perm)))


def test_parse_longer_window():
    sigma = SignedPermutation.parse("2,-1,4,-5,3")
    assert sigma.window == (2, -1, 4, -5, 3)
    assert sigma.n == 5


def test_parse_identity():
    assert SignedPermutation.parse("1,2,3") == SignedPermutation((1, 2, 3))


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("1,1", "duplicate absolute value 1 at position 2"),
        ("0,1", "zero entry at position 1"),
        ("1,3", "absolute value 3 at position 2"),
        ("1,x", "invalid integer 'x' at position 2"),
    ],
)
def test_parse_errors_carry_position(text, fragment):
    with pytest.raises(ValueError, match=fragment):
        SignedPermutation.parse(text)


@given(signed_perms())
def test_parse_format_round_trip(sigma):
    assert SignedPermutation.parse(sigma.format()) == sigma


def test_des_a():
    assert SignedPermutation((-1, 2, -5, 4, 3)).descents("A") == (2, 4)
    assert SignedPermutation((1, 2, 3, 4)).descents("A") == ()
    assert SignedPermutation((3, 2, 1)).descents("A") == (1, 2)


def test_des_b():
    assert SignedPermutation((-1, 2, -5, 4, 3)).descents("B") == (0, 2, 4)
    assert SignedPermutation((2, -1, 4, -5, 3)).descents("B") == (1, 3)
    assert SignedPermutation((1, 2, 3)).descents("B") == ()


def test_des_d():
    assert SignedPermutation((-3, 2, 6, -5, 1, 4)).descents("D") == (0, 3)
    assert SignedPermutation((2, -3, 1, 4, -5)).descents("D") == (0, 1, 4)
    assert SignedPermutation((1, 2, 3)).descents("D") == ()


def test_des_d_needs_two_entries():
    with pytest.raises(ValueError):
        SignedPermutation((1,)).descents("D")


@pytest.mark.parametrize("group", ["A", "B", "D"])
def test_des_counts_the_increasing_descent_tuple(group):
    for sigma in enumerate_bn(4):
        descents = sigma.descents(group)
        assert sigma.des(group) == len(descents)
        assert all(i < j for i, j in zip(descents, descents[1:]))


@pytest.mark.parametrize("method", ["descents", "des"])
def test_descent_rule_rejects_an_unknown_type_and_a_short_d_window(method):
    with pytest.raises(ValueError, match="unknown type 'C'"):
        getattr(SignedPermutation((1, 2, 3)), method)("C")
    with pytest.raises(ValueError, match="at least two entries"):
        getattr(SignedPermutation((1,)), method)("D")


def test_neg():
    assert SignedPermutation((-1, 2, -5, 4, 3)).neg() == 2
    assert SignedPermutation((1, 2, 3, 4, 5)).neg() == 0
    assert SignedPermutation((-1, -2)).neg() == 2


def test_neg2():
    assert SignedPermutation((-3, 2, 6, -5, 1, 4)).neg2() == 1
    assert SignedPermutation((-1, -2)).neg2() == 1
    assert SignedPermutation((1, 2, 3, 4)).neg2() == 0


def test_is_in_dn():
    assert SignedPermutation((-1, 2, -3)).is_in_dn()
    assert not SignedPermutation((-1, 2, 3)).is_in_dn()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_bn_size(n):
    elems = list(enumerate_bn(n))
    assert len(elems) == 2 ** n * math.factorial(n)
    assert len(set(elems)) == len(elems)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_dn_size(n):
    elems = list(enumerate_dn(n))
    assert len(elems) == 2 ** (n - 1) * math.factorial(n)
    assert all(sigma.neg() % 2 == 0 for sigma in elems)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_dn_keeps_the_order_of_bn(n):
    assert list(enumerate_dn(n)) == [s for s in enumerate_bn(n) if s.is_in_dn()]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_signed_windows_keep_the_permutation_then_sign_mask_order(n):
    # the order of the per-sigma enumeration: each permutation under each
    # sign mask in increasing order, where bit i negates entry i
    perms = list(itertools.permutations(range(1, n + 1)))
    signed = [tuple(-x if mask >> i & 1 else x for i, x in enumerate(p)) for p in perms for mask in range(1 << n)]
    assert [sigma.window for sigma in enumerate_bn(n)] == signed
    if n >= 2:
        even = [w for w in signed if sum(x < 0 for x in w) % 2 == 0]
        assert [sigma.window for sigma in enumerate_dn(n)] == even
    assert [sigma.window for sigma in _elements(n, "A")] == perms
    assert [pattern for pattern, _ in _signed_windows(n, "B")] == [tuple(map(gt, p, p[1:])) for p in perms]


@pytest.mark.parametrize("group,n", [("B", n) for n in range(1, 7)] + [("D", n) for n in range(2, 7)])
def test_descent_table_equals_des_on_every_element(group, n):
    # one row per type-A descent pattern, read by every permutation with it
    table = _descent_table(group, n)
    assert len(table) == 2 ** (n - 1)
    for pattern, windows in _signed_windows(n, group):
        assert table[pattern] == [SignedPermutation(w).des(group) for w in windows], pattern


def test_enumeration_is_deterministic():
    assert list(enumerate_bn(3)) == list(enumerate_bn(3))


def test_descent_sets_nest():
    for sigma in enumerate_bn(3):
        type_a = set(sigma.descents("A"))
        assert set(sigma.descents("B")) >= type_a
        assert set(sigma.descents("B")) - type_a <= {0}
        assert set(sigma.descents("D")) >= type_a
        assert set(sigma.descents("D")) - type_a <= {0}


def test_neg2_drops_first_position_sign():
    for sigma in enumerate_bn(3):
        first_negative = 1 if sigma.window[0] < 0 else 0
        assert sigma.neg2() == sigma.neg() - first_negative


def test_flip_first():
    sigma = SignedPermutation((2, 3, -1))
    assert sigma.flip_first().window == (-2, 3, -1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_trusted_windows_are_valid(n):
    # enumeration and flip_first skip the constructor's checks; revalidate
    # every window they build
    groups = [enumerate_bn(n)] + ([enumerate_dn(n)] if n >= 2 else [])
    for sigma in (s for group in groups for s in group):
        assert SignedPermutation(sigma.window) == sigma
        flipped = sigma.flip_first()
        assert SignedPermutation(flipped.window) == flipped


def test_invalid_windows_rejected():
    with pytest.raises(ValueError, match="empty window"):
        SignedPermutation(())
    with pytest.raises(ValueError, match="duplicate absolute value 1 at position 2"):
        SignedPermutation((1, 1))
    with pytest.raises(ValueError, match="absolute value 3 at position 2 out of range 1..2"):
        SignedPermutation((2, 3))
    with pytest.raises(ValueError, match="zero entry at position 2"):
        SignedPermutation([-1, 0])


def test_equality_and_hash_follow_the_window():
    sigma = SignedPermutation([2, -1, 3])
    assert sigma.window == (2, -1, 3)
    for twin in (SignedPermutation((2, -1, 3)), SignedPermutation._of((2, -1, 3))):
        assert twin == sigma and hash(twin) == hash(sigma)
    assert len({sigma, SignedPermutation((2, -1, 3)), SignedPermutation((2, 1, 3))}) == 2
    assert sigma != SignedPermutation((2, 1, 3))
    assert sigma != (2, -1, 3) and (2, -1, 3) != sigma


def test_signed_permutations_are_immutable():
    sigma = SignedPermutation((2, -1, 3))
    with pytest.raises(AttributeError):
        sigma.window = (1, 2, 3)
    with pytest.raises(AttributeError):
        del sigma.window
    with pytest.raises(AttributeError):
        sigma.extra = 1
    assert sigma.window == (2, -1, 3)
    for twin in (pickle.loads(pickle.dumps(sigma)), copy.copy(sigma), copy.deepcopy(sigma)):
        assert twin == sigma and twin.window == (2, -1, 3)


def test_repr_shows_the_window():
    assert repr(SignedPermutation((2, -1, 3))) == "SignedPermutation(window=(2, -1, 3))"
    assert repr(SignedPermutation._of((1,))) == "SignedPermutation(window=(1,))"
