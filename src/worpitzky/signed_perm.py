"""Signed permutations in window notation and their descent statistics.

A signed permutation on n letters is stored as its window
(sigma_1, ..., sigma_n): the absolute values form a permutation of
{1, ..., n} and each entry carries a sign.  The full action on
{-n, ..., -1, 1, ..., n} with sigma(-i) = -sigma(i) is implicit; every
statistic here reads only the window.

Descent sets come in three flavours, read by ``descents(group)`` and
counted by ``des(group)``: position i in [0, n-1] is a descent when
sigma_i > sigma_{i+1}, where ``_sigma0`` gives sigma_0 by type:

* type A: sigma_0 = sigma_1, so position 0 is never a descent;
* type B: sigma_0 = 0, so position 0 is a descent when sigma_1 < 0;
* type D: sigma_0 = -sigma_2, so position 0 is a descent when sigma_1 + sigma_2 < 0.
"""

from __future__ import annotations

import itertools
from operator import gt, mul
from typing import Iterator

from .sigma_vectors import format_vector, parse_vector


class SignedPermutation:
    """A signed permutation in window (one-line) notation, equal by window."""

    __slots__ = ("window",)

    def __init__(self, window):
        window = tuple(window)
        n = len(window)
        if n == 0:
            raise ValueError("empty window")
        seen = [False] * (n + 1)
        for pos, entry in enumerate(window, start=1):
            if entry == 0:
                raise ValueError(f"zero entry at position {pos}")
            a = abs(entry)
            if a > n:
                raise ValueError(
                    f"absolute value {a} at position {pos} out of range 1..{n}"
                )
            if seen[a]:
                raise ValueError(f"duplicate absolute value {a} at position {pos}")
            seen[a] = True
        object.__setattr__(self, "window", window)

    @classmethod
    def _of(cls, window: tuple[int, ...]) -> "SignedPermutation":
        """Wrap a window that is valid by construction, skipping the checks
        of ``__init__``; outside input goes through the constructor."""
        perm = object.__new__(cls)
        object.__setattr__(perm, "window", window)
        return perm

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign or delete {name!r}: SignedPermutation is immutable")

    __delattr__ = __setattr__

    def __eq__(self, other):
        return self.window == other.window if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self.window)

    def __repr__(self) -> str:
        return f"SignedPermutation(window={self.window!r})"

    def __reduce__(self):  # pickle and copy through the constructor, not __setattr__
        return self.__class__, (self.window,)

    # -- text format ----------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "SignedPermutation":
        """Parse comma-separated signed integers, e.g. ``2,-1,4,-5,3``."""
        return cls(parse_vector(text))

    def format(self) -> str:
        return format_vector(self.window)

    def __str__(self) -> str:
        return self.format()

    # -- basic structure --------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.window)

    def flip_first(self) -> "SignedPermutation":
        """Invert the sign of the first window entry."""
        return SignedPermutation._of((-self.window[0],) + self.window[1:])

    # -- descents ------------------------------------------------------------

    def descents(self, group: str) -> tuple[int, ...]:
        """The type-``group`` descent positions in increasing order."""
        w = self.window
        return tuple(itertools.compress(itertools.count(), map(gt, (_sigma0(group, w),) + w, w)))

    def des(self, group: str) -> int:
        """The number of type-``group`` descents."""
        w = self.window
        return sum(map(gt, (_sigma0(group, w),) + w, w))

    # -- sign statistics ----------------------------------------------------

    def neg(self) -> int:
        """Number of negative window entries."""
        return sum(1 for x in self.window if x < 0)

    def neg2(self) -> int:
        """Number of negative entries among positions 2..n."""
        return sum(1 for x in self.window[1:] if x < 0)

    def is_in_dn(self) -> bool:
        """True when the number of negative entries is even."""
        return self.neg() % 2 == 0


def _sigma0(group: str, window: tuple[int, ...]) -> int:
    """sigma_0, compared with sigma_1 at position 0: sigma_1 in type A, 0 in B, -sigma_2 in D."""
    if group == "B":
        return 0
    if group == "D":
        if len(window) < 2:
            raise ValueError("type-D descents need at least two entries")
        return -window[1]
    if group == "A":
        return window[0]
    raise ValueError(f"unknown type {group!r}, expected A, B or D")


def _masks(n: int, group: str) -> list[int]:
    """The sign masks of a permutation's type-``group`` windows, increasing (bit i
    negates entry i): all 2^n in type B, the even ones in D and mask 0 in A."""
    return [mask for mask in range(1 if group == "A" else 1 << n) if group != "D" or mask.bit_count() % 2 == 0]


def _signs(n: int, group: str) -> list[tuple[int, ...]]:
    """The signs of a permutation's type-``group`` windows in ``_masks`` order."""
    return [tuple(-1 if mask >> i & 1 else 1 for i in range(n)) for mask in _masks(n, group)]


def _elements(n: int, group: str) -> Iterator[SignedPermutation]:
    """The type-``group`` windows of each permutation of 1..n, lexicographic, in
    ``_signs`` order, each wrapped without the constructor's checks: it is a signed
    permutation by construction."""
    signs, muls = _signs(n, group), itertools.repeat(mul)
    windows = (map(tuple, map(map, muls, signs, itertools.repeat(p))) for p in itertools.permutations(range(1, n + 1)))
    return map(SignedPermutation._of, itertools.chain.from_iterable(windows))


def _descent_table(group: str, n: int) -> dict[tuple[bool, ...], tuple[list[int], list[tuple[int, ...]]]]:
    """Per type-A descent pattern, from one pass over the permutations of 1..n: the
    type-``group`` descent sets (bit i for position i) of a permutation's windows in
    ``_masks`` order, and its permutations, lexicographic.  A descent depends only on
    two neighbours' signs, a and c (1 if negative), and b = 1 if the first is the larger
    in absolute value: there is one unless a >= b >= c.  So the sets are read from the
    pattern's and each mask's bits.  At position 0, sigma_0 > sigma_1 (``_sigma0``) reads
    sigma_1 < 0 in type B, and in D -sigma_2 > sigma_1: the rule at position 1 with
    sigma_1's sign flipped.  The tests check this bit form against ``descents``."""
    masks = _masks(n, group)
    inner = (1 << n) - 2  # positions 1..n-1

    def rule(larger: int, mask: int) -> int:  # b at position i in larger's bits, c in mask's, a in mask << 1's
        return larger & ~(mask << 1) | mask & ~larger

    zero = {"A": lambda larger, mask: 0, "B": lambda larger, mask: mask & 1, "D": lambda larger, mask: rule(larger, mask ^ 1) >> 1 & 1}[group]
    table: dict = {}
    for p in itertools.permutations(range(1, n + 1)):
        pattern = tuple(map(gt, p, p[1:]))
        if pattern not in table:
            larger = sum(b << i for i, b in enumerate(pattern, 1))
            table[pattern] = [rule(larger, mask) & inner | zero(larger, mask) for mask in masks], []
        table[pattern][1].append(p)
    return table


def enumerate_bn(n: int) -> Iterator[SignedPermutation]:
    """All 2^n n! signed permutations, lexicographic on (permutation, sign mask)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _elements(n, "B")


def enumerate_dn(n: int) -> Iterator[SignedPermutation]:
    """All 2^(n-1) n! even-signed permutations, same order as enumerate_bn."""
    if n < 2:
        raise ValueError("n must be >= 2")
    return _elements(n, "D")
