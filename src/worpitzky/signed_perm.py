"""Signed permutations in window notation and their descent statistics.

A signed permutation on n letters is stored as its window
(sigma_1, ..., sigma_n): the absolute values form a permutation of
{1, ..., n} and each entry carries a sign.  The full action on
{-n, ..., -1, 1, ..., n} with sigma(-i) = -sigma(i) is implicit; every
statistic here reads only the window.

Descent sets come in three flavours, read by ``descents(group)`` and
counted by ``des(group)``:

* type A: positions i in [1, n-1] with sigma_i > sigma_{i+1};
* type B: type A plus position 0 when sigma_1 < 0;
* type D: type A plus position 0 when sigma_1 + sigma_2 < 0.
"""

from __future__ import annotations

import itertools
from operator import gt, itemgetter, mul
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

    def _zero_descent(self, group: str) -> bool:
        """Whether position 0 is a type-``group`` descent."""
        w = self.window
        if group == "B":
            return w[0] < 0
        if group == "D":
            if len(w) < 2:
                raise ValueError("type-D descents need at least two entries")
            return w[0] + w[1] < 0
        if group == "A":
            return False
        raise ValueError(f"unknown type {group!r}, expected A, B or D")

    def descents(self, group: str) -> tuple[int, ...]:
        """The type-``group`` descent positions in increasing order."""
        w = self.window
        inner = tuple(itertools.compress(range(1, len(w)), map(gt, w, w[1:])))
        return (0,) + inner if self._zero_descent(group) else inner

    def des(self, group: str) -> int:
        """The number of type-``group`` descents."""
        w = self.window
        return self._zero_descent(group) + sum(map(gt, w, w[1:]))

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


def _signed_windows(n: int, group: str) -> Iterator[tuple[tuple[bool, ...], Iterator[tuple[int, ...]]]]:
    """Each permutation p of 1..n, lexicographic, as its type-A descent
    pattern ``tuple(map(gt, p, p[1:]))`` and an iterator over the
    type-``group`` windows of absolute values p by increasing sign mask
    (bit i negates entry i): all masks in type B, the even ones in D and
    mask 0 in A.  The windows are built in C, by ``map(mul, sign, p)``:
    exact-size ones (a product of the pairs (x, -x), reversed by a slice)
    were faster but raised a ``fibers`` session's peak RSS by up to 3 MB."""
    masks = range(1 if group == "A" else 1 << n)
    signs = [tuple(-1 if mask >> i & 1 else 1 for i in range(n)) for mask in masks]
    if group == "D":
        signs = [sign for sign in signs if sign.count(-1) % 2 == 0]
    muls = itertools.repeat(mul)
    for p in itertools.permutations(range(1, n + 1)):
        yield tuple(map(gt, p, p[1:])), map(tuple, map(map, muls, signs, itertools.repeat(p)))


def _elements(n: int, group: str) -> Iterator[SignedPermutation]:
    """The windows of ``_signed_windows``, each wrapped without the
    constructor's checks: it is a signed permutation by construction."""
    windows = itertools.chain.from_iterable(map(itemgetter(1), _signed_windows(n, group)))
    return map(SignedPermutation._of, windows)


def _descent_table(group: str, n: int) -> dict[tuple[bool, ...], list[int]]:
    """The type-``group`` descent counts of the windows of each type-A
    descent pattern, in the order of ``_signed_windows``.  A descent between
    two neighbours depends only on their signs and on which absolute value
    is larger, so the first permutation of a pattern gives the counts of
    every permutation with it."""
    table = {}
    for pattern, windows in _signed_windows(n, group):
        if pattern not in table:
            table[pattern] = [SignedPermutation._of(w).des(group) for w in windows]
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
