"""Vectors over the alphabet {0, +-1, ..., +-m} and their sign statistics.

The alphabet carries the linear order

    0 < -1 < 1 < -2 < 2 < ... < -m < m

(zero first, then by absolute value, negative before positive at equal
absolute value).  ``order_key`` ranks a letter in this order and
``position_code`` a letter at a position in the order ``phi`` sorts by.  The
sweep engine folds every vector of the space through these codes, in one
pass and in this process: ``_prefix_keys`` counts the prefixes of n-1 codes
by their sum and smallest codes, column by column, and a fold takes one step
per key and last code.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
# no sweep starts a process; Pool, close to half of the package's import time, stays
# bound because bench/layers.py's tracer rebinds it in a package module or raises LookupError
from multiprocessing import Pool  # noqa: F401
from typing import Iterator, Sequence

from .exactnum import QPolynomial

Vector = tuple[int, ...]


def order_key(x: int) -> int:
    """Rank of a letter: key(0)=0, key(-j)=2j-1, key(j)=2j for j >= 1."""
    return -2 * x - 1 if x < 0 else 2 * x


def neg_vec(v: Sequence[int]) -> int:
    """Number of negative entries."""
    return sum(1 for a in v if a < 0)


def neg2_vec(v: Sequence[int]) -> int:
    """Number of negative entries, excluding one occurrence of the smallest
    value in the alphabet order.

    All occurrences of the smallest value are equal, so which occurrence is
    excluded does not matter.
    """
    if not v:
        raise ValueError("empty vector")
    smallest = min(v, key=order_key)
    return neg_vec(v) - (1 if smallest < 0 else 0)


def letters(m: int) -> range:
    if m < 0:
        raise ValueError("m must be >= 0")
    return range(-m, m + 1)


def enumerate_vectors(n: int, m: int) -> Iterator[Vector]:
    """All (2m+1)^n vectors, lexicographic in the usual integer order."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return itertools.product(letters(m), repeat=n)


def parse_vector(text: str, m: int | None = None) -> Vector:
    """Parse comma-separated entries, e.g. ``1,-2,0,-1,3,-2``."""
    entries = []
    for pos, token in enumerate(text.split(","), start=1):
        try:
            entries.append(int(token.strip()))
        except ValueError:
            raise ValueError(f"invalid integer {token.strip()!r} at position {pos}") from None
    v = tuple(entries)
    if m is not None:
        check_bound(v, m)
    return v


def format_vector(v: Sequence[int]) -> str:
    return ",".join(map(str, v))


def check_bound(v: Sequence[int], m: int) -> None:
    for pos, a in enumerate(v, start=1):
        if abs(a) > m:
            raise ValueError(f"entry {a} at position {pos} exceeds bound m={m}")


# -- the sweep engine ------------------------------------------------------

def position_code(i: int, a: int, n: int) -> int:
    """Sort code of letter ``a`` at position ``i`` (1-based) of an n-vector.

    Codes sort as ``phi`` orders positions: by ``order_key``, then ascending
    position for a nonnegative letter and descending for a negative one.
    Their last base-(n+1) digit is 1 for a negative letter, so the codes of
    a vector sum to neg(v) modulo n+1.
    """
    w = n + 1
    negative = a < 0
    return (order_key(a) * w + (w - i if negative else i)) * w + negative


def code_entry(code: int, n: int) -> int:
    """The signed window entry ``phi`` writes for a position code."""
    w = n + 1
    rest, negative = divmod(code, w)
    return rest % w - w if negative else rest % w


# above every position code: pads a prefix shorter than the smallest codes read
NO_CODE = math.inf


def _columns(n: int, m: int) -> list[tuple[int, ...]]:
    """Per-position code tables of every vector of length n, bound m."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return [tuple(position_code(i, a, n) for a in letters(m)) for i in range(1, n + 1)]


def _prefix_keys(columns: list[tuple[int, ...]], low: int) -> tuple[tuple[int, ...], Counter]:
    """The last column, and the prefixes of n-1 codes counted by key: the
    code sum mod n+1, paired for low = 1 or 2 with the ``low`` smallest codes
    (a bare code for low = 1), padded with NO_CODE.  A prefix's key after one
    more code depends only on its key before and that code, so the keys are
    counted one column at a time, without building any prefix."""
    *head, last = columns
    w = len(columns) + 1
    # NO_CODE stands for a code a prefix lacks: in a key (n = 1, or n = 2 at low 2) and in pair
    pad = (NO_CODE,) * (2 - low)
    keys = Counter({(0, (NO_CODE,) * low): 1})
    for column in head:
        keys, before = Counter(), keys
        for (s, small), count in before.items():
            a, b = pair = small + pad  # small, padded to two codes
            for c in column:
                key = (s + c) % w, ((c, a) if c < a else (a, c) if c < b else pair)[:low]
                keys[key] = keys.get(key, 0) + count
    if low == 2:
        return last, keys
    return last, Counter({(s, *small) if low else s: count for (s, small), count in keys.items()})


def _neg_fold(n: int, m: int) -> list[int]:
    w = n + 1
    counts = [0] * w
    last, keys = _prefix_keys(_columns(n, m), 0)
    for s, count in keys.items():
        for c in last:
            counts[(s + c) % w] += count
    return counts


def _neg2_fold(n: int, m: int) -> list[int]:
    w = n + 1
    counts = [0] * w
    last, keys = _prefix_keys(_columns(n, m), 1)
    # the smallest code is the smallest letter and its last digit is its
    # sign, so neg2 leaves min(c, lo) out of the sum
    for (s, lo), count in keys.items():
        for c in last:
            counts[(s + c - min(c, lo)) % w] += count
    return counts


def total_weight_neg(n: int, m: int) -> QPolynomial:
    """Brute-force sum of q^neg(v) over all vectors of length n, bound m."""
    return QPolynomial(_neg_fold(n, m))


def total_weight_neg2(n: int, m: int) -> QPolynomial:
    """Brute-force sum of q^neg2(v) over all vectors of length n, bound m."""
    return QPolynomial(_neg2_fold(n, m))
