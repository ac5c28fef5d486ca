"""Vectors over the alphabet {0, +-1, ..., +-m} and their sign statistics.

The alphabet carries the linear order

    0 < -1 < 1 < -2 < 2 < ... < -m < m

(zero first, then by absolute value, negative before positive at equal
absolute value).  ``order_key`` ranks a letter in this order and
``position_code`` a letter at a position in the order ``phi`` sorts by.  The
sweep engine folds every vector of the space through these codes, in one
pass and in this process: ``_prefix_keys`` counts the prefixes of n-1 codes
by their smallest codes with their negative counts packed in one int, column by
column; a fold steps per key and last code below its largest, and multiplies once for the rest.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
# no sweep starts a process; Pool, close to half of the package's import time, stays
# bound because bench/layers.py's tracer rebinds it in a package module or raises LookupError
from multiprocessing import Pool  # noqa: F401
from typing import Iterator, Sequence

from .exactnum import QPolynomial, _cell_bits, _unpack

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


def _tails(column: Sequence[int], w: int, K: int) -> tuple[list[int], list[int]]:
    """A column sorted, and entry i of its tail weights: the sum of 1 << K*(c mod w) over its codes from index i on."""
    column = sorted(column)
    return column, list(itertools.accumulate(reversed(column), lambda t, c: t + (1 << K * (c % w)), initial=0))[::-1]


def _prefix_keys(columns: list[tuple[int, ...]], low: int) -> tuple[tuple[int, ...], int, dict]:
    """The last column, the bits K of a packed count, and the prefixes of n-1 codes
    counted by their ``low`` >= 1 smallest codes, padded with NO_CODE: a key holds the sum of
    1 << K*neg over its prefixes (neg, the code sum mod n+1, is their negative count), and
    K bits hold every count.  A code c shifts a key by K*(c mod w); the codes above its
    largest leave it as it is and fold in by one product with their tail weight."""
    *head, last = columns
    w = len(columns) + 1
    K = _cell_bits(math.prod(map(len, columns)))
    keys = {(NO_CODE,) * low: 1}
    for column in head:
        column, tail = _tails(column, w, K)
        keys, before = {}, keys
        for small, packed in before.items():
            a, j, shifted = small[0], bisect_left(column, small[-1]), (packed, packed << K)
            for c in column[:j]:
                key = (c, a)[:low] if c < a else (a, c)
                keys[key] = keys.get(key, 0) + shifted[c % w]
            if tail[j]:
                keys[small] = keys.get(small, 0) + packed * tail[j]
    return last, K, keys


def fold_steps(n: int, m: int, low: int) -> int:
    """The work budget's unit, not the work done: an upper bound on the keys of ``_prefix_keys(
    _columns(n, m), low)`` unpacked by neg, times the next column's letters: L sum_{k<n} min(L^k,
    w C(kL+low, low)) with L = 2m+1, w = n+1, as k columns leave at most L^k prefixes and w
    negative counts times C(kL+low, low) choices of low smallest codes, NO_CODE too."""
    L, w = 2 * m + 1, n + 1
    top = w * math.comb(n * L + low, low)  # caps L^k, so no power grows with m
    total, keys = 0, 1
    for k in range(n):
        total += min(keys, w * math.comb(k * L + low, low))
        keys = min(keys * L, top)
    return L * total


def _neg_fold(n: int, m: int) -> list[int]:
    """The product of the column weights, each code made as it is summed: none is kept."""
    if n < 1:
        raise ValueError("n must be >= 1")
    w, K = n + 1, _cell_bits((2 * m + 1) ** n)
    return _unpack(math.prod(sum(1 << K * (position_code(i, a, n) % w) for a in letters(m)) for i in range(1, n + 1)), K, w)


def _neg2_fold(n: int, m: int) -> list[int]:
    w = n + 1
    last, K, keys = _prefix_keys(_columns(n, m), 1)
    last, tail = _tails(last, w, K)
    total = 0
    # neg2 leaves out the smallest code's sign (its last digit): a last code's below lo, else lo's
    for (lo,), packed in keys.items():
        i = bisect_left(last, lo)
        total += packed * i + (packed * tail[i] >> K * (lo % w) if i < len(last) else 0)
    return _unpack(total, K, w)


def total_weight_neg(n: int, m: int) -> QPolynomial:
    """Brute-force sum of q^neg(v) over all vectors of length n, bound m."""
    return QPolynomial(_neg_fold(n, m))


def total_weight_neg2(n: int, m: int) -> QPolynomial:
    """Brute-force sum of q^neg2(v) over all vectors of length n, bound m."""
    return QPolynomial(_neg2_fold(n, m))
