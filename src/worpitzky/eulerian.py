"""Eulerian numbers of types A, B, D and their q-analogues.

Every row comes from one transfer DP shared by the three types
(``_transfer_row``), which takes O(n^4) steps.  Enumerating the whole group
(``enumerated_row``) is kept as the oracle the DP is tested against for
n <= 7; beyond that the tests check the DP rows against the closed-form
sides of the Worpitzky identities.  Rows are memoized per (type, n) since
the identity checks query them repeatedly across m values.

Type A entries count permutations by descents.  Type B refines the count
of signed permutations with k type-B descents by q^neg, type D the count
of even-signed permutations with k type-D descents by q^neg2.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, methodcaller, sub
from typing import NamedTuple

from .exactnum import QPolynomial
# enumerate_bn/enumerate_dn stay importable from here: bench/test_bench.py reads eulerian.enumerate_dn
from .signed_perm import SignedPermutation, _elements, enumerate_bn, enumerate_dn  # noqa: F401


class EulerianRow(NamedTuple):
    """One triangle row: entries[k] is a polynomial in q (constant for type A)."""

    group: str  # "A" | "B" | "D"
    n: int
    entries: tuple[QPolynomial, ...]

    def at_q1(self) -> tuple[int, ...]:
        return tuple(p.at_q1() for p in self.entries)

    def to_json(self) -> str:
        import json
        return json.dumps(
            {
                "type": self.group,
                "n": self.n,
                "entries": [p.to_list() for p in self.entries],
            }
        )

    def to_csv(self) -> str:
        """One row per k; columns are powers of q (header included), as csv.writer writes it."""
        width = max((len(p.coeffs) for p in self.entries), default=0)
        width = max(width, 1)
        rows = [["k"] + [f"q^{j}" for j in range(width)]]
        rows += [[k, *p.coeffs] + [0] * (width - len(p.coeffs)) for k, p in enumerate(self.entries)]
        return "".join(",".join(map(str, row)) + "\r\n" for row in rows)


def _tally(elements, des_of, weight_of, n: int, k_max: int) -> tuple[QPolynomial, ...]:
    counts = [[0] * (n + 1) for _ in range(k_max + 1)]
    for sigma in elements:
        counts[des_of(sigma)][weight_of(sigma)] += 1
    return tuple(QPolynomial(c) for c in counts)


# the DP's memory grows about as n^3.4: the D row at n = 50 takes 5.4 s and 79 MB
MAX_ROW_N = 50


def _check_n(group: str, n: int) -> None:
    if group not in ("A", "B", "D"):
        raise ValueError(f"unknown type {group!r}")
    least = 2 if group == "D" else 1
    if n < least:
        raise ValueError(f"n must be >= {least}")
    if n > MAX_ROW_N:
        raise ValueError(f"n must be <= {MAX_ROW_N}")


def enumerated_row(group: str, n: int) -> EulerianRow:
    """The type-``group`` row by enumerating the whole group: the oracle
    the transfer DP is tested against."""
    _check_n(group, n)
    elements = _elements(n, group)
    weight = SignedPermutation.neg2 if group == "D" else SignedPermutation.neg
    # type A has no position 0, so its row ends at k = n - 1
    k_max = n - 1 if group == "A" else n
    entries = _tally(elements, methodcaller("des", group), weight, n, k_max)
    return EulerianRow(group, n, entries)


def _descends(s: int, t: int, up: bool) -> bool:
    """Whether s*a > t*b for signs s, t and distinct absolute values a, b,
    where ``up`` says b > a."""
    return s > t if s != t else up == (s < 0)


def _transfer_row(group: str, n: int) -> EulerianRow:
    """The type-``group`` row by a transfer DP that builds the window left to right.

    A state is (first sign, last sign, rank of the last absolute value among
    the i placed).  Each state holds a tally whose cell d*w + k counts the
    prefixes with d descents and k negative entries after the first.  A
    descent between neighbours depends only on their signs and on whether
    the new absolute value ranks above the previous one, so the ranks
    carry all the DP needs.  Position 0 is a type-B descent when sigma_1 < 0
    and a type-D descent when -sigma_1 > sigma_2, which is settled when the
    second entry is placed.  Type A is the same DP with positive signs only.
    """
    _check_n(group, n)
    signs = (1,) if group == "A" else (1, -1)
    w = n + 1
    cells = w * w
    # (first sign, last sign) -> one tally per rank of the last absolute value
    layer = {}
    for s in signs:
        tally = [0] * cells
        tally[w if group == "B" and s < 0 else 0] = 1
        layer[s, s] = [tally]
    for i in range(1, n):  # place entry i + 1
        nxt = {(f, t): [[0] * cells for _ in range(i + 1)] for f in signs for t in signs}
        for (first, last), tallies in layer.items():
            total = list(map(sum, zip(*tallies)))
            lower = [0] * cells  # states whose last value ranks below the new one
            for r in range(i + 1):  # rank of its absolute value among the i + 1 placed
                if r:
                    lower = list(map(add, lower, tallies[r - 1]))
                higher = list(map(sub, total, lower))
                for t in signs:
                    for up, src in ((True, lower), (False, higher)):
                        d = _descends(last, t, up)
                        if group == "D" and i == 1:
                            d += _descends(-first, t, up)
                        shift = d * w + (t < 0)
                        acc = nxt[first, t][r]
                        acc[shift:] = map(add, acc[shift:], src)
        layer = nxt

    # type A has no position 0, so its row ends at k = n - 1
    counts = [[0] * w for _ in range(n if group == "A" else w)]
    for (first, _), tallies in layer.items():
        negative_first = first < 0
        for cell, c in enumerate(map(sum, zip(*tallies))):
            if not c:
                continue
            des, neg2 = divmod(cell, w)
            if group != "D":
                counts[des][neg2 + negative_first] += c
            elif (negative_first + neg2) % 2 == 0:
                counts[des][neg2] += c
    return EulerianRow(group, n, tuple(QPolynomial(c) for c in counts))


@lru_cache(maxsize=None)
def eulerian_row_a(n: int) -> EulerianRow:
    """Type-A row: entries[k] = #{pi in S_n : des(pi) = k}, k in [0, n-1]."""
    return _transfer_row("A", n)


@lru_cache(maxsize=None)
def eulerian_row_b_q(n: int) -> EulerianRow:
    """Type-B row: entries[k] = sum of q^neg over sigma with des_B = k."""
    return _transfer_row("B", n)


@lru_cache(maxsize=None)
def eulerian_row_d_q(n: int) -> EulerianRow:
    """Type-D row: entries[k] = sum of q^neg2 over sigma with des_D = k."""
    return _transfer_row("D", n)


def eulerian_row(group: str, n: int) -> EulerianRow:
    if group == "A":
        return eulerian_row_a(n)
    if group == "B":
        return eulerian_row_b_q(n)
    if group == "D":
        return eulerian_row_d_q(n)
    raise ValueError(f"unknown type {group!r}")
