"""Eulerian numbers of types A, B, D and their q-analogues.

Every row comes from one insertion DP shared by the three types
(``_insertion_row``): the Foata-Schuetzenberger recurrence, which builds a
window of B_N by inserting +-N into one of B_{N-1}, in O(n^2) steps on packed
q-polynomials.  B and D share one pass, which keeps the rows it passes, and
rows are memoized per (type, n), since the identity checks query them across
m values.  Enumerating the whole group (``enumerated_row``) is the oracle the
DP is tested against for n <= 7; beyond it the tests check the DP rows
against the closed-form sides of the Worpitzky identities.

Type A entries count permutations by descents.  Type B refines the count
of signed permutations with k type-B descents by q^neg, type D the count
of even-signed permutations with k type-D descents by q^neg2.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache
from math import factorial
from operator import methodcaller
from typing import NamedTuple

from .exactnum import QPolynomial, _cell_bits, _pack, _unpack
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


# built cold, the D row at n = 50 takes about 0.1 s (2-CPU Xeon, Python 3.11.7) and
# finishes every B and D row 2..50 on the way, whose packed totals then hold 3.1 MB
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
    the insertion DP is tested against."""
    _check_n(group, n)
    elements = _elements(n, group)
    weight = SignedPermutation.neg2 if group == "D" else SignedPermutation.neg
    # type A has no position 0, so its row ends at k = n - 1
    k_max = n - 1 if group == "A" else n
    entries = _tally(elements, methodcaller("des", group), weight, n, k_max)
    return EulerianRow(group, n, entries)


# one cell width for every row: a coefficient counts windows of B_n, at most 2^n n!
_K = _cell_bits(2**MAX_ROW_N * factorial(MAX_ROW_N))
# the cells of q^0, q^2, ... and of q^1, q^3, ...: a window of D_n has an even neg, and neg2 = neg - [sigma_1 < 0]
_EVEN_ODD = tuple(_pack([(1 << _K) - 1, 0] * (MAX_ROW_N // 2 + 1), _K) << _K * odd for odd in (0, 1))
# per DP kind, "A" or "BD", its frontier (N, layer); per row (group, n) behind it, its packed totals
_frontiers, _totals = {}, {}


def _insertion_row(group: str, n: int) -> EulerianRow:
    """The type-``group`` row by inserting +-N into each window of B_{N-1}
    (+N into S_{N-1} for type A), for N = 3..n, from the windows of B_2 (S_2).

    A state is (type-A descents d, sigma_1 + sigma_2 < 0, sigma_1 > sigma_2,
    sigma_1 < 0).  Its value counts windows by q^neg2, one power per cell of
    ``_K`` bits, so no carry crosses a cell and q is a shift.  A gap right
    of sigma_2 keeps the first pair: +N keeps d at the descents there and at
    the end, -N at those descents only, and every other gap adds one.
    B and D share the layers, so they are one kind, and a kind keeps its last
    layer: a row past it finishes every row on the way, a grid costs one pass.
    """
    _check_n(group, n)
    if n == 1:  # the windows 1 and -1 (B_1), the second with a descent at 0
        return EulerianRow(group, 1, (QPolynomial([1]),) if group == "A" else (QPolynomial([1]), QPolynomial([0, 1])))
    kind = "A" if group == "A" else "BD"
    if (group, n) not in _totals:
        N, layer = _frontiers.get(kind, (1, {}))
        for N in range(N + 1, n + 1):
            nxt = defaultdict(int)
            if N == 2:
                seed = ((1, 2), (2, 1)) if kind == "A" else ((1, 2), (1, -2), (-1, 2), (-1, -2), (2, 1), (2, -1), (-2, 1), (-2, -1))
                for x, y in seed:
                    nxt[x > y, x + y < 0, x > y, x < 0] += 1 << _K * (y < 0)
            for (d, pair_neg, first_desc, first_neg), v in layer.items():
                for up in (True,) if kind == "A" else (True, False):  # +N, -N
                    # gap 0: +-N comes first, and sigma_1 moves into neg2
                    nxt[d + up, not up, up, not up] += v << _K * first_neg
                    # gap 1: the first pair becomes (sigma_1, +-N)
                    u = v if up else v << _K
                    nxt[d - first_desc + 1, not up, not up, first_neg] += u
                    keep = d - first_desc + up
                    nxt[d, pair_neg, first_desc, first_neg] += keep * u
                    nxt[d + 1, pair_neg, first_desc, first_neg] += (N - 2 - keep) * u
            layer = nxt
            totals = {g: [0] * (N + (g != "A")) for g in kind}
            for (d, pair_neg, _, first_neg), v in layer.items():
                if kind == "A":
                    totals["A"][d] += v
                else:  # a B descent at 0 when sigma_1 < 0, also in neg; a D one when sigma_1 + sigma_2 < 0, on even neg
                    totals["B"][d + first_neg] += v << _K * first_neg
                    totals["D"][d + pair_neg] += v & _EVEN_ODD[first_neg]
            _totals.update(((g, N), t) for g, t in totals.items())
        _frontiers[kind] = N, layer
    entries = (QPolynomial._of(_unpack(t, _K, n + 1)) for t in _totals[group, n])
    return EulerianRow(group, n, tuple(entries))


@lru_cache(maxsize=None)
def eulerian_row_a(n: int) -> EulerianRow:
    """Type-A row: entries[k] = #{pi in S_n : des(pi) = k}, k in [0, n-1]."""
    return _insertion_row("A", n)


@lru_cache(maxsize=None)
def eulerian_row_b_q(n: int) -> EulerianRow:
    """Type-B row: entries[k] = sum of q^neg over sigma with des_B = k."""
    return _insertion_row("B", n)


@lru_cache(maxsize=None)
def eulerian_row_d_q(n: int) -> EulerianRow:
    """Type-D row: entries[k] = sum of q^neg2 over sigma with des_D = k."""
    return _insertion_row("D", n)


def eulerian_row(group: str, n: int) -> EulerianRow:
    if group == "A":
        return eulerian_row_a(n)
    if group == "B":
        return eulerian_row_b_q(n)
    if group == "D":
        return eulerian_row_d_q(n)
    raise ValueError(f"unknown type {group!r}")
