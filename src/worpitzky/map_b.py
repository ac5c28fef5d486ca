"""The vector-to-signed-permutation map and the type-B identity checks.

``phi`` turns a vector over {0, +-1, ..., +-m} into a signed permutation:
positions are sorted by the alphabet order of their values, ties among
equal nonnegative values are read left to right, ties among equal negative
values right to left, and a position's sign in the output follows the sign
of its value.  The map preserves the number of negative entries.

Fibers of ``phi`` are enumerated through strictly increasing integer
chains: a vector in the fiber of sigma corresponds to a chain
1 <= b_1 < ... < b_n <= m + n - des_B(sigma) via

    b_i = |a_{|sigma_i|}| + i - #{descents j < i}

(the 0 descent counts), so the fiber size is C(n + m - des_B(sigma), n).
``map_d.fiber_vectors`` decodes these chains for both types.  ``phi`` writes
a window that is a signed permutation by construction, so it skips the
checks the public ``SignedPermutation`` constructor runs on outside input.

``phi_fibers`` groups the whole vector space by ``phi``: the brute vector
oracle the tests compare the decoder against.  ``map_d.fiber_counts`` is the
cross-checked count route that all-sigma fiber reports read.

``fiber_writer`` is the one writer of a ``FiberReport``, in text and in JSON:
the text before sigma's window, and a function of the fields after it.  The
line of a passing law-0 sigma is its output for (0, 0, pass) around the
window.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from operator import add
from types import MappingProxyType
from typing import Callable, Iterator, Mapping, NamedTuple, Sequence

from .exactnum import QPolynomial, binom
from .eulerian import eulerian_row_a, eulerian_row_b_q
from .signed_perm import SignedPermutation
from .sigma_vectors import (
    Vector,
    check_bound,
    code_entry,
    enumerate_vectors,
    format_vector,
    position_code,
    total_weight_neg,
)


def phi(v: Sequence[int], m: int | None = None) -> SignedPermutation:
    """Map a vector to its signed permutation."""
    if not v:
        raise ValueError("empty vector")
    if m is not None:
        check_bound(v, m)
    n = len(v)
    codes = sorted(map(position_code, range(1, n + 1), v, itertools.repeat(n)))
    return SignedPermutation._of(tuple(map(code_entry, codes, itertools.repeat(n))))


def decode_abs_chains(
    descents: tuple[int, ...], n: int, m: int
) -> Iterator[tuple[int, ...]]:
    """Absolute-value sequences |a_{|sigma_1|}|..|a_{|sigma_n|}| for every
    strictly increasing chain in [1, m + n - des], from the increasing
    descent positions of sigma."""
    top = m + n - len(descents)
    # |a_{|sigma_i|}| = b_i + shift_i with shift_i = #{descents j < i} - i
    shift = [bisect_left(descents, i) - i for i in range(1, n + 1)]
    for chain in itertools.combinations(range(1, top + 1), n):
        yield tuple(map(add, chain, shift))


def phi_fibers(n: int, m: int) -> dict[SignedPermutation, list[Vector]]:
    """Forward-map oracle: group the whole vector space by phi."""
    fibers: dict[SignedPermutation, list[Vector]] = {}
    for v in enumerate_vectors(n, m):
        fibers.setdefault(phi(v), []).append(v)
    return fibers


# -- identity reports -------------------------------------------------------

def _json_value(x):
    return x.to_list() if isinstance(x, QPolynomial) else x


class IdentityReport(NamedTuple):
    """Both sides of one verified identity, with the row its right side sums."""

    identity: str
    n: int
    m: int  # plays the role of k for the type-A identity
    lhs: QPolynomial | int
    rhs: QPolynomial | int
    passed: bool
    extras: Mapping = MappingProxyType({})  # read-only, so no report shares a mutable default
    row: tuple = ()  # the Eulerian row that rhs_eulerian_sum summed, if the report lists its terms

    @property
    def terms(self) -> tuple:
        """Each term of the sum over ``row``: (k, binomial factor, row entry, contribution)."""
        n, m = self.n, self.m
        return tuple((k, c, entry, c * entry) for k, entry in enumerate(self.row) for c in [binom(n + m - k, n)])

    def to_json_dict(self) -> dict:
        d = {
            "identity": self.identity,
            "n": self.n,
            "m": self.m,
            "lhs": _json_value(self.lhs),
            "rhs": _json_value(self.rhs),
            "pass": self.passed,
        }
        for key, value in self.extras.items():
            d[key] = _json_value(value)
        if self.row:
            d["terms"] = [
                {
                    "k": k,
                    "binom": c,
                    "entry": _json_value(entry),
                    "contribution": _json_value(contrib),
                }
                for k, c, entry, contrib in self.terms
            ]
        return d


class FiberReport(NamedTuple):
    """Closed-form size vs. forward-map oracle vs. decoded chain vectors."""

    group: str  # "B" | "D"
    sigma: SignedPermutation
    m: int
    expected_size: int
    oracle_size: int
    vectors: tuple[Vector, ...]
    passed: bool

    def to_json_dict(self) -> dict:
        return {
            "type": self.group,
            "sigma": self.sigma.format(),
            "m": self.m,
            "expected": self.expected_size,
            "actual": self.oracle_size,
            "pass": self.passed,
            "vectors": [list(v) for v in self.vectors],
        }


def fiber_writer(fmt: str, group: str, m: int, vectors: bool) -> tuple[str, Callable[[int, int, bool, Sequence[Vector]], str]]:
    """The one writer of the fiber reports of one type and m in ``fmt``, as
    the text before sigma's window and a function ``rest`` of the fields
    after it: a report is ``head + format_vector(window) + rest(expected,
    actual, passed, vectors)``, so a passing law-0 report is the window
    between ``head`` and ``rest(0, 0, True, ())``.

    "text" is one line, with the vectors under it if ``vectors``.  "json"
    is ``json.dumps`` of ``FiberReport.to_json_dict``, less "vectors"
    unless ``vectors``, written directly in the report's fixed shape: the
    type letter and sigma's digits, commas and minus signs need no
    escaping, and a list of int lists prints as JSON does."""
    if fmt == "json":
        head, mid = '{"type": "%s", "sigma": "' % group, '", "m": %d, "expected": ' % m

        def rest(expected: int, actual: int, passed: bool, vecs: Sequence[Vector]) -> str:
            text = f'{mid}{expected}, "actual": {actual}, "pass": {"true" if passed else "false"}'
            return text + (f', "vectors": {list(map(list, vecs))}}}' if vectors else "}")
    else:
        head, mid = "sigma=", f" m={m} expected="

        def rest(expected: int, actual: int, passed: bool, vecs: Sequence[Vector]) -> str:
            line = f"{mid}{expected} actual={actual} {'ok' if passed else 'MISMATCH'}\n"
            return line + "".join(f"  {format_vector(v)}\n" for v in vecs) if vectors else line
    return head, rest


# -- identity verification --------------------------------------------------

def rhs_eulerian_sum(row_entries: Sequence, n: int, m: int):
    """sum_k C(n+m-k, n) * entries[k] over k <= m, as C(n+m-k, n) = 0 beyond; QPolynomials
    summed in C-level maps over their coefficients."""
    polys = isinstance(row_entries[0], QPolynomial)
    rhs = [0] * max(len(entry.coeffs) for entry in row_entries) if polys else 0
    for k, entry in enumerate(row_entries[: m + 1]):
        c = binom(n + m - k, n)
        if polys:
            rhs[: len(entry.coeffs)] = map(add, rhs, map(c.__mul__, entry.coeffs))
        else:
            rhs += c * entry
    return QPolynomial(rhs) if polys else rhs


def verify_worpitzky_a(n: int, k: int) -> IdentityReport:
    """(k+1)^n against the type-A Eulerian expansion in the binomial basis."""
    if n < 1 or k < 0:
        raise ValueError("need n >= 1 and k >= 0")
    lhs, row = (k + 1) ** n, eulerian_row_a(n).at_q1()
    rhs = rhs_eulerian_sum(row, n, k)
    return IdentityReport("worpitzky-a", n, k, lhs, rhs, lhs == rhs, row=row)


def verify_worpitzky_b(n: int, m: int) -> IdentityReport:
    """Three-way check of the type-B q-identity.

    The closed form (1 + (1+q)m)^n, the Eulerian sum
    sum_k C(n+m-k, n) B_{n,k}(q), and the brute-force vector weight
    sum_v q^neg(v) must agree as exact polynomials.
    """
    if n < 1 or m < 0:
        raise ValueError("need n >= 1 and m >= 0")
    lhs, row = QPolynomial((1 + m, m)) ** n, eulerian_row_b_q(n).entries
    rhs = rhs_eulerian_sum(row, n, m)
    brute = total_weight_neg(n, m)
    passed = lhs == rhs == brute
    return IdentityReport(
        "worpitzky-b", n, m, lhs, rhs, passed, extras={"brute": brute}, row=row
    )
