"""The partial map onto even-signed permutations and the type-D identities.

``psi`` runs the type-B map first and then repairs sign parity: a vector
containing a zero and an odd number of negative entries has the sign of
the first output entry flipped (the first zero is read as negative).
Vectors that cannot be associated with an even-signed permutation without
breaking the descent condition are "missing" and fall into four classes:

* case1:  no zero, odd number of negative entries;
* case2a: zero present, odd negatives, flip fails, and the zero sits to
          the right of the second-smallest value (|sigma_1| > |sigma_2|);
* case2b: zero present, odd negatives, flip fails, zero to the left of the
          second-smallest value, which is negative (|sigma_1| < |sigma_2|,
          sigma_2 < 0);
* case3:  zero present, even negatives, but position 0 is a descent.

The fibers of ``phi`` (type B) and of ``psi`` (type D) are decoded here by
one path, ``fiber_vectors``, from the chains of the type's descent set, and
counted by one pass over the position codes of every vector, ``_images``.
``fiber_report`` checks the two against the size law for one sigma, each
decoded vector validated by a phi or psi call.  ``fiber_blocks`` checks every
sigma of the group, one block per permutation of 1..n, with work that
follows the nonempty fibers: it builds and counts only the windows of
nonzero law (des <= m), decodes each from a plan shared by its (type-A
descent pattern, sign mask) key, checks each vector by its rank in an image
table, and reads the law of each count oracle key once, since a law-0
window passes unless it is a key.  ``fiber_reports`` flattens the blocks.

The census of missing vectors carries exact closed forms for the case
counts and for the total q-weight, plus "printed" variants of the per-case
q-expressions whose sum (but not each summand) matches the census; the
deviating closed form of the full q-identity is kept as an erratum probe.
"""

from __future__ import annotations

import gc
from collections import Counter
from functools import lru_cache, partial
from itertools import compress, product, repeat
from operator import countOf, itemgetter, mul
from typing import Iterator, NamedTuple

from .bernoulli import power_sum, worpitzky_d_lhs
from .exactnum import ONE_PLUS_Q, QPolynomial, binom
from .eulerian import eulerian_row_d_q
from .map_b import FiberReport, IdentityReport, _json_value, decode_abs_chains, phi, rhs_eulerian_sum
from .signed_perm import SignedPermutation, _descent_table, _signed_windows
from .sigma_vectors import (
    Vector,
    _columns,
    _prefix_keys,
    check_bound,
    code_entry,
    enumerate_vectors,
    format_vector,
    neg_vec,
    total_weight_neg2,
)

MISSING_CASES = ("case1", "case2a", "case2b", "case3")


class MapOutcome(NamedTuple):
    """Either an associated even-signed permutation or a missing-case label."""

    sigma: SignedPermutation | None
    flipped: bool = False
    missing_case: str | None = None

    @property
    def is_associated(self) -> bool:
        return self.sigma is not None

    def __str__(self) -> str:
        if self.sigma is None:
            return f"missing: {self.missing_case}"
        return self.sigma.format() + (" (flipped)" if self.flipped else "")


def _missing_case(zeros: int, odd: bool, s1: int, s2: int) -> str | None:
    """The case rules for a vector v whose window phi(v) starts s1, s2.

    ``zeros`` counts the zeros of v (any count above 1 may be passed as 2)
    and ``odd`` says whether v has an odd number of negative entries.
    Returns the missing case, or None when v is associated with phi(v),
    flipped at the first entry when v has a zero and odd negatives.
    """
    if not zeros:
        return "case1" if odd else None
    # zero is the smallest letter, so s1 > 0 is the position of the first zero
    if odd:
        if s2 > s1:  # the flipped window -s1, s2 has no descent at position 0
            return None
        case = "case2a" if s1 > abs(s2) else "case2b"
    elif s1 + s2 < 0:
        case = "case3"
    else:
        return None
    if zeros > 1:
        raise ArithmeticError(f"a {case} vector (phi starts {s1},{s2}) has more than one zero")
    if case == "case2b" and s2 > 0:
        raise ArithmeticError(f"a case2b vector has a positive second entry {s2}")
    return case


def _code_case(n: int, c1: int, c2: int, odd: int) -> int:
    """The index in MISSING_CASES of the case of an n-vector with smallest
    position codes c1 < c2 and ``odd`` negatives, or len(MISSING_CASES) when
    psi associates it."""
    w = n + 1
    # a zero is the smallest letter, so its codes are the ones below w^2
    zeros = (c1 < w * w) + (c2 < w * w)
    case = _missing_case(zeros, odd, code_entry(c1, n), code_entry(c2, n))
    return len(MISSING_CASES) if case is None else MISSING_CASES.index(case)


def psi(v, m: int | None = None) -> MapOutcome:
    """Associate a vector with an even-signed permutation, or classify it."""
    if len(v) < 2:
        raise ValueError("need vectors of length >= 2")
    if m is not None:
        check_bound(v, m)
    sigma = phi(v)
    zeros = tuple(v).count(0)
    odd = neg_vec(v) % 2 == 1
    case = _missing_case(zeros, odd, *sigma.window[:2])
    if case is not None:
        return MapOutcome(None, False, case)
    if zeros and odd:
        return MapOutcome(sigma.flip_first(), True)
    return MapOutcome(sigma)


# -- fibers -----------------------------------------------------------------

def _fiber_law(group: str, sigma: SignedPermutation, m: int) -> tuple[tuple[int, ...], int]:
    """Check a fiber's arguments; return sigma's type-``group`` descents and
    the size law C(n + m - des(sigma), n) read from them."""
    if group not in ("B", "D"):
        raise ValueError(f"unknown type {group!r}, expected B or D")
    if group == "D" and not sigma.is_in_dn():
        raise ValueError("sigma must have an even number of negative entries")
    descents = sigma.descents(group)
    if m < 0:
        raise ValueError("m must be >= 0")
    return descents, binom(sigma.n + m - len(descents), sigma.n)


def fiber_size(group: str, sigma: SignedPermutation, m: int) -> int:
    """C(n + m - des(sigma), n): the fiber size of sigma under phi (type B)
    or psi (type D), with the type's descent count."""
    return _fiber_law(group, sigma, m)[1]


def _picker(p: tuple[int, ...]):
    """Reorders a window with absolute values p into vector order, entry k
    from the position of k + 1 (``tuple`` at n = 1: itemgetter(i) is the item)."""
    return itemgetter(*sorted(range(len(p)), key=p.__getitem__)) if len(p) > 1 else tuple


def _plan(window: tuple[int, ...], m: int, descents: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The chains of the descents, each as |a_{|sigma_i|}| signed like window
    entry i: the fiber, in window order, of every window with the signs and
    descents of ``window``.  A ``_picker`` only reorders entries, so they are
    checked here to lie in -m..m (else they alias another rank), once per plan."""
    sign = [-1 if x < 0 else 1 for x in window]
    plan = [tuple(map(mul, sign, abs_vals)) for abs_vals in decode_abs_chains(descents, len(window), m)]
    for chain in plan:
        if max(map(abs, chain)) > m:
            raise ArithmeticError(f"decoded chain {chain} of {format_vector(window)} has an entry outside -{m}..{m}")
    return plan


def _decode(image, window: tuple[int, ...], plan: list, pick) -> list[Vector]:
    """A window's plan in vector order, each vector validated by ``image``,
    its window under the type's forward map: a failure raises, never skips."""
    out = list(map(pick, plan))
    for v in out:
        got = image(v)
        if got != window:
            raise ArithmeticError(f"decoded vector {v} does not map back to {format_vector(window)} (got {got})")
    return out


def _forward_window(group: str, v: Vector) -> tuple[int, ...] | None:
    """The window phi (type B) or psi (type D) sends v to, or None."""
    sigma = phi(v) if group == "B" else psi(v).sigma
    return sigma and sigma.window


def fiber_vectors(group: str, sigma: SignedPermutation, m: int) -> list[Vector]:
    """All vectors the type's forward map sends to sigma, decoded from the
    chains of its descent set with sigma's signs (in type D a negative first
    entry may decode to the zero that the parity flip reads as negative),
    each validated by a forward map call."""
    w = sigma.window
    return _decode(partial(_forward_window, group), w, _plan(w, m, _fiber_law(group, sigma, m)[0]), _picker(tuple(map(abs, w))))


def psi_fibers(n: int, m: int):
    """Forward-map oracle: fibers of associated sigmas plus missing vectors."""
    fibers: dict[SignedPermutation, list[Vector]] = {}
    missing: dict[str, list[Vector]] = {case: [] for case in MISSING_CASES}
    for v in enumerate_vectors(n, m):
        outcome = psi(v)
        if outcome.is_associated:
            fibers.setdefault(outcome.sigma, []).append(v)
        else:
            missing[outcome.missing_case].append(v)
    return fibers, missing


def _images(group: str, n: int, m: int) -> Iterator[tuple[int, ...] | None]:
    """The window the type's forward map sends each vector to, or None for
    a missing vector, in the order of enumerate_vectors: one pass over the
    sweep engine's position codes, where the sorted codes give phi's window
    and type D reads psi's case rules through ``_code_case``.  It builds no
    SignedPermutation and keeps no vector."""
    if group not in ("B", "D"):
        raise ValueError(f"unknown type {group!r}, expected B or D")
    least = 2 if group == "D" else 1
    if n < least:
        raise ValueError(f"type-{group} fibers need n >= {least}")
    w = n + 1
    columns = _columns(n, m)
    entry = {code: code_entry(code, n) for column in columns for code in column}.__getitem__
    if group == "B":
        yield from (tuple(map(entry, sorted(codes))) for codes in product(*columns))
        return
    case = lru_cache(maxsize=None)(partial(_code_case, n))
    for codes in product(*columns):
        low = sorted(codes)
        odd = sum(codes) % w & 1
        if case(low[0], low[1], odd) < len(MISSING_CASES):
            yield None
            continue
        window = tuple(map(entry, low))
        # a zero (a code below w^2) and odd negatives: psi flips sigma_1
        yield (-window[0],) + window[1:] if odd and low[0] < w * w else window


def fiber_counts(group: str, n: int, m: int, table: list | None = None) -> Counter[tuple[int, ...]]:
    """Count oracle: the size of every nonempty fiber of the type's forward
    map, keyed by window, from one pass of ``_images`` less its Nones.  A
    list ``table`` gets every image too, interned through the oracle's keys
    (each maps to itself until the pass ends)."""
    if table is None:
        return Counter(filter(None, _images(group, n, m)))
    counts = Counter()
    table.extend(w and counts.setdefault(w, w) for w in _images(group, n, m))
    for w in counts:
        counts[w] = 0
    counts.update(filter(None, table))
    return counts


def _report(group: str, sigma: SignedPermutation, m: int, expected: int, actual: int, decoded: list[Vector]) -> FiberReport:
    """The report rule of both routes: validated decoded vectors pass when
    distinct and expected == actual == len(decoded), so they are the fiber."""
    passed = expected == actual == len(decoded) == len(set(decoded))
    return FiberReport(group, sigma, m, expected, actual, tuple(decoded), passed)


def fiber_report(group: str, sigma: SignedPermutation, m: int) -> FiberReport:
    """Check the fiber of sigma three ways: the size law C(n + m -
    des(sigma), n), the decoded chain vectors, each validated by a phi or
    psi call, and the forward-map count, sigma's window counted as
    ``_images`` streams by (O(fiber) memory)."""
    expected = _fiber_law(group, sigma, m)[1]
    actual = countOf(_images(group, sigma.n, m), sigma.window)
    return _report(group, sigma, m, expected, actual, fiber_vectors(group, sigma, m) if expected else [])


def fiber_blocks(group: str, n: int, m: int, whole: bool = False) -> tuple[dict, Iterator[tuple]]:
    """The reports of every sigma of B_n or D_n by the rule of
    ``fiber_report``, as ``(rows, blocks)``: per type-A descent pattern the
    signs and size laws of its windows in ``_signed_windows`` order, and per
    permutation p of 1..n ``(pattern, p, reports)``, the reports of p's
    windows of nonzero law, the others passing with law and count 0; or of
    all its windows with ``whole`` or when one of law 0 is counted.  All
    tables are built before the first block; after the last, one full
    collection (about 2 ms) clears the tuple free list, where the oracle's
    windows kept about 3 MB resident after D_6 at m=2."""
    table: list = []
    counts = fiber_counts(group, n, m, table)
    weights = [(2 * m + 1) ** k for k in reversed(range(n))]
    base = m * sum(weights)
    image = lambda v: table[sum(map(mul, v, weights), base)]  # noqa: E731
    law = [binom(n + m - d, n) for d in range(n + 1)]
    of, first = SignedPermutation._of, {}
    for pattern, windows in _signed_windows(n, group):
        first.setdefault(pattern, next(windows))  # sign mask 0: the permutation
    signs = [tuple(x // abs(x) for x in w) for w in next(_signed_windows(n, group))[1]]
    rows, full, part = {}, {}, {}
    for pattern, des in _descent_table(group, n).items():
        laws = [law[d] for d in des]
        windows = (tuple(map(mul, sign, first[pattern])) for sign in signs)
        plans = [_plan(w, m, of(w).descents(group)) if e else () for w, e in zip(windows, laws)]
        rows[pattern], full[pattern] = (signs, laws), (signs, laws, plans)
        part[pattern] = [list(compress(x, laws)) for x in full[pattern]]
    marked = {tuple(map(abs, w)) for w in counts if not law[of(w).des(group)]}

    def blocks():
        for pattern, windows in _signed_windows(n, group):
            p = next(windows)  # sign mask 0
            sign, laws, plans = (full if whole or p in marked else part)[pattern]
            windows = list(map(tuple, map(map, repeat(mul), sign, repeat(p))))
            decoded = map(_decode, repeat(image), windows, plans, repeat(_picker(p)))
            actual = map(counts.get, windows, repeat(0))
            yield pattern, p, list(map(_report, repeat(group), map(of, windows), repeat(m), laws, actual, decoded))
        for held in (table, counts, full, part, marked):
            held.clear()
        gc.collect()

    return rows, blocks()


def fiber_reports(group: str, n: int, m: int) -> Iterator[FiberReport]:
    """The report of every sigma of B_n or D_n, in the order of
    enumerate_bn/enumerate_dn: the blocks of ``fiber_blocks`` with
    ``whole``, flattened."""
    for _, _, reports in fiber_blocks(group, n, m, whole=True)[1]:
        yield from reports


# -- missing-vector census ----------------------------------------------------

def missing_case1_closed(n: int, m: int) -> int:
    """Half the vectors without zeros: 2^(n-1) m^n."""
    return 2 ** (n - 1) * m ** n


def missing_case2a_closed(n: int, m: int) -> int:
    """Closed form for the zero-right-of-second-smallest class."""
    total = sum(
        (2 * j + 2) ** n - 2 * (2 * j + 1) ** n + (2 * j) ** n for j in range(m)
    )
    half, rem = divmod(total, 2)
    if rem:
        raise ArithmeticError(f"odd case2a sum {total} at n={n}, m={m}")
    return half


def missing_cases2b3_closed(n: int, m: int) -> int:
    """Closed form for the two zero-left-of-second-smallest classes together."""
    return sum(
        n * (2 * j + 2) ** (n - 1) - (2 * j + 2) ** n + (2 * j + 1) ** n
        for j in range(m)
    )


def missing_total_closed(n: int, m: int) -> int:
    return 2 ** (n - 1) * sum((j + 1) ** (n - 1) for j in range(m)) * n


def missing_weight_closed(n: int, m: int) -> QPolynomial:
    """(1+q)^(n-1) * n * sum_{j=1}^{m} j^(n-1)."""
    return ONE_PLUS_Q ** (n - 1) * power_sum(n, m)


class MissingCensus(NamedTuple):
    """Per-case counts and q-weights of missing vectors vs. closed forms."""

    n: int
    m: int
    counts: dict[str, int]
    weights: dict[str, QPolynomial]
    associated_count: int
    closed_forms: dict

    @property
    def total_count(self) -> int:
        return sum(self.counts.values())

    @property
    def total_weight(self) -> QPolynomial:
        return sum(self.weights.values(), QPolynomial.zero())

    @property
    def passed(self) -> bool:
        closed = self.closed_forms
        return (
            self.counts["case1"] == closed["case1"]
            and self.counts["case2a"] == closed["A"]
            and self.counts["case2b"] + self.counts["case3"] == closed["B"]
            and self.total_count == closed["total"]
            and self.total_weight == closed["total_weight"]
            and all(
                self.weights[c].at_q1() == self.counts[c] for c in MISSING_CASES
            )
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "cases": {
                case: {
                    "count": self.counts[case],
                    "weight": self.weights[case].to_list(),
                }
                for case in MISSING_CASES
            },
            "closed_forms": {key: _json_value(v) for key, v in self.closed_forms.items()},
            "pass": self.passed,
        }


def _census_fold(n: int, m: int) -> list[int]:
    """One block of n+1 cells per missing case and a last one for the
    associated vectors; cell k of a block counts its vectors with neg2 = k."""
    w = n + 1
    cells = [0] * ((len(MISSING_CASES) + 1) * w)

    # the block of a vector whose two smallest codes are c1 < c2, less 1 when
    # sigma_1 < 0, so that adding neg gives the cell of neg2
    @lru_cache(maxsize=None)
    def offset(c1: int, c2: int, odd: int) -> int:
        return _code_case(n, c1, c2, odd) * w - c1 % w

    # one step per prefix key and last code c, where the prefix's two
    # smallest codes are a < b (b is NO_CODE when n = 2).  offset reads a
    # code's entry and sign from it mod w^2, and a zero from a code below w^2,
    # so it is called with each code's class, which keeps its cache under
    # 8 w^4 entries however many letters there are
    ww = w * w
    last, keys = _prefix_keys(_columns(n, m), 2)
    for (s, (a, b)), count in keys.items():
        for c in last:
            neg = (s + c) % w
            c1, c2, _ = sorted((a, b, c))
            k1 = c1 if c1 < ww else c1 % ww + ww
            k2 = c2 if c2 < ww else c2 % ww + ww
            cells[offset(k1, k2, neg & 1) + neg] += count
    return cells


def missing_census(n: int, m: int) -> MissingCensus:
    """Classify every vector and tally the missing ones per case."""
    if n < 2:
        raise ValueError("need n >= 2")
    cells = _census_fold(n, m)
    w = n + 1
    blocks = {case: cells[c * w:(c + 1) * w] for c, case in enumerate(MISSING_CASES)}
    counts = {case: sum(block) for case, block in blocks.items()}
    weights = {case: QPolynomial(block) for case, block in blocks.items()}
    closed_forms = {  # in JSON key order; B is case2b plus case3
        "A": missing_case2a_closed(n, m),
        "B": missing_cases2b3_closed(n, m),
        "case1": missing_case1_closed(n, m),
        "total": missing_total_closed(n, m),
        "total_weight": missing_weight_closed(n, m),
    }
    return MissingCensus(n, m, counts, weights, sum(cells[len(MISSING_CASES) * w:]), closed_forms)


# -- printed per-case q-expressions -------------------------------------------

def printed_case_weights_q(n: int, m: int) -> tuple[QPolynomial, QPolynomial, QPolynomial]:
    """The three printed per-case q-expressions, evaluated verbatim.

    Only their SUM is guaranteed to equal the census total weight; the
    individual values are known to deviate from the direct per-case
    weighting (e.g. n=2, m=1: printed case1 is 1+q, the census gives 2).
    """
    if n < 2:
        raise ValueError("need n >= 2")
    one_plus_q = ONE_PLUS_Q

    case1 = one_plus_q ** (n - 1) * m ** n

    case2a = QPolynomial.zero()
    for j in range(1, m + 1):
        for i in range(1, n):
            bulk = (m - j + 1) ** (n - i) - (m - j) ** (n - i)
            for k in range(i):
                case2a = case2a + (
                    one_plus_q ** (n - k - 2)
                    * (bulk * binom(i - 1, k) * (m - j) ** (i - 1 - k))
                )

    cases2b3 = QPolynomial.zero()
    for j in range(1, m + 1):
        for i in range(1, n):
            right = one_plus_q * (m - j)
            left = one_plus_q * (m - j + 1)
            for k in range(1, n - i + 1):
                cases2b3 = cases2b3 + (
                    (one_plus_q ** k - 1)
                    * binom(n - i, k)
                    * right ** (n - i - k)
                    * left ** (i - 1)
                )

    return case1, case2a, cases2b3


def printed_lhs_d_q(n: int, m: int) -> QPolynomial:
    """The printed closed form of the type-D q-identity's left side.

    Evaluated verbatim as (1+2m)((1+q)m)^(n-1) - (1+q)^(n-1) n sum_j j^(n-1).
    Known not to match the enumerated right side (it already fails at q=1);
    kept as a probe, see ``erratum_report_d``.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    head = (1 + 2 * m) * (ONE_PLUS_Q * m) ** (n - 1)
    return head - ONE_PLUS_Q ** (n - 1) * power_sum(n, m)


# -- identity verification ----------------------------------------------------

def associated_weight_sum(n: int, m: int):
    """sum_k C(n+m-k, n) D_{n,k}(q) with the per-term breakdown."""
    return rhs_eulerian_sum(eulerian_row_d_q(n).entries, n, m)


def verify_worpitzky_d_q1(n: int, m: int) -> IdentityReport:
    """Type-D identity at q=1: both left-side routes against the Eulerian sum."""
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    lhs = worpitzky_d_lhs(n, m)
    rhs, terms = rhs_eulerian_sum(eulerian_row_d_q(n).at_q1(), n, m)
    return IdentityReport("worpitzky-d", n, m, lhs, rhs, lhs == rhs, terms=terms)


def verify_balance_d_q(n: int, m: int) -> IdentityReport:
    """Mass balance: total vector weight = associated weight + missing weight.

    The left side is the brute-force sum of q^neg2 over all vectors; the
    right side adds the Eulerian fiber sum and the missing-weight closed
    form.  This is the verified form of the type-D q-identity.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    lhs = total_weight_neg2(n, m)
    associated, terms = associated_weight_sum(n, m)
    missing = missing_weight_closed(n, m)
    rhs = associated + missing
    return IdentityReport(
        "balance-d",
        n,
        m,
        lhs,
        rhs,
        lhs == rhs,
        extras={"associated": associated, "missing": missing},
        terms=terms,
    )


def erratum_report_d(n: int, m: int) -> IdentityReport:
    """Probe the printed type-D q closed form against the enumerated side.

    Passes when the discrepancy is CONFIRMED: the printed form differs from
    the Eulerian sum, while the correct q=1 left side still matches it.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    printed = printed_lhs_d_q(n, m)
    rhs, _ = associated_weight_sum(n, m)
    correct_q1 = worpitzky_d_lhs(n, m)
    confirmed = printed != rhs and correct_q1 == rhs.at_q1()
    return IdentityReport(
        "erratum-d",
        n,
        m,
        printed,
        rhs,
        confirmed,
        extras={
            "printed_at_q1": printed.at_q1(),
            "rhs_at_q1": rhs.at_q1(),
            "correct_q1_lhs": correct_q1,
        },
    )
