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

The fibers of ``phi`` (type B) and of ``psi`` (type D) are decoded by one path
from the chains of the type's descent set, and counted by one pass over the
position codes of every vector, ``_images``.  ``fiber_report`` checks one sigma,
each decoded vector validated by a phi or psi call.  ``fiber_blocks`` checks
every sigma, one block per permutation of 1..n.  At a type-A descent pattern's
first block ``_failing`` decides which of its permutations fail, all at once:
the windows of nonzero law (des <= m), each decoded from a plan shared by its
(pattern, sign mask) key and found by rank in an image table, and the windows of
law 0, which fail when they are count oracle keys.  The blocks then write: bare,
with the reports of the windows of nonzero law, or every window of a failing
permutation, each vector re-checked.  ``fiber_reports`` flattens the blocks.

The census of missing vectors carries exact closed forms for the case
counts and for the total q-weight, plus "printed" variants of the per-case
q-expressions whose sum (but not each summand) matches the census; the
deviating closed form of the full q-identity is kept as an erratum probe.
"""

from __future__ import annotations

import sys
from array import array
from bisect import bisect_left
from collections import Counter
from functools import lru_cache, partial
from itertools import chain, compress, count, permutations, product, repeat, tee
from operator import add, countOf, gt, itemgetter, mul, ne
from typing import Iterator, NamedTuple

from .bernoulli import power_sum, worpitzky_d_lhs
from .exactnum import ONE_PLUS_Q, QPolynomial, _parities, _unpack, binom
from .eulerian import eulerian_row_d_q
from .map_b import FiberReport, IdentityReport, _json_value, decode_abs_chains, phi, rhs_eulerian_sum
from .signed_perm import SignedPermutation, _descent_table, _sigma0, _signs
from .sigma_vectors import (
    Vector,
    _columns,
    _prefix_keys,
    _tails,
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
    for signed in plan:
        if max(map(abs, signed)) > m:
            raise ArithmeticError(f"decoded chain {signed} of {format_vector(window)} has an entry outside -{m}..{m}")
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
    """The window the type's forward map sends each vector to, or None for a
    missing vector, in the order of enumerate_vectors: per prefix of n-1 position
    codes, sorted once, each last code put in by ``bisect``.  Type D reads psi's
    case through ``_code_case`` from the classes of the two smallest codes, as
    ``_census_fold`` does (under 8 w^4 cached entries whatever m is), and the code
    sum's parity, with each last code's entry, class and sign bit read once.  It
    builds no SignedPermutation and keeps no vector."""
    if group not in ("B", "D"):
        raise ValueError(f"unknown type {group!r}, expected B or D")
    least = 2 if group == "D" else 1
    if n < least:
        raise ValueError(f"type-{group} fibers need n >= {least}")
    w, ww = n + 1, (n + 1) ** 2
    *head, last = _columns(n, m)
    entry = {code: code_entry(code, n) for column in head for code in column}.__getitem__
    ends = [(code_entry(c, n),) for c in last]  # at n = 1 these are the windows
    if group == "B":
        for prefix in product(*head):
            low = sorted(prefix)
            pe = tuple(map(entry, low))
            for i, e in zip(map(bisect_left, repeat(low), last), ends):
                yield pe[:i] + e + pe[i:]
        return
    klass = {c: c if c < ww else c % ww + ww for column in (*head, last) for c in column}.__getitem__
    case = lru_cache(maxsize=None)(partial(_code_case, n))
    lasts = list(zip(last, ends, map(klass, last), [c % w for c in last]))  # a last code's entry, class and sign bit
    cases = len(MISSING_CASES)  # the case index of a vector that is not missing
    for prefix in product(*head):
        low = sorted(prefix)
        pe = tuple(map(entry, low))
        parity, flipped = sum(prefix) % w & 1, (-pe[0],) + pe[1:]
        ka, kb = klass(low[0]), klass(low[n > 2])  # kb is read only past n = 2
        # past the two smallest codes the case follows the parity alone: read once a parity, when
        # first met, as a case that never occurs can be one that _missing_case refuses
        past = [None, None]
        for c, e, k, negative in lasts:
            i = bisect_left(low, c)
            odd = parity ^ negative
            if i > 1:
                if past[odd] is None:
                    past[odd] = case(ka, kb, odd)
                missing = past[odd]
            else:
                missing = case(k, ka, odd) if i == 0 else case(ka, k, odd)
            if missing < cases:
                yield None
            elif odd and (k if i == 0 else ka) < ww:  # a zero (a code below w^2) and odd negatives: psi flips sigma_1
                yield (-e[0],) + pe if i == 0 else flipped[:i] + e + pe[i:]
            else:
                yield pe[:i] + e + pe[i:]


def fiber_counts(group: str, n: int, m: int, table: list | None = None) -> Counter[tuple[int, ...]]:
    """Count oracle: the size of every nonempty fiber of the type's forward
    map, keyed by window, from one pass of ``_images`` less its Nones.  A
    list ``table`` gets every image too, each the oracle's key equal to it:
    interned through ``setdefault`` as the pass runs, then counted."""
    if table is None:
        return Counter(filter(None, _images(group, n, m)))
    counts = Counter()
    table.extend(map(counts.setdefault, *tee(_images(group, n, m))))
    counts.clear()
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


def _ranks(plans: list, perms: list, m: int, code: str) -> memoryview:
    """The base-(2m+1) rank of every vector decoded from ``plans`` for each of ``perms``,
    permutation by permutation, row by row.  Permutation p puts entry i of a row at
    vector position p_i, so the row's rank is sum_i (entry_i + m) W^(n - p_i), W = 2m+1.
    Column i of the rows is packed into one int from an ``array``, a ``code`` item (wide
    enough for W^n - 1) a row, so p's ranks are n products by scalars and one ``to_bytes``
    in native order, all read back by one ``memoryview`` cast."""
    n, size, order = len(perms[0]), array(code).itemsize, sys.byteorder
    rows = sum(map(len, plans))
    columns = [int.from_bytes(array(code, map(add, map(itemgetter(i), chain.from_iterable(plans)), repeat(m))), order) for i in range(n)]
    scale = [None, *((2 * m + 1) ** (n - v) for v in range(1, n + 1))].__getitem__  # by letter
    packed = map(sum, map(map, repeat(mul), repeat(columns), map(map, repeat(scale), perms)))
    return memoryview(b"".join(map(int.to_bytes, packed, repeat(rows * size), repeat(order)))).cast(code)


def _failing(perms: list, sign: list, laws: list, plans: list, counts: dict, table: list, m: int, code: str, marked: set) -> set:
    """The permutations among ``perms``, all of one type-A descent pattern, that fail: all
    of them if a plan in ``plans`` repeats a chain or its length is not its law in ``laws``
    (a permutation only reorders a chain's entries, so distinct chains decode to distinct
    vectors), else those in ``marked`` and those one of whose windows of signs ``sign`` and
    nonzero ``laws`` fails: its count is not its law, or a vector decoded from its plan has
    a rank whose image in ``table`` is another window.  The counts of every permutation's
    windows are compared with their laws in one pass, and the images of all their ranks
    with the windows, each repeated by its plan's length, in another."""
    if not all(len(plan) == len(set(plan)) == e for plan, e in zip(plans, laws)):
        return set(perms)
    failing = marked.intersection(perms)
    if laws:
        k, width, rows = len(perms), len(sign), sum(map(len, plans))
        windows = list(map(tuple, map(map, repeat(mul), sign * k, chain.from_iterable(map(repeat, perms, repeat(width))))))
        repeated = chain.from_iterable(map(repeat, windows, chain.from_iterable(repeat(list(map(len, plans)), k))))
        counted = compress(count(), map(ne, map(counts.get, windows, repeat(0)), chain.from_iterable(repeat(laws, k))))
        mapped = compress(count(), map(ne, map(table.__getitem__, _ranks(plans, perms, m, code)), repeated))
        failing.update(perms[j // width] for j in counted)
        failing.update(perms[j // rows] for j in mapped)
    return failing


def fiber_blocks(group: str, n: int, m: int, reports: bool = False) -> tuple[dict, Iterator[tuple]]:
    """Every sigma of B_n or D_n checked by the rule of ``fiber_report``, as ``(rows,
    blocks)``: per type-A descent pattern the signs and size laws of its windows in
    ``_signs`` order, and per permutation p of 1..n ``(pattern, p, reports)``.  A
    pattern's first block decides which of its permutations fail (``_failing``), at
    once, each decoded vector by its rank in the image table; a counted window of law 0
    (des > m, read once per count oracle key) fails its permutation.  A failing block
    reports all its windows, each vector re-checked by ``_decode``, which names the
    first that does not map back; else a block reports its windows of nonzero law with
    ``reports`` (the others pass with law and count 0), or none.  A pattern's plans live
    from its first block to its last, so one pattern's plans are held at a time."""
    table: list = []
    counts = fiber_counts(group, n, m, table)
    weights = [(2 * m + 1) ** k for k in reversed(range(n))]
    base = m * sum(weights)
    image = lambda v: table[sum(map(mul, v, weights), base)]  # noqa: E731
    code = next(c for c in "BHIQ" if array(c).itemsize * 8 >= ((2 * m + 1) ** n - 1).bit_length())
    law = [binom(n + m - d, n) for d in range(n + 1)]
    of = SignedPermutation._of
    signs = _signs(n, group)
    patterns = _descent_table(group, n)  # per pattern its descent sets and its permutations
    rows = {pattern: (signs, [law[d.bit_count()] for d in sets]) for pattern, (sets, _) in patterns.items()}
    # the signs, laws and descent sets of each pattern's windows of nonzero law
    nonzero = {pattern: [[x for x, e in zip(xs, laws) if e] for xs in (signs, laws, patterns[pattern][0])] for pattern, (_, laws) in rows.items()}
    marked = {tuple(map(abs, w)) for w in counts if sum(map(gt, (_sigma0(group, w),) + w, w)) > m}

    def blocks():
        kept = dict.fromkeys(rows)
        for p in permutations(range(1, n + 1)):
            pattern = tuple(map(gt, p, p[1:]))
            perms = patterns[pattern][1]
            if kept[pattern] is None:  # its first block: the plans of its windows of nonzero law, checked
                plans = ()  # frees the last pattern's plans, so two patterns' plans are never held at once
                sign, laws, des = nonzero[pattern]
                plans = [_plan(tuple(map(mul, s, p)), m, tuple(i for i in range(n) if d >> i & 1)) for s, d in zip(sign, des)]
                kept[pattern] = _failing(perms, sign, laws, plans, counts, table, m, code, marked), plans
            failing, plans = kept[pattern]
            if p == perms[-1]:
                kept[pattern] = ()  # dropped after its last block
            whole = p in failing
            if not (whole or reports and plans):
                yield pattern, p, ()
                continue
            sign, laws = rows[pattern] if whole else nonzero[pattern][:2]
            windows = list(map(tuple, map(map, repeat(mul), sign, repeat(p))))
            pick = _picker(p)
            if whole:  # every window, law 0 too, decoded anew by its descents and re-checked
                decoded = [_decode(image, w, _plan(w, m, of(w).descents(group)), pick) for w in windows]
            else:
                decoded = map(list, map(map, repeat(pick), plans))
            actual = map(counts.get, windows, repeat(0))
            yield pattern, p, list(map(_report, repeat(group), map(of, windows), repeat(m), laws, actual, decoded))

    return rows, blocks()


def fiber_reports(group: str, n: int, m: int) -> Iterator[FiberReport]:
    """The report of every sigma of B_n or D_n, in the order of
    enumerate_bn/enumerate_dn: the blocks of ``fiber_blocks`` with
    ``reports``, flattened, with the passing windows of law 0 they leave out."""
    rows, blocks = fiber_blocks(group, n, m, True)
    for pattern, p, reports in blocks:
        signs, laws = rows[pattern]
        whole, reports = len(reports) == len(signs), iter(reports)
        for sigma, e in zip(map(SignedPermutation._of, map(tuple, map(map, repeat(mul), signs, repeat(p)))), laws):
            yield next(reports) if e or whole else _report(group, sigma, m, 0, 0, [])


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
    return 2 ** (n - 1) * power_sum(n, m)


def missing_weight_closed(n: int, m: int) -> QPolynomial:
    """(1+q)^(n-1) * n * sum_{j=1}^{m} j^(n-1)."""
    return ONE_PLUS_Q ** (n - 1) * power_sum(n, m)


class MissingCensus(NamedTuple):
    """Per-case counts and q-weights of missing vectors vs. closed forms."""

    n: int
    m: int
    weights: dict[str, QPolynomial]
    associated_count: int
    closed_forms: dict

    @property
    def counts(self) -> dict[str, int]:
        """Each case's count: its weight at q = 1."""
        return {case: weight.at_q1() for case, weight in self.weights.items()}

    @property
    def total_count(self) -> int:
        return sum(self.counts.values())

    @property
    def total_weight(self) -> QPolynomial:
        return sum(self.weights.values(), QPolynomial.zero())

    @property
    def passed(self) -> bool:
        closed, counts, total = self.closed_forms, self.counts, self.total_count
        return (
            counts["case1"] == closed["case1"]
            and counts["case2a"] == closed["A"]
            and counts["case2b"] + counts["case3"] == closed["B"]
            and total == closed["total"]
            and self.total_weight == closed["total_weight"]
            # every vector classified once: missing or associated
            and total + self.associated_count == (2 * self.m + 1) ** self.n
        )

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "cases": {
                case: {
                    "count": count,
                    "weight": self.weights[case].to_list(),
                }
                for case, count in self.counts.items()
            },
            "closed_forms": {key: _json_value(v) for key, v in self.closed_forms.items()},
            "pass": self.passed,
        }


def _census_fold(n: int, m: int) -> list[int]:
    """One block of n+1 cells per missing case and a last one for the
    associated vectors; cell k of a block counts its vectors with neg2 = k.
    A class pair's packed counts by neg go, even cells and odd cells apart, to the
    block ``_code_case`` names for each parity, one cell down when sigma_1 < 0 (neg2
    = neg - [sigma_1 < 0]): a block is one packed weight, unpacked once."""
    w = n + 1
    # _code_case reads a code's entry and sign from it mod w^2 and a zero from a code below
    # w^2, so vectors are tallied by their two smallest codes' classes, under 2 w^2 of them
    ww = w * w
    last, K, keys = _prefix_keys(_columns(n, m), 2)
    last, tail = _tails(last, w, K)
    classes = [(c if c < ww else c % ww + ww, c % w) for c in last]
    pairs = {}
    # a prefix's two smallest codes are a < b (b is NO_CODE when n = 2)
    for (a, b), packed in keys.items():
        i, j, shifted = bisect_left(last, a), bisect_left(last, b), (packed, packed << K)
        ka, kb = (c if c < ww else c % ww + ww for c in (a, b))  # b = NO_CODE: kb is never read
        for k, f in classes[:i]:
            pairs[k, ka] = pairs.get((k, ka), 0) + shifted[f]
        for k, f in classes[i:j]:
            pairs[ka, k] = pairs.get((ka, k), 0) + shifted[f]
        if j < len(last):  # the codes above b leave the pair (a, b)
            pairs[ka, kb] = pairs.get((ka, kb), 0) + packed * tail[j]
    blocks = [0] * (len(MISSING_CASES) + 1)
    parities = _parities(K, w)
    for (k1, k2), packed in pairs.items():
        for odd, mask in enumerate(parities):  # k1 % w is sigma_1's sign bit
            blocks[_code_case(n, k1, k2, odd)] += (packed & mask) >> K * (k1 % w)
    return [cell for block in blocks for cell in _unpack(block, K, w)]


def missing_census(n: int, m: int) -> MissingCensus:
    """Classify every vector and tally the missing ones per case."""
    if n < 2:
        raise ValueError("need n >= 2")
    cells = _census_fold(n, m)
    w = n + 1
    weights = {case: QPolynomial(cells[c * w:(c + 1) * w]) for c, case in enumerate(MISSING_CASES)}
    closed_forms = {  # in JSON key order; B is case2b plus case3
        "A": missing_case2a_closed(n, m),
        "B": missing_cases2b3_closed(n, m),
        "case1": missing_case1_closed(n, m),
        "total": missing_total_closed(n, m),
        "total_weight": missing_weight_closed(n, m),
    }
    return MissingCensus(n, m, weights, sum(cells[len(MISSING_CASES) * w:]), closed_forms)


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
    return (1 + 2 * m) * (ONE_PLUS_Q * m) ** (n - 1) - missing_weight_closed(n, m)


# -- identity verification ----------------------------------------------------

def verify_worpitzky_d_q1(n: int, m: int) -> IdentityReport:
    """Type-D identity at q=1: both left-side routes against the Eulerian sum."""
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    lhs, row = worpitzky_d_lhs(n, m), eulerian_row_d_q(n).at_q1()
    rhs = rhs_eulerian_sum(row, n, m)
    return IdentityReport("worpitzky-d", n, m, lhs, rhs, lhs == rhs, row=row)


def verify_balance_d_q(n: int, m: int) -> IdentityReport:
    """Mass balance: total vector weight = associated weight + missing weight.

    The left side is the brute-force sum of q^neg2 over all vectors; the
    right side adds the Eulerian fiber sum and the missing-weight closed
    form.  This is the verified form of the type-D q-identity.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    lhs, row = total_weight_neg2(n, m), eulerian_row_d_q(n).entries
    associated = rhs_eulerian_sum(row, n, m)
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
        row=row,
    )


def erratum_report_d(n: int, m: int) -> IdentityReport:
    """Probe the printed type-D q closed form against the enumerated side.

    Passes when the discrepancy is CONFIRMED: the printed form differs from
    the Eulerian sum, while the correct q=1 left side still matches it.
    """
    if n < 2 or m < 0:
        raise ValueError("need n >= 2 and m >= 0")
    printed = printed_lhs_d_q(n, m)
    rhs = rhs_eulerian_sum(eulerian_row_d_q(n).entries, n, m)
    correct_q1, rhs_q1 = worpitzky_d_lhs(n, m), rhs.at_q1()
    confirmed = printed != rhs and correct_q1 == rhs_q1
    return IdentityReport(
        "erratum-d",
        n,
        m,
        printed,
        rhs,
        confirmed,
        extras={
            "printed_at_q1": printed.at_q1(),
            "rhs_at_q1": rhs_q1,
            "correct_q1_lhs": correct_q1,
        },
    )
