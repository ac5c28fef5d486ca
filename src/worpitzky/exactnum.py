"""Exact integer, rational and q-polynomial arithmetic.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always reduced, positive denominator).  The only
hand-rolled structure is :class:`QPolynomial`, a dense polynomial in the
formal variable q with integer coefficients, kept in canonical form
(trailing zero coefficients trimmed).  Kronecker packing has its one home here:
a q-polynomial held in one int, K bits a coefficient, so q is a shift by K and a
product of polynomials is one of ints.  Its helpers: the cell width ``_cell_bits``,
``_pack``, ``_unpack``, the signed ``_unpack_signed`` and the masks of the even and
the odd cells, ``_parities``.  QPolynomial's products and powers, the row DP, the
sweep folds and the missing census all pack this way.
"""

from __future__ import annotations

from itertools import count, repeat
from math import comb as binom  # C(a, b) = 0 when b > a: sum_k C(n+m-k, n) row[k] drops the k > m terms
from operator import lshift, neg, sub
from typing import Iterable


def _cell_bits(bound: int) -> int:
    """K for coefficients in 0..bound; -bound..bound takes ``_cell_bits(2 * bound)``."""
    return bound.bit_length()


def _pack(coeffs: Iterable[int], K: int) -> int:
    """The polynomial at q = 2^K: a negative coefficient borrows from the cell above."""
    return sum(map(lshift, coeffs, count(0, K)))


def _unpack(packed: int, K: int, w: int) -> list[int]:
    """The w cells of K bits of ``packed``, lowest first: the coefficients of
    q^0..q^(w-1) of a polynomial packed with each coefficient below 2^K."""
    return [packed >> K * k & (1 << K) - 1 for k in range(w)]


def _parities(K: int, w: int) -> tuple[int, int]:
    """The masks of the even and of the odd cells among w cells of K bits."""
    cells = [(1 << K) - 1, 0] * (w // 2 + 1)
    return _pack(cells[:w], K), _pack(cells[1:w + 1], K)


def _unpack_signed(packed: int, K: int, w: int) -> list[int]:
    """``_unpack`` for coefficients of magnitude below 2^(K-1): 2^(K-1) added to
    every cell makes each nonnegative, so none borrows, and is taken off again."""
    half = 1 << K - 1
    return list(map(sub, _unpack(packed + half * ((1 << K * w) - 1) // ((1 << K) - 1), K, w), repeat(half, w)))


class QPolynomial:
    """Polynomial in q with integer coefficients, index = power of q."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        self._coeffs = QPolynomial._of(list(coeffs))._coeffs
        for c in self._coeffs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be ints, got {c!r}")

    @classmethod
    def _of(cls, cs: list[int]) -> "QPolynomial":
        """The polynomial of the ints ``cs``, trimmed but not checked: ints this class computed."""
        while cs and cs[-1] == 0:
            cs.pop()
        p = cls.__new__(cls)
        p._coeffs = tuple(cs)
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "QPolynomial":
        return cls(())

    @classmethod
    def one(cls) -> "QPolynomial":
        return cls((1,))

    @classmethod
    def q(cls) -> "QPolynomial":
        return cls((0, 1))

    # -- structure ----------------------------------------------------

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self._coeffs

    def to_list(self) -> list[int]:
        return list(self._coeffs)

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, QPolynomial):
            return self._coeffs == other._coeffs
        if isinstance(other, int):
            return self._coeffs == ((other,) if other else ())
        return NotImplemented

    def __hash__(self):
        return hash(self._coeffs)

    # -- ring operations ----------------------------------------------

    @staticmethod
    def _coerce(other) -> "QPolynomial | None":
        if isinstance(other, QPolynomial):
            return other
        if isinstance(other, int):
            return QPolynomial((other,))
        return None

    def __add__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        a, b = self._coeffs, p._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return QPolynomial._of(out)

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial._of(list(map(neg, self._coeffs)))

    def __sub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return self + (-p)

    def __rsub__(self, other):
        p = self._coerce(other)
        if p is None:
            return NotImplemented
        return p + (-self)

    def __mul__(self, other):
        if isinstance(other, int):
            return QPolynomial._of([other * c for c in self._coeffs])
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return QPolynomial()
        # a coefficient of the product sums at most min(len) products of one of each
        K = _cell_bits(2 * min(len(a), len(b)) * max(map(abs, a)) * max(map(abs, b)))
        return QPolynomial._of(_unpack_signed(_pack(a, K) * _pack(b, K), K, len(a) + len(b) - 1))

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        a = self._coeffs
        if not a:
            return QPolynomial() if exponent else QPolynomial.one()
        # no coefficient of p^e exceeds (sum |p_k|)^e, its value at q = 1 with every sign +
        K = _cell_bits(2 * sum(map(abs, a)) ** exponent)
        return QPolynomial._of(_unpack_signed(_pack(a, K) ** exponent, K, (len(a) - 1) * exponent + 1))

    # -- evaluation ---------------------------------------------------

    def at_q1(self) -> int:
        """Value at q=1, i.e. the sum of the coefficients."""
        return sum(self._coeffs)

    # -- formatting ---------------------------------------------------

    def __str__(self) -> str:
        """Compact text form: ``6+3q``, ``1+4q+q^2``, ``0``."""
        if not self._coeffs:
            return "0"
        parts = []
        for k, c in enumerate(self._coeffs):
            if c == 0:
                continue
            if k == 0:
                parts.append(str(c))
                continue
            mag = "" if abs(c) == 1 else str(abs(c))
            term = f"{mag}q" if k == 1 else f"{mag}q^{k}"
            if not parts:
                parts.append(("-" if c < 0 else "") + term)
            else:
                parts.append(("-" if c < 0 else "+") + term)
        return "".join(parts)

    def __repr__(self) -> str:
        return f"QPolynomial({list(self._coeffs)!r})"


Q = QPolynomial.q()
ONE_PLUS_Q = QPolynomial((1, 1))
