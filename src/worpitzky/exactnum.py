"""Exact integer, rational and q-polynomial arithmetic.

Integers are plain Python ints (arbitrary precision), rationals are
``fractions.Fraction`` (always reduced, positive denominator).  The only
hand-rolled structure is :class:`QPolynomial`, a dense polynomial in the
formal variable q with integer coefficients, kept in canonical form
(trailing zero coefficients trimmed).
"""

from __future__ import annotations

import math
from typing import Iterable


def binom(a: int, b: int) -> int:
    """Binomial coefficient C(a, b); zero when b > a.

    The zero convention for b > a is load-bearing: sums of the form
    sum_k C(n+m-k, n) * row[k] rely on vanishing terms when m < k.
    """
    if a < 0 or b < 0:
        raise ValueError(f"binom requires nonnegative arguments, got ({a}, {b})")
    return math.comb(a, b)


class QPolynomial:
    """Polynomial in q with integer coefficients, index = power of q."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        for c in cs:
            if not isinstance(c, int):
                raise TypeError(f"coefficients must be ints, got {c!r}")
        self._coeffs = tuple(cs)

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
        return QPolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return QPolynomial(tuple(-c for c in self._coeffs))

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
            return QPolynomial(tuple(other * c for c in self._coeffs))
        if not isinstance(other, QPolynomial):
            return NotImplemented
        a, b = self._coeffs, other._coeffs
        if not a or not b:
            return QPolynomial()
        out = [0] * (len(a) + len(b) - 1)
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] += ca * cb
        return QPolynomial(out)

    __rmul__ = __mul__

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValueError("exponent must be a nonnegative integer")
        result = QPolynomial.one()
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

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
