"""Exact Bernoulli numbers, Bernoulli polynomials and the power-sum bridge.

Everything is exact rational arithmetic; no floating point.  The numbers
follow the convention with first-order value -1/2, computed from the
defining recurrence sum_{k=0}^{n} C(n+1, k) * bern(k) = 0 for n >= 1.

The bridge used by the type-D identity is

    bernoulli_poly(n, m+1) - bernoulli_number(n) = n * (1^(n-1) + ... + m^(n-1))

for n >= 2, which lets the same left-hand side be computed along two
independent routes (Bernoulli values vs. plain power sums).
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache, reduce

from .exactnum import binom


@lru_cache(maxsize=None)
def bernoulli_number(n: int) -> Fraction:
    """n-th Bernoulli number (convention: value -1/2 at n=1)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return Fraction(1)
    acc = Fraction(0)
    for k in range(n):
        acc += binom(n + 1, k) * bernoulli_number(k)
    return -acc / (n + 1)


@lru_cache(maxsize=None)
def _scaled_poly_coeffs(n: int) -> tuple[int, tuple[int, ...]]:
    """D, the lcm of the denominators of B_0..B_n, and C(n, k) B_k D for k = 0..n."""
    d = math.lcm(*(bernoulli_number(k).denominator for k in range(n + 1)))
    return d, tuple(binom(n, k) * int(bernoulli_number(k) * d) for k in range(n + 1))


def bernoulli_poly_eval(n: int, x: Fraction | int) -> Fraction:
    """Value of the n-th Bernoulli polynomial at p/r: sum_k C(n, k) B_k D p^(n-k) r^k / D r^n, by Horner."""
    if n < 0:
        raise ValueError("n must be >= 0")
    (p, r), (d, coeffs) = Fraction(x).as_integer_ratio(), _scaled_poly_coeffs(n)
    acc = 0
    for k, c in enumerate(coeffs):
        acc = acc * p + c * r**k
    return Fraction(acc, d * r**n)


def power_sum(n: int, m: int) -> int:
    """n * (1^(n-1) + 2^(n-1) + ... + m^(n-1)) as an exact integer."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if m < 0:
        raise ValueError("m must be >= 0")
    return n * sum(j ** (n - 1) for j in range(1, m + 1))


def worpitzky_d_lhs(n: int, m: int) -> int:
    """Left side of the type-D identity at q=1, computed two ways.

    Route one uses Bernoulli values, route two plain power sums; they must
    agree exactly, in integers: D B_n(m+1) = D B_n + D ``power_sum(n, m)``.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    d, coeffs = _scaled_poly_coeffs(n)
    scaled = reduce(lambda acc, c: acc * (m + 1) + c, coeffs)  # D B_n(m+1), by Horner
    b, sums = bernoulli_number(n), power_sum(n, m)
    via_power_sum = (1 + 2 * m) ** n - 2 ** (n - 1) * sums
    if scaled != d // b.denominator * b.numerator + d * sums:
        via_bernoulli = (1 + 2 * m) ** n - 2 ** (n - 1) * (Fraction(scaled, d) - b)
        raise ArithmeticError(
            f"Bernoulli and power-sum routes disagree at n={n}, m={m}: "
            f"{via_bernoulli} vs {via_power_sum}"
        )
    return via_power_sum
