"""Polynomials over GF(2) packed into Python ints.

The polynomial c0 + c1*X + ... + cn*X^n is stored as the integer
c0 + c1*2 + ... + cn*2^n, so bit i carries the coefficient of X^i.
Addition is XOR, 0 is the zero polynomial and 1 the constant one.
Every nonzero polynomial is monic, which keeps gcd results canonical.
"""

from __future__ import annotations


def deg(a: int) -> int:
    """Degree of the polynomial, -1 for the zero polynomial."""
    return a.bit_length() - 1


def mul(a: int, b: int) -> int:
    """Carry-less product of two packed polynomials."""
    if a == 0 or b == 0:
        return 0
    acc = 0
    while b:
        if b & 1:
            acc ^= a
        a <<= 1
        b >>= 1
    return acc


def divmod_(a: int, b: int) -> tuple[int, int]:
    """Quotient and remainder of a by b (b nonzero)."""
    if b == 0:
        raise ZeroDivisionError("polynomial division by zero")
    db = deg(b)
    q = 0
    while True:
        da = deg(a)
        if da < db:
            return q, a
        shift = da - db
        q ^= 1 << shift
        a ^= b << shift


def mod(a: int, b: int) -> int:
    return divmod_(a, b)[1]


def gcd(a: int, b: int) -> int:
    while b:
        a, b = b, mod(a, b)
    return a


def _odd_part(a: int) -> int:
    """The terms X^(2i+1) of a: a masked by 0b1010...10 as wide as a."""
    half = (a.bit_length() + 1) // 2
    return a & ((1 << 2 * half) - 1) // 3 * 2


def is_square(a: int) -> bool:
    """True iff every exponent with a nonzero coefficient is even."""
    return _odd_part(a) == 0


def sqrt(a: int) -> int:
    """Square root of a square polynomial (halve every exponent)."""
    r = 0
    i = 0
    while a:
        if a & 1:
            r |= 1 << i
        a >>= 2
        i += 1
    return r


def odd_even_split(a: int) -> tuple[int, int]:
    """Split into (odd part, even part) with odd part = X * s(X)^2."""
    odd = _odd_part(a)
    return odd, a ^ odd
