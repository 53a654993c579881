"""Binomial coefficients modulo a prime, including negative upper index."""

from math import comb


def lucas_binomial(n, k, p):
    """binom(n, k) mod p, as the exact integer binomial reduced mod p (by
    Lucas' theorem, the product of the binomials of the base-p digits).
    Every caller's upper index is small: below 2N or below |p|.

    Negative n is handled by the reflection
    binom(-n, k) = (-1)^k * binom(n + k - 1, k).
    """
    if k < 0:
        return 0
    if n < 0:
        return (-1) ** k * comb(k - n - 1, k) % p
    return comb(n, k) % p
