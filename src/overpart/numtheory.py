"""Primality below 2^32 and Legendre symbols, for the family prime ell < 2^16."""

from __future__ import annotations

from math import isqrt


def is_prime(n: int) -> bool:
    """Trial division; at most 2^16 divisions for n < 2^32."""
    if not 0 <= n < 2**32:
        raise ValueError(f"primality test covers 0 <= n < 2^32, got {n}")
    return n > 1 and all(n % p for p in range(2, isqrt(n) + 1))


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) for an odd prime p, by Euler's criterion."""
    return (pow(a, (p - 1) // 2, p) + 1) % p - 1
