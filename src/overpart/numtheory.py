"""Primality and Jacobi symbols.  Machine-word scale."""

from __future__ import annotations

# Miller-Rabin with this base set is deterministic below 3.3 * 10^24,
# comfortably past 2^63 (Sorenson-Webster bound).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 0 or n > 2**63:
        raise ValueError(f"primality test covers 0 <= n <= 2^63, got {n}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1, by quadratic reciprocity."""
    if n <= 0 or n % 2 == 0:
        raise ValueError(f"Jacobi symbol needs odd n >= 1, got n={n}")
    a %= n
    result = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0

