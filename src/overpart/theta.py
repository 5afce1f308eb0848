"""Classical theta series and Pochhammer products, truncated at a given order.

Conventions (these are load-bearing; the dissection identities in the test
suite pin them):

    phi(q)  = sum_{n in Z} q^(n^2)           coefficient 2 at positive squares
    psi(q)  = sum_{n >= 0} q^(n(n+1)/2)      triangular exponents, n >= 0 only
            = sum_{n in Z} q^(n(2n-1))       the same series, written bilaterally
    psi1(q) = sum_{n in Z} q^(4n^2 + n)
    psi2(q) = sum_{n in Z} q^(4n^2 - 3n)

    (q; q)_inf  = prod_{n >= 1} (1 - q^n) = sum_{n in Z} (-1)^n q^(n(3n-1)/2)
    (-q; q)_inf = prod_{n >= 1} (1 + q^n) = psi(q) / (q^2; q^2)_inf  (Gauss)
    (q; q)_inf^3 = sum_{n in Z} (4n+1) q^(n(2n+1))                    (Jacobi)
    psi(q)^2    = sum_{i, j >= 0} q^(i(i+1)/2 + j(j+1)/2)

Every theta series, (q; q)_inf (Euler's pentagonal theorem) and
(q; q)_inf^3 (Jacobi's identity, one term per triangular number) is one
bilateral sum, with O(sqrt(order)) nonzero terms; (-q; q)_inf is one sparse
division, whose divisor has about 1/sqrt(2) as many terms below each q^k
as (q; q)_inf.  Each sum is given by its exponent e(n) and its coefficient
rule, and every e(n) is at least n^2, so the terms to q^order all have
|n| <= isqrt(order).  psi(q)^2 counts the pairs of triangular numbers
whose sum is at most order, each unordered pair once, about pi/4 * order
of them, with no multiply.
"""

from __future__ import annotations

from bisect import bisect_right
from math import isqrt

from .series import EXACT, CoeffRing, TruncatedSeries


def _bilateral(order, ring, e, coef=lambda n: 1):
    # sum over n in Z of coef(n) q^e(n), e(n) >= n^2, reduced as added
    m = -1 if ring.mask is None else ring.mask
    c = [0] * (order + 1)
    k = isqrt(order)
    for n in range(-k, k + 1):
        x = e(n)
        if x <= order:
            c[x] = c[x] + coef(n) & m
    return TruncatedSeries._reduced(ring, c)


def _alternating(n):
    return -1 if n & 1 else 1


def phi(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """phi(q) = 1 + 2q + 2q^4 + 2q^9 + ..."""
    return _bilateral(order, ring, lambda n: n * n)


def phi_neg(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """phi(-q): the sign at q^(k^2) is (-1)^k."""
    return _bilateral(order, ring, lambda n: n * n, _alternating)


def psi(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """psi(q) = 1 + q + q^3 + q^6 + ... (triangular numbers)."""
    return _bilateral(order, ring, lambda n: n * (2 * n - 1))


def psi1(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """psi1(q) = 1 + q^3 + q^5 + q^14 + q^18 + ... (exponents 4n^2 + n, n in Z)."""
    return _bilateral(order, ring, lambda n: 4 * n * n + n)


def psi2(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """psi2(q) = 1 + q + q^7 + q^10 + q^22 + ... (exponents 4n^2 - 3n, n in Z)."""
    return _bilateral(order, ring, lambda n: 4 * n * n - 3 * n)


def pochhammer_qq(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """(q; q)_inf = 1 - q - q^2 + q^5 + q^7 - ... (pentagonal exponents)."""
    return _bilateral(order, ring, lambda n: n * (3 * n - 1) // 2, _alternating)


def pochhammer_negqq(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """(-q; q)_inf = psi(q) / (q^2; q^2)_inf: partitions into distinct parts."""
    return psi(order, ring) / pochhammer_qq(order, ring).substitute_power(2)


def qq_cubed(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """(q; q)_inf^3 = 1 - 3q + 5q^3 - 7q^6 + ... (Jacobi's identity)."""
    return _bilateral(order, ring, lambda n: n * (2 * n + 1), lambda n: 4 * n + 1)


def psi_squared(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """psi(q)^2 = 1 + 2q + q^2 + 2q^3 + 2q^4 + ...: coefficient n counts the
    ordered pairs of triangular numbers that sum to n."""
    # the triangular numbers up to order
    tri = [n * (n + 1) // 2 for n in range((isqrt(8 * order + 1) + 1) // 2)]
    c = [0] * (order + 1)
    for i, x in enumerate(tri[:bisect_right(tri, order // 2)]):
        c[2 * x] += 1  # the pair (x, x); every other pair comes twice
        for y in tri[i + 1:bisect_right(tri, order - x)]:
            c[x + y] += 2
    return TruncatedSeries(ring, c)
