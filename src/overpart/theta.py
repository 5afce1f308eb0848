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

Every theta series and (q; q)_inf (Euler's pentagonal theorem) is one
bilateral sum, with O(sqrt(order)) nonzero terms; (-q; q)_inf is one sparse
division, whose divisor has about 1/sqrt(2) as many terms below each q^k
as (q; q)_inf.  Each sum is given by its exponent e(n), and every e(n) is
at least n^2, so the terms to q^order all have |n| <= isqrt(order).
"""

from __future__ import annotations

from math import isqrt

from .series import EXACT, CoeffRing, TruncatedSeries


def _bilateral(order, ring, e, signed=False):
    # sum over n in Z of (-1)^n if signed at e(n) >= n^2, reduced as added
    m = -1 if ring.mask is None else ring.mask
    c = [0] * (order + 1)
    k = isqrt(order)
    for n in range(-k, k + 1):
        x = e(n)
        if x <= order:
            c[x] = c[x] + (-1 if signed and n & 1 else 1) & m
    return TruncatedSeries._reduced(ring, c)


def phi(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """phi(q) = 1 + 2q + 2q^4 + 2q^9 + ..."""
    return _bilateral(order, ring, lambda n: n * n)


def phi_neg(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """phi(-q): the sign at q^(k^2) is (-1)^k."""
    return _bilateral(order, ring, lambda n: n * n, signed=True)


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
    return _bilateral(order, ring, lambda n: n * (3 * n - 1) // 2, signed=True)


def pochhammer_negqq(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """(-q; q)_inf = psi(q) / (q^2; q^2)_inf: partitions into distinct parts."""
    return psi(order, ring) / pochhammer_qq(order, ring).substitute_power(2)
