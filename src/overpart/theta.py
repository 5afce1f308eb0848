"""Classical theta series and Pochhammer products, truncated at a given order.

Conventions (these are load-bearing; the dissection identities in the test
suite pin them):

    phi(q)  = sum_{n in Z} q^(n^2)           coefficient 2 at positive squares
    psi(q)  = sum_{n >= 0} q^(n(n+1)/2)      triangular exponents, n >= 0 only
            = sum_{n in Z} q^(n(2n-1))       the same series, written bilaterally
    psi1(q) = sum_{n in Z} q^(4n^2 + n)
    psi2(q) = sum_{n in Z} q^(4n^2 - 3n)

    (q; q)_inf  = prod_{n >= 1} (1 - q^n) = sum_{n in Z} (-1)^n q^(n(3n-1)/2)
    (-q; q)_inf = prod_{n >= 1} (1 + q^n) = (q^2; q^2)_inf / (q; q)_inf

Every theta series and (q; q)_inf (Euler's pentagonal theorem) is one
bilateral sum, with O(sqrt(order)) nonzero terms; (-q; q)_inf is one sparse
division.  Support is found by walking n outward until the exponent passes
the truncation order, not by a closed-form membership test.
"""

from __future__ import annotations

from .series import EXACT, CoeffRing, TruncatedSeries


def _bilateral(order, ring, up, down, signed=False):
    # sum over n in Z of (-1)^n if signed, at exponent up(k) for n = k >= 0
    # and down(k) for n = -k, k >= 1
    c = [0] * (order + 1)
    k = 0
    while True:
        term = -1 if signed and k & 1 else 1
        hi = up(k)
        lo = down(k) if k else hi
        if hi <= order:
            c[hi] += term
        if k and lo <= order:
            c[lo] += term
        if hi > order and lo > order:
            break
        k += 1
    return TruncatedSeries(ring, c)


def phi(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """phi(q) = 1 + 2q + 2q^4 + 2q^9 + ..."""
    return _bilateral(order, ring, lambda k: k * k, lambda k: k * k)


def phi_neg(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """phi(-q): the sign at q^(k^2) is (-1)^k."""
    return _bilateral(order, ring, lambda k: k * k, lambda k: k * k, signed=True)


def psi(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """psi(q) = 1 + q + q^3 + q^6 + ... (triangular numbers)."""
    return _bilateral(order, ring, lambda k: k * (2 * k - 1), lambda k: k * (2 * k + 1))


def psi1(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """psi1(q) = 1 + q^3 + q^5 + q^14 + q^18 + ... (exponents 4n^2 + n, n in Z)."""
    return _bilateral(order, ring, lambda k: 4 * k * k + k, lambda k: 4 * k * k - k)


def psi2(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """psi2(q) = 1 + q + q^7 + q^10 + q^22 + ... (exponents 4n^2 - 3n, n in Z)."""
    return _bilateral(order, ring, lambda k: 4 * k * k - 3 * k, lambda k: 4 * k * k + 3 * k)


def pochhammer_qq(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """(q; q)_inf = 1 - q - q^2 + q^5 + q^7 - ... (pentagonal exponents)."""
    return _bilateral(order, ring, lambda k: k * (3 * k - 1) // 2,
                      lambda k: k * (3 * k + 1) // 2, signed=True)


def pochhammer_negqq(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """(-q; q)_inf, the generating function for partitions into distinct parts."""
    qq = pochhammer_qq(order, ring)
    return qq.substitute_power(2) / qq
