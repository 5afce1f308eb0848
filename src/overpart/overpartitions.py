"""The overpartition generating function, built three independent ways.

An overpartition of n is a partition in which the first occurrence of each
distinct part size may be overlined; pbar(n) counts them, so each ordinary
partition contributes 2^(number of distinct part sizes).  The series starts

    1 + 2q + 4q^2 + 8q^3 + 14q^4 + 24q^5 + ...

Constructions:

  by_product    (-q; q)_inf / (q; q)_inf = psi(q)^2 / (q^2; q^2)_inf^3
  by_inversion  1 / phi(-q)
  two_adic      1 + sum_{k=1..K} 2^k sum_n (-1)^(n+k) c_k(n) q^n

The first two are one sparse division each, by Jacobi's (q^2; q^2)_inf^3
and by the square-sparse phi(-q), and agree exactly at every order.
by_product's form follows from (-q; q)_inf = psi(q) / (q^2; q^2)_inf and
Gauss's psi(q) = (q^2; q^2)_inf^2 / (q; q)_inf; its divisor is a series
in q^2, so in Z the even and odd coefficients are two independent chains,
carried as two lanes of one integer (see series._recur).  The
truncated 2-adic sum at depth K agrees with pbar only modulo 2^(K+1), so
two_adic returns it in Z/2^(K+1) (see generating_series).

The 2-adic sum is sum_{k=0..K} X^k with X = -2 S(-q), S(q) = q + q^4 +
q^9 + ..., since the q^n coefficient of X^k is 2^k (-1)^(n+k) c_k(n); mod
2^(K+1) it is 1 / (1 - X) = 1 / phi(-q), pbar itself.  two_adic builds it
at a quarter of the order.  phi(q) phi(-q) = phi(-q^2)^2, used twice,
gives 1 / phi(-q) = phi(q) phi(q^2)^2 / phi(-q^4)^4, and phi's
2-dissection, phi(q) = phi(q^4) + 2q psi(q^8), splits pbar into its
classes mod 4: with y = q^4 and W = 1 / phi(-y)^4,

    sum_n pbar(4n + r) y^n = (2 psi(y^2))^r phi(y)^(3 - r) W,  r = 0..3,

the r = 0 class being Hirschhorn and Sellers' sum pbar(4n) q^n = phi(q)^3
/ phi(-q)^4.  W = sum_k C(k+3, 3) X(y)^k, and mod 2^m, m = K + 1, its
terms vanish past the last k with 2^k C(k+3, 3) != 0 mod 2^m (k = 4 for m
= 7).  Horner's rule, T <- C(k+3, 3) + X T, sums them, and nine products
by phi(y) = 1 + 2 S(y) or 2 psi(y^2) = 2 sum_{s>=0} y^(s(s+1)) give the
four classes.  Each of these factors has one term per square or per
psi exponent, so each step is a sum of shifted copies of one packed
integer, signed for X, added largest shift first so that each add costs
only the copy it adds, then one mask.

The anchor under all three, pbar(n) recounted from the definition with
no series code, is tests/oracles.count_by_enumeration.
"""

from __future__ import annotations

from math import comb, isqrt

from . import theta
from .series import EXACT, CoeffRing, TruncatedSeries, _repeat, _unpack, mod2_ring
# unused here; the benchmark's tracer wraps ck_table at this attribute
from .squares import ck_table

PRODUCT = "product"
INVERSION = "invert"
TWO_ADIC = "2adic"


def by_product(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """(-q; q)_inf / (q; q)_inf as psi(q)^2 / (q^2; q^2)_inf^3: one sparse
    division, not by phi(-q), so independent of by_inversion."""
    return theta.psi_squared(order, ring) / theta.qq_cubed(order, ring).substitute_power(2)


def by_inversion(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """1 / phi(-q); the workhorse construction (phi(-q) is square-sparse)."""
    return theta.phi_neg(order, ring).invert()


def _check_depth(depth: int):
    if not 1 <= depth <= 63:
        raise ValueError(f"2-adic depth must be in 1..63, got {depth}")


def two_adic(order: int, depth: int) -> TruncatedSeries:
    """Partial 2-adic expansion through the 2^depth term, 1 <= depth <= 63,
    in Z/2^m, m = depth + 1: pbar's four classes mod 4 to y^h, h = order //
    4, interleaved (see the module docstring).

    A series to y^h is one integer, coefficient n in slot h - n, so times
    y^e is a right shift by e slots, one bit short when the factor also
    doubles, and the tail falls off.  A lift of 2^(m+1) per subtracted
    copy keeps W's Horner sums unsigned.  Each sum, and each product by
    phi(y) or 2 psi(y^2), stays below 2^(m+1) (r + 1), r = floor(sqrt(h)),
    so slots of m + 1 + bit_length(r) bits never overflow.
    """
    _check_depth(depth)
    m = depth + 1
    ring = mod2_ring(m)
    h = order // 4
    r = isqrt(h)
    sb = (m + 1 + r.bit_length() + 7) // 8
    w = 8 * sb
    top = h * w  # the y^0 slot
    mask = _repeat(ring.mask, sb, h + 1)
    squares = [s * s * w - 1 for s in range(r, 0, -1)]
    plus, minus = squares[1 - r % 2::2], squares[r % 2::2]  # X: +2 at odd s, -2 at even s
    lift = _repeat(len(minus) << (m + 1), sb, h + 1)
    pronic = [s * (s + 1) * w - 1 for s in range(r, 0, -1) if s * (s + 1) <= h]
    cs = [comb(k + 3, 3) & ring.mask for k in range(m)]
    while not cs[-1] << len(cs) - 1 & ring.mask:  # W's terms past K are 0 mod 2^m
        cs.pop()
    t = cs.pop() << top
    for c in reversed(cs):
        t = lift + (c << top) + sum(map(t.__rshift__, plus)) - sum(map(t.__rshift__, minus)) & mask

    def times_phi(t):  # phi(y) = 1 + 2 S(y)
        return t + sum(map(t.__rshift__, squares)) & mask

    def times_psi(t):  # 2 psi(y^2) = 2 sum_{s >= 0} y^(s(s+1))
        return sum(map(t.__rshift__, pronic)) + (t << 1) & mask

    phi_w = times_phi(t)
    phi2_w = times_phi(phi_w)
    classes = (times_phi(phi2_w), times_psi(phi2_w), times_psi(times_psi(phi_w)),
               times_psi(times_psi(times_psi(t))))
    size = (h + 1) * sb
    if m <= 8:
        low = bytearray(4 * (h + 1))
        for i, a in enumerate(classes):  # y^0 first, each slot high byte first
            low[i::4] = a.to_bytes(size, "big")[sb - 1::sb]
        return TruncatedSeries._from_bytes(ring, low[:order + 1])
    vals = [0] * (4 * (h + 1))
    for i, a in enumerate(classes):  # y^h first, each slot low byte first
        vals[i::4] = _unpack(a.to_bytes(size, "little"), sb, m)[::-1]
    return TruncatedSeries._reduced(ring, vals[:order + 1])


def generating_series(order: int, ring: CoeffRing,
                      source: str = INVERSION) -> TruncatedSeries:
    """Build the pbar series in ring from a named source.

    source is "invert", "product", or "2adic:K", 1 <= K <= 63.  Pass EXACT
    for true coefficients.  "2adic:K" carries pbar mod 2^(K+1) only, so
    EXACT or a ring wider than Z/2^(K+1) is refused.  Asked for Z/2^j with
    j <= K+1, it is built at depth max(1, j - 1) alone: the terms past
    that depth are 0 mod 2^j.
    """
    if source.startswith(TWO_ADIC + ":"):
        try:
            depth = int(source.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad 2-adic source {source!r}; expected 2adic:K")
        _check_depth(depth)
        if ring.is_exact or ring.bits > depth + 1:
            raise ValueError(
                f"source {source} carries pbar mod 2^{depth + 1} only; {ring} needs "
                + ("invert or product" if ring.is_exact else f"2adic:{ring.bits - 1}"))
        series = two_adic(order, max(1, ring.bits - 1))
        return series if series.ring == ring else series.reduce_mod(ring.bits)
    if source == INVERSION:
        return by_inversion(order, ring)
    if source == PRODUCT:
        return by_product(order, ring)
    raise ValueError(
        f"unknown source {source!r}; expected {INVERSION!r}, {PRODUCT!r}, or '2adic:K'")
