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
q^9 + ..., since the q^n coefficient of X^k is 2^k (-1)^(n+k) c_k(n).
two_adic evaluates it by Horner's rule, T <- 1 + X T, in Z/2^(K+1) on one
packed integer: K - 2 steps from the closed form T_2 = 1 + X + 4 S(q^2),
exact since the state after k steps counts only mod 2^(k+1) and X^2 =
4 S(-q)^2 == 4 S(q^2) (mod 8).  X has floor(sqrt(N)) terms, +2 at odd
squares and -2 at even ones, so X T is a signed sum of shifted copies of
T, added largest shift first so that each add costs only the copy it adds.

The anchor under all three, pbar(n) recounted from the definition with
no series code, is tests/oracles.count_by_enumeration.
"""

from __future__ import annotations

from math import isqrt

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
    in Z/2^m, m = depth + 1 (see the module docstring).  Coefficient n sits
    in slot order - n; X T reads T through right shifts by s^2 slots, each
    one bit short so that it also doubles.  The lift keeps each slot in
    [0, 2^(m+1) r), r = floor(sqrt(order)), which fixes the slot width.
    """
    _check_depth(depth)
    m = depth + 1
    r = isqrt(order)
    sb = (m + 1 + r.bit_length() + 7) // 8
    w = 8 * sb
    plus = [s * s * w - 1 for s in range(1, r + 1, 2)[::-1]]
    minus = [s * s * w - 1 for s in range(2, r + 1, 2)[::-1]]
    ones = _repeat(1, sb, order + 1)
    mask = ones * ((1 << m) - 1)
    # the lift covers the minus terms, each below 2^(m+1), and adds 1 at q^0
    lift = ones * (len(minus) << (m + 1)) + (1 << order * w)
    t = bytearray((order + 1) * sb)  # T_2 = 1 + X + 4 S(q^2), q^0 first
    for n, v in {0: 1, **{s * s: (-2, 2)[s & 1] for s in range(1, r + 1)},
                 **{2 * s * s: 4 for s in range(1, isqrt(order // 2) + 1)}}.items():
        t[n * sb:(n + 1) * sb] = (v % (1 << m)).to_bytes(sb, "big")
    t = int.from_bytes(t, "big")
    for _ in range(depth - 2):
        t = lift + sum(map(t.__rshift__, plus)) - sum(map(t.__rshift__, minus)) & mask
    data = t.to_bytes((order + 1) * sb, "big")  # q^0 first, each slot high byte first
    if m <= 8:
        return TruncatedSeries._from_bytes(mod2_ring(m), data[sb - 1::sb])
    return TruncatedSeries._reduced(mod2_ring(m), _unpack(data[::-1], sb, m)[::-1])


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
