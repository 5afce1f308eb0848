"""Counting representations of n as ordered sums of k positive squares.

c_k(n) is the number of tuples (a_1, ..., a_k) of positive integers with
a_1^2 + ... + a_k^2 = n.  Order matters: c_2(5) = 2 counts (1,2) and (2,1).
Row k of the table is exactly the coefficient list of S(q)^k where
S(q) = q + q^4 + q^9 + ..., built by successive exact convolutions.

The independent oracle, a direct recursive enumeration that shares no
code with the table, is tests/oracles.ck_bruteforce.
"""

from __future__ import annotations

from math import isqrt
from typing import NamedTuple

from .series import EXACT, CoeffRing, TruncatedSeries


def positive_square_series(order: int, ring: CoeffRing = EXACT) -> TruncatedSeries:
    """S(q) = q + q^4 + q^9 + ...: indicator of positive perfect squares."""
    c = [0] * (order + 1)
    k = 1
    while k * k <= order:
        c[k * k] = 1
        k += 1
    return TruncatedSeries(ring, c)


class RepCountTable:
    """Exact values c_k(n) for 1 <= k <= kmax, 0 <= n <= order."""

    def __init__(self, kmax: int, order: int, rows):
        self.kmax = kmax
        self.order = order
        self._rows = rows  # _rows[k-1][n] = c_k(n)

    def count(self, k: int, n: int) -> int:
        if not 1 <= k <= self.kmax:
            raise IndexError(f"k={k} outside table range 1..{self.kmax}")
        if not 0 <= n <= self.order:
            raise IndexError(f"n={n} outside table range 0..{self.order}")
        return self._rows[k - 1][n]

    def row(self, k: int) -> tuple:
        if not 1 <= k <= self.kmax:
            raise IndexError(f"k={k} outside table range 1..{self.kmax}")
        return self._rows[k - 1]


def ck_table(kmax: int, order: int) -> RepCountTable:
    """Build the table by k-fold convolution of the square indicator."""
    if kmax < 1:
        raise ValueError(f"table needs kmax >= 1, got {kmax}")
    s = positive_square_series(order, EXACT)
    rows = [s.coeffs]
    power = s
    for _ in range(kmax - 1):
        power = power * s
        rows.append(power.coeffs)
    return RepCountTable(kmax, order, tuple(rows))


class SquareKind(NamedTuple):
    is_square: bool
    is_twice_square: bool
    is_odd_square: bool


def square_predicates(n: int) -> SquareKind:
    """Square / twice-a-square / odd-square tests used by the congruence filters."""
    if n < 0:
        raise ValueError(f"predicates defined for n >= 0, got {n}")
    r = isqrt(n)
    is_sq = r * r == n
    h = isqrt(n // 2)
    is_twice = n % 2 == 0 and 2 * h * h == n
    return SquareKind(is_sq, is_twice, is_sq and r & 1 == 1)
