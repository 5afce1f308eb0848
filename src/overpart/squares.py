"""Counting representations of n as ordered sums of k positive squares.

c_k(n) is the number of tuples (a_1, ..., a_k) of positive integers with
a_1^2 + ... + a_k^2 = n.  Order matters: c_2(5) = 2 counts (1,2) and (2,1).
Row k of the table is exactly the coefficient list of S(q)^k where
S(q) = q + q^4 + q^9 + ..., each row the row before times S.

The independent oracle, a direct recursive enumeration that shares no
code with the table, is tests/oracles.ck_bruteforce.
"""

from __future__ import annotations

from math import isqrt

from .series import _unpack


def ck_table(kmax: int, order: int) -> tuple:
    """Rows c_k(0..order) for k = 1..kmax: rows[k - 1][n] = c_k(n).

    A row is one packed integer in the reversed layout of
    overpartitions.two_adic's series in q^4, coefficient n in slot order -
    n: times q^(s^2) is a right shift by s^2 slots, and the tail falls off.
    Row 1, S, is written directly; each later row sums the row before's
    floor(sqrt(order)) shifts, largest first, exact and unsigned.  No slot
    overflows: a tuple's parts are at most r = floor(sqrt(order)) and it is
    a composition of n, so c_k(n) <= min(r^kmax, 2^(order - 1)).
    """
    if kmax < 1 or order < 0:
        raise ValueError(f"table needs kmax >= 1 and order >= 0, got {kmax}, {order}")
    r = isqrt(order)
    bits = max(1, min((r ** kmax).bit_length(), order))
    sb = (bits + 7) // 8
    w = 8 * sb
    shifts = [s * s * w for s in range(r, 0, -1)]
    size = (order + 1) * sb
    t = bytearray(size)  # row 1, S itself
    for s in range(1, r + 1):
        t[(order - s * s) * sb] = 1
    t = int.from_bytes(t, "little")
    rows = []
    for k in range(kmax):
        if k:
            t = sum(map(t.__rshift__, shifts))
        rows.append(list(reversed(_unpack(t.to_bytes(size, "little"), sb, bits))))
    return tuple(rows)
