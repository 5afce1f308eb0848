"""c_k(n): table versus brute force, plus the square-type predicates."""

from math import isqrt

import pytest

from overpart import EXACT, TruncatedSeries, ck_table
from overpart.theta import phi

from oracles import ck_bruteforce, schoolbook_mul, square_indicator, square_predicates


def test_square_series_support():
    # S(q) = q + q^4 + q^9 + ... is the first row of the table
    assert ck_table(1, 10)[0] == [0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0]


def test_square_series_vs_phi():
    # phi(q) = 1 + 2 S(q)
    assert phi(300).coeffs == tuple([1] + [2 * v for v in square_indicator(300)[1:]])


def test_row1_is_square_indicator():
    row = ck_table(1, 500)[0]
    for n in range(501):
        r = isqrt(n)
        assert row[n] == (1 if n > 0 and r * r == n else 0)
    # row 1 is written directly: right at every order, across the squares
    for n in range(21):
        assert ck_table(1, n)[0] == square_indicator(n), n


def test_small_values():
    c1, c2, c3, c4 = ck_table(4, 20)
    assert c2[2] == 1   # (1,1)
    assert c2[5] == 2   # (1,2) and (2,1)
    assert c3[6] == 3   # permutations of (1,1,2)
    assert c4[4] == 1   # (1,1,1,1)
    assert c1[9] == 1
    assert c2[3] == 0
    assert c2[6] == 0


def test_zero_below_k():
    for k, row in enumerate(ck_table(6, 40), 1):
        assert row[0] == 0
        for n in range(k):
            assert row[n] == 0
        assert row[k] == 1  # all-ones tuple


def test_brute_matches_table():
    for k, row in enumerate(ck_table(5, 120), 1):
        for n in range(121):
            assert row[n] == ck_bruteforce(k, n), (k, n)


def test_rows_equal_schoolbook_powers():
    # the orders straddle the squares where floor(sqrt(order)), and with it
    # the slot width, changes; at (64, 64) the 2^(n-1) bound sets the width.
    # The bound's bit length picks the read: struct runs of 1 byte at orders
    # 0 and 1 (bounds 0 and 1) and (8, 8), of 2, 4 and 8 bytes at (8, 16),
    # (5, 300) and (8, 300), and slot by slot past 64 bits at (31, 300)
    cases = [(kmax, order) for kmax in (1, 8) for order in (0, 1)]
    cases += [(8, order) for order in (3, 4, 8, 9, 15, 16, 300)]
    cases += [(64, 64), (5, 300), (31, 300)]
    for kmax, order in cases:
        s = square_indicator(order)
        power = s
        for k, row in enumerate(ck_table(kmax, order), 1):
            assert row == power, (kmax, order, k)
            power = schoolbook_mul(s, power, order + 1)


def test_row_equals_series_power():
    s = TruncatedSeries(EXACT, square_indicator(60))
    assert ck_table(4, 60)[3] == list((s ** 4).coeffs)


def test_table_bounds():
    rows = ck_table(3, 40)
    assert len(rows) == 3
    assert all(len(row) == 41 for row in rows)
    with pytest.raises(ValueError):
        ck_table(0, 5)
    with pytest.raises(ValueError):
        ck_table(1, -1)


def test_bruteforce_bounds():
    assert ck_bruteforce(1, 0) == 0
    assert ck_bruteforce(8, 8) == 1
    for k, n in [(0, 5), (9, 5), (2, 10_001), (2, -1)]:
        with pytest.raises(ValueError):
            ck_bruteforce(k, n)


def test_predicate_examples():
    assert square_predicates(9) == (True, False, True)
    assert square_predicates(18) == (False, True, False)
    assert square_predicates(12) == (False, False, False)
    assert square_predicates(1) == (True, False, True)
    assert square_predicates(2) == (False, True, False)
    assert square_predicates(16) == (True, False, False)
    assert square_predicates(0) == (True, True, False)
    with pytest.raises(ValueError):
        square_predicates(-1)


def test_predicates_exhaustive():
    squares = {a * a for a in range(40)}
    twice = {2 * a * a for a in range(40)}
    odd_squares = {a * a for a in range(1, 40, 2)}
    for n in range(1000):
        kind = square_predicates(n)
        assert kind.is_square == (n in squares)
        assert kind.is_twice_square == (n in twice)
        assert kind.is_odd_square == (n in odd_squares)
