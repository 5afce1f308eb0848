"""c_k(n): table versus brute force, plus the square-type predicates."""

from math import isqrt

import pytest

from overpart import EXACT, TruncatedSeries, ck_table, square_predicates
from overpart.squares import positive_square_series
from overpart.theta import phi

from oracles import ck_bruteforce


def test_square_series_support():
    s = positive_square_series(10)
    assert s.coeffs == (0, 1, 0, 0, 1, 0, 0, 0, 0, 1, 0)
    assert s[0] == 0


def test_square_series_vs_phi():
    # phi(q) = 1 + 2 S(q)
    one = TruncatedSeries.one(EXACT, 300)
    assert one + 2 * positive_square_series(300) == phi(300)


def test_row1_is_square_indicator():
    table = ck_table(1, 500)
    for n in range(501):
        r = isqrt(n)
        assert table.count(1, n) == (1 if n > 0 and r * r == n else 0)


def test_small_values():
    table = ck_table(4, 20)
    assert table.count(2, 2) == 1   # (1,1)
    assert table.count(2, 5) == 2   # (1,2) and (2,1)
    assert table.count(3, 6) == 3   # permutations of (1,1,2)
    assert table.count(4, 4) == 1   # (1,1,1,1)
    assert table.count(1, 9) == 1
    assert table.count(2, 3) == 0
    assert table.count(2, 6) == 0


def test_zero_below_k():
    table = ck_table(6, 40)
    for k in range(1, 7):
        assert table.count(k, 0) == 0
        for n in range(k):
            assert table.count(k, n) == 0
        assert table.count(k, k) == 1  # all-ones tuple


def test_brute_matches_table():
    table = ck_table(5, 120)
    for k in range(1, 6):
        for n in range(121):
            assert table.count(k, n) == ck_bruteforce(k, n), (k, n)


def test_row_equals_series_power():
    s = positive_square_series(60)
    assert ck_table(4, 60).row(4) == (s ** 4).coeffs


def test_table_bounds():
    table = ck_table(3, 40)
    with pytest.raises(IndexError):
        table.count(0, 5)
    with pytest.raises(IndexError):
        table.count(4, 5)
    with pytest.raises(IndexError):
        table.count(3, 41)
    with pytest.raises(IndexError):
        table.count(3, -1)
    with pytest.raises(IndexError):
        table.row(4)
    with pytest.raises(ValueError):
        ck_table(0, 5)


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
