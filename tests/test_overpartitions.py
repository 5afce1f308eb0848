"""The pbar series: three constructions against two independent counts."""

import pytest

from overpart import (EXACT, TruncatedSeries, by_inversion, by_product,
                      generating_series, mod2_ring, theta, two_adic)

from oracles import (count_by_enumeration, pbar_by_recurrence, schoolbook_mul,
                     square_indicator, square_predicates, two_adic_by_counts,
                     two_adic_by_horner)

FIRST_VALUES = (1, 2, 4, 8, 14, 24, 40, 64, 100, 154, 232)


def test_first_values():
    assert by_inversion(10).coeffs == FIRST_VALUES
    assert by_product(10).coeffs == FIRST_VALUES


def test_enumeration_matches_series():
    s = by_inversion(40)
    for n in range(41):
        assert s[n] == count_by_enumeration(n)


def test_enumeration_bounds():
    assert count_by_enumeration(0) == 1
    with pytest.raises(ValueError):
        count_by_enumeration(-1)
    with pytest.raises(ValueError):
        count_by_enumeration(61)


def test_recurrence_oracle_agrees():
    assert by_inversion(400).coeffs == tuple(pbar_by_recurrence(400))


def test_product_equals_inversion(pbar_mod32_20k):
    assert by_product(300) == by_inversion(300)
    ring = mod2_ring(16)
    assert by_product(300, ring) == by_inversion(300, ring)
    # and at the order the congruence suites use
    assert by_product(20000, mod2_ring(32)) == pbar_mod32_20k


def test_product_equals_its_two_division_form_and_inversion():
    # psi^2 / (q^2; q^2)^3, one division by a series in q^2, against
    # (-q; q) / (q; q) by two divisions and against 1 / phi(-q), at every order
    for ring in (EXACT, mod2_ring(1), mod2_ring(8), mod2_ring(64)):
        for order in range(201):
            got = by_product(order, ring)
            assert got == theta.pochhammer_negqq(order, ring) / theta.pochhammer_qq(order, ring)
            assert got == by_inversion(order, ring), (ring, order)


def test_product_never_reads_phi(monkeypatch):
    # the product source stays independent of the inversion source
    want = by_inversion(500)

    def refuse(*args):
        raise AssertionError("by_product read phi")

    monkeypatch.setattr(theta, "phi", refuse)
    monkeypatch.setattr(theta, "phi_neg", refuse)
    assert by_product(500) == want
    assert by_product(500, mod2_ring(8)) == want.reduce_mod(8)
    with pytest.raises(AssertionError):
        by_inversion(10)


def test_modular_constructions_match_exact_anchor(pbar_exact_5000):
    # the exact ring divides with the per-n loop alone, so this checks the
    # blocked far-lag sums of Z/2^m against an independent computation
    assert by_inversion(5000, mod2_ring(32)) == pbar_exact_5000.reduce_mod(32)
    assert by_product(5000, mod2_ring(8)) == pbar_exact_5000.reduce_mod(8)


def test_parity(pbar_mod32_20k):
    co = pbar_mod32_20k.coeffs
    assert co[0] == 1
    assert all(v % 2 == 0 for v in co[1:])


def test_residue_two_mod_four_exactly_at_squares(pbar_mod32_20k):
    # pbar(n) == 2 (mod 4) precisely when n is a positive square; this is
    # the depth-1 two-adic layer seen through the full series
    co = pbar_mod32_20k.coeffs
    for n in range(1, len(co)):
        assert (co[n] % 4 == 2) == square_predicates(n).is_square


def test_two_adic_depth_one_values():
    # 1 + 2 sum (-1)^(n+1) c_1(n) q^n, written out by hand, in Z/4
    s = two_adic(10, 1)
    assert s.ring == mod2_ring(2)
    assert s.coeffs == (1, 2, 0, 0, 2, 0, 0, 0, 0, 2, 0)


# two_adic works at h = order // 4: every order to 67, and 4s^2 - 1 ..
# 4s^2 + 4 and 4s(s+1) - 1 .. 4s(s+1) + 4 for s = 3 (36, 48) and s = 10
# (400, 440), where h gains a square, and floor(sqrt(h)) with it the slot
# width, or a psi(y^2) exponent
TWO_ADIC_ORDERS = (*range(68), *range(399, 405), *range(439, 445), 300, 1001)


@pytest.mark.parametrize("order", TWO_ADIC_ORDERS)
@pytest.mark.parametrize("depth", (1, 2, 3, 7, 8, 15, 16, 31, 63))
def test_two_adic_matches_sum_of_counts(order, depth):
    mask = (1 << (depth + 1)) - 1
    assert (two_adic(order, depth).coeffs
            == tuple(two_adic_by_counts(order, depth, mask)))


@pytest.mark.parametrize("order", TWO_ADIC_ORDERS)
def test_two_adic_matches_horner_from_one(order):
    # the full-order Horner sum from T = 1 against the four classes mod 4
    # built at a quarter of the order, at every depth
    for depth in range(1, 64):
        assert list(two_adic(order, depth).coeffs) == two_adic_by_horner(order, depth), depth


def test_two_adic_never_divides(monkeypatch):
    # the 2adic source is shifts and adds only, so it stays independent of
    # the division that builds the invert source
    want = {(6000, 6): by_inversion(6000, mod2_ring(7)),
            (300, 31): by_inversion(300, mod2_ring(32))}

    def refuse(*args):
        raise AssertionError("two_adic divided or multiplied series")

    for name in ("__truediv__", "invert", "__mul__"):
        monkeypatch.setattr(TruncatedSeries, name, refuse)
    for (order, depth), series in want.items():
        assert two_adic(order, depth) == series
    with pytest.raises(AssertionError):
        by_inversion(10)


def test_square_series_squared_is_s_of_q_squared_mod_2():
    # X^2 = 4 S(-q)^2 == 4 S(q^2) (mod 8), since S(-q)^2 == S(q^2) (mod 2)
    s = square_indicator(2000)
    s_of_q2 = [s[n // 2] if n % 2 == 0 else 0 for n in range(2001)]
    assert schoolbook_mul(s, s, 2001, 1) == s_of_q2


def test_two_adic_truncation_contract():
    for depth in range(1, 8):
        assert two_adic(300, depth) == by_inversion(300, mod2_ring(depth + 1))
    # the order verify all --limit 1500 builds; Z/2^32 has 5-byte slots
    for depth in (6, 31):
        assert two_adic(6000, depth) == by_inversion(6000, mod2_ring(depth + 1))


def test_two_adic_is_not_exact():
    # the truncation contract is mod 2^(K+1) only, and the series says so
    for depth in range(1, 64):
        assert two_adic(20, depth).ring == mod2_ring(depth + 1)


def test_two_adic_modular_ring_width():
    # depth 1..63 keeps the ring Z/2^(K+1) inside Z/2^2 .. Z/2^64
    for depth in (0, 64, -1):
        with pytest.raises(ValueError):
            two_adic(10, depth)


@pytest.mark.parametrize("depth", range(1, 8))
def test_two_adic_source_precision_grid(depth):
    # a 2-adic source serves any ring it carries, Z/2^j for j <= K+1, and
    # refuses every wider one rather than return bits it does not have
    for bits in range(1, 9):
        ring = mod2_ring(bits)
        if bits <= depth + 1:
            assert (generating_series(300, ring, f"2adic:{depth}")
                    == by_inversion(300, ring))
        else:
            with pytest.raises(ValueError, match=f"2adic:{bits - 1}"):
                generating_series(300, ring, f"2adic:{depth}")
    with pytest.raises(ValueError):
        generating_series(300, EXACT, f"2adic:{depth}")


def test_two_adic_source_builds_only_the_depth_its_ring_reads():
    # the terms past depth j - 1 are 0 mod 2^j, so a deep source asked
    # for Z/2^j is built at that depth; depth 1 is the floor
    assert generating_series(300, mod2_ring(4), "2adic:31") == two_adic(300, 3)
    assert generating_series(300, mod2_ring(7), "2adic:6") == two_adic(300, 6)
    assert (generating_series(300, mod2_ring(1), "2adic:31")
            == two_adic(300, 1).reduce_mod(1))
    # the depth is checked before it is clamped
    for ring, depth in ((mod2_ring(1), 0), (mod2_ring(7), 64), (mod2_ring(7), -1)):
        with pytest.raises(ValueError, match="2-adic depth must be in 1..63"):
            generating_series(10, ring, f"2adic:{depth}")


def test_generating_series_sources():
    assert generating_series(50, EXACT, "product") == by_product(50)
    assert generating_series(50, EXACT, "invert") == by_inversion(50)
    assert generating_series(50, mod2_ring(4), "2adic:3") == two_adic(50, 3)
    # the caller names the ring: there is no default to fall back on
    with pytest.raises(TypeError):
        generating_series(10)


def test_generating_series_bad_source():
    with pytest.raises(ValueError):
        generating_series(10, EXACT, "euler")
    with pytest.raises(ValueError):
        generating_series(10, EXACT, "2adic:x")
