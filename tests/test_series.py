"""Coefficient rings and truncated-series arithmetic.

The packed-integer convolution and the division recurrence are checked
against the schoolbook implementations in oracles.py on seeded random
inputs, exact and modular.
"""

import copy
import pickle
import random
from math import isqrt
from operator import add, sub

import pytest

from overpart import (EXACT, CoeffRing, TruncatedSeries, congruence, mod2_ring,
                      overpartitions, series, theta)

from oracles import (is_zero, pbar_by_recurrence, recur_grouped, schoolbook_invert,
                     schoolbook_mul, two_adic_by_counts)

M32 = mod2_ring(32)


def rand_series(rng, ring, order, lo=-9, hi=9, unit=False):
    c = [rng.randint(lo, hi) for _ in range(order + 1)]
    if unit:
        c[0] = rng.choice([1, -1]) if ring.is_exact else (c[0] | 1)
    return TruncatedSeries(ring, c)


# -- rings ---------------------------------------------------------------

def test_ring_labels():
    assert str(EXACT) == "Z"
    assert str(mod2_ring(5)) == "Z/2^5"
    assert EXACT.is_exact and EXACT.mask is None
    assert not M32.is_exact
    assert mod2_ring(4).mask == 15


@pytest.mark.parametrize("bits", [0, -3, 65])
def test_ring_width_bounds(bits):
    with pytest.raises(ValueError):
        mod2_ring(bits)
    # keyword construction, _make and _replace check the width too
    with pytest.raises(ValueError):
        CoeffRing(bits=bits)
    with pytest.raises(ValueError):
        CoeffRing._make((bits,))
    with pytest.raises(ValueError):
        mod2_ring(7)._replace(bits=bits)
    ring = mod2_ring(7)
    assert repr(ring) == "CoeffRing(bits=7)" and repr(EXACT) == "CoeffRing(bits=None)"
    assert hash(ring) == hash((7,)) and ring == (7,)
    assert CoeffRing(bits=7) == ring._replace(bits=7) == CoeffRing._make([7]) == ring


def test_unit_inverses():
    r = mod2_ring(8)
    for x in range(1, 256, 2):
        assert r.is_unit(x)
        assert (x * r.invert_unit(x)) % 256 == 1
    assert not r.is_unit(6)
    assert EXACT.invert_unit(1) == 1
    assert EXACT.invert_unit(-1) == -1
    with pytest.raises(ValueError):
        EXACT.invert_unit(2)
    with pytest.raises(ValueError):
        r.invert_unit(4)


# -- construction and inspection ----------------------------------------

def test_construction_basics():
    s = TruncatedSeries(EXACT, [1, 2, 3])
    assert s.order == 2
    assert s.coeffs == (1, 2, 3)
    assert TruncatedSeries.zero(EXACT, 3).coeffs == (0, 0, 0, 0)
    assert TruncatedSeries.one(EXACT, 2).coeffs == (1, 0, 0)
    assert TruncatedSeries.monomial(EXACT, 4, 3, coeff=-2).coeffs == (0, 0, 0, -2, 0)


def test_construction_normalizes_into_ring():
    s = TruncatedSeries(mod2_ring(4), [-1, 16, 17])
    assert s.coeffs == (15, 0, 1)
    assert TruncatedSeries(mod2_ring(7), [-1, 128, 255]).coeffs == (127, 0, 127)


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        TruncatedSeries(EXACT, [])


def test_monomial_exponent_out_of_range():
    with pytest.raises(ValueError):
        TruncatedSeries.monomial(EXACT, 3, 4)
    with pytest.raises(ValueError):
        TruncatedSeries.monomial(EXACT, 3, -1)


def test_coefficient_past_order_is_an_error():
    s = TruncatedSeries(EXACT, [1, 2])
    assert s[0] == 1 and s[1] == 2
    with pytest.raises(IndexError):
        s[2]
    with pytest.raises(IndexError):
        s[-1]


def test_immutability():
    s = TruncatedSeries(EXACT, [1])
    with pytest.raises(AttributeError):
        s.ring = M32


def test_equality_and_hash():
    a = TruncatedSeries(EXACT, [1, 2])
    b = TruncatedSeries(EXACT, [1, 2])
    assert a == b and hash(a) == hash(b)
    assert a != TruncatedSeries(M32, [1, 2])        # ring matters
    assert a != TruncatedSeries(EXACT, [1, 2, 0])   # order matters
    assert a != "q"


def test_zero_detection_and_repr():
    z = TruncatedSeries.zero(EXACT, 5)
    assert is_zero(z)
    assert not is_zero(TruncatedSeries.one(EXACT, 5))
    assert "order 5" in repr(z)
    assert "q^2" in repr(TruncatedSeries(EXACT, [0, 0, 7]))


# -- arithmetic against the schoolbook oracle ----------------------------

def test_binary_ops_require_matching_ring():
    a = TruncatedSeries(EXACT, [1, 2])
    b = TruncatedSeries(M32, [1, 2])
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a - b
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a / b


def test_binary_ops_reject_foreign_types():
    a = TruncatedSeries(EXACT, [1, 2])
    with pytest.raises(TypeError):
        a + 3
    with pytest.raises(TypeError):
        a - 3
    with pytest.raises(TypeError):
        a * "x"
    with pytest.raises(TypeError):
        a / 3
    with pytest.raises(TypeError):
        3 / a


def test_scalar_multiplication():
    a = TruncatedSeries(EXACT, [1, -2, 3])
    assert (3 * a).coeffs == (3, -6, 9)
    assert (a * -1).coeffs == (-a).coeffs
    m = TruncatedSeries(mod2_ring(4), [1, 2])
    assert (7 * m).coeffs == (7, 14)


def test_result_truncates_to_shorter_operand():
    a = TruncatedSeries(EXACT, [1, 1, 1, 1, 1])
    b = TruncatedSeries(EXACT, [1, 1])
    assert (a + b).order == 1
    assert (a * b).order == 1
    assert (a * b).coeffs == (1, 2)
    assert (a / b).order == 1
    assert (b / a).order == 1
    assert (a / b).coeffs == (1, 0)


def test_addition_and_subtraction():
    rng = random.Random(11)
    for _ in range(50):
        n = rng.randrange(0, 30)
        a = rand_series(rng, EXACT, n, lo=-100, hi=100)
        b = rand_series(rng, EXACT, n, lo=-100, hi=100)
        assert (a + b).coeffs == tuple(x + y for x, y in zip(a.coeffs, b.coeffs))
        assert (a - b).coeffs == tuple(x - y for x, y in zip(a.coeffs, b.coeffs))
        assert (a + b) - b == a


def test_product_matches_schoolbook_exact():
    rng = random.Random(12345)
    for _ in range(200):
        n = rng.randrange(0, 40)
        a = rand_series(rng, EXACT, n, lo=-10**6, hi=10**6)
        b = rand_series(rng, EXACT, n, lo=-10**6, hi=10**6)
        want = schoolbook_mul(a.coeffs, b.coeffs, n + 1)
        assert list((a * b).coeffs) == want


def test_product_matches_schoolbook_modular():
    rng = random.Random(99)
    mask = (1 << 32) - 1
    for _ in range(200):
        n = rng.randrange(0, 40)
        a = rand_series(rng, M32, n, lo=0, hi=mask)
        b = rand_series(rng, M32, n, lo=0, hi=mask)
        want = schoolbook_mul(a.coeffs, b.coeffs, n + 1, mask)
        assert list((a * b).coeffs) == want


def test_product_huge_coefficients():
    rng = random.Random(7)
    a = rand_series(rng, EXACT, 12, lo=-10**40, hi=10**40)
    b = rand_series(rng, EXACT, 12, lo=-10**40, hi=10**40)
    assert list((a * b).coeffs) == schoolbook_mul(a.coeffs, b.coeffs, 13)


def test_product_sign_boundary_stress():
    # alternating maximal-magnitude signed slots stress the bias and the
    # borrow handling in the packed representation
    for k in (7, 8, 15, 16, 31):
        c = (1 << k) - 1
        a = TruncatedSeries(EXACT, [c if i % 2 == 0 else -c for i in range(25)])
        assert list((a * a).coeffs) == schoolbook_mul(a.coeffs, a.coeffs, 25)


@pytest.mark.parametrize("sb", [8, 9])
@pytest.mark.parametrize("length", [1, 2, 25])
def test_product_at_the_struct_slot_edge(monkeypatch, sb, length):
    # 8-byte slots are the widest that one struct call packs and reads,
    # 9-byte slots the narrowest written slot by slot; at each width the
    # largest alternating coefficients, and at 9 the smallest that need it
    def largest(width):  # the largest c whose c * c * length, plus 2 bits, fits width bytes
        return isqrt(((1 << 8 * width - 2) - 1) // length)

    widths = []
    pack = series._pack
    monkeypatch.setattr(series, "_pack", lambda *a: widths.append(a[1]) or pack(*a))
    for c in [largest(8)] if sb == 8 else [largest(8) + 1, largest(9)]:
        for first in (1, -1):
            a = TruncatedSeries(EXACT, [(-1) ** i * c for i in range(length)])
            b = TruncatedSeries(EXACT, [(-1) ** i * first * c for i in range(length)])
            assert list((a * b).coeffs) == schoolbook_mul(a.coeffs, b.coeffs, length)
    assert set(widths) == {sb}


@pytest.mark.parametrize("bits", [1, 8, 9, 64, 65, 200])
def test_pack_and_unpack_are_inverses(bits):
    top = (1 << bits) - 1
    vals = [0, top, top, 0, 0, top, 0]
    for sb in ((bits + 7) // 8, (bits + 7) // 8 + 1):
        word = series._pack(vals, sb, bits)
        assert word == sum(v << 8 * sb * i for i, v in enumerate(vals))
        data = word.to_bytes(len(vals) * sb, "little")
        assert list(series._unpack(data, sb, bits)) == vals


def test_product_with_zero():
    a = TruncatedSeries(EXACT, [1, 2, 3])
    z = TruncatedSeries.zero(EXACT, 2)
    assert is_zero(a * z)
    assert is_zero(z * z)


def test_power_matches_repeated_product():
    rng = random.Random(5)
    a = rand_series(rng, EXACT, 15)
    acc = TruncatedSeries.one(EXACT, 15)
    for e in range(6):
        assert (a ** e).coeffs == acc.coeffs
        acc = acc * a
    with pytest.raises(ValueError):
        a ** -1
    with pytest.raises(ValueError):
        a ** 1.5


# -- inversion and division ---------------------------------------------

def test_invert_geometric():
    s = TruncatedSeries(EXACT, [1, -1, 0, 0, 0, 0])
    assert s.invert().coeffs == (1, 1, 1, 1, 1, 1)


def test_invert_round_trip_exact():
    rng = random.Random(31)
    one = TruncatedSeries.one(EXACT, 30)
    for _ in range(100):
        a = rand_series(rng, EXACT, 30, unit=True)
        assert a * a.invert() == one


def test_invert_round_trip_modular():
    rng = random.Random(32)
    one = TruncatedSeries.one(M32, 30)
    for _ in range(100):
        a = rand_series(rng, M32, 30, lo=0, hi=(1 << 32) - 1, unit=True)
        assert a * a.invert() == one


def test_invert_matches_schoolbook():
    rng = random.Random(33)
    a = rand_series(rng, EXACT, 25, unit=True)
    assert list(a.invert().coeffs) == schoolbook_invert(list(a.coeffs))
    m = rand_series(rng, M32, 25, lo=0, hi=100, unit=True)
    assert list(m.invert().coeffs) == schoolbook_invert(
        list(m.coeffs), (1 << 32) - 1)


def sparse_unit_series(rng, ring, order):
    # a unit constant term and a handful of nonzero terms, like the theta
    # and Pochhammer denominators the package divides by
    c = [0] * (order + 1)
    c[0] = rng.choice([1, -1]) if ring.is_exact else rng.randrange(1, 1 << 32, 2)
    for i in rng.sample(range(1, order + 1), min(order, 6)):
        c[i] = rng.randint(-5, 5)
    return TruncatedSeries(ring, c)


@pytest.mark.parametrize("ring,seed", [(EXACT, 34), (M32, 35)], ids=["Z", "Z/2^32"])
def test_division_matches_schoolbook(ring, seed):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randrange(0, 40)
        a = rand_series(rng, ring, n, lo=-10**6, hi=10**6)
        d = sparse_unit_series(rng, ring, n)
        inv = schoolbook_invert(list(d.coeffs), ring.mask)
        assert list((a / d).coeffs) == schoolbook_mul(a.coeffs, inv, n + 1, ring.mask)
        assert (a / d) * d == a


def distinct_unit_series(rng, ring, order):
    # every term past d(0) a different value, so one group per term
    c = [v * rng.choice([1, -1]) for v in rng.sample(range(1, 10**6), order + 1)]
    c[0] = rng.choice([1, -1]) if ring.is_exact else c[0] | 1
    return TruncatedSeries(ring, c)


def late_unit_series(rng, ring, order):
    # d(0) and then nothing until past order/2, so no value has a term
    # in the recurrence for the first half of the quotient
    c = [0] * (order + 1)
    c[0] = rng.choice([1, -1]) if ring.is_exact else rng.randrange(1, 1 << 32, 2)
    for i in rng.sample(range(order // 2 + 1, order + 1), min(4, order - order // 2)):
        c[i] = rng.choice([-3, -1, 2, 7])
    return TruncatedSeries(ring, c)


RINGS = [EXACT, mod2_ring(1), mod2_ring(4), M32, mod2_ring(64)]
RING_IDS = ["Z", "Z/2", "Z/2^4", "Z/2^32", "Z/2^64"]
B = series._block(0, 1)  # the least block, which every ring uses below order 256
# around the block edges, and one order that is not a multiple of B
EDGE_ORDERS = (B - 1, B, B + 1, 2 * B - 1, 2 * B + 1, 1001)


def straddle_unit_series(rng, ring, order, block=B):
    # terms on both sides of every block edge, at block and at 2, 3, ...
    # blocks: a term shorter than the block reads only the end of the
    # finished quotient, a longer one a whole block's span of it
    c = [0] * (order + 1)
    c[0] = rng.choice([1, -1]) if ring.is_exact else rng.randrange(1, 1 << 32, 2)
    for edge in range(block, order + 2, block):
        for i in (edge - 1, edge, edge + 1):
            if i <= order:
                c[i] = rng.choice([-2, -1, 1, 2, 3])
    return TruncatedSeries(ring, c)


@pytest.mark.parametrize("ring", RINGS, ids=RING_IDS)
@pytest.mark.parametrize("make", [distinct_unit_series, late_unit_series,
                                  straddle_unit_series],
                         ids=["dense-distinct", "late-support", "straddle"])
def test_division_by_grouped_values_matches_schoolbook(ring, make):
    rng = random.Random(36)
    for n in (0, 1, 2, 7, 40) + EDGE_ORDERS:
        if ring.is_exact and make is distinct_unit_series and n > 2 * B + 1:
            continue  # exact coefficients reach thousands of digits; the oracle is too slow
        a = rand_series(rng, ring, n, lo=-10**6, hi=10**6)
        d = make(rng, ring, n)
        inv = schoolbook_invert(list(d.coeffs), ring.mask)
        assert list(d.invert().coeffs) == inv
        assert list((a / d).coeffs) == schoolbook_mul(a.coeffs, inv, n + 1, ring.mask)


def recur_divisor(rng, ring, n, values, t=1):
    # a unit d(0) and terms at about half the exponents 1 <= i < n that are
    # multiples of t, each a value drawn from values, or every term its own
    # value when values is None; the series reduces them, so Z/2 keeps one
    # value only
    c = [0] * max(n, 1)
    c[0] = rng.choice([1, -1]) if ring.is_exact else rng.randrange(1, 1 << 64, 2)
    pool = range(t, n, t)
    exps = sorted(rng.sample(pool, len(pool) // 2))
    own = rng.sample(range(1, 10**6), len(exps))
    for j, i in enumerate(exps):
        c[i] = rng.choice([-1, 1]) * own[j] if values is None else rng.choice(values)
    return TruncatedSeries(ring, c).coeffs


RECUR_RINGS = [EXACT, mod2_ring(1), mod2_ring(8), mod2_ring(64)]
RECUR_RING_IDS = ["Z", "Z/2", "Z/2^8", "Z/2^64"]


@pytest.mark.parametrize("ring", RECUR_RINGS, ids=RECUR_RING_IDS)
def test_recur_matches_grouped_oracle(monkeypatch, ring):
    # _recur reads each value's terms by fixed negative indices behind a
    # sentinel, and in Z runs the chains of a divisor in q^t as lanes of
    # one integer; the reference sums every term in a plain loop over k - i
    rng = random.Random(41)
    mask = -1 if ring.is_exact else ring.mask
    reads = []  # the lane widths of each read of packed lanes
    lanes = series._lanes
    monkeypatch.setattr(series, "_lanes", lambda c, t, w: reads.append(w) or lanes(c, t, w))

    def check(a, d, n):
        inv0 = ring.invert_unit(d[0])
        reads.clear()
        got = series._recur(a, d, n, inv0, mask)
        assert got == recur_grouped(a, d, n, inv0, mask)
        return got

    # one value, two values, all distinct; divisors in q, q^2 and q^3
    for values in ([3], [-1, 2], None):
        for t in (1, 2, 3):
            for n in (0, 1, 2, 3, 4, 7, 50):
                for _ in range(4):
                    d = recur_divisor(rng, ring, n, values, t)
                    a = rand_series(rng, ring, max(n - 1, 0), lo=-10**6, hi=10**6).coeffs
                    check(a, d, n)
                    check([1] + [0] * n, d, n)  # the inverse, as the Z/2^m block uses
    if ring.is_exact:
        # quotients that outgrow the first lane width: it widens mid-chain,
        # each time reading the stored lanes, and the lanes are read at the end
        for values in ([-1, 2], None):
            for t in (2, 3):
                d = recur_divisor(rng, ring, 400, values, t)
                c = check([1] + [0] * 399, d, 400)
                assert max(map(abs, c)) > 2**64
                assert len(reads) >= 3 and reads == sorted(reads) and reads[0] < reads[-1]
    # the package's own divisors
    order = 300
    a = rand_series(rng, ring, order, lo=-10**6, hi=10**6).coeffs
    for d in (theta.pochhammer_qq(order, ring),
              theta.pochhammer_qq(order, ring).substitute_power(2),
              theta.qq_cubed(order, ring),
              theta.qq_cubed(order, ring).substitute_power(2),
              theta.phi_neg(order, ring)):
        check(a, d.coeffs, order + 1)
        check([1] + [0] * order, d.coeffs, order + 1)


@pytest.mark.parametrize("block", [1, 2, 3, 63, 128, 256, 512, 1024])
@pytest.mark.parametrize("ring", RINGS[1:], ids=RING_IDS[1:])
def test_division_matches_schoolbook_at_any_block_size(monkeypatch, ring, block):
    # small blocks put many edges in a short series; the blocks _block
    # picks at large orders are tried at orders on both sides of B and 2B.
    # The quotient must not depend on where the edges fall.
    monkeypatch.setattr(series, "_block", lambda order, bits: block)
    orders = (0, 1, 5, 64, 130) if block < B else (block + 1, 2 * block + 1)
    makes = (sparse_unit_series, distinct_unit_series,
             lambda rng, ring, n: straddle_unit_series(rng, ring, n, max(block, B)))
    rng = random.Random(39)
    for n in orders:
        for make in makes:
            a = rand_series(rng, ring, n, lo=0, hi=10**6)
            d = make(rng, ring, n)
            inv = schoolbook_invert(list(d.coeffs), ring.mask)
            assert list((a / d).coeffs) == schoolbook_mul(a.coeffs, inv, n + 1, ring.mask)


def test_block_rule_picks():
    # 16 * 2**(bit_length(order) // 3), half that past 8 bits, at least 64
    orders = (0, 255, 256, 4095, 4096, 10**4, 4 * 10**4, 10**5, 4 * 10**5)
    assert [series._block(n, 7) for n in orders] \
        == [64, 64, 128, 256, 256, 256, 512, 512, 1024]
    assert [series._block(n, 8) for n in orders] == [series._block(n, 7) for n in orders]
    assert [series._block(n, 32) for n in orders] \
        == [64, 64, 64, 128, 128, 128, 256, 256, 512]
    assert series._block(4 * 10**4, 9) == series._block(4 * 10**4, 64) == 256


# 17, 20, 33 and 48 bits put values in slots narrower than the 4 or 8
# bytes of a struct code, which a slot layout must not need
BLOCK_RINGS = [mod2_ring(b) for b in (1, 4, 7, 8, 17, 20, 32, 33, 48, 64)]


def widest_sums(ring, order):
    # a = 2**m - 1 everywhere and d = -1 + q, so a / d = 1 / (1 - q)**2 and
    # 1/d mod q^B is 2**m - 1 everywhere: the top slot of the first
    # block's product sums B products (2**m - 1)**2, the most a slot holds
    m = ring.mask
    return (TruncatedSeries(ring, [m] * (order + 1)),
            TruncatedSeries(ring, [m, 1] + [0] * (order - 1)))


@pytest.mark.parametrize("ring", BLOCK_RINGS, ids=str)
def test_division_over_real_blocks_matches_schoolbook(ring):
    # at least three blocks of the size _block picks, d(0) odd and not 1
    # (every unit is 1 in Z/2), and a numerator nonzero in every block;
    # the one-term divisor 1 + q gives the narrowest read slot, m + 1 bits
    order = 200
    assert order + 1 > 3 * series._block(order, ring.bits)
    rng = random.Random(40)
    c = [0] * (order + 1)
    c[0] = 3
    for i in rng.sample(range(1, order + 1), 40):
        c[i] = rng.randrange(1, 1 << ring.bits)
    a = rand_series(rng, ring, order, lo=1, hi=ring.mask)
    cases = [widest_sums(ring, order), (a, TruncatedSeries(ring, c)),
             (a, TruncatedSeries(ring, [1, 1] + [0] * (order - 1)))]
    for a, d in cases:
        inv = schoolbook_invert(list(d.coeffs), ring.mask)
        assert list(d.invert().coeffs) == inv
        assert list((a / d).coeffs) == schoolbook_mul(a.coeffs, inv, order + 1, ring.mask)


@pytest.mark.parametrize("ring", BLOCK_RINGS, ids=str)
def test_division_slots_hold_the_widest_block_sum(monkeypatch, ring):
    # with B = 512 a product slot needs 2m + 9 bits, one past a whole byte
    # in Z/2^4, Z/2^8, Z/2^32 and Z/2^64, and a read slot m + 1 bits
    # (2**m - 1 plus the bias 2**m), one past a byte in Z/2^8, Z/2^32 and
    # Z/2^64; widest_sums fills both
    monkeypatch.setattr(series, "_block", lambda order, bits: 512)
    order = 3 * 512 + 5
    a, d = widest_sums(ring, order)
    assert list((a / d).coeffs) == [(n + 1) & ring.mask for n in range(order + 1)]


@pytest.mark.parametrize("ring", [mod2_ring(b) for b in (1, 7, 8, 9, 17, 20, 32, 33, 48, 64)],
                         ids=str)
def test_division_reads_finished_blocks_across_pair_edges(monkeypatch, ring):
    # a block reads the quotient from pairs of finished blocks, by a pair
    # index and a shift fixed per term: terms at B - 1, B and B + 1 read
    # the last pair just short of, at and just past a block edge, terms at
    # 2B and 3B - 1 read pairs further back.  Order 4B + 5 leaves a short
    # last block, and the numerator is nonzero in every block.
    block = 64
    monkeypatch.setattr(series, "_block", lambda order, bits: block)
    order = 4 * block + 5
    c = [0] * (order + 1)
    c[0] = 3
    exps = (block - 1, block, block + 1, 2 * block, 3 * block - 1)
    for i, v in zip(exps, (1, -1, 3, -3, 5)):
        c[i] = v
    d = TruncatedSeries(ring, c)
    a = rand_series(random.Random(41), ring, order, lo=1, hi=ring.mask)
    inv = schoolbook_invert(list(d.coeffs), ring.mask)
    assert list(d.invert().coeffs) == inv
    assert list((a / d).coeffs) == schoolbook_mul(a.coeffs, inv, order + 1, ring.mask)
    # the short last block is solved at full width; a longer numerator
    # fills its slots past q^order, which must not reach the quotient
    assert TruncatedSeries(ring, a.coeffs + (ring.mask,) * block) / d == a / d


@pytest.mark.parametrize("bits", [*range(1, 10), 16, 17, 24, 33, 48, 64])
def test_byte_sliced_product_at_every_slot_width(bits):
    # every coefficient 2**m - 1, so coefficient k of a length-n product
    # is (k + 1) (2**m - 1)**2 and the slot bound is n (2**m - 1)**2; at
    # each length n where that bound needs one more byte, and at n - 1 and
    # n + 1 (the top slot's carry leaves the product, so a slot one bit
    # too narrow first shows at n + 1, through coefficient n - 1)
    m = (1 << bits) - 1
    steps = [n for n in range(2, 700)
             if (n * m * m).bit_length() + 7 >> 3 > ((n - 1) * m * m).bit_length() + 7 >> 3]
    assert steps
    ring = mod2_ring(bits)
    for n in [k + step for k in steps for step in (-1, 0, 1)]:
        a = TruncatedSeries(ring, [m] * n)
        assert list((a * a).coeffs) == schoolbook_mul(a.coeffs, a.coeffs, n, m)


@pytest.mark.parametrize("ring", [EXACT, M32], ids=["Z", "Z/2^32"])
@pytest.mark.parametrize("gen", [theta.phi_neg, theta.pochhammer_qq, theta.qq_cubed],
                         ids=["phi_neg", "pochhammer_qq", "qq_cubed"])
def test_division_by_theta_divisors_matches_schoolbook(ring, gen):
    # the divisors the package uses: two values each (+-2, or +-1), or a
    # distinct value per term (Jacobi's cube)
    d = gen(300, ring)
    a = rand_series(random.Random(38), ring, 300, lo=-10**6, hi=10**6)
    inv = schoolbook_invert(list(d.coeffs), ring.mask)
    assert list(d.invert().coeffs) == inv
    assert list((a / d).coeffs) == schoolbook_mul(a.coeffs, inv, 301, ring.mask)


def test_invert_requires_unit_constant():
    with pytest.raises(ValueError):
        TruncatedSeries(EXACT, [2, 1]).invert()
    with pytest.raises(ValueError):
        TruncatedSeries(M32, [6, 1]).invert()
    with pytest.raises(ValueError):
        TruncatedSeries(EXACT, [1, 1]) / TruncatedSeries(EXACT, [2, 1])
    with pytest.raises(ValueError):
        TruncatedSeries(M32, [1, 1]) / TruncatedSeries(M32, [6, 1])


# -- reindexing -----------------------------------------------------------

def test_shift_is_monomial_multiplication():
    rng = random.Random(4)
    a = rand_series(rng, EXACT, 20)
    for k in (0, 1, 7, 20):
        assert a.shift(k) == a * TruncatedSeries.monomial(EXACT, 20, k)
    assert is_zero(a.shift(21))
    assert is_zero(a.shift(100))
    with pytest.raises(ValueError):
        a.shift(-1)


def test_substitute_power_spreads_coefficients():
    a = TruncatedSeries(EXACT, [5, 6, 7, 8])
    b = a.substitute_power(2)
    assert b.order == a.order
    assert b.coeffs == (5, 0, 6, 0)
    assert a.substitute_power(1) == a
    assert a.substitute_power(5).coeffs == (5, 0, 0, 0)
    with pytest.raises(ValueError):
        a.substitute_power(0)


def test_dissect_slices_progressions():
    a = TruncatedSeries(EXACT, list(range(10)))
    assert a.dissect(3, 0).coeffs == (0, 3, 6, 9)
    assert a.dissect(3, 1).coeffs == (1, 4, 7)
    assert a.dissect(3, 2).coeffs == (2, 5, 8)
    assert a.dissect(1, 0) == a


def test_dissect_example():
    s = TruncatedSeries(EXACT, [1, 0, 0, 1])
    assert s.dissect(2, 1).coeffs == (0, 1)


def test_dissect_reassembles_to_original():
    rng = random.Random(8)
    a = rand_series(rng, EXACT, 57)
    for t in (2, 3, 5, 16):
        pieces = [a.dissect(t, r) for r in range(t)]
        for n in range(a.order + 1):
            assert pieces[n % t][n // t] == a[n]


def test_dissect_validation():
    a = TruncatedSeries(EXACT, [1, 2])
    with pytest.raises(ValueError):
        a.dissect(0, 0)
    with pytest.raises(ValueError):
        a.dissect(3, 3)
    with pytest.raises(ValueError):
        a.dissect(3, -1)
    with pytest.raises(ValueError):
        a.dissect(5, 2)  # residue past truncation order 1


def test_substitute_then_dissect_round_trip():
    rng = random.Random(21)
    a = rand_series(rng, EXACT, 40)
    for t in (2, 3, 7):
        assert a.substitute_power(t).dissect(t, 0).coeffs == a.coeffs[:a.order // t + 1]


# -- reduce once -------------------------------------------------------------

def assert_stored_as_constructed(s):
    # what the public constructor, which reduces, makes of the coefficients
    rebuilt = TruncatedSeries(s.ring, s.coeffs)
    assert s == rebuilt and hash(s) == hash(rebuilt)
    assert type(s.coeffs) is tuple and all(type(c) is int for c in s.coeffs)


@pytest.mark.parametrize("ring", [EXACT, mod2_ring(1), mod2_ring(7), mod2_ring(8), M32],
                         ids=str)
def test_results_already_in_the_ring_are_stored_as_constructed(ring):
    # products, quotients, reindexings, zero and one are stored without
    # a second masking; order 200 spans several division blocks
    rng = random.Random(42)
    for n in (0, 5, 200):
        a = rand_series(rng, ring, n, lo=-10**6, hi=10**6)
        d = sparse_unit_series(rng, ring, n)
        for s in (a * d, a ** 2, a / d, d.invert(), a.shift(3), a.substitute_power(2),
                  a.dissect(2, n % 2), TruncatedSeries.zero(ring, n),
                  TruncatedSeries.one(ring, n)):
            assert s.ring == ring
            assert_stored_as_constructed(s)


@pytest.mark.parametrize("depth", [1, 6, 7, 31, 63])
def test_two_adic_is_stored_as_constructed(depth):
    s = overpartitions.two_adic(200, depth)
    assert s.ring == mod2_ring(depth + 1)
    assert_stored_as_constructed(s)


# -- modulus changes -------------------------------------------------------

def test_reduce_mod_semantics():
    s = TruncatedSeries(EXACT, [30, -1, 5])
    r = s.reduce_mod(4)
    assert r.ring == mod2_ring(4)
    assert r.coeffs == (14, 15, 5)
    assert s.reduce_mod(1).coeffs == (0, 1, 1)


def test_reduce_mod_rejects_widening():
    s = TruncatedSeries(mod2_ring(4), [3])
    assert s.reduce_mod(4).coeffs == (3,)
    assert s.reduce_mod(2).coeffs == (3,)
    with pytest.raises(ValueError):
        s.reduce_mod(5)
    # exact series can narrow to any width
    assert TruncatedSeries(EXACT, [3]).reduce_mod(64).coeffs == (3,)


def test_modular_ops_match_exact_reduction():
    rng = random.Random(77)
    bits = 16
    ring = mod2_ring(bits)
    for _ in range(60):
        n = rng.randrange(1, 25)
        ca = [rng.randint(-50, 50) for _ in range(n + 1)]
        cb = [rng.randint(-50, 50) for _ in range(n + 1)]
        ca[0] = 1  # a unit in both rings, so invert() is comparable too
        ea, eb = TruncatedSeries(EXACT, ca), TruncatedSeries(EXACT, cb)
        ma, mb = TruncatedSeries(ring, ca), TruncatedSeries(ring, cb)
        pairs = [
            (ea + eb, ma + mb),
            (ea - eb, ma - mb),
            (-ea, -ma),
            (ea * eb, ma * mb),
            (ea ** 3, ma ** 3),
            (ea.invert(), ma.invert()),
            (eb / ea, mb / ma),
            (ea.shift(2), ma.shift(2)),
            (ea.substitute_power(2), ma.substitute_power(2)),
            (ea.dissect(2, 1), ma.dissect(2, 1)),
        ]
        for exact_result, mod_result in pairs:
            assert exact_result.reduce_mod(bits) == mod_result


# -- the packed form in Z/2^m ----------------------------------------------

PACKED_BITS = [1, 4, 7, 8, 9, 16, 32, 64]


def reduced(ring, vals):
    return [v & ring.mask for v in vals]


def packed_born(s):
    # a series that holds only its packed form, as every Z/2^m result does
    p = s * 1
    assert p._coeffs is None and p._word is not None
    return p


@pytest.mark.parametrize("order", [0, 1, 2, 255, 600])
@pytest.mark.parametrize("bits", PACKED_BITS)
def test_packed_chains_match_the_schoolbook(bits, order):
    # products of products, sums, differences, negations and int scalars,
    # every intermediate result packed-born, against lists reduced
    # coefficientwise; the operands run over [-2^m, 2^(m+1)) before the
    # constructor reduces them
    ring = mod2_ring(bits)
    top = 1 << bits
    n = order + 1
    rng = random.Random(1000 * bits + order)
    a, b, c = (rand_series(rng, ring, order, lo=-top, hi=2 * top - 1) for _ in range(3))
    ca, cb, cc = (list(s.coeffs) for s in (a, b, c))
    ab = a * b
    want_ab = schoolbook_mul(ca, cb, n, ring.mask)
    assert list(ab.coeffs) == want_ab
    chain = (ab + c) * (ab - a)
    left = reduced(ring, map(add, want_ab, cc))
    right = reduced(ring, map(sub, want_ab, ca))
    want = schoolbook_mul(left, right, n, ring.mask)
    assert chain._coeffs is None
    assert list(chain.coeffs) == want
    assert list((-chain).coeffs) == reduced(ring, (-v for v in want))
    for s in (-2, 14, top, top + 3):
        assert list((s * chain).coeffs) == reduced(ring, (s * v for v in want)), s
        assert list((chain * s).coeffs) == reduced(ring, (s * v for v in want)), s
        got = chain * s - (-a) * s - s * chain
        assert list(got.coeffs) == reduced(ring, (s * x for x in ca)), s
    # -2 and 2^m - 2 are the same scalar in Z/2^m
    assert -2 * chain == (top - 2) * chain


@pytest.mark.parametrize("bits", PACKED_BITS)
def test_packed_operands_of_mixed_orders(bits):
    # the result has the shorter order; a longer operand is cut to it
    # within its own packed slots when the slot width agrees, and repacked
    # at the shorter order's width when it does not
    ring = mod2_ring(bits)
    rng = random.Random(bits)
    for short, long in [(0, 3), (1, 2), (2, 255), (255, 600), (300, 301), (40, 600)]:
        a = rand_series(rng, ring, long, lo=0, hi=ring.mask)
        b = rand_series(rng, ring, short, lo=0, hi=ring.mask)
        ca, cb = list(a.coeffs[:short + 1]), list(b.coeffs)
        want = schoolbook_mul(ca, cb, short + 1, ring.mask)
        for x in (a, packed_born(a)):
            for y in (b, packed_born(b)):
                assert list((x * y).coeffs) == want, (short, long)
                assert list((y * x).coeffs) == want, (short, long)
                assert list((x + y).coeffs) == reduced(ring, map(add, ca, cb))
                assert list((x - y).coeffs) == reduced(ring, map(sub, ca, cb))
                assert list((y - x).coeffs) == reduced(ring, map(sub, cb, ca))
                assert (x * y).order == (x - y).order == short


@pytest.mark.parametrize("bits", PACKED_BITS)
def test_packed_born_equals_and_hashes_like_tuple_born(bits):
    ring = mod2_ring(bits)
    rng = random.Random(7 * bits)
    for order in (0, 1, 30):
        a = rand_series(rng, ring, order, lo=0, hi=ring.mask)
        p = packed_born(a)
        t = TruncatedSeries(ring, a.coeffs)
        assert p == t and t == p and hash(p) == hash(t)
        assert p == packed_born(t)
        assert p != packed_born(a + TruncatedSeries.one(ring, order))
        assert p != packed_born(TruncatedSeries(ring, a.coeffs + (0,)))
        assert p != TruncatedSeries(mod2_ring(65 - bits) if bits != 1 else M32, a.coeffs)
        assert p.order == order and p[order] == a.coeffs[order]
        assert is_zero(p) == is_zero(a)
    z = packed_born(TruncatedSeries.zero(ring, 9))
    assert is_zero(z) and z == TruncatedSeries.zero(ring, 9)


def test_packed_series_is_immutable():
    p = packed_born(TruncatedSeries(mod2_ring(4), [1, 2, 3]))
    for name in ("ring", "order", "coeffs", "_coeffs", "_word"):
        with pytest.raises(AttributeError):
            setattr(p, name, None)
    assert p.coeffs == (1, 2, 3)
    with pytest.raises(AttributeError):
        p.coeffs = (0, 0, 0)
    assert p == TruncatedSeries(mod2_ring(4), [1, 2, 3])


def test_copy_and_pickle_round_trip():
    m7 = mod2_ring(7)
    a = TruncatedSeries(m7, [1, 200, -3, 0, 77])
    product = a * TruncatedSeries(m7, [3, 1, 4, 1, 5])
    assert product._coeffs is None  # packed-born
    for s in (TruncatedSeries(EXACT, [1, -2, 3**90]), a, product):
        for back in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert back == s and back.order == s.order and back.ring == s.ring
            with pytest.raises(AttributeError):
                back.order = 0


def test_dissection_unpacks_each_slot_once(monkeypatch):
    # in Z/2^4 each slot series is read once, as the low bytes of its
    # packed form, and the quotient of D.invert() is born as bytes: no
    # slot is unpacked into a tuple, and neither is the rebuilt series
    calls = []
    unpack = series._unpack
    monkeypatch.setattr(series, "_unpack", lambda *a: calls.append(a) or unpack(*a))
    rhs = congruence.dissection_rhs_mod16(1500)
    assert calls == [] and rhs._coeffs is None and rhs._word is None


# -- the bytes form ------------------------------------------------------------

BYTES_RINGS = [EXACT, mod2_ring(1), mod2_ring(7), mod2_ring(8), mod2_ring(9), M32,
               mod2_ring(64)]


def born_each_way(ring, order):
    """(how, series, its coefficients from an oracle) for a series of ring
    to q^order born each way: from a tuple; packed, from a product, a sum
    and an int multiple; from a division; and from two_adic, whose ring
    is Z/2^(depth + 1), depth >= 1."""
    rng = random.Random(order)
    mask = ring.mask
    red = (lambda v: list(v)) if mask is None else (lambda v: [x & mask for x in v])
    a, b = (rand_series(rng, ring, order, lo=-300, hi=300) for _ in range(2))
    d = rand_series(rng, ring, order, lo=-300, hi=300, unit=True)
    n = order + 1
    yield "tuple", a, list(a.coeffs)
    yield "product", a * b, schoolbook_mul(a.coeffs, b.coeffs, n, mask)
    yield "sum", a + b, red(map(add, a.coeffs, b.coeffs))
    yield "int multiple", a * 77, red(77 * x for x in a.coeffs)
    yield "division", a / d, schoolbook_mul(a.coeffs, schoolbook_invert(d.coeffs, mask), n, mask)
    yield "inversion", overpartitions.by_inversion(order, ring), red(pbar_by_recurrence(order))
    if ring.bits is not None and ring.bits >= 2:
        yield ("two_adic", overpartitions.two_adic(order, ring.bits - 1),
               two_adic_by_counts(order, ring.bits - 1, mask))


@pytest.mark.parametrize("order", [0, 1, 63, 300])
@pytest.mark.parametrize("ring", BYTES_RINGS, ids=str)
def test_low_bytes_are_the_coefficients_mod_256(ring, order):
    # read before the coefficients, so each comes from the form the
    # series was born in
    for how, s, want in born_each_way(ring, order):
        low = s.low_bytes()
        assert low == bytes(c & 255 for c in want), how
        assert isinstance(low, bytes) and s.low_bytes() is low, how
        assert s.coeffs == tuple(want), how
        assert TruncatedSeries(ring, want).low_bytes() == low, how


@pytest.mark.parametrize("ring", [mod2_ring(1), mod2_ring(7), mod2_ring(8)], ids=str)
def test_bytes_born_series_acts_as_tuple_born(ring):
    # a quotient and a 2-adic sum in a ring of at most 8 bits hold only
    # their bytes; coeffs, ==, hash, pickle and copy read as a tuple-born twin
    order = 300
    born = [overpartitions.by_inversion(order, ring), theta.psi(order, ring).invert()]
    if ring.bits >= 2:
        born.append(overpartitions.two_adic(order, ring.bits - 1))
    for s in born:
        assert s._coeffs is None and s._word is None and s._low is not None
        t = TruncatedSeries(ring, [c & ring.mask for c in s.low_bytes()])
        assert s == t and t == s and hash(s) == hash(t)
        assert s != TruncatedSeries(ring, t.coeffs[:-1])
        for back in (copy.copy(s), copy.deepcopy(s), pickle.loads(pickle.dumps(s))):
            assert back == s and back.order == order and back.ring == ring
        assert s.coeffs == t.coeffs and type(s.coeffs) is tuple
        assert s * 3 == t * 3 and (s * s).coeffs == (t * t).coeffs
        for name in ("_low", "_coeffs", "_word"):
            with pytest.raises(AttributeError):
                setattr(s, name, None)


def test_verify_all_reads_no_coefficient_tuple():
    # every check of `verify all` slices the bytes of 1 / phi(-q), born
    # from the division's slots, and the division starts from a packed 1
    pbar = overpartitions.by_inversion(40000, mod2_ring(7))
    reports = congruence.run_checks(congruence.suite_checks("all"), pbar, 10000)
    assert all(r.status == congruence.VERIFIED for r in reports)
    assert pbar._coeffs is None and pbar._word is None
    for order in (0, 1, 500):
        one = TruncatedSeries.one(mod2_ring(7), order)
        assert one._coeffs is None and one._word == 1
        assert one.coeffs == (1,) + (0,) * order
    assert TruncatedSeries.one(EXACT, 3).coeffs == (1, 0, 0, 0)
