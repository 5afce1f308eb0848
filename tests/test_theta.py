"""Theta generators: definitions, frozen supports, and the identity suite.

The five series identities checked here at order 400 are re-verified at
order 2000 by the acceptance suite; this file keeps the fast copies plus
the definitional checks the identities rest on, and the split of pbar
into its classes mod 4 that overpartitions.two_adic rests on, checked on
lists by the oracles alone.
"""

from math import comb, isqrt

from overpart import EXACT, mod2_ring
from overpart.theta import (phi, phi_neg, pochhammer_negqq, pochhammer_qq,
                            psi, psi1, psi2, psi_squared, qq_cubed)

from oracles import (bilateral_walk, euler_product, jacobi_cube, pbar_by_recurrence,
                     schoolbook_invert, schoolbook_mul, square_indicator)

N = 400
# the Pochhammer generators are checked against the dense product expansion
# in oracles.py at this order, exactly and mod 2^8
ORACLE_ORDER = 600
M8 = mod2_ring(8)


def sub(series, t):
    return series.substitute_power(t)


# -- definitions -----------------------------------------------------------

def test_phi_definition():
    s = phi(200)
    want = [0] * 201
    want[0] = 1
    k = 1
    while k * k <= 200:
        want[k * k] = 2
        k += 1
    assert list(s.coeffs) == want


def test_phi_neg_definition():
    s = phi_neg(200)
    assert s[0] == 1
    k = 1
    while k * k <= 200:
        assert s[k * k] == (2 if k % 2 == 0 else -2)
        k += 1
    assert sum(1 for c in s.coeffs if c) == 15  # 1 + 14 squares below 200


def test_psi_definition():
    s = psi(100)
    triangulars = {k * (k + 1) // 2 for k in range(14)}
    for n in range(101):
        assert s[n] == (1 if n in triangulars else 0)


def test_psi1_support():
    # exponents 4k^2 + k over all integers k: 0, 3, 5, 14, 18, 39, 45, ...
    s = psi1(20)
    assert {n for n in range(21) if s[n]} == {0, 3, 5, 14, 18}
    assert all(c in (0, 1) for c in psi1(2000).coeffs)


def test_psi2_support():
    # exponents 4k^2 - 3k over all integers k: 0, 1, 7, 10, 22, 27, ...
    s = psi2(25)
    assert {n for n in range(26) if s[n]} == {0, 1, 7, 10, 22}
    assert all(c in (0, 1) for c in psi2(2000).coeffs)


def test_pochhammer_qq_prefix():
    assert pochhammer_qq(5).coeffs == (1, -1, -1, 0, 0, 1)
    assert list(pochhammer_qq(ORACLE_ORDER).coeffs) == euler_product(ORACLE_ORDER, -1)
    assert list(pochhammer_qq(ORACLE_ORDER, M8).coeffs) == euler_product(
        ORACLE_ORDER, -1, M8.mask)


# (generator, e(k), e(-k), signed) of every bilateral sum
BILATERAL_SUMS = [
    (phi, lambda k: k * k, lambda k: k * k, False),
    (phi_neg, lambda k: k * k, lambda k: k * k, True),
    (psi, lambda k: k * (2 * k - 1), lambda k: k * (2 * k + 1), False),
    (psi1, lambda k: 4 * k * k + k, lambda k: 4 * k * k - k, False),
    (psi2, lambda k: 4 * k * k - 3 * k, lambda k: 4 * k * k + 3 * k, False),
    (pochhammer_qq, lambda k: k * (3 * k - 1) // 2, lambda k: k * (3 * k + 1) // 2, True),
]


def test_bilateral_sums_match_the_outward_walk():
    # the generators sum |n| <= isqrt(order) only; the reference walks n
    # outward until both exponents pass the order.  Z/2^1 wraps the two
    # terms n and -n that meet at one exponent (phi's 2 at n^2) to 0.
    for gen, up, down, signed in BILATERAL_SUMS:
        for order in range(151):
            assert list(gen(order).coeffs) == bilateral_walk(
                order, up, down, signed), (gen.__name__, order)
            for ring in (mod2_ring(1), M8, mod2_ring(64)):
                assert list(gen(order, ring).coeffs) == bilateral_walk(
                    order, up, down, signed, ring.mask), (gen.__name__, order, ring)
    assert phi(9, mod2_ring(1)).coeffs == (1, 0, 0, 0, 0, 0, 0, 0, 0, 0)


def test_pochhammer_negqq_prefix():
    # coefficients count partitions into distinct parts
    assert pochhammer_negqq(5).coeffs == (1, 1, 1, 2, 2, 3)
    assert list(pochhammer_negqq(ORACLE_ORDER).coeffs) == euler_product(ORACLE_ORDER, 1)
    assert list(pochhammer_negqq(ORACLE_ORDER, M8).coeffs) == euler_product(
        ORACLE_ORDER, 1, M8.mask)


def test_euler_product_pentagonal_support():
    # Euler's pentagonal theorem, checked on the dense product expansion
    # (which does not use it) and then on pochhammer_qq (which does)
    want = [0] * (ORACLE_ORDER + 1)
    want[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= ORACLE_ORDER:
        for e in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if e <= ORACLE_ORDER:
                want[e] = (-1) ** k
        k += 1
    assert euler_product(ORACLE_ORDER, -1) == want
    assert list(pochhammer_qq(ORACLE_ORDER).coeffs) == want
    assert list(pochhammer_qq(120).coeffs) == want[:121]


def test_qq_cubed_and_psi_squared_match_their_products():
    # Jacobi's sum against the dense (q; q)_inf cubed by schoolbook
    # multiplication, and psi^2 by pairs against the packed psi * psi, at
    # every order; a series to q^order is the reference's prefix
    top = 150
    for ring in (EXACT, mod2_ring(1), M8, mod2_ring(64)):
        e = euler_product(top, -1, ring.mask)
        cube = schoolbook_mul(schoolbook_mul(e, e, top + 1, ring.mask), e, top + 1, ring.mask)
        for order in range(top + 1):
            assert list(qq_cubed(order, ring).coeffs) == cube[:order + 1], (ring, order)
            assert psi_squared(order, ring) == psi(order, ring) * psi(order, ring), (ring, order)
    assert qq_cubed(6).coeffs == (1, -3, 0, 5, 0, 0, -7)
    assert psi_squared(6).coeffs == (1, 2, 1, 2, 2, 0, 3)


def test_qq_cubed_matches_jacobis_one_sided_sum():
    # the bilateral sum over n(2n+1) with coefficients 4n+1 against the
    # one-sided sum over the triangular numbers, at every order to 300
    # and at 2*10^4
    for ring in (EXACT, mod2_ring(7), mod2_ring(64)):
        for order in [*range(301), 20_000]:
            assert list(qq_cubed(order, ring).coeffs) == jacobi_cube(
                order, ring.mask), (ring, order)


# -- the identity suite ------------------------------------------------------

def test_phi_two_dissection():
    # phi(q) = phi(q^4) + 2q psi(q^8)
    assert phi(N) == sub(phi(N), 4) + 2 * sub(psi(N), 8).shift(1)


def test_phi_squared_dissection():
    # phi(q)^2 = phi(q^2)^2 + 4q psi(q^4)^2
    assert phi(N) ** 2 == sub(phi(N), 2) ** 2 + 4 * (sub(psi(N), 4) ** 2).shift(1)


def test_phi_times_phi_neg():
    # phi(q) phi(-q) = phi(-q^2)^2
    assert phi(N) * phi_neg(N) == sub(phi_neg(N), 2) ** 2


def test_psi_split_into_psi1_psi2():
    # psi(q) = psi1(q^2) + q psi2(q^2)
    assert psi(N) == sub(psi1(N), 2) + sub(psi2(N), 2).shift(1)


def test_pbar_classes_mod_4_are_theta_products_times_w():
    # sum_n pbar(4n + r) y^n = (2 psi(y^2))^r phi(y)^(3 - r) W, W = 1 /
    # phi(-y)^4, from 1/phi(-q) = phi(q) phi(q^2)^2 / phi(-q^4)^4 and
    # phi's 2-dissection; r = 0 is Hirschhorn and Sellers' phi^3 / phi(-q)^4.
    # Lists and oracles only, in Z to y^N.  two_adic builds the classes so.
    n = N + 1
    pbar = pbar_by_recurrence(4 * N + 3)
    squares = square_indicator(N)
    s_neg = [-v if isqrt(e) % 2 else v for e, v in enumerate(squares)]  # S(-y)
    phi_y = [1] + [2 * v for v in squares[1:]]
    phi_neg_y = [1] + [2 * v for v in s_neg[1:]]
    two_psi_y2 = [0] * n
    for s in range(isqrt(N) + 1):
        if s * (s + 1) <= N:
            two_psi_y2[s * (s + 1)] = 2

    def product(*factors):
        out = [1] + [0] * N
        for f in factors:
            out = schoolbook_mul(f, out, n)
        return out

    phi_neg_4 = product(*[phi_neg_y] * 4)
    w = schoolbook_invert(phi_neg_4)
    assert product(w, phi_neg_4) == [1] + [0] * N
    for r in range(4):
        assert pbar[r::4] == product(*[two_psi_y2] * r, *[phi_y] * (3 - r), w), r
    # W = sum_k C(k+3, 3) (-2 S(-y))^k, and mod 2^m every term k >= m is 0
    powers = [[1] + [0] * N]
    for _ in range(7):
        powers.append(schoolbook_mul(s_neg, powers[-1], n))
    for m in range(2, 9):
        mask = (1 << m) - 1
        series = [sum((-2) ** k * comb(k + 3, 3) * p[e] for k, p in enumerate(powers[:m]))
                  for e in range(n)]
        assert [v & mask for v in series] == [v & mask for v in w], m


def test_phi_inverse_product_expansion():
    # 1/phi(q) = phi(-q) phi(q^2)^2 phi(q^4)^4 phi(q^8)^8 / phi(-q^16)^16
    lhs = phi(N).invert()
    rhs = (phi_neg(N) * sub(phi(N), 2) ** 2 * sub(phi(N), 4) ** 4
           * sub(phi(N), 8) ** 8 * sub(phi_neg(N), 16).invert() ** 16)
    assert lhs == rhs


def test_pochhammer_product_identity():
    # (q; q) (-q; q) = (q^2; q^2): an identity without psi, from which
    # (-q; q) is built
    assert pochhammer_qq(N) * pochhammer_negqq(N) == sub(pochhammer_qq(N), 2)


def test_psi_is_qq2_times_negqq():
    # Gauss: psi(q) = (q^2; q^2) (-q; q), at every order and in every ring
    # the series divide in
    for ring in (EXACT, mod2_ring(1), M8, mod2_ring(64)):
        for order in range(201):
            assert psi(order, ring) == (
                sub(pochhammer_qq(order, ring), 2) * pochhammer_negqq(order, ring)), (ring, order)


# -- plumbing ----------------------------------------------------------------

def test_modular_generators_match_reduced_exact():
    ring = mod2_ring(4)
    for gen in (phi, phi_neg, psi, psi1, psi2, pochhammer_qq, pochhammer_negqq,
                qq_cubed, psi_squared):
        assert gen(80, ring) == gen(80).reduce_mod(4), gen.__name__
