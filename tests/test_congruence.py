"""Claim validation, the verifiers, the dissection, and the scanner."""

import json
import pickle
import random
import re
from pathlib import Path

import pytest

from overpart import (CoeffRing, CongruenceClaim, EXACT, ScanHit, TruncatedSeries,
                      VerificationReport, mod2_ring, run_checks,
                      scan_congruences, suite_checks)
from overpart import congruence, theta
from overpart.congruence import (COUNTEREXAMPLE, REGRESSION_CLAIMS, SKIPPED,
                                 VERIFIED, combined_family_claims,
                                 dissection_rhs_mod16, ell_family_claims,
                                 known_claims, mod8_family_claims, scan_plan,
                                 verify_4n_relations, verify_dissection_mod16,
                                 verify_mod8_nonsquare, verify_progression)
from overpart.cli import main
from overpart.overpartitions import by_inversion, by_product

import oracles
from oracles import is_zero, legendre_by_squares, square_predicates


# -- claims ----------------------------------------------------------------

def test_claim_validation():
    CongruenceClaim(16, 14, 16)
    CongruenceClaim(1, 0, 2)
    for a, b, m in [(0, 0, 8), (-4, 0, 8), (4, -1, 8), (4, 4, 8), (4, 5, 8),
                    (4, 3, 12), (4, 3, 1), (4, 3, 0)]:
        with pytest.raises(ValueError):
            CongruenceClaim(a, b, m)
        with pytest.raises(ValueError):
            CongruenceClaim(A=a, B=b, M=m)
        with pytest.raises(ValueError):
            CongruenceClaim._make((a, b, m))
    # _make and _replace build through the validating constructor
    with pytest.raises(ValueError, match="power of two"):
        CongruenceClaim(4, 3, 8)._replace(M=3)
    with pytest.raises(ValueError, match="step"):
        CongruenceClaim._make((0, 0, 8))
    assert CongruenceClaim(4, 3, 8)._replace(M=16) == CongruenceClaim(4, 3, 16)


def test_claims_order_and_hash():
    a, b = CongruenceClaim(4, 3, 8), CongruenceClaim(5, 2, 4)
    assert a < b
    assert len({a, b, CongruenceClaim(4, 3, 8)}) == 2
    assert repr(a) == "CongruenceClaim(A=4, B=3, M=8)"
    assert hash(a) == hash((4, 3, 8))
    # a claim is the tuple (A, B, M): it orders, compares and unpacks as one
    assert sorted([CongruenceClaim(4, 3, 16), b, a, CongruenceClaim(4, 1, 32)]) == [
        (4, 1, 32), (4, 3, 8), (4, 3, 16), (5, 2, 4)]
    assert a == (4, 3, 8) and tuple(a) == (4, 3, 8)
    A, B, M = a
    assert (A, B, M) == (a.A, a.B, a.M)
    assert pickle.loads(pickle.dumps(a)) == a
    assert type(pickle.loads(pickle.dumps(a))) is CongruenceClaim
    # rings, claims, reports and hits are all immutable
    report = VerificationReport(a, VERIFIED, 100, None, 25)
    for record in (mod2_ring(7), a, report, ScanHit(4, 3, 8, 25, "KNOWN")):
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, 1)
        with pytest.raises(AttributeError):
            record.extra = 1


# -- verify_progression ------------------------------------------------------

def test_progression_verified(pbar_mod32_20k):
    rep = verify_progression(pbar_mod32_20k, CongruenceClaim(16, 14, 16), 2000)
    assert rep.status == VERIFIED
    assert rep.ok
    assert rep.range_checked == 2000
    assert rep.witness is None


def test_progression_counterexample(pbar_mod32_20k):
    # pbar(0) = 1 refutes any B = 0 claim immediately
    rep = verify_progression(pbar_mod32_20k, CongruenceClaim(2, 0, 4), 100)
    assert rep.status == COUNTEREXAMPLE
    assert not rep.ok
    assert rep.witness == (0, 1)


def test_progression_witness_indexing(pbar_mod32_20k):
    # pbar(5n+2) == 0 (mod 8) fails at n = 0 already: pbar(2) = 4
    rep = verify_progression(pbar_mod32_20k, CongruenceClaim(5, 2, 8), 100)
    assert rep.status == COUNTEREXAMPLE
    assert rep.witness == (0, 4)


def test_progression_skipped_when_offset_past_window():
    small = by_inversion(3, mod2_ring(8))
    rep = verify_progression(small, CongruenceClaim(8, 5, 8))
    assert rep.status == SKIPPED
    assert rep.ok
    assert rep.witness is None


def test_window_validation(pbar_mod32_20k):
    small = by_inversion(10, mod2_ring(8))
    with pytest.raises(ValueError):
        verify_progression(small, CongruenceClaim(4, 3, 8), 11)
    with pytest.raises(ValueError):
        verify_progression(small, CongruenceClaim(4, 3, 8), -1)


# every verifier and the scanner, with the modulus it reads and how far
# past its window it reads (a pbar(4n) tier reads out to q^(4*limit))
WINDOWED = {
    "progression": (lambda s, lim: verify_progression(
        s, CongruenceClaim(16, 14, 16), lim), 16, 1),
    "mod8-nonsquare": (verify_mod8_nonsquare, 8, 1),
    "dissection": (verify_dissection_mod16, 16, 1),
    "4n-mod32": (lambda s, lim: verify_4n_relations(s, 32, lim), 32, 4),
    "scan": (lambda s, lim: scan_congruences(s, 4, [4, 16], lim, min_checks=1), 16, 1),
}


@pytest.mark.parametrize("name", sorted(WINDOWED))
def test_one_window_rule(name):
    check, modulus, reach = WINDOWED[name]
    pbar = by_inversion(100, mod2_ring(8))
    widest = 100 // reach
    check(pbar, widest)
    with pytest.raises(ValueError, match="window bound must be >= 0, got -1"):
        check(pbar, -1)
    past = widest + 1
    with pytest.raises(ValueError, match=rf"window {past} needs coefficients to "
                       rf"q\^{reach * past}, series stops at q\^100"):
        check(pbar, past)
    with pytest.raises(ValueError, match=f"cannot resolve residues mod {modulus}"):
        check(by_inversion(100, mod2_ring(2)), widest)


def test_ring_capacity_check():
    narrow = by_inversion(50, mod2_ring(2))
    with pytest.raises(ValueError):
        verify_progression(narrow, CongruenceClaim(16, 14, 16), 50)
    # mod 4 still fits in two bits
    assert verify_progression(narrow, CongruenceClaim(5, 2, 4), 50).ok


def test_report_fields(pbar_mod32_20k):
    claim = CongruenceClaim(16, 14, 16)
    rep = verify_progression(pbar_mod32_20k, claim, 500)
    assert rep == (claim, VERIFIED, 500, None, len(range(14, 501, 16)))
    assert (rep.subject, rep.status, rep.range_checked, rep.witness, rep.checks) == rep
    bad = verify_progression(pbar_mod32_20k, CongruenceClaim(2, 0, 4), 100)
    assert bad.status == COUNTEREXAMPLE and bad.witness == (0, 1)


def test_report_does_not_name_a_construction():
    # a report depends only on the coefficients it read, so a series built
    # by the product gives the inversion's report; the CLI names the source
    claim = CongruenceClaim(16, 14, 16)
    reps = [verify_progression(build(100, mod2_ring(32)), claim)
            for build in (by_product, by_inversion)]
    assert reps[0] == reps[1] == VerificationReport(
        claim, VERIFIED, 100, None, len(range(14, 101, 16)))


def test_check_that_walks_no_point_is_skipped(pbar_mod32_20k):
    # 0, 1 and 2 are each a square or twice one, so kim8 checks no n there
    for limit in (0, 1, 2):
        rep = verify_mod8_nonsquare(pbar_mod32_20k, limit)
        assert rep.status == SKIPPED and rep.witness is None, limit
        assert rep.checks == 0
    assert verify_mod8_nonsquare(pbar_mod32_20k, 3).status == VERIFIED


def test_report_counts_the_points_it_checked(pbar_mod32_20k):
    for A, B, M, limit in [(16, 14, 16, 2000), (8, 7, 64, 3000), (5, 2, 4, 999)]:
        rep = verify_progression(pbar_mod32_20k, CongruenceClaim(A, B, M), limit)
        assert rep.status == VERIFIED
        assert rep.checks == len(range(B, limit + 1, A))
    # pbar(16n+14) == 0 (mod 32) fails at n = 0 already; the mod-8 claims
    # on 11n+6 and 19n+10 hold up to n = 3 and n = 7 before they fail
    for A, B, M, n in [(16, 14, 32, 0), (11, 6, 8, 4), (19, 10, 8, 8)]:
        rep = verify_progression(pbar_mod32_20k, CongruenceClaim(A, B, M), 2000)
        assert rep.status == COUNTEREXAMPLE and rep.witness[0] == n
        assert rep.checks == n + 1
    rep = verify_progression(pbar_mod32_20k, CongruenceClaim(16, 14, 16), 13)
    assert rep.status == SKIPPED and rep.checks == 0


@pytest.mark.parametrize("modulus", [2, 16, 256, 512, 2**64])
def test_verdict_reads_its_points_as_an_iterator(modulus):
    # _verdict takes the residues _residues makes of a slice of a series:
    # up to 256 one bytes, past it a list, so a residue of 256 or 2^63
    # still comes back whole; its points are their places n = 0, 1, ...
    big = modulus // 2
    for values, want in [([0, 0, 0], None), ([big, 0, 0], (0, big)),
                         ([0, modulus, 3 * modulus + big], (2, big)),
                         ([modulus + 1, 0], (0, 1)),
                         ([-modulus, -big], (1, big))]:
        pbar = TruncatedSeries(EXACT, [1] * 10 + values)
        res = congruence._residues(pbar, modulus, 10, None)
        assert isinstance(res, bytes) == (modulus <= 256)
        rep = congruence._verdict("s", 99, res)
        assert rep.witness == want
        assert rep.status == (VERIFIED if want is None else COUNTEREXAMPLE)
        assert rep.checks == (len(values) if want is None else want[0] + 1)
    empty = congruence._residues(TruncatedSeries(EXACT, [1, 2]), modulus, 2, 2)
    rep = congruence._verdict("s", 99, empty)
    assert rep.status == SKIPPED and rep.checks == 0


_DIFF_LIMIT = 200
_DIFF_RINGS = [mod2_ring(4), mod2_ring(7), mod2_ring(8), mod2_ring(9),
               mod2_ring(32), EXACT, "exact-negative"]


def _diff_cases(base, points, modulus):
    """base as it is, then with a fault planted at the first, a middle and
    the last of the coefficient indices points: + 1, + modulus/2 and
    + modulus - 1, each nonzero mod modulus."""
    yield base
    for i, delta in zip((0, len(points) // 2, -1), (1, modulus // 2, modulus - 1)):
        co = list(base)
        co[points[i]] += delta
        yield co


@pytest.fixture(scope="module")
def diff_pbar():
    return list(by_inversion(4 * _DIFF_LIMIT, EXACT).coeffs)


@pytest.mark.parametrize("ring", _DIFF_RINGS, ids=str)
def test_verifiers_match_the_residue_walk_oracle(ring, diff_pbar):
    # every verifier gives the oracle's (status, witness, checks): the
    # plain pbar series, progressions whose points hold multiples of M,
    # and faults planted at the first, a middle and the last point; in the
    # exact-negative case every coefficient n == 1, 2 mod 3 is lowered by
    # a multiple of 2^70, negative and past 256 but equal mod M <= 2^65
    L = _DIFF_LIMIT
    base = diff_pbar
    if ring == "exact-negative":
        ring = EXACT
        base = [c - (n % 3 << 70) for n, c in enumerate(base)]
    bits = 65 if ring.bits is None else ring.bits

    def agree(co, verify, walk):
        pbar = TruncatedSeries(ring, co)
        rep = verify(pbar)
        assert (rep.status, rep.witness, rep.checks) == walk(list(pbar.coeffs))
        return rep.status

    statuses = set()
    for M in [2 ** k for k in (1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 32, 33, 64, 65)]:
        if M > 1 << bits:
            with pytest.raises(ValueError, match="cannot resolve"):
                verify_progression(TruncatedSeries(ring, base), CongruenceClaim(8, 7, M))
            continue
        for A, B in [(1, 0), (5, 2), (8, 7), (16, 14)]:
            claim = CongruenceClaim(A, B, M)
            points = range(B, L + 1, A)
            zeroed = list(base)
            for i, p in enumerate(points):
                zeroed[p] = M * (i - 3)
            for limit in (L, 13):
                for co in [*_diff_cases(base, points, M), *_diff_cases(zeroed, points, M)]:
                    statuses.add(agree(
                        co, lambda s: verify_progression(s, claim, limit),
                        lambda c: oracles.progression_walk(c, A, B, M, limit)))
    if bits >= 3:
        for co in _diff_cases(base, oracles.nonsquare_points(L), 8):
            statuses.add(agree(co, lambda s: verify_mod8_nonsquare(s, L),
                               lambda c: oracles.nonsquare_walk(c, L)))
    for m in (4, 8, 16, 32, 64, 128):
        if m > 1 << bits:
            continue
        points = [4 * n for n in oracles.tier_points(m, L)]
        for co in _diff_cases(base, points, m):
            statuses.add(agree(co, lambda s: verify_4n_relations(s, m, L),
                               lambda c: oracles.tier_walk(c, m, L)))
    rhs = dissection_rhs_mod16(L).coeffs
    for co in _diff_cases(base, range(L + 1), 16):
        statuses.add(agree(co, lambda s: verify_dissection_mod16(s, L),
                           lambda c: oracles.dissection_walk(c, rhs, L)))
    assert statuses == {VERIFIED, COUNTEREXAMPLE, SKIPPED}


def test_claim_past_256_reads_its_residues_as_a_list():
    # M = 2^64 takes the list path; pbar(7) = 64 is the first value
    pbar = by_inversion(200, mod2_ring(64))
    rep = verify_progression(pbar, CongruenceClaim(8, 7, 2**64), 200)
    assert rep.status == COUNTEREXAMPLE
    assert rep.witness == (0, 64) and rep.checks == 1


# -- theorem families ---------------------------------------------------------

def test_ell_family_seven(pbar_mod32_20k):
    reports = run_checks(ell_family_claims(7, 16), pbar_mod32_20k, 2000)
    assert len(reports) == 6
    assert all(r.status == VERIFIED for r in reports)
    assert sorted(r.subject.B for r in reports) == [7, 14, 21, 28, 35, 42]
    assert {r.subject.A for r in reports} == {49}


def test_ell_family_preconditions(pbar_mod32_20k):
    with pytest.raises(ValueError):
        ell_family_claims(5, 16)    # 5 != 7 (mod 8)
    with pytest.raises(ValueError):
        ell_family_claims(9, 8)     # composite
    with pytest.raises(ValueError):
        ell_family_claims(15, 16)   # 7 (mod 8) but composite
    with pytest.raises(ValueError):
        ell_family_claims(2, 8)     # even
    with pytest.raises(ValueError):
        ell_family_claims(7, 32)    # unsupported modulus
    # the bound is checked before primality, so composites past it get it too
    for big in (65536, 65537, 2**61 - 1):
        with pytest.raises(ValueError, match=f"must be below 2\\^16, got ell={big}"):
            ell_family_claims(big, 8)
    assert len(ell_family_claims(65521, 8)) == 65520   # the largest prime allowed
    assert all(r.ok for r in run_checks(ell_family_claims(5, 8), pbar_mod32_20k, 2000))


def test_mod8_family_claims_small_primes():
    assert [(c.A, c.B, c.M) for c in mod8_family_claims(3)] == [
        (3, 2, 4), (6, 5, 8), (9, 3, 8), (9, 6, 8)]
    assert [(c.A, c.B, c.M) for c in mod8_family_claims(5)] == [
        (5, 2, 4), (5, 3, 4), (10, 3, 8), (10, 7, 8), (15, 7, 8),
        (15, 11, 8), (15, 13, 8), (15, 14, 8), (25, 5, 8), (25, 10, 8),
        (25, 15, 8), (25, 20, 8)]
    with pytest.raises(ValueError):
        mod8_family_claims(4)


def test_mod8_family_claims_match_the_squares_oracle():
    # every family built from residues read off the squares mod ell, with
    # the Jacobi symbol mod 3*ell as the product of the two Legendre symbols
    for ell in range(3, 200):
        if any(ell % d == 0 for d in range(2, ell)):
            continue
        nonres = [r for r in range(1, 3 * ell) if legendre_by_squares(r, ell) == -1]
        want = [(ell * ell, r * ell, 8) for r in range(1, ell)]
        want += [(2 * ell, r, 8) for r in nonres if r < 2 * ell and r % 2]
        if ell % 8 in (3, 5):
            want += [(3 * ell, r, 8) for r in range(1, 3 * ell)
                     if legendre_by_squares(r, 3) * legendre_by_squares(r, ell) == -1]
        want += [(ell, r, 8 if ell % 8 in (1, 7) else 4) for r in nonres if r < ell]
        assert [(c.A, c.B, c.M) for c in mod8_family_claims(ell)] == sorted(want), ell


def test_mod8_family_claims_dichotomy():
    # mod 8 for ell == +-1 (mod 8), mod 4 for ell == +-3 (mod 8)
    assert {c.M for c in mod8_family_claims(7) if c.A == 7} == {8}
    assert {c.M for c in mod8_family_claims(17) if c.A == 17} == {8}
    assert {c.M for c in mod8_family_claims(11) if c.A == 11} == {4}
    # the 3*ell family only exists for ell == +-3 (mod 8)
    assert not any(c.A == 21 for c in mod8_family_claims(7))
    assert any(c.A == 33 for c in mod8_family_claims(11))


def test_mod8_families_verify(pbar_mod32_20k):
    for ell in (3, 5, 7):
        reports = run_checks(mod8_family_claims(ell), pbar_mod32_20k, 2000)
        assert all(r.status == VERIFIED for r in reports)


def test_mod8_nonsquare(pbar_mod32_20k):
    rep = verify_mod8_nonsquare(pbar_mod32_20k, 3000)
    assert rep.subject == "mod8-nonsquare"
    assert rep.status == VERIFIED


def test_mod8_nonsquare_counterexample_detection():
    # constant-1 coefficients: n = 3 is the first value that is neither a
    # square nor twice one, and 1 != 0 (mod 8)
    fake = TruncatedSeries(mod2_ring(32), [1] * 10)
    rep = verify_mod8_nonsquare(fake)
    assert rep.status == COUNTEREXAMPLE
    assert rep.witness == (3, 1)


def bumped(pbar, n, by=1):
    co = list(pbar.coeffs)
    co[n] += by
    return TruncatedSeries(pbar.ring, co)


# verifier -> (the verifier, the coefficient each point of its walk over
# [0, 999] reads and a bump of 1 corrupts: pbar(4n) for a tier), with the
# n-sets written out from square_predicates
FIRST_AND_LAST = {
    "progression 16n+14 mod 16": (lambda s, lim: verify_progression(
        s, CongruenceClaim(16, 14, 16), lim), list(range(14, 1000, 16))),
    "kim8": (verify_mod8_nonsquare,
             [n for n in range(1000) if not square_predicates(n).is_square
              and not (n % 2 == 0 and square_predicates(n // 2).is_square)]),
    **{f"4n mod {m}": ((lambda m: lambda s, lim: verify_4n_relations(s, m, lim))(m),
                       [4 * n for n in range(1, 1000) if keep(n)])
       for m, keep in [(4, lambda n: True), (16, lambda n: True),
                       (32, lambda n: not square_predicates(n).is_odd_square),
                       (64, lambda n: n % 8 not in (1, 2, 5)),
                       (128, lambda n: n % 4 == 0)]},
}


@pytest.mark.parametrize("name", sorted(FIRST_AND_LAST))
def test_counterexample_at_the_first_and_the_last_point(pbar_mod32_20k, name):
    check, reads = FIRST_AND_LAST[name]
    pbar = TruncatedSeries(pbar_mod32_20k.ring, pbar_mod32_20k.coeffs[:4000])
    assert check(pbar, 999).checks == len(reads)
    for k in (0, len(reads) - 1):
        rep = check(bumped(pbar, reads[k]), 999)
        assert rep.status == COUNTEREXAMPLE and rep.checks == k + 1, k
        # a progression's witness is its index n, the others' the point n
        n = k if name.startswith("progression") else reads[k] // (4 if "4n" in name else 1)
        assert rep.witness == (n, 1), k


def test_dissection_counterexample_at_the_first_and_the_last_point(monkeypatch):
    # the walk runs over the mismatches at n = 0..limit, then the columns
    # 7, 14, 15; the last column point is 16k + 15 <= limit
    ring = mod2_ring(4)
    co = [0] * 41
    monkeypatch.setattr(congruence, "dissection_rhs_mod16",
                        lambda order: TruncatedSeries(ring, rhs[:order + 1]))
    rhs = list(co)
    points = 41 + 3 + 2 + 2
    assert verify_dissection_mod16(TruncatedSeries(ring, co), 40).checks == points
    rep = verify_dissection_mod16(TruncatedSeries(ring, [3] + co[1:]), 40)
    assert rep.witness == (0, 13) and rep.checks == 1
    rhs[31] = 6
    rep = verify_dissection_mod16(TruncatedSeries(ring, rhs), 40)
    assert rep.witness == (31, 6) and rep.checks == points


# -- the 4n tiers --------------------------------------------------------------

def test_4n_tiers_verify(pbar_mod32_20k):
    for modulus in (4, 8, 16, 32, 64, 128):
        rep = verify_4n_relations(pbar_mod32_20k, modulus, 5000)
        assert rep.status == VERIFIED, modulus
        assert rep.subject == f"4n-vs-n-mod{modulus}"


def test_4n_tiers_skip_n_zero(pbar_mod32_20k):
    # pbar(4*0) - pbar(0) is 0 for any series, so n = 0 checks nothing
    for modulus in (4, 8, 16, 32, 64, 128):
        rep = verify_4n_relations(pbar_mod32_20k, modulus, 0)
        assert rep.status == SKIPPED and rep.checks == 0, modulus
    # the mod-128 tier keeps n == 0 (mod 4) only: 1..3 holds none of it
    assert verify_4n_relations(pbar_mod32_20k, 128, 3).status == SKIPPED
    rep = verify_4n_relations(pbar_mod32_20k, 128, 4)
    assert rep.status == VERIFIED and rep.checks == 1
    assert verify_4n_relations(pbar_mod32_20k, 4, 100).checks == 100


def test_4n_tier_filters_are_necessary(pbar_mod32_20k):
    co = pbar_mod32_20k.coeffs

    def fails(n, modulus):
        expect = -co[n] if n & 1 else co[n]
        return (co[4 * n] - expect) % modulus != 0

    # mod 32 needs the odd-square exclusion: already n = 1 fails
    assert (co[4] + co[1]) % 32 == 16
    assert any(fails(n * n, 32) for n in range(1, 40, 2))
    # mod 64 needs n != 1, 2, 5 (mod 8)
    assert any(fails(n, 64) for n in range(200) if n % 8 in (1, 2, 5))
    # mod 128 needs n == 0 (mod 4)
    assert any(fails(n, 128) for n in range(200) if n % 4 != 0)


def test_4n_tier_counterexample_witness(pbar_mod32_20k):
    # raise pbar(4*9) by 6 and pbar(4*13) by 1; each relation held before,
    # so the residue at a corrupted n is the added amount mod the tier
    co = list(pbar_mod32_20k.coeffs)
    co[4 * 9] += 6
    co[4 * 13] += 1
    bad = TruncatedSeries(pbar_mod32_20k.ring, co)
    # n = 9 is odd and both tiers keep it; a wrong sign mod 16 would read
    # (6 - 2*pbar(9)) % 16 = 2, since pbar(9) = 154
    assert verify_4n_relations(bad, 4, 5000).witness == (9, 2)
    rep = verify_4n_relations(bad, 16, 5000)
    assert rep.status == COUNTEREXAMPLE and rep.witness == (9, 6)
    # the mod-32 tier drops the odd square 9, so the later n = 13 is first
    assert verify_4n_relations(bad, 32, 5000).witness == (13, 1)


# (check, modulus, an excluded n, a kept n after it, the coefficient that
# point reads): kim8 leaves out the square 25; the mod-32 tier the odd
# square 81, the mod-64 tier 81 == 1 (mod 8), the mod-128 tier 81 == 1
# (mod 4).  A tier's fault goes at pbar(4n), 4n past the window of 300,
# where no other point of the tier reads it
_MASKED_CHECKS = [
    ("kim8", 8, 25, 27, lambda n: n),
    ("4n mod 32", 32, 81, 82, lambda n: 4 * n),
    ("4n mod 64", 64, 81, 83, lambda n: 4 * n),
    ("4n mod 128", 128, 81, 84, lambda n: 4 * n),
]


@pytest.mark.parametrize("name, modulus, left_out, kept, reads", _MASKED_CHECKS,
                         ids=[c[0] for c in _MASKED_CHECKS])
def test_masked_verdict_matches_the_compress_oracle(name, modulus, left_out, kept, reads):
    # a fault at a point the check leaves out changes nothing; one more at
    # a kept point after it is the witness, with the count of the kept
    # points up to it, as the compress-based oracle finds them
    L = 300
    ring = mod2_ring(7)
    good = list(by_inversion(4 * L, ring).coeffs)
    keep = bytearray(L + 1)
    for n in (oracles.nonsquare_points(L) if name == "kim8"
              else oracles.tier_points(modulus, L)):
        keep[n] = 1

    def verdicts(co):
        # (the verifier's report, the oracle's (status, witness, checks))
        s = TruncatedSeries(ring, co)
        if name == "kim8":
            return verify_mod8_nonsquare(s, L), oracles.compress_verdict(co[:L + 1], keep, 8)
        diffs = oracles.tier_differences(co, modulus, L)
        return (verify_4n_relations(s, modulus, L),
                oracles.compress_verdict(diffs, keep, modulus))

    clean, _ = verdicts(good)
    assert clean.status == VERIFIED and clean.checks == sum(keep)
    co = list(good)
    co[reads(left_out)] += 1
    rep, want = verdicts(co)
    assert rep == clean and want == (VERIFIED, None, clean.checks)
    co[reads(kept)] += 1
    rep, want = verdicts(co)
    assert (rep.status, rep.witness, rep.checks) == want
    assert rep.witness == (kept, 1) and rep.checks == sum(keep[:kept + 1])


def test_4n_tier_validation(pbar_mod32_20k):
    with pytest.raises(ValueError):
        verify_4n_relations(pbar_mod32_20k, 256, 100)
    small = by_inversion(100, mod2_ring(8))
    with pytest.raises(ValueError):
        verify_4n_relations(small, 4, 26)  # needs coefficients to 104
    with pytest.raises(ValueError, match="window bound must be >= 0, got -1"):
        verify_4n_relations(small, 4, -1)
    assert verify_4n_relations(small, 4).range_checked == 25  # order // 4


# -- the 16-dissection -----------------------------------------------------------

def test_dissection_verifies():
    rep = verify_dissection_mod16(by_inversion(512, mod2_ring(4)))
    assert rep.status == VERIFIED
    assert rep.subject == "dissection-mod16"


def test_dissection_accepts_supplied_series(pbar_mod32_20k):
    rep = verify_dissection_mod16(pbar_mod32_20k, 512)
    assert rep.status == VERIFIED


def test_dissection_rhs_vanishing_columns():
    rhs = dissection_rhs_mod16(1024)
    for r in (7, 14, 15):
        assert is_zero(rhs.dissect(16, r))
    for r in (0, 6, 13):
        assert not is_zero(rhs.dissect(16, r))


def q_assembly_rhs_mod16(order):
    # the dissection assembled directly in q: every piece substituted
    # q -> q^16 (or q^32) at the full order, the slots shifted into one
    # bracket, and one multiply by the prefactor at the full order
    ring = mod2_ring(4)
    A = theta.phi(order, ring).substitute_power(16)
    P = theta.psi(order, ring).substitute_power(32)
    P1 = theta.psi1(order, ring).substitute_power(16)
    P2 = theta.psi2(order, ring).substitute_power(16)
    D = theta.phi_neg(order, ring).substitute_power(16)
    W = theta.psi(order, ring).substitute_power(16)
    q16 = TruncatedSeries.monomial(ring, order, 16)
    combo = q16 * P2 * P2 + P1 * P1
    Asq, Psq = A * A, P * P
    slots = [
        (0, A * Asq),
        (1, -2 * (4 * q16 * Psq * P2 + 7 * Asq * P1)),
        (2, 4 * (A * combo)),
        (3, 8 * (P1 * combo)),
        (4, 2 * (A * (4 * (W * W) + 3 * (A * P)))),
        (5, 8 * (A * P * P1)),
        (6, 8 * (P * combo)),
        (8, 4 * (A * Psq)),
        (9, -2 * (7 * Asq * P2 + 4 * Psq * P1)),
        (10, 8 * (A * P1 * P2)),
        (11, 8 * (P2 * combo)),
        (12, 8 * (Psq * P)),
        (13, 8 * (A * P * P2)),
    ]
    bracket = TruncatedSeries.zero(ring, order)
    for j, s in slots:
        bracket = bracket + s.shift(j)
    return (A ** 12) * (D.invert() ** 16) * bracket


@pytest.mark.parametrize("order", [16, 17, 31, 47, 600, 1007])
def test_dissection_rhs_matches_q_assembly(order):
    # orders off a multiple of 16 cut each slot's tail at a different k
    rhs = dissection_rhs_mod16(order)
    assert rhs.order == order
    assert rhs == q_assembly_rhs_mod16(order)
    assert rhs == by_inversion(order, mod2_ring(4))


def test_dissection_rhs_at_every_small_order():
    # below q^16 every piece is its constant term in x = q^16, and the
    # rebuilt series is still pbar mod 16, down to order 0
    for order in range(41):
        assert dissection_rhs_mod16(order) == by_inversion(order, mod2_ring(4)), order


@pytest.mark.parametrize("m", [0, 1, 2, 18, 93, 625, 6250])
def test_dissection_prefactor_is_a4_and_one_mod_8(m):
    # A = phi(x) and D = phi(-x) are 1 mod 2, so A^8 and D^16 are 1 mod 16:
    # the prefactor A^12 / D^16 is A^4 in Z/2^4, and A^4 is 1 mod 8.  Only
    # slot 0, whose factor is 1, could see it; every other slot's factor
    # 2, 4 or 8 drops it
    ring = mod2_ring(4)
    A = theta.phi(m, ring)
    D = theta.phi_neg(m, ring)
    assert (A ** 12) * (D.invert() ** 16) == A ** 4
    assert (A ** 4).reduce_mod(3) == TruncatedSeries.one(mod2_ring(3), m)


def test_dissection_qq4_slot_regression():
    # the q^4 slot of the bracket is 2 phi(q^16) (4 psi(q^16)^2
    # + 3 phi(q^16) psi(q^32)); with psi(q^32)^2 in place of psi(q^16)^2
    # the rebuilt series drifts from pbar mod 16 first at q^36, by 8.
    # Only this slot is that fragile: its prefactor 2 keeps three bits of
    # the inner sum visible, and f(q)^2 == f(q^2) (mod 2) makes the two
    # variants agree mod 2 but not mod 8.
    order = 128
    ring = mod2_ring(4)
    A = theta.phi(order, ring).substitute_power(16)
    P = theta.psi(order, ring).substitute_power(32)
    W = theta.psi(order, ring).substitute_power(16)
    D = theta.phi_neg(order, ring).substitute_power(16)
    swap = (A ** 12) * (D.invert() ** 16) * (
        (2 * (A * (4 * (P * P) + 3 * (A * P)))).shift(4)
        - (2 * (A * (4 * (W * W) + 3 * (A * P)))).shift(4))
    wrong = dissection_rhs_mod16(order) + swap
    true16 = by_inversion(order, ring)
    mismatches = [(n, (wrong[n] - true16[n]) % 16)
                  for n in range(order + 1) if wrong[n] != true16[n]]
    assert mismatches[0] == (36, 8)
    assert all(n % 16 == 4 for n, _ in mismatches)


def test_dissection_counterexample_path():
    # pbar with 4 taken off pbar(2): the comparison with the dissection
    # mod 16 must fail there, and first there
    ring = mod2_ring(32)
    wrong = by_inversion(64, ring) - TruncatedSeries.monomial(ring, 64, 2, 4)
    rep = verify_dissection_mod16(wrong, 64)
    assert rep.status == COUNTEREXAMPLE
    assert rep.witness == (2, 4)


def test_dissection_vanishing_column_witness(monkeypatch):
    # a rebuilt series equal to pbar but nonzero in column 14 (at q^14)
    # and column 7 (at q^23): the columns are checked 7, 14, 15 in turn
    ring = mod2_ring(4)
    co = [0] * 41
    co[14], co[23] = 3, 5
    monkeypatch.setattr(congruence, "dissection_rhs_mod16",
                        lambda order: TruncatedSeries(ring, co[:order + 1]))
    rep = verify_dissection_mod16(TruncatedSeries(ring, co), 40)
    assert rep.status == COUNTEREXAMPLE and rep.witness == (23, 5)
    # coefficient mismatches come before the columns: pbar(5) = 9 against 0
    co_l = list(co)
    co_l[5] = 9
    rep = verify_dissection_mod16(TruncatedSeries(ring, co_l), 40)
    assert rep.witness == (5, (0 - 9) % 16)


# -- combined families and the known table ----------------------------------------

def test_combined_family_claims():
    assert [(c.A, c.B, c.M) for c in combined_family_claims(0)] == [
        (8, 7, 64), (16, 14, 16), (72, 69, 32)]
    claims = combined_family_claims(2)
    assert len(claims) == 9
    assert CongruenceClaim(16 * 16, 14 * 16, 16) in claims
    assert CongruenceClaim(72 * 16, 69 * 16, 32) in claims
    with pytest.raises(ValueError):
        combined_family_claims(-1)


def test_combined_families_verify(pbar_mod32_20k):
    reports = run_checks(combined_family_claims(2), pbar_mod32_20k, 5000)
    assert len(reports) == 9
    assert all(r.status == VERIFIED for r in reports)


def test_combined_families_skip_out_of_window(pbar_mod32_20k):
    reports = run_checks(combined_family_claims(2), pbar_mod32_20k, 100)
    by_claim = {(r.subject.A, r.subject.B): r.status for r in reports}
    assert by_claim[(8, 7)] == VERIFIED
    assert by_claim[(128, 112)] == SKIPPED
    assert by_claim[(1152, 1104)] == SKIPPED


def test_regression_claims_pinned():
    assert [(c.A, c.B, c.M) for c in REGRESSION_CLAIMS] == [
        (4, 3, 8), (5, 2, 4), (8, 5, 8), (8, 6, 8), (8, 7, 64), (12, 10, 8),
        (16, 10, 8), (20, 6, 8), (20, 14, 8), (24, 17, 16), (48, 26, 8),
        (72, 69, 32)]


def test_known_table_composition(pbar_mod32_20k):
    reports = run_checks(suite_checks("known-table"), pbar_mod32_20k, 2000)
    # 12 regression claims + Kim's mod-8 statement + the three mod-8
    # families at ell = 3, 5, 7, 11, 13 (4 + 12 + 12 + 30 + 36 claims)
    assert len(reports) == 107
    assert all(r.status == VERIFIED for r in reports)


def test_claim_suite(pbar_mod32_20k):
    assert suite_checks("claim:16,14,32") == [CongruenceClaim(16, 14, 32)]
    # pbar(14) = 1040 = 16 * 65: zero mod 16, not mod 32
    rep, = run_checks(suite_checks("claim:16,14,32"), pbar_mod32_20k, 200)
    assert rep.status == COUNTEREXAMPLE and rep.witness == (0, 16)
    rep, = run_checks(suite_checks("claim:16,14,16"), pbar_mod32_20k, 10_000)
    assert rep.status == VERIFIED
    # a wrong count or a non-integer is a ValueError, never a TypeError
    for suite in ("claim:16,14", "claim:16,14,16,2", "claim:a,b,c", "claim:",
                  "claim", "claim:16,15,12", "thm-ell:7,1"):
        with pytest.raises(ValueError):
            suite_checks(suite)
    assert CongruenceClaim(16, 14, 32) not in known_claims()


@pytest.mark.parametrize("suite, order, bits", [
    ("all", 4 * 500, 7),            # the mod-128 tier reads out to q^(4n)
    ("thm-16n14", 500, 4),
    ("kim8", 500, 3),
    ("dissection", 500, 4),
    ("thm-4n:4", 4 * 500, 2),
    ("claim:16,14,32", 500, 5),
    (f"claim:8,7,{2**64}", 500, 64),
    (f"claim:8,7,{2**65}", 500, None),  # no Z/2^m past 64 bits: exact
])
def test_series_order_gives_the_ring_the_checks_read(suite, order, bits):
    assert congruence.series_order(suite_checks(suite), 500) == (order, CoeffRing(bits))


# what each identity id stands for, spelled out apart from IDENTITIES
_IDENTITY_CALLS = {
    "mod8-nonsquare": (8, 1, lambda pbar, limit: verify_mod8_nonsquare(pbar, limit)),
    "dissection-mod16": (16, 1, lambda pbar, limit: verify_dissection_mod16(pbar, limit)),
    **{f"4n-vs-n-mod{m}": (m, 4, lambda pbar, limit, m=m:
                           verify_4n_relations(pbar, m, limit))
       for m in (4, 8, 16, 32, 64, 128)},
}


@pytest.mark.parametrize("check", sorted(_IDENTITY_CALLS))
def test_identity_table_runs_sizes_and_rings_each_check(check, pbar_mod32_20k):
    modulus, reach, call = _IDENTITY_CALLS[check]
    assert congruence.IDENTITIES[check][:2] == (modulus, reach)
    assert congruence.series_order([check], 300) == (
        reach * 300, mod2_ring(modulus.bit_length() - 1))
    # pbar(250) and pbar(4*252) off by one: every check finds a witness
    broken = list(pbar_mod32_20k.coeffs[:1201])
    broken[250] += 1
    broken[1008] += 1
    for series, status in ((pbar_mod32_20k, VERIFIED),
                           (TruncatedSeries(mod2_ring(32), broken), COUNTEREXAMPLE)):
        direct = call(series, 300)
        assert (direct.subject, direct.status) == (check, status)
        assert run_checks([check], series, 300) == [direct]


def test_identity_table_keys_are_the_suites_identity_ids():
    samples = {"thm-ell:L": ["thm-ell:7"], "families8:L": ["families8:3"],
               "claim:A,B,M": ["claim:16,14,16"],
               "thm-4n:M": [f"thm-4n:{m}" for m in (4, 8, 16, 32, 64, 128)]}
    suites = [s for name in congruence.SUITES for s in samples.get(name, [name])]
    ids = {c for s in suites for c in suite_checks(s) if isinstance(c, str)}
    assert ids == set(congruence.IDENTITIES) == set(_IDENTITY_CALLS)


def test_run_checks_calls_each_verifier_through_the_module(monkeypatch, pbar_mod32_20k):
    # a wrapper installed on the module sees every call run_checks makes
    seen = []
    for name in ("verify_progression", "verify_mod8_nonsquare",
                 "verify_4n_relations", "verify_dissection_mod16"):
        def wrapper(*args, _name=name, _real=getattr(congruence, name)):
            seen.append(_name)
            return _real(*args)
        monkeypatch.setattr(congruence, name, wrapper)
    checks = [CongruenceClaim(16, 14, 16), "mod8-nonsquare", "4n-vs-n-mod32",
              "dissection-mod16", "4n-vs-n-mod4"]
    reports = run_checks(checks, pbar_mod32_20k, 300)
    assert [r.subject for r in reports] == checks
    assert seen == ["verify_progression", "verify_mod8_nonsquare", "verify_4n_relations",
                    "verify_dissection_mod16", "verify_4n_relations"]


def test_readme_suites_table_lists_every_suite():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    table = readme.split("| suite ", 1)[1].split("\n\n", 1)[0]
    names = re.findall(r"^\| `([^`]+)`", table, re.MULTILINE)
    assert names == list(congruence.SUITES)


def test_known_claims_registry():
    known = known_claims()
    assert CongruenceClaim(16, 14, 16) in known
    assert CongruenceClaim(49, 7, 16) in known
    assert CongruenceClaim(529, 23 * 22, 16) in known
    assert CongruenceClaim(4, 3, 8) in known
    assert CongruenceClaim(3, 2, 4) in known
    assert CongruenceClaim(7, 3, 8) in known
    assert CongruenceClaim(2, 1, 8) not in known


def test_known_claims_are_what_verify_all_checks(capsys):
    assert main(["verify", "all", "--limit", "200"]) == 0
    doc = json.loads(capsys.readouterr().out)
    checked = {CongruenceClaim(**r["claim"]) for r in doc
               if isinstance(r["claim"], dict)}
    assert len(checked) == 140
    assert known_claims() == checked


# -- the scanner --------------------------------------------------------------------

def test_scan_finds_known_claims(pbar_mod32_20k):
    hits = scan_congruences(pbar_mod32_20k, 8, (8, 64), 3000)
    flags = {(h.claim.A, h.claim.B, h.claim.M): h.known for h in hits}
    assert flags[(4, 3, 8)] is True
    assert flags[(8, 7, 64)] is True
    # true subprogressions of known claims surface as candidates
    assert flags[(8, 3, 8)] is False
    assert flags[(8, 7, 8)] is False


def test_scan_output_is_sorted_and_consistent(pbar_mod32_20k):
    hits = scan_congruences(pbar_mod32_20k, 8, (8, 64), 3000)
    keys = [(h.claim.A, h.claim.B, h.claim.M) for h in hits]
    assert keys == sorted(keys)
    known = known_claims()
    for h in hits:
        assert h.known == (h.claim in known)
        assert verify_progression(pbar_mod32_20k, h.claim, 3000).status == VERIFIED


def test_scan_never_reports_b_zero(pbar_mod32_20k):
    hits = scan_congruences(pbar_mod32_20k, 6, (4,), 2000)
    assert all(h.claim.B != 0 for h in hits)
    # the B = 0 rows of [0, 40] for A = 7, 10, 11 hold no positive square,
    # so n = 0 is the only point below valuation 2 on them
    hits = scan_congruences(pbar_mod32_20k, 12, (4,), 40, min_checks=1)
    assert hits and all(h.claim.B != 0 for h in hits)


def test_scan_plan():
    assert scan_plan(16, [64, 4, 8, 4], 10_000, 50) == ([4, 8, 64], mod2_ring(6))
    assert scan_plan(1, (128,), 0, 1) == ([128], mod2_ring(7))
    # the scanner rejects what scan_plan rejects, with the same message
    pbar = by_inversion(100, mod2_ring(7))
    for args in [(8, (256,), 100, 50), (0, (8,), 100, 50), (8, (8,), 100, 0),
                 (8, (), 100, 50), (8, (8,), -1, 50), (8, (8,), 48, 50)]:
        with pytest.raises(ValueError) as planned:
            scan_plan(*args)
        with pytest.raises(ValueError) as scanned:
            scan_congruences(pbar, *args)
        assert str(scanned.value) == str(planned.value)


def test_scan_check_counts(pbar_mod32_20k):
    hits = scan_congruences(pbar_mod32_20k, 8, (8,), 3000)
    for h in hits:
        assert h.checks == (3000 - h.claim.B) // h.claim.A + 1


def test_scan_min_checks_suppression(pbar_mod32_20k):
    assert scan_congruences(pbar_mod32_20k, 8, (8,), 3000, min_checks=3001) == []
    thin = scan_congruences(pbar_mod32_20k, 8, (8,), 100, min_checks=13)
    assert all(h.checks >= 13 for h in thin)


@pytest.mark.parametrize("bits", [*range(1, 9), 32])
def test_valuation_string_is_the_lowest_set_bit_capped(bits):
    # min(v2(c), j) for top = 2^j, as c | top's lowest set bit, for values
    # in Z/2^bits: 0, top, multiples of top and every residue below 256
    rng = random.Random(bits)
    mask = (1 << bits) - 1
    for j in range(1, min(bits, 8) + 1):
        top = 1 << j
        values = [0, top, 3 * top, top << 5, mask, *range(256),
                  *(rng.getrandbits(bits) for _ in range(200))]
        values = [v & mask for v in values]
        old = bytes(((c | top) & -(c | top)).bit_length() - 1 for c in values)
        pbar = TruncatedSeries(mod2_ring(bits), values)
        assert congruence._valuations(pbar, len(values) - 1, j) == old, j


def test_scan_hit_fields(pbar_mod32_20k):
    hits = scan_congruences(pbar_mod32_20k, 4, (8,), 2000)
    assert hits == [ScanHit(4, 3, 8, 500, "KNOWN")]
    assert (*hits[0].claim, hits[0].checks, hits[0].label) == hits[0]
    hits = scan_congruences(pbar_mod32_20k, 8, (8, 64), 3000)
    assert {(h.known, h.label) for h in hits} == {(True, "KNOWN"), (False, "CANDIDATE")}


def test_scan_hits_are_flat_records_of_valid_claims():
    # scan-wide's window: every hit's claim is valid, its label is KNOWN
    # exactly for the claims verify all checks, and it pickles as a ScanHit
    pbar = by_inversion(20_000, mod2_ring(7))
    hits = scan_congruences(pbar, 128, (4, 8, 16, 32, 64, 128), 20_000)
    assert len(hits) == 9591
    known = known_claims()
    for h in hits:
        assert type(h.claim) is CongruenceClaim and h.claim == h[:3]
        assert h.label in ("KNOWN", "CANDIDATE")
        assert h.known == (h.label == "KNOWN") == (h[:3] in known)
        back = pickle.loads(pickle.dumps(h))
        assert type(back) is ScanHit
        assert back == h == (h.A, h.B, h.M, h.checks, h.label)
    assert {h.label for h in hits} == {"KNOWN", "CANDIDATE"}


def test_scan_validation(pbar_mod32_20k):
    with pytest.raises(ValueError):
        scan_congruences(pbar_mod32_20k, 8, (3,), 1000)
    with pytest.raises(ValueError):
        scan_congruences(pbar_mod32_20k, 8, (256,), 1000)
    with pytest.raises(ValueError):
        scan_congruences(pbar_mod32_20k, 0, (8,), 1000)
    with pytest.raises(ValueError):
        scan_congruences(pbar_mod32_20k, 8, (8,), 1000, min_checks=0)
    with pytest.raises(ValueError, match="at least one modulus"):
        scan_congruences(pbar_mod32_20k, 8, (), 1000)
    # [0, 48] holds 49 points: no row can reach the default 50 checks
    with pytest.raises(ValueError, match="fewer than min_checks=50"):
        scan_congruences(pbar_mod32_20k, 4, (4,), 48)
    # [0, 49] holds 50: the A = 1 row reaches them and fails at pbar(0) = 1
    assert scan_congruences(pbar_mod32_20k, 4, (4,), 49) == []
    with pytest.raises(ValueError, match="fewer than min_checks=11"):
        scan_congruences(pbar_mod32_20k, 4, (4,), 9, min_checks=11)


def _verified_rows(series, amax, mods, limit, min_checks):
    """{(A, B, M): checks} for every row that verify_progression passes
    on at least min_checks points, B running over all of 0..A-1."""
    verified = {}
    for A in range(1, amax + 1):
        for B in range(A):
            for M in mods:
                rep = verify_progression(series, CongruenceClaim(A, B, M), limit)
                if rep.status == VERIFIED and rep.checks >= min_checks:
                    verified[(A, B, M)] = rep.checks
    return verified


def _hit_rows(hits):
    return {(h.claim.A, h.claim.B, h.claim.M): h.checks for h in hits}


def test_scan_rows_past_the_bound_add_nothing(pbar_mod32_20k):
    # with min_checks = 50, no row of [0, 2000] past A = 2000 // 49 holds 50 points
    mods = (4, 8, 16, 64)
    at_bound = scan_congruences(pbar_mod32_20k, 2000 // 49, mods, 2000)
    assert max(h.claim.A for h in at_bound) == 2000 // 49
    assert scan_congruences(pbar_mod32_20k, 4000, mods, 2000) == at_bound
    # and none past A = 40 // 4 holds 5 points of [0, 40]
    series = _zero_column(pbar_mod32_20k, 3, 1)
    hits = scan_congruences(series, 30, mods, 40, min_checks=5)
    assert hits == scan_congruences(series, 10, mods, 40, min_checks=5)
    assert _hit_rows(hits) == _verified_rows(series, 30, mods, 40, 5)


def test_scan_with_one_check_reads_no_offset_past_the_window(pbar_mod32_20k):
    # min_checks = 1 bounds no A: rows with A > limit hold one point each
    # for B <= limit, and none for B past the window
    series = _zero_column(pbar_mod32_20k, 3, 1)
    hits = scan_congruences(series, 60, (4, 16), 40, min_checks=1)
    assert max(h.claim.A for h in hits) == 60
    assert max(h.claim.B for h in hits) <= 40
    assert _hit_rows(hits) == _verified_rows(series, 60, (4, 16), 40, 1)


def _zero_column(series, A, B):
    """series with every coefficient on An + B set to 0."""
    return TruncatedSeries(series.ring, [0 if n % A == B else c
                                         for n, c in enumerate(series.coeffs)])


# the scanner reads 2-adic valuations and the verifier reads residues;
# they share no code, so each is checked against the other
SCAN_SERIES = {
    "pbar mod 2^7": lambda: by_inversion(800, mod2_ring(7)),
    "pbar mod 2^32": lambda: by_inversion(800, mod2_ring(32)),
    "pbar exact": lambda: by_inversion(800, EXACT),
    "phi(-q) exact": lambda: theta.phi_neg(800, EXACT),
    # a row of zeros has valuation j, so it clears the largest modulus too
    "pbar mod 2^7, 7n+3 zeroed": lambda: _zero_column(
        by_inversion(800, mod2_ring(7)), 7, 3),
}


@pytest.mark.parametrize("mods", [(4, 8, 16, 32, 64, 128), (4, 16)],
                         ids=["4..128", "4,16"])
@pytest.mark.parametrize("name", sorted(SCAN_SERIES))
def test_scan_hits_are_the_verified_progressions(name, mods):
    series = SCAN_SERIES[name]()
    # A = 12 rows hold 67 points for B <= 8 and 66 beyond
    amax, limit, min_checks = 12, 800, 67
    verified = _verified_rows(series, amax, mods, limit, min_checks)
    hits = scan_congruences(series, amax, mods, limit, min_checks)
    keys = [(h.claim.A, h.claim.B, h.claim.M) for h in hits]
    assert keys == sorted(verified)
    assert {k: h.checks for k, h in zip(keys, hits)} == verified
    assert verified  # each grid has hits to compare
