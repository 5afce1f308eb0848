"""Acceptance gate: nine criteria with pinned ranges and time budgets.

Each criterion prints one pass/fail line through the pytest terminal
reporter.  PASS is printed only after every assertion in the criterion
held and the work fit its time budget; an assertion failure prints FAIL
and re-raises, so a criterion can never be reported green and fail.
"""

import time

import pytest

from overpart import (CongruenceClaim, by_inversion, by_product, ck_table,
                      mod2_ring, run_checks, scan_congruences, suite_checks,
                      two_adic, verify_4n_relations, verify_dissection_mod16,
                      verify_progression)
from overpart.congruence import (REGRESSION_CLAIMS, VERIFIED,
                                 dissection_rhs_mod16, known_claims)
from overpart.theta import phi, phi_neg, psi, psi1, psi2

from oracles import ck_bruteforce, count_by_enumeration, is_zero, square_predicates


@pytest.fixture
def criterion(request):
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def emit(line):
        if reporter is not None:
            reporter.write_line(line)

    def run(number, name, budget_s, body):
        t0 = time.perf_counter()
        try:
            body()
        except AssertionError:
            emit(f"criterion {number} ({name}): FAIL "
                 f"({time.perf_counter() - t0:.2f}s)")
            raise
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            emit(f"criterion {number} ({name}): FAIL "
                 f"(took {elapsed:.2f}s, budget {budget_s:.0f}s)")
            raise AssertionError(
                f"criterion {number} exceeded its {budget_s:.0f}s budget: "
                f"{elapsed:.2f}s")
        emit(f"criterion {number} ({name}): PASS ({elapsed:.2f}s)")

    return run


def sub(series, t):
    return series.substitute_power(t)


def test_criterion_1_base_values(criterion):
    def body():
        s = by_inversion(40)
        assert s.coeffs[:4] == (1, 2, 4, 8)
        for n in range(41):
            assert s[n] == count_by_enumeration(n)

    criterion(1, "base values", 1.0, body)


def test_criterion_2_construction_equivalence(criterion, pbar_exact_5000):
    def body():
        inv = pbar_exact_5000
        assert by_product(5000) == inv
        for depth in range(3, 8):
            m = 1 << (depth + 1)
            approx = two_adic(5000, depth)
            assert all((a - b) % m == 0
                       for a, b in zip(approx.coeffs, inv.coeffs))

    criterion(2, "construction equivalence", 30.0, body)


def test_criterion_3_theta_identities(criterion):
    def body():
        n = 2000
        assert phi(n) == sub(phi(n), 4) + 2 * sub(psi(n), 8).shift(1)
        assert phi(n) ** 2 == sub(phi(n), 2) ** 2 + 4 * (sub(psi(n), 4) ** 2).shift(1)
        assert phi(n) * phi_neg(n) == sub(phi_neg(n), 2) ** 2
        assert psi(n) == sub(psi1(n), 2) + sub(psi2(n), 2).shift(1)
        assert phi(n).invert() == (
            phi_neg(n) * sub(phi(n), 2) ** 2 * sub(phi(n), 4) ** 4
            * sub(phi(n), 8) ** 8 * sub(phi_neg(n), 16).invert() ** 16)

    criterion(3, "theta identities", 10.0, body)


def test_criterion_4_dissection(criterion):
    def body():
        rep = verify_dissection_mod16(by_inversion(4096, mod2_ring(4)))
        assert rep.status == VERIFIED
        rhs = dissection_rhs_mod16(4096)
        for r in (7, 14, 15):
            assert is_zero(rhs.dissect(16, r))

    criterion(4, "16-dissection mod 16", 30.0, body)


def test_criterion_5_progressions(criterion, pbar_mod32_20k):
    def body():
        pbar = pbar_mod32_20k
        rep = verify_progression(pbar, CongruenceClaim(16, 14, 16), 10_000)
        assert rep.status == VERIFIED
        r7 = run_checks(suite_checks("thm-ell:7"), pbar, 10_000)
        assert len(r7) == 6 and all(r.status == VERIFIED for r in r7)
        r23 = run_checks(suite_checks("thm-ell:23"), pbar, 20_000)
        assert len(r23) == 22 and all(r.status == VERIFIED for r in r23)

    criterion(5, "16n+14 and ell-families mod 16", 10.0, body)


def test_criterion_6_4n_tiers(criterion, pbar_mod32_20k):
    def body():
        for modulus in (4, 8, 16, 32, 64, 128):
            rep = verify_4n_relations(pbar_mod32_20k, modulus, 5000)
            assert rep.status == VERIFIED, modulus

    criterion(6, "pbar(4n) tiers", 30.0, body)


def test_criterion_7_known_congruences(criterion, pbar_mod32_20k):
    def body():
        reports = run_checks(suite_checks("known-table"), pbar_mod32_20k, 10_000)
        assert len(reports) == 107
        assert all(r.status == VERIFIED for r in reports)
        claims = {r.subject for r in reports
                  if isinstance(r.subject, CongruenceClaim)}
        for c in REGRESSION_CLAIMS:
            assert c in claims
        assert any(r.subject == "mod8-nonsquare" for r in reports)

    criterion(7, "known-congruence regression", 60.0, body)


def test_criterion_8_ck_properties(criterion):
    def body():
        rows = ck_table(6, 8000)
        # the table equals brute-force enumeration
        for k, row in enumerate(rows, 1):
            for n in range(201):
                assert row[n] == ck_bruteforce(k, n), (k, n)
        # c_k(4n) = c_k(n) for k <= 3
        for k, row in enumerate(rows[:3], 1):
            for n in range(2001):
                assert row[4 * n] == row[n], (k, n)
        # at multiples of ell not divisible by ell^2: c_1 vanishes,
        # c_2 is divisible by 4, c_3 by 2
        c1, c2, c3, c4, c5, c6 = rows
        for ell in (7, 23):
            for m in range(ell, 5001, ell):
                if m % (ell * ell) == 0:
                    continue
                assert c1[m] == 0, (ell, m)
                assert c2[m] % 4 == 0, (ell, m)
                assert c3[m] % 2 == 0, (ell, m)
        # difference divisibilities under their filters
        for n in range(2001):
            if not square_predicates(n).is_odd_square:
                assert (c4[4 * n] - c4[n]) % 2 == 0, n
            if n % 8 not in (1, 2, 5):
                assert (c4[4 * n] - c4[n]) % 4 == 0, n
                assert (c5[4 * n] - c5[n]) % 2 == 0, n
            if n % 4 == 0:
                assert (c4[4 * n] - c4[n]) % 8 == 0, n
                assert (c5[4 * n] - c5[n]) % 4 == 0, n
                assert (c6[4 * n] - c6[n]) % 2 == 0, n

    criterion(8, "square-count properties", 60.0, body)


def test_criterion_9_scanner_sanity(criterion, pbar_mod32_20k):
    def body():
        pbar = pbar_mod32_20k
        mods = (4, 8, 16, 32, 64)
        hits = scan_congruences(pbar, 16, mods, 10_000)
        known = known_claims()
        found = {h.claim for h in hits}
        applicable = {c for c in known
                      if c.A <= 16 and c.M in mods
                      and (10_000 - c.B) // c.A + 1 >= 50}
        assert len(applicable) == 36
        assert applicable <= found
        for h in hits:
            assert h.known == (h.claim in known)
            assert verify_progression(pbar, h.claim, 10_000).status == VERIFIED

    criterion(9, "scanner sanity", 120.0, body)
