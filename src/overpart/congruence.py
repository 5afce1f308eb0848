"""Congruence claims, finite-range verifiers, and the candidate scanner.

A claim (A, B, M) asserts pbar(A*n + B) == 0 (mod M) for every n >= 0.
Verifiers check claims (and coefficientwise identities) against a supplied
pbar series over an explicit window and report Verified, Counterexample,
or Skipped -- never anything probabilistic.  Passing a window is evidence,
not proof; the scanner labels fresh finds CANDIDATE accordingly.

All verifiers read the pbar series they are given through its public
coefficients only (coeffs or low_bytes()), so any construction of the
series (product, inversion, 2-adic to adequate depth) yields identical
reports; a report does not record which one was used.  Checks are run
by name through one entry point: run_checks(suite_checks(name), pbar,
limit), where SUITES maps every suite name to its checks and IDENTITIES
maps every identity id to the modulus it reads, its reach and its
verifier; series_order reads the same table to size and ring the series.

One window rule serves every check and the scanner: the window is
[0, limit], by default the widest the series holds, and a negative
limit, a series that stops short of it (a pbar(4n) tier reads out to
q^(4*limit)) or a ring too narrow for the check's modulus is an error.

One verdict rule serves every verifier: a check walks its window in order
as (n, residue) pairs; the first nonzero residue is the Counterexample
witness, with none the check is Verified, and with no pairs at all (a
window that holds no point of the check) it is Skipped.  One checked
point is enough for Verified; the report counts the pairs it walked.
The dissection walks its coefficient mismatches before its vanishing
columns 7, 14, 15.  A check hands _verdict its residues, one bytes up to
modulus 256: a slice of the series' low_bytes() through one translate
table, and a pbar(4n) tier's or the dissection's differences by one
packed subtraction.  The first nonzero residue is found by lstrip.  kim8
and the tiers hand over a byte mask of their points too: the residues
of the points they leave out are zeroed and the kept points counted.

The scanner does not walk residues: it reads the window once as 2-adic
valuations, the same low bytes through one translate table, and a row
An + B clears every M up to 2^(its least valuation); see
scan_congruences.  scan_plan checks a scan's arguments before any series
is built and names the ring it reads.  A hit is one flat ScanHit(A, B,
M, checks, label); its claim is built only when it is read.

Claims, reports and scan hits are immutable named tuples: a claim orders,
hashes and compares as (A, B, M), and _make and _replace check it.  They
know no output format; the CLI alone writes them as JSON, CSV or a table.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import repeat
from math import isqrt

from . import theta
from .numtheory import is_prime, legendre
from .series import EXACT, CoeffRing, TruncatedSeries, _repeat, mod2_ring

VERIFIED = "Verified"
COUNTEREXAMPLE = "Counterexample"
SKIPPED = "Skipped"

_SCAN_MODULI = (4, 8, 16, 32, 64, 128)


class CongruenceClaim(namedtuple("CongruenceClaim", "A B M")):
    """pbar(A*n + B) == 0 (mod M) for all n >= 0."""

    __slots__ = ()

    def __new__(cls, A: int, B: int, M: int):
        if A < 1:
            raise ValueError(f"progression step must be >= 1, got A={A}")
        if not 0 <= B < A:
            raise ValueError(f"offset must satisfy 0 <= B < A, got B={B} A={A}")
        if M < 2 or M & (M - 1):
            raise ValueError(f"modulus must be a power of two >= 2, got M={M}")
        return tuple.__new__(cls, (A, B, M))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it


class VerificationReport(namedtuple(
        "VerificationReport", "subject status range_checked witness checks")):
    """Outcome of one claim or identity check over a finite window.

    subject is a CongruenceClaim or a string identity id; range_checked is
    the window bound the check ran against; witness is (n, residue) for
    the first failure, None otherwise; checks is the number of (n, residue)
    pairs walked, the witness included.  The CLI writes reports out and
    leaves checks out of them.
    """

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status != COUNTEREXAMPLE


class ScanHit(namedtuple("ScanHit", "A B M checks label")):
    """A progression the scanner could not refute within its window: the
    claim's (A, B, M), the points it checked, and its label, "KNOWN" when
    `verify all` checks that exact claim, else "CANDIDATE"."""

    __slots__ = ()

    @property
    def claim(self) -> CongruenceClaim:
        return CongruenceClaim(*self[:3])

    @property
    def known(self) -> bool:
        return self.label == "KNOWN"


def _window(pbar: TruncatedSeries, limit: int | None, modulus: int,
            reach: int = 1) -> int:
    """The window bound of a check that reads residues mod modulus out to
    q^(reach*limit); limit None is the widest window the series holds."""
    if limit is None:
        limit = pbar.order // reach
    if limit < 0:
        raise ValueError(f"window bound must be >= 0, got {limit}")
    if reach * limit > pbar.order:
        raise ValueError(f"window {limit} needs coefficients to q^{reach * limit}, "
                         f"series stops at q^{pbar.order}")
    bits = pbar.ring.bits
    if bits is not None and (1 << bits) < modulus:
        raise ValueError(
            f"series ring {pbar.ring} cannot resolve residues mod {modulus}")
    return limit


def _residues(pbar: TruncatedSeries, modulus: int, *window):
    """pbar's coefficients at range(*window) mod modulus: a list past 256,
    else one translate of that slice of its low bytes."""
    if modulus > 256:
        return list(map((modulus - 1).__and__, pbar.coeffs[slice(*window)]))
    return pbar.low_bytes()[slice(*window)].translate(bytes(range(modulus)) * (256 // modulus))


def _sub(x: bytes, y: bytes, modulus: int) -> bytes:
    """(x - y) mod modulus per byte, x < modulus <= 128 and y <= modulus, by one
    packed subtraction: each slot is lifted by 0x80 (0 mod modulus), so none borrows."""
    n = len(y)
    d = int.from_bytes(x, "little") + _repeat(0x80, 1, n) - int.from_bytes(y, "little")
    return (d & _repeat(modulus - 1, 1, n)).to_bytes(n, "little")


def _verdict(subject, limit, res, keep=None) -> VerificationReport:
    """The verdict on the points n = 0, 1, ... whose residues are res (a
    list past modulus 256, else one bytes), or only on those where the
    bytes keep holds 1, the others' residues zeroed: Counterexample at the
    first nonzero one, with (n, residue) as witness, else Verified; Skipped
    if there is no point.  Counts the points it walks."""
    if keep is not None:
        res = (int.from_bytes(res, "little") & int.from_bytes(keep, "little") * 255
               ).to_bytes(len(res), "little")
    rest = (bytes(map(bool, res)) if isinstance(res, list) else res).lstrip(b"\0")
    k = len(res) - len(rest)
    checks = min(k + 1, len(res)) if keep is None else keep.count(1, 0, k + 1)
    status = COUNTEREXAMPLE if rest else VERIFIED if checks else SKIPPED
    return VerificationReport(subject, status, limit, (k, res[k]) if rest else None, checks)


def verify_progression(pbar: TruncatedSeries, claim: CongruenceClaim,
                       limit: int | None = None) -> VerificationReport:
    """Check one claim for every n with A*n + B <= limit."""
    limit = _window(pbar, limit, claim.M)
    return _verdict(claim, limit, _residues(pbar, claim.M, claim.B, limit + 1, claim.A))


def ell_family_claims(ell: int, modulus: int) -> list[CongruenceClaim]:
    """Claims pbar(ell^2*n + r*ell) == 0 (mod modulus) for r = 1..ell-1.

    modulus 16 requires ell == 7 (mod 8); modulus 8 holds for every odd
    prime ell < 2^16, the bound that keeps the mod-8 families to 2*10^5
    claims.  (r beyond ell-1 or divisible by ell adds nothing: the
    progression only depends on r mod ell, and ell | r collapses it.)
    """
    if modulus not in (8, 16):
        raise ValueError(f"family verified mod 8 or mod 16 only, got {modulus}")
    if ell >= 2**16:
        raise ValueError(f"family parameter must be below 2^16, got ell={ell}")
    if ell < 3 or not is_prime(ell):
        raise ValueError(f"need an odd prime, got ell={ell}")
    if modulus == 16 and ell % 8 != 7:
        raise ValueError(
            f"mod-16 family needs ell == 7 (mod 8); ell={ell} is {ell % 8} (mod 8)")
    return [CongruenceClaim(ell * ell, r * ell, modulus) for r in range(1, ell)]


def mod8_family_claims(ell: int) -> list[CongruenceClaim]:
    """The mod-8 claim families attached to an odd prime ell.

    ell^2*n + r*ell (mod 8) for every ell; 2*ell*n + r (mod 8) for odd
    nonresidues r; 3*ell*n + r (mod 8) for ell == +-3 (mod 8) and the
    Jacobi symbol (r/3ell) = (r/3)(r/ell) = -1; and ell*n + r for
    nonresidues r, mod 8 when ell == +-1 (mod 8), dropping to mod 4 when
    ell == +-3 (mod 8).  Residues are Legendre symbols (numtheory.legendre).
    """
    claims = ell_family_claims(ell, 8)
    claims += [
        CongruenceClaim(2 * ell, r, 8)
        for r in range(1, 2 * ell, 2) if legendre(r, ell) == -1
    ]
    if ell % 8 in (3, 5):
        claims += [
            CongruenceClaim(3 * ell, r, 8)
            for r in range(1, 3 * ell) if legendre(r, 3) * legendre(r, ell) == -1
        ]
    dichotomy_mod = 8 if ell % 8 in (1, 7) else 4
    claims += [
        CongruenceClaim(ell, r, dichotomy_mod)
        for r in range(1, ell) if legendre(r, ell) == -1
    ]
    return sorted(claims)


def verify_mod8_nonsquare(pbar: TruncatedSeries,
                          limit: int | None = None) -> VerificationReport:
    """pbar(n) == 0 (mod 8) whenever n is neither a square nor twice one."""
    limit = _window(pbar, limit, 8)
    keep = bytearray(b"\1") * (limit + 1)
    for k in range(isqrt(limit) + 1):
        keep[k * k] = 0
    for k in range(isqrt(limit // 2) + 1):
        keep[2 * k * k] = 0
    return _verdict("mod8-nonsquare", limit, _residues(pbar, 8, limit + 1), keep)


# tier -> (uses (-1)^n sign, the n mod 8 it leaves out, leaves out odd squares)
_4N_TIERS = {
    4: (False, (), False),
    8: (True, (), False),
    16: (True, (), False),
    32: (True, (), True),
    64: (True, (1, 2, 5), False),
    128: (True, (1, 2, 3, 5, 6, 7), False),
}


def _4n_check(modulus: int) -> str:
    """The identity id of one pbar(4n) tier; rejects moduli with no tier."""
    if modulus not in _4N_TIERS:
        raise ValueError(f"no tier mod {modulus}; tiers: {sorted(_4N_TIERS)}")
    return f"4n-vs-n-mod{modulus}"


def verify_4n_relations(pbar: TruncatedSeries, modulus: int,
                        limit: int | None = None) -> VerificationReport:
    """pbar(4n) == (-1)^n * pbar(n) (mod modulus) on the tier's n-set.

    Tiers: mod 4 (plus sign, all n), mod 8 and mod 16 (all n), mod 32
    (n not an odd square), mod 64 (n != 1, 2, 5 mod 8), mod 128
    (n == 0 mod 4).  Needs the series out to 4*limit.  The walk starts at
    n = 1: at n = 0 both sides are pbar(0) for any series, which checks
    nothing.
    """
    subject = _4n_check(modulus)
    limit = _window(pbar, limit, modulus, reach=4)
    signed, skip_mod8, skip_odd_squares = _4N_TIERS[modulus]
    # res[n] = pbar(4n) - (-1)^n pbar(n), the sign (r -> modulus - r) if signed
    y = bytearray(_residues(pbar, modulus, limit + 1))
    if signed:
        y[1::2] = y[1::2].translate(bytes(range(modulus, 0, -1)) * (256 // modulus))
    res = _sub(_residues(pbar, modulus, 0, 4 * limit + 1, 4), y, modulus)
    keep = bytearray(b"\1") * (limit + 1)
    keep[0] = 0
    for r in skip_mod8:
        keep[r::8] = bytes(len(range(r, limit + 1, 8)))
    if skip_odd_squares:
        for k in range(1, isqrt(limit) + 1, 2):
            keep[k * k] = 0
    return _verdict(subject, limit, res, keep)


def dissection_rhs_mod16(order: int) -> TruncatedSeries:
    """The 16-dissection of the pbar series, assembled from theta pieces,
    as a series mod 16.

    With A = phi(q^16), P = psi(q^32), P1 = psi1(q^16), P2 = psi2(q^16),
    D = phi(-q^16), the series equals A^12 / D^16 times a bracket whose
    q^j slots (j = 0..13, skipping 7) are polynomials in the pieces; the
    missing slots 7, 14, 15 are what make the mod-16 progressions at
    16n + 7, 14, 15 visible by construction.

    Every piece is a series in x = q^16, so each is built at order
    order // 16 in x.  The slot series F_j(x), times the prefactor
    A^12 / D^16, are then interleaved: coefficient k of slot j is the
    coefficient of q^(16k + j), cut at q^order.
    """
    ring = mod2_ring(4)
    m = order // 16
    A = theta.phi(m, ring)
    # the q^4 slot carries psi(q^16)^2, the one piece not expressible in
    # the q^16/q^32 pieces A, P, P1, P2, D; with psi(q^32)^2 in its place
    # the q^36 coefficient comes out wrong (the two differ by
    # 8*q^4*A^5*(...), visible mod 16 because this slot's prefactor is 2,
    # not 8)
    W = theta.psi(m, ring)
    P = W.substitute_power(2)
    P1 = theta.psi1(m, ring)
    P2 = theta.psi2(m, ring)
    D = theta.phi_neg(m, ring)
    # x needs order >= 1 to exist; below 16 the products cut it back to m = 0
    x = TruncatedSeries.monomial(ring, max(m, 1), 1)

    combo = x * P2 * P2 + P1 * P1  # q^16 psi2^2 + psi1^2, shows up four times
    Asq = A * A
    Psq = P * P
    slots = [
        (0, A * Asq),
        (1, -2 * (4 * x * Psq * P2 + 7 * Asq * P1)),
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
    # invert D before powering: phi(-x) is square-sparse, D^16 is not.
    # A^12 / D^16 == 1 (mod 8), and every slot past 0 carries a factor 2,
    # 4 or 8, so only slot 0 is multiplied by it
    prefactor = (A ** 12) * (D.invert() ** 16)
    out = bytearray(order + 1)
    for j, f in slots:
        out[j::16] = (prefactor * f if j == 0 else f).low_bytes()[:(order - j) // 16 + 1]
    return TruncatedSeries._from_bytes(ring, out)


def verify_dissection_mod16(pbar: TruncatedSeries,
                            limit: int | None = None) -> VerificationReport:
    """Rebuild the pbar series mod 16 from the theta-piece dissection and
    compare coefficientwise; also require the q^(16n+7), q^(16n+14) and
    q^(16n+15) columns of the rebuilt series to vanish identically."""
    limit = _window(pbar, limit, 16)
    rhs = dissection_rhs_mod16(limit).low_bytes()
    columns = (7, 14, 15)
    res = _sub(rhs, _residues(pbar, 16, limit + 1), 16)
    rep = _verdict("dissection-mod16", limit, res + b"".join(rhs[j::16] for j in columns))
    if rep.witness and rep.checks > limit + 1:  # a column's point: n from its place
        ns = [n for j in columns for n in range(j, limit + 1, 16)]
        rep = rep._replace(witness=(ns[rep.checks - limit - 2], rep.witness[1]))
    return rep


def combined_family_claims(kmax: int) -> list[CongruenceClaim]:
    """(16n+14 mod 16), (72n+69 mod 32), (8n+7 mod 64), each lifted by 4^k."""
    if kmax < 0:
        raise ValueError(f"kmax must be >= 0, got {kmax}")
    claims = []
    for k in range(kmax + 1):
        f = 4 ** k
        claims += [
            CongruenceClaim(16 * f, 14 * f, 16),
            CongruenceClaim(72 * f, 69 * f, 32),
            CongruenceClaim(8 * f, 7 * f, 64),
        ]
    return sorted(claims)


# fixed single-progression congruences used as a regression anchor:
# six published singles and six published mod-8 progressions
REGRESSION_CLAIMS = (
    CongruenceClaim(4, 3, 8),
    CongruenceClaim(5, 2, 4),
    CongruenceClaim(8, 5, 8),
    CongruenceClaim(8, 6, 8),
    CongruenceClaim(8, 7, 64),
    CongruenceClaim(12, 10, 8),
    CongruenceClaim(16, 10, 8),
    CongruenceClaim(20, 6, 8),
    CongruenceClaim(20, 14, 8),
    CongruenceClaim(24, 17, 16),
    CongruenceClaim(48, 26, 8),
    CongruenceClaim(72, 69, 32),
)


def _concat(*suites: str) -> list:
    return [check for suite in suites for check in suite_checks(suite)]


# The identity checks: id -> (the modulus it reads, its reach, a call of
# its verifier).  A check of reach r reads coefficients out to q^(r*limit).
# Each row names its verifier inside a lambda, so the verifier is looked up
# by its module-level name when the check runs and a wrapper installed on
# the module sees every call.
IDENTITIES = {
    "mod8-nonsquare": (8, 1, lambda pbar, limit: verify_mod8_nonsquare(pbar, limit)),
    "dissection-mod16": (16, 1, lambda pbar, limit: verify_dissection_mod16(pbar, limit)),
    **{_4n_check(m): (m, 4, lambda pbar, limit, m=m: verify_4n_relations(pbar, m, limit))
       for m in _4N_TIERS},
}


# The suites of `overpart verify`: name -> the checks it runs.  A check is
# a CongruenceClaim or a key of IDENTITIES, the same value its report
# carries as subject.  A name ending in ":X" or ":X,Y,Z" takes that many
# integer parameters.
SUITES = {
    "thm-16n14": lambda: [CongruenceClaim(16, 14, 16)],
    "thm-ell:L": lambda ell: ell_family_claims(ell, 16),
    "thm-4n:M": lambda modulus: [_4n_check(modulus)],
    "dissection": lambda: ["dissection-mod16"],
    "kim8": lambda: ["mod8-nonsquare"],
    "families8:L": mod8_family_claims,
    # one progression of the caller's choosing, true or not
    "claim:A,B,M": lambda A, B, M: [CongruenceClaim(A, B, M)],
    # everything with a fixed published form
    "known-table": lambda: [*REGRESSION_CLAIMS, *_concat(
        "kim8", *(f"families8:{ell}" for ell in (3, 5, 7, 11, 13)))],
    "combined": lambda: combined_family_claims(2),
    "all": lambda: _concat(
        "known-table", "thm-16n14", "thm-ell:7", "thm-ell:23",
        *(f"thm-4n:{m}" for m in _4N_TIERS), "dissection", "combined"),
}


def suite_checks(suite: str) -> list:
    """The checks a named suite runs, e.g. "thm-ell:7" or "all"."""
    head, colon, tail = suite.partition(":")
    for name, build in SUITES.items():
        if name.partition(":")[:2] != (head, colon):
            continue
        if not colon:
            return build()
        try:
            params = [int(p) for p in tail.split(",")]
        except ValueError:
            params = []
        if len(params) != name.count(",") + 1:
            raise ValueError(f"suite {name} wants integers "
                             f"{name.partition(':')[2]}, got {tail!r}")
        return build(*params)
    raise ValueError(f"unknown suite {suite!r}; suites: {', '.join(SUITES)}")


def _reads(check) -> tuple[int, int]:
    """The modulus of the residues a check reads, and its reach."""
    if isinstance(check, CongruenceClaim):
        return check.M, 1
    return IDENTITIES[check][:2]


def series_order(checks, limit: int) -> tuple[int, CoeffRing]:
    """The order and ring a series needs to run checks over the window
    [0, limit]: the order is the largest reach times limit, and the ring
    is Z/2^j for 2^j the largest modulus the checks read, or Z past 2^64."""
    top, reach = map(max, zip(*map(_reads, checks)))
    return reach * limit, EXACT if top > 1 << 64 else mod2_ring(top.bit_length() - 1)


def run_checks(checks, pbar: TruncatedSeries,
               limit: int | None = None) -> list[VerificationReport]:
    """One report per check, in order."""
    return [verify_progression(pbar, c, limit) if isinstance(c, CongruenceClaim)
            else IDENTITIES[c][2](pbar, limit) for c in checks]


def known_claims() -> frozenset:
    """Every (A, B, M) that `verify all` checks, for flagging scan hits."""
    return frozenset(c for c in suite_checks("all") if isinstance(c, CongruenceClaim))


def scan_plan(amax: int, mods, limit: int,
              min_checks: int) -> tuple[list[int], CoeffRing]:
    """The sorted moduli of a scan over the window [0, limit] and the ring
    Z/2^j, 2^j = max(mods), its series needs.  Rejects a scan that would
    check nothing: no modulus, a modulus outside _SCAN_MODULI, amax or
    min_checks below 1, a negative limit, or a window of fewer than
    min_checks points."""
    mods = sorted(set(mods))
    if not mods:
        raise ValueError(f"scan needs at least one modulus from {_SCAN_MODULI}")
    for m in mods:
        if m not in _SCAN_MODULI:
            raise ValueError(f"scan moduli limited to {_SCAN_MODULI}, got {m}")
    if amax < 1:
        raise ValueError(f"amax must be >= 1, got {amax}")
    if min_checks < 1:
        raise ValueError(f"min_checks must be >= 1, got {min_checks}")
    if limit < 0:
        raise ValueError(f"window bound must be >= 0, got {limit}")
    if limit + 1 < min_checks:
        raise ValueError(
            f"window [0, {limit}] holds {limit + 1} points, fewer than "
            f"min_checks={min_checks}: no progression can be checked")
    return mods, mod2_ring(mods[-1].bit_length() - 1)


def _valuations(pbar: TruncatedSeries, limit: int, j: int) -> bytes:
    """min(v2(pbar(n)), j) per n <= limit, 1 <= j <= 8: pbar's low bytes,
    translated by a table of their valuations, v2(0) counted as j."""
    table = bytes(min((r & -r).bit_length() - 1, j) if r else j for r in range(256))
    return pbar.low_bytes()[:limit + 1].translate(table)


def scan_congruences(pbar: TruncatedSeries, amax: int, mods,
                     limit: int | None = None,
                     min_checks: int = 50) -> list[ScanHit]:
    """Every (A <= amax, 0 <= B < A, M in mods) with no counterexample in
    the window and at least min_checks tested points.

    The window is read once, as one byte per n: the 2-adic valuation of
    pbar(n), capped at j for 2^j = max(mods).  A row An + B is one slice
    of that string; its least valuation v makes it a hit for every M <=
    2^v in mods, so a row costs the same however many moduli are asked
    for.  v is found by asking the slice for 0, 1, ..., j - 1 in turn,
    each a memchr: pbar(n) is odd only at n = 0 and 2 mod 4 exactly at
    the positive squares, so most rows stop at 0 or 1.  Only the rows
    that hold min_checks points are read.  Hits come in (A, B, M) order.

    Finite evidence only.  B = 0 rows include n = 0, where pbar(0) = 1
    kills the claim immediately; that is intentional (a congruence that
    fails at zero is not a congruence).  Progressions with fewer than
    min_checks points in the window are suppressed rather than reported
    on thin evidence.  The arguments are checked by scan_plan, and the
    series must reach the window in a ring that holds 2^j.
    """
    mods, _ = scan_plan(amax, mods, pbar.order if limit is None else limit,
                        min_checks)
    top = mods[-1]
    j = top.bit_length() - 1
    limit = _window(pbar, limit, top)
    known = known_claims()
    val = _valuations(pbar, limit, j)
    # 2^v divides a whole row whose least valuation is v: it clears M <= 2^v
    clears = [[M for M in mods if M <= 1 << v] for v in range(j + 1)]
    rows = []
    # row An + B holds at least min_checks points iff B + span*A <= limit
    span = min_checks - 1
    if span:
        amax = min(amax, limit // span)
    for A in range(1, amax + 1):
        for B in range(min(A, limit - span * A + 1)):
            row = val[B::A]
            v = 0
            while v < j and v not in row:
                v += 1
            if clears[v]:
                rows.append((A, B, len(row), clears[v]))
    # a plain (A, B, M) hashes and compares as the claim it names
    hits = ((A, B, M, n, "KNOWN" if (A, B, M) in known else "CANDIDATE")
            for A, B, n, ms in rows for M in ms)
    # ScanHit's generated __new__ checks nothing, so tuple.__new__ skips
    # only its argument parsing; each plain tuple is freed once copied
    return list(map(tuple.__new__, repeat(ScanHit), hits))
