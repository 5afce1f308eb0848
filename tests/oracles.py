"""Slow reference implementations, independent of the package internals.

Everything here is written the obvious quadratic way so it can serve as
a cross-check for the packed-integer convolution and the inversion
recurrence.  Nothing in this module imports from overpart.
"""

from itertools import compress, islice
from math import isqrt
from operator import add, sub
from typing import NamedTuple


def schoolbook_mul(a, b, outlen, mask=None):
    """Plain double-loop convolution of coefficient lists."""
    out = [0] * outlen
    for i, x in enumerate(a):
        if i >= outlen or not x:
            continue
        for j, y in enumerate(b):
            if i + j >= outlen:
                break
            out[i + j] += x * y
    if mask is not None:
        out = [v & mask for v in out]
    return out


def schoolbook_invert(a, mask=None):
    """Coefficients of 1/A(q) to the same length, by back-substitution.

    a[0] must be a unit: +-1 exactly, or odd when mask is given.
    """
    n = len(a)
    if mask is None:
        inv0 = a[0]  # only +-1 divides 1 in Z
        assert a[0] in (1, -1)
    else:
        inv0 = pow(a[0], -1, mask + 1)
    out = [0] * n
    out[0] = inv0 if mask is None else inv0 & mask
    for k in range(1, n):
        s = 0
        for i in range(1, k + 1):
            if i < len(a) and a[i]:
                s += a[i] * out[k - i]
        v = -inv0 * s
        out[k] = v if mask is None else v & mask
    return out


def recur_grouped(a, d, n, inv0, mask):
    """First n coefficients of a / d, the division recurrence with the
    terms of d grouped by value and summed in a plain loop:

        c(k) = inv0 * (a(k) - sum_v v * sum_{i in S_v, i <= k} c(k - i))

    where S_v holds the exponents i >= 1 with d(i) = v, and each c(k) is
    reduced by & mask (-1 in Z).  The reference for series._recur, which
    takes the same arguments.
    """
    c = list(a[:n])
    groups = {}  # v -> the exponents 1 <= i <= k with d(i) = v
    for k in range(n):
        if k and d[k]:
            groups.setdefault(d[k], []).append(k)
        s = c[k]
        for v, exps in groups.items():
            t = 0
            for i in exps:
                t += c[k - i]
            s -= v * t
        c[k] = inv0 * s & mask
    return c


def euler_product(n_max, sign, mask=None):
    """prod_{k=1}^{n_max} (1 + sign*q^k) to q^n_max, one factor at a time.

    sign -1 gives (q; q)_inf, sign +1 gives (-q; q)_inf.  The dense
    quadratic expansion of the defining product, with no theta series or
    division involved.
    """
    c = [1] + [0] * n_max
    for k in range(1, n_max + 1):
        # times (1 + sign*q^k), top coefficient first so c[n-k] is still old
        for n in range(n_max, k - 1, -1):
            c[n] += sign * c[n - k]
        if mask is not None:
            c = [v & mask for v in c]
    return c


def jacobi_cube(order, mask=None):
    """(q; q)_inf^3 to q^order by Jacobi's one-sided sum,
    sum_{n >= 0} (-1)^n (2n+1) q^(n(n+1)/2): one term per triangular
    number, each coefficient & mask."""
    m = -1 if mask is None else mask
    c = [0] * (order + 1)
    n = 0
    while n * (n + 1) // 2 <= order:
        c[n * (n + 1) // 2] = (-2 * n - 1 if n & 1 else 2 * n + 1) & m
        n += 1
    return c


def bilateral_walk(order, up, down, signed=False, mask=None):
    """sum over n in Z of (-1)^n if signed at q^e(n), to q^order, with
    e(k) = up(k) and e(-k) = down(k) for k >= 0.

    Walks k = 0, 1, 2, ... outward until both exponents pass the order,
    with no bound on the range of n assumed in advance.
    """
    c = [0] * (order + 1)
    k = 0
    while True:
        term = -1 if signed and k & 1 else 1
        hi, lo = up(k), down(k)
        if hi <= order:
            c[hi] += term
        if k and lo <= order:
            c[lo] += term
        if hi > order and lo > order:
            break
        k += 1
    if mask is not None:
        c = [v & mask for v in c]
    return c


def legendre_by_squares(a, p):
    """Legendre symbol (a/p) for an odd prime p, read off the set of
    squares mod p: 0 when p | a, 1 when a is a nonzero square, else -1."""
    if a % p == 0:
        return 0
    return 1 if a % p in {x * x % p for x in range(1, p)} else -1


class SquareKind(NamedTuple):
    is_square: bool
    is_twice_square: bool
    is_odd_square: bool


def square_predicates(n):
    """Square / twice-a-square / odd-square tests, one n at a time: the
    reference for the verifiers' byte masks."""
    if n < 0:
        raise ValueError(f"predicates defined for n >= 0, got {n}")
    r = isqrt(n)
    is_sq = r * r == n
    h = isqrt(n // 2)
    is_twice = n % 2 == 0 and 2 * h * h == n
    return SquareKind(is_sq, is_twice, is_sq and r & 1 == 1)


def is_zero(series):
    """Whether every coefficient a series holds, to its order, is 0."""
    return not any(series.coeffs)


def residue_walk(ns, values, modulus):
    """The verdict on the points ns and their values, walked one pair at a
    time with each residue taken as value & (modulus - 1):
    ("Counterexample", (n, residue), checks) at the first nonzero residue,
    else ("Verified", None, checks), or ("Skipped", None, 0) with no pair.
    The reference for the verifiers' byte walk."""
    checks = 0
    for n, v in zip(ns, values):
        checks += 1
        if v & (modulus - 1):
            return "Counterexample", (n, v & (modulus - 1)), checks
    return ("Verified" if checks else "Skipped"), None, checks


def progression_walk(co, A, B, M, limit):
    """pbar(A*n + B) == 0 (mod M) for every A*n + B <= limit."""
    row = co[B:limit + 1:A]
    return residue_walk(range(len(row)), row, M)


def nonsquare_points(limit):
    """The n <= limit that are neither a square nor twice one."""
    return [n for n in range(limit + 1)
            if not any(square_predicates(n)[:2])]


def nonsquare_walk(co, limit):
    """pbar(n) == 0 (mod 8) at every nonsquare_points(limit)."""
    ns = nonsquare_points(limit)
    return residue_walk(ns, [co[n] for n in ns], 8)


def tier_points(modulus, limit):
    """The n-set of the pbar(4n) tier mod modulus, from n = 1 to limit:
    every n at mod 4, 8 and 16; n not an odd square at mod 32; n not 1, 2
    or 5 mod 8 at mod 64; n == 0 mod 4 at mod 128."""
    keep = {4: lambda n: True, 8: lambda n: True, 16: lambda n: True,
            32: lambda n: not square_predicates(n).is_odd_square,
            64: lambda n: n % 8 not in (1, 2, 5),
            128: lambda n: n % 4 == 0}[modulus]
    return [n for n in range(1, limit + 1) if keep(n)]


def tier_differences(co, modulus, limit):
    """pbar(4n) - (-1)^n pbar(n) for n = 0..limit, with no sign at mod 4."""
    values = list(map(sub, co[:4 * limit + 1:4], co[:limit + 1]))
    if modulus > 4:
        values[1::2] = map(add, co[4:4 * limit + 1:8], co[1:limit + 1:2])
    return values


def tier_walk(co, modulus, limit):
    """pbar(4n) == (-1)^n pbar(n) (mod modulus), with no sign at mod 4, at
    every tier_points(modulus, limit), from a list of differences."""
    values = tier_differences(co, modulus, limit)
    ns = tier_points(modulus, limit)
    return residue_walk(ns, [values[n] for n in ns], modulus)


def compress_verdict(values, keep, modulus):
    """The verdict on the points n with keep[n] set, the way the verifiers
    once took it: the residues of the kept points picked out of one bytes
    by itertools.compress, the first nonzero one found by lstrip, and the
    points, a compress iterator, read only to name the witness.  Returns
    (status, witness, checks) as residue_walk does."""
    res = bytes(compress([v & (modulus - 1) for v in values], keep))
    rest = res.lstrip(b"\0")
    if not rest:
        return ("Verified" if res else "Skipped"), None, len(res)
    k = len(res) - len(rest)
    n = next(islice(compress(range(len(keep)), keep), k, None))
    return "Counterexample", (n, res[k]), k + 1


def dissection_walk(co, rhs, limit):
    """rhs(n) - pbar(n) == 0 (mod 16) for every n <= limit, then rhs(n) ==
    0 (mod 16) on the columns n == 7, 14, 15 mod 16, in that order."""
    columns = [range(j, limit + 1, 16) for j in (7, 14, 15)]
    ns = [*range(limit + 1), *(n for c in columns for n in c)]
    values = [rhs[n] - co[n] for n in range(limit + 1)]
    values += [rhs[n] for c in columns for n in c]
    return residue_walk(ns, values, 16)


def square_indicator(order):
    """S(q) = q + q^4 + q^9 + ... to q^order: 1 at the positive squares."""
    squares = [0] * (order + 1)
    s = 1
    while s * s <= order:
        squares[s * s] = 1
        s += 1
    return squares


def two_adic_by_counts(order, depth, mask=None):
    """1 + sum_{k=1..depth} 2^k sum_n (-1)^(n+k) c_k(n) q^n, one (n, k) at a time.

    Row c_k is the k-th power of the square indicator, by repeated
    schoolbook multiplication.
    """
    squares = square_indicator(order)
    out = [1] + [0] * order
    ck = [1] + [0] * order  # c_0
    for k in range(1, depth + 1):
        ck = schoolbook_mul(squares, ck, order + 1)
        for n in range(order + 1):
            term = ck[n] << k
            out[n] += -term if (n + k) & 1 else term
    if mask is not None:
        out = [v & mask for v in out]
    return out


def two_adic_by_horner(order, depth):
    """sum_{k=0..depth} X^k, X = -2 S(-q), in Z/2^(depth+1): Horner's rule
    T <- 1 + X T from T = 1, depth times.

    T is packed in one integer, coefficient n in slot order - n, and X T is
    the signed sum of T's right shifts by the squares, smallest shift first.
    """
    m = depth + 1
    r = isqrt(order)
    sb = (m + 1 + r.bit_length() + 7) // 8
    w = 8 * sb
    plus = [s * s * w - 1 for s in range(1, r + 1, 2)]
    minus = [s * s * w - 1 for s in range(2, r + 1, 2)]
    ones = int.from_bytes((1).to_bytes(sb, "big") * (order + 1), "big")
    mask = ones * ((1 << m) - 1)
    one = 1 << (order * w)
    lift = ones * (len(minus) << (m + 1)) + one
    t = one
    for _ in range(depth):
        t = lift + sum(map(t.__rshift__, plus)) - sum(map(t.__rshift__, minus)) & mask
    data = t.to_bytes((order + 1) * sb, "big")
    return [int.from_bytes(data[i:i + sb], "big") for i in range(0, len(data), sb)]


def pbar_by_recurrence(n_max):
    """Overpartition counts from scratch: expand the defining product.

    Multiplies out prod (1+q^k)/(1-q^k) one factor at a time using only
    list arithmetic.  Independent of the series machinery.
    """
    c = [0] * (n_max + 1)
    c[0] = 1
    for k in range(1, n_max + 1):
        # times (1 + q^k)
        for n in range(n_max, k - 1, -1):
            c[n] += c[n - k]
        # divide by (1 - q^k): cumulative sums with stride k
        for n in range(k, n_max + 1):
            c[n] += c[n - k]
    return c


def count_by_enumeration(n):
    """pbar(n) straight from the definition: sum over partitions of
    2^(distinct part sizes).  Enumeration, so small n only."""
    if not 0 <= n <= 60:
        raise ValueError(f"enumeration supports 0 <= n <= 60, got {n}")

    def walk(remaining, largest_allowed):
        # choose the largest part value and its multiplicity, recurse on
        # strictly smaller values; the chosen value is one distinct size
        if remaining == 0:
            return 1
        total = 0
        for v in range(min(remaining, largest_allowed), 0, -1):
            picked = v
            while picked <= remaining:
                total += 2 * walk(remaining - picked, v - 1)
                picked += v
        return total

    return walk(n, n)


def ck_bruteforce(k, n):
    """c_k(n), the ordered k-tuples of positive squares summing to n, by
    direct enumeration.

    Exponential in k; capped to stay honest about what it can enumerate.
    """
    if not 1 <= k <= 8:
        raise ValueError(f"brute force supports 1 <= k <= 8, got k={k}")
    if not 0 <= n <= 10_000:
        raise ValueError(f"brute force supports 0 <= n <= 10000, got n={n}")

    def rec(parts_left, target):
        if parts_left == 0:
            return 1 if target == 0 else 0
        total = 0
        a = 1
        while a * a <= target:
            total += rec(parts_left - 1, target - a * a)
            a += 1
        return total

    return rec(k, n)


def report_json_dict(report, source):
    """A verify report as the object the CLI writes for it, built from the
    record's fields: a claim subject (A, B, M) as {A, B, M}, an identity id
    as itself, the witness only when there is one, and checks left out."""
    subject = report.subject
    doc = {"claim": subject if isinstance(subject, str) else dict(zip("ABM", subject)),
           "status": report.status, "range": report.range_checked}
    if report.witness is not None:
        doc["witness"] = dict(zip(("n", "value"), report.witness))
    doc["source"] = source
    return doc


def hit_json_dict(hit):
    """A scan hit as the object the CLI writes for it, from its fields."""
    return {"claim": dict(zip("ABM", hit.claim)), "checks": hit.checks,
            "label": hit.label}
