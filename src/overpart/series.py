"""Truncated power series over exact integers or integers mod 2**m.

A TruncatedSeries holds coefficients of q^0 .. q^order and nothing else.
Reading past the truncation order is a hard error, never a silent zero:
every coefficient an operation reports is one it actually knows.

Binary operations require the two operands to share a ring and truncate
the result to the shorter operand's order.  Division a / d is the one
recurrence in the package, with inversion as 1 / d, and it groups the
terms of d by value: one add per term plus one multiply per distinct
value.  In Z/2**m it runs in blocks of B coefficients, B = _block(order)
a power of two near sqrt(order) and at least 64.  Lags below B are added
one coefficient at a time; each lag of B or more reads only finished
blocks, so it is summed for a whole block at once as a slice of one
packed byte buffer.  A dense divisor with all-distinct coefficients then
pays one slice per term and block rather than one multiply per term and
coefficient.  In Z the coefficients grow without bound, no fixed slot
width holds them, and the whole series is one block.  All series are
immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt
from typing import Iterable, Sequence


@dataclass(frozen=True)
class CoeffRing:
    """Coefficient ring: exact integers when bits is None, else Z/2**bits.

    Modular coefficients are stored reduced into [0, 2**bits).  bits is
    capped at 64; larger two-power moduli are outside the contract and
    exact arithmetic covers them anyway.
    """

    bits: int | None = None

    def __post_init__(self):
        if self.bits is not None and not 1 <= self.bits <= 64:
            raise ValueError(f"modulus width must be 1..64 bits, got {self.bits}")

    @property
    def is_exact(self) -> bool:
        return self.bits is None

    @property
    def mask(self) -> int | None:
        return None if self.bits is None else (1 << self.bits) - 1

    def is_unit(self, x: int) -> bool:
        if self.bits is None:
            return x in (1, -1)
        return x & 1 == 1

    def invert_unit(self, x: int) -> int:
        if not self.is_unit(x):
            raise ValueError(f"constant term {x} is not a unit in {self}")
        if self.bits is None:
            return x  # 1 or -1, self-inverse
        return pow(x, -1, 1 << self.bits)

    def __str__(self):
        return "Z" if self.bits is None else f"Z/2^{self.bits}"


EXACT = CoeffRing()


def mod2_ring(bits: int) -> CoeffRing:
    """The ring Z/2**bits, 1 <= bits <= 64."""
    return CoeffRing(bits)


# The library default when a caller names no ring: wide enough for every
# modulus in scope (<= 2^7).  The CLI builds each run in the ring its
# checks read instead (congruence.series_order), and the 2-adic source
# carries its own Z/2^(K+1).
DEFAULT_RING = mod2_ring(32)


def _block(order: int) -> int:
    """Quotient coefficients per block of the division recurrence in Z/2**m:
    the least power of two above sqrt(order), and at least 64.

    A block costs one slice per far term and one unpack, and the per-n
    loop one add per near term, so the two balance near sqrt(order).  It
    picks 256 at 4*10^4 and 1024 at 4*10^5.  Timing 1 / phi(-q) mod 2^7,
    blocks from about sqrt(order) / 2 to 2 sqrt(order) were within noise
    of each other at both orders, and 64 was slower at 4*10^4.
    """
    return max(64, 1 << isqrt(order).bit_length())


def _pack(vals: Sequence[int], sb: int) -> int:
    """Pack signed slot values into one integer, sb bytes per slot."""
    pos = bytearray(len(vals) * sb)
    neg = bytearray(len(vals) * sb)
    for i, c in enumerate(vals):
        if c > 0:
            pos[i * sb:(i + 1) * sb] = c.to_bytes(sb, "little")
        elif c < 0:
            neg[i * sb:(i + 1) * sb] = (-c).to_bytes(sb, "little")
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


def _convolve(a: Sequence[int], b: Sequence[int], outlen: int) -> list[int]:
    """First outlen coefficients of the product, by Kronecker substitution.

    Both operands are packed into big integers with a fixed slot width
    chosen so no convolution sum can reach a neighboring slot; one native
    multiply then performs the whole convolution exactly.  Slots are
    signed, so the product is re-biased by half a slot before unpacking.
    """
    a = a[:outlen]
    b = b[:outlen]
    amax = max(map(abs, a))
    bmax = max(map(abs, b))
    if amax == 0 or bmax == 0:
        return [0] * outlen
    # |sum| <= amax*bmax*min(len), two spare bits keep it under half a slot
    slot_bits = (amax * bmax * min(len(a), len(b))).bit_length() + 2
    sb = (slot_bits + 7) // 8
    slot_bits = sb * 8
    prod = _pack(a, sb) * _pack(b, sb)
    half = 1 << (slot_bits - 1)
    bias = int.from_bytes(half.to_bytes(sb, "little") * outlen, "little")
    low = (prod + bias) & ((1 << (outlen * slot_bits)) - 1)
    data = low.to_bytes(outlen * sb, "little")
    return [
        int.from_bytes(data[i * sb:(i + 1) * sb], "little") - half
        for i in range(outlen)
    ]


class TruncatedSeries:
    """Power series known exactly up to q^order."""

    __slots__ = ("ring", "_coeffs")

    def __init__(self, ring: CoeffRing, coeffs: Iterable[int]):
        # the one place coefficients are reduced into the ring
        m = ring.mask
        coeffs = tuple(coeffs) if m is None else tuple(c & m for c in coeffs)
        if not coeffs:
            raise ValueError("a series needs at least the q^0 coefficient")
        object.__setattr__(self, "ring", ring)
        object.__setattr__(self, "_coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    # -- construction helpers ------------------------------------------

    @classmethod
    def zero(cls, ring: CoeffRing, order: int) -> "TruncatedSeries":
        return cls(ring, [0] * (order + 1))

    @classmethod
    def one(cls, ring: CoeffRing, order: int) -> "TruncatedSeries":
        return cls(ring, [1] + [0] * order)

    @classmethod
    def monomial(cls, ring: CoeffRing, order: int, exponent: int,
                 coeff: int = 1) -> "TruncatedSeries":
        if not 0 <= exponent <= order:
            raise ValueError(f"monomial exponent {exponent} outside 0..{order}")
        c = [0] * (order + 1)
        c[exponent] = coeff
        return cls(ring, c)

    # -- inspection ----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coeffs(self) -> tuple:
        return self._coeffs

    def __getitem__(self, n: int) -> int:
        """Coefficient of q^n.  n past the truncation order is an error."""
        if not 0 <= n <= self.order:
            raise IndexError(
                f"coefficient of q^{n} requested, series only known to q^{self.order}")
        return self._coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ring == other.ring and self._coeffs == other._coeffs

    def __hash__(self):
        return hash((self.ring, self._coeffs))

    def __repr__(self):
        terms = []
        for n, c in enumerate(self._coeffs):
            if c:
                terms.append(f"{c}" if n == 0 else f"{c}*q^{n}")
            if len(terms) == 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<series {body} (order {self.order}, {self.ring})>"

    def is_zero(self) -> bool:
        return not any(self._coeffs)

    # -- arithmetic ----------------------------------------------------

    def _common(self, other) -> int:
        if not isinstance(other, TruncatedSeries):
            raise TypeError(f"expected TruncatedSeries, got {type(other).__name__}")
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._common(other)
        return TruncatedSeries(
            self.ring, [x + y for x, y in zip(self._coeffs, other._coeffs)])

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        self._common(other)
        return TruncatedSeries(
            self.ring, [x - y for x, y in zip(self._coeffs, other._coeffs)])

    def __neg__(self):
        return TruncatedSeries(self.ring, [-x for x in self._coeffs])

    def __mul__(self, other):
        if isinstance(other, int):
            return TruncatedSeries(self.ring, [other * x for x in self._coeffs])
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        outlen = self._common(other) + 1
        prod = _convolve(self._coeffs, other._coeffs, outlen)
        return TruncatedSeries(self.ring, prod)

    __rmul__ = __mul__

    def __pow__(self, e: int):
        if not isinstance(e, int) or e < 0:
            raise ValueError(f"series exponent must be a nonnegative int, got {e}")
        result = TruncatedSeries.one(self.ring, self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __truediv__(self, other):
        """Quotient self / other, truncated to the shorter order.

        Linear recurrence for a / d, with the terms of d grouped by value:

            c(n) = d(0)^-1 * (a(n) - sum_v v * sum_{i in S_v, i <= n} c(n - i))

        where S_v holds the exponents i >= 1 with d(i) = v.  The quotient
        is built in blocks [b, e) of B = _block(order) coefficients.  A
        near lag i < B is added in the per-n loop, one add per term and one
        multiply per distinct value.  A far lag i >= B reads only
        coefficients of earlier blocks, so for each block and each value v
        the far terms are summed once for the whole block: c is kept
        packed in a little-endian byte buffer, each lag contributes one
        int.from_bytes slice at offset b - i, and one multiply by v and
        one unpack per block finish the sums.

        In Z/2**m every coefficient lies in [0, 2**m), so a slot of
        2m + bit_length(#far lags) bits holds a block sum without
        carrying into its neighbour.  In Z the coefficients of 1 / phi(-q)
        grow like e^(pi sqrt n), so no fixed slot fits; the block is the
        whole series there, no lag is far, and the per-n loop does all the
        work.  d(0) must be a unit: +-1 exactly, or odd mod 2**m.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = self._common(other)
        d = other._coeffs
        inv0 = self.ring.invert_unit(d[0])
        bits = self.ring.bits
        if bits is None:
            m, block = -1, order + 1  # x & -1 == x; one block, no far lags
        else:
            m, block = self.ring.mask, _block(order)
        nfar = sum(1 for x in d[block:order + 1] if x)
        # w bytes per slot (0 in Z); the buffer opens with block - 1 zero
        # slots, so a far lag that reaches before q^0 reads zeros
        w = (2 * (bits or 0) + nfar.bit_length() + 7) // 8
        buf = bytearray((block - 1) * w)
        near = {}  # v -> the exponents 1 <= i <= n, i < block, with d(i) = v
        far = {}   # v -> the exponents block <= i < e with d(i) = v
        c = list(self._coeffs[:order + 1])
        for b in range(0, order + 1, block):
            e = min(b + block, order + 1)
            for i in range(max(b, block), e):
                if d[i]:
                    far.setdefault(d[i], []).append(i)
            sums = [0] * (e - b)  # the far part of each c(n) in the block
            if far:
                span = (e - b) * w
                total = 0
                for v, exps in far.items():
                    t = 0
                    for i in exps:
                        o = (b - i + block - 1) * w
                        t += int.from_bytes(buf[o:o + span], "little")
                    total += v * t
                packed = total.to_bytes(span, "little")
                sums = [int.from_bytes(packed[k:k + w], "little")
                        for k in range(0, span, w)]
            for n, s in zip(range(b, e), sums):
                if n and n < block and d[n]:
                    near.setdefault(d[n], []).append(n)
                s = c[n] - s
                for v, exps in near.items():
                    t = 0
                    for i in exps:
                        t += c[n - i]
                    s -= v * t
                c[n] = inv0 * s & m
            if nfar:
                buf += b"".join(x.to_bytes(w, "little") for x in c[b:e])
        return TruncatedSeries(self.ring, c)

    def invert(self) -> "TruncatedSeries":
        """Multiplicative inverse to the same order: one / self."""
        return TruncatedSeries.one(self.ring, self.order) / self

    # -- reindexing ----------------------------------------------------

    def shift(self, k: int) -> "TruncatedSeries":
        """Multiply by q^k: coefficients move up, the tail truncates away."""
        if k < 0:
            raise ValueError(f"shift must be nonnegative, got {k}")
        if k > self.order:
            return TruncatedSeries.zero(self.ring, self.order)
        return TruncatedSeries(
            self.ring, (0,) * k + self._coeffs[:len(self._coeffs) - k])

    def substitute_power(self, t: int) -> "TruncatedSeries":
        """q -> q^t.  Result keeps this order, reading source up to order//t."""
        if t < 1:
            raise ValueError(f"substitution power must be >= 1, got {t}")
        out = [0] * len(self._coeffs)
        for i in range(self.order // t + 1):
            out[i * t] = self._coeffs[i]
        return TruncatedSeries(self.ring, out)

    def dissect(self, t: int, r: int) -> "TruncatedSeries":
        """Arithmetic-progression slice: result(n) = self(t*n + r).

        Requires 0 <= r < t and r <= order (the slice's constant term must
        be a known coefficient; fabricating it would break the truncation
        contract).  Result order is (order - r) // t.
        """
        if t < 1 or not 0 <= r < t:
            raise ValueError(f"dissection needs t >= 1 and 0 <= r < t, got t={t} r={r}")
        if r > self.order:
            raise ValueError(
                f"dissection residue {r} past truncation order {self.order}")
        return TruncatedSeries(self.ring, self._coeffs[r::t])

    def reduce_mod(self, j: int) -> "TruncatedSeries":
        """Reduce every coefficient into [0, 2**j); ring becomes Z/2**j.

        j may not exceed the current ring width: widening would fabricate
        bits the series does not carry.
        """
        ring = mod2_ring(j)
        if self.ring.bits is not None and j > self.ring.bits:
            raise ValueError(
                f"cannot widen {self.ring} to {ring}; bits above {self.ring.bits} are unknown")
        m = ring.mask
        return TruncatedSeries(ring, [c & m for c in self._coeffs])
