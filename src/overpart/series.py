"""Truncated power series over exact integers or integers mod 2**m.

A TruncatedSeries holds coefficients of q^0 .. q^order and nothing else.
Reading past the truncation order is a hard error, never a silent zero:
every coefficient an operation reports is one it actually knows.

Binary operations require the two operands to share a ring and truncate
the result to the shorter operand's order.  A product is one multiply of
packed integers (Kronecker substitution).  In Z, _convolve packs each
operand with half a slot added to every value, in slots wide enough for
the product, and reads the product back as the same unsigned slots.  In
Z/2**m a series has three forms, a coefficient tuple, one packed integer
and low_bytes(), its coefficients mod 256 as one bytes; each is made from
another on first need and kept.  The packed integer's _width(order,
m)-byte slots hold (2**m - 1)**2 * (order + 1), so a product, sum or int
multiple is one bigint op and one & with a repeated 2**m - 1.  Such a
result holds only its packed form, and a chain of them is unpacked once,
when its coefficients are read.  The low bytes are the low byte of every
slot; in a ring of at most 8 bits they are the values themselves, so
there a quotient holds only them, and its tuple and packed integer are
made from them.  A difference a - b is a + -b in both rings.

Division a / d, with inversion as 1 / d, has one recurrence, _recur: per
quotient coefficient, one sum in C for each value that recurs among the
terms of d, and one weighted sum in C for all the values that occur once.
In Z it is the whole division, and when d is a series in q^t, t >= 2, it
runs the t residue chains of the quotient at once, as checked lanes of
one integer; in Z/2**m it only inverts d to the block order B =
_block(order, m), and each block of B quotient coefficients is one
multiply by that inverse (see __truediv__).  All series are immutable;
the public constructor alone reduces its coefficients into the ring.
"""

from __future__ import annotations

import struct
from bisect import bisect_left
from collections import Counter, namedtuple
from collections.abc import Iterable, Sequence
from itertools import chain, compress, repeat
from math import gcd
from operator import add, itemgetter, lshift, mul, rshift, sub


class CoeffRing(namedtuple("CoeffRing", "bits")):
    """Coefficient ring: exact integers when bits is None, else Z/2**bits.

    Modular coefficients are stored reduced into [0, 2**bits).  bits is
    capped at 64; larger two-power moduli are outside the contract and
    exact arithmetic covers them anyway.  A ring is the named tuple (bits,),
    and _make and _replace check the width as the constructor does.
    """

    __slots__ = ()

    def __new__(cls, bits: int | None = None):
        if bits is not None and not 1 <= bits <= 64:
            raise ValueError(f"modulus width must be 1..64 bits, got {bits}")
        return tuple.__new__(cls, (bits,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace calls it

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


def _block(order: int, bits: int) -> int:
    """Quotient coefficients per block of the division in Z/2**bits:
    16 * 2**(bit_length(order) // 3) when bits <= 8, half that for wider
    rings, and at least 64.

    A block costs one shift of a packed pair of blocks per term of the
    divisor, whose fixed cost larger blocks spread thinner, and one
    multiply of two B-slot packed integers, whose cost per coefficient
    grows with B times the slot width.  A product slot holds 2 * bits +
    log2 B bits: 3 bytes in Z/2^7 at 4*10^4, 9 in Z/2^32, 17 in Z/2^64,
    so wider rings take shorter blocks.  Timing 1 / phi(-q): in Z/2^7,
    512 beat 256 and 1024 at 4*10^4 and tied 1024 at 10^5, and 1024 beat
    2048 at 4*10^5; in Z/2^32 and Z/2^64 at 4*10^4, 128 and 256 beat 512.
    """
    return max(64, (16 if bits <= 8 else 8) << order.bit_length() // 3)


def _repeat(x: int, sb: int, n: int) -> int:
    """n slots of sb bytes, each holding x."""
    return int.from_bytes(x.to_bytes(sb, "little") * n, "little")


def _reslot(data, src: int, dst: int, bits: int):
    """Slots of src bytes, each holding a value below 2**bits, as slots of
    dst bytes: the ceil(bits/8) low bytes of every slot are copied by one
    slice assignment each, and the rest of the new slots are zeros."""
    if src == dst:
        return data
    out = bytearray(len(data) // src * dst)
    for j in range((bits + 7) // 8):
        out[j::dst] = data[j::src]
    return out


def _run(bits: int) -> tuple[int, str]:
    """Bytes and struct code of one value below 2**bits in a contiguous
    run: the narrowest of 1, 2, 4 or 8 bytes that holds it."""
    vb = 1 << ((bits - 1) // 8).bit_length()
    return vb, {1: "B", 2: "H", 4: "I", 8: "Q"}[vb]


def _unpack(data, sb: int, bits: int) -> Sequence[int]:
    """The values of little-endian sb-byte slots, each in [0, 2**bits): the
    inverse of _pack.  For bits <= 64 they come back from one struct call
    after a _reslot to the run's width; past that each slot is read on its
    own."""
    if bits > 64:
        return [int.from_bytes(data[i:i + sb], "little") for i in range(0, len(data), sb)]
    vb, code = _run(bits)
    return struct.unpack(f"<{len(data) // sb}{code}", _reslot(data, sb, vb, bits))


def _pack(vals: Sequence[int], sb: int, bits: int) -> int:
    """Values in [0, 2**bits) as one integer of sb-byte slots: the inverse
    of _unpack.  For bits <= 64 they are laid out by one struct call and a
    _reslot to sb-byte slots; past that each slot is written on its own."""
    if bits > 64:
        return int.from_bytes(b"".join([v.to_bytes(sb, "little") for v in vals]), "little")
    vb, code = _run(bits)
    return int.from_bytes(
        _reslot(struct.pack(f"<{len(vals)}{code}", *vals), vb, sb, bits), "little")


def _convolve(a: Sequence[int], b: Sequence[int], outlen: int) -> list[int]:
    """First outlen coefficients of the product in Z, in slots wide enough
    that no convolution sum reaches half a slot.  Each operand is packed
    with half a slot added to every value, so no slot is negative, less
    the repeated half; one native multiply performs the whole convolution,
    and the product, half a slot added back to every slot, is read by the
    same _unpack, the half taken off each value."""
    a = a[:outlen]
    b = b[:outlen]
    amax = max(map(abs, a))
    bmax = max(map(abs, b))
    if amax == 0 or bmax == 0:
        return [0] * outlen
    # |sum| <= amax * bmax * len, two spare bits keep it under half a slot
    sb = ((amax * bmax * min(len(a), len(b))).bit_length() + 2 + 7) // 8
    w = 8 * sb
    half = 1 << (w - 1)
    pa, pb = (_pack(list(map(half.__add__, v)), sb, w) - _repeat(half, sb, len(v))
              for v in (a, b))
    low = (pa * pb + _repeat(half, sb, outlen)) & ((1 << (outlen * w)) - 1)
    return [v - half for v in _unpack(low.to_bytes(outlen * sb, "little"), sb, w)]


def _width(order: int, bits: int) -> int:
    """Slot bytes of a packed series to q^order in Z/2**bits: they hold
    (2**bits - 1)**2 * (order + 1), the largest slot of a product."""
    return ((((1 << bits) - 1) ** 2 * (order + 1)).bit_length() + 7) // 8


def _lanes(packed: list[int], t: int, w: int) -> list[list[int]]:
    """The t balanced w-bit lanes of each packed value, lane r holding the
    values x_r of sum_r x_r 2**(r*w), -2**(w-1) <= x_r < 2**(w-1), for
    r < t - 1; the top lane keeps the rest.  The inverse of _packlanes."""
    half = 1 << (w - 1)
    out = []
    for _ in range(t - 1):
        hi = list(map(rshift, map(add, packed, repeat(half)), repeat(w)))
        out.append(list(map(sub, packed, map(lshift, hi, repeat(w)))))
        packed = hi
    return out + [packed]


def _packlanes(lanes: list[list[int]], w: int) -> list[int]:
    """sum_r lanes[r][j] * 2**(r*w) for each j: the inverse of _lanes."""
    packed = lanes[-1]
    for lane in lanes[-2::-1]:
        packed = list(map(add, lane, map(lshift, packed, repeat(w))))
    return packed


def _recur(a: Sequence[int], d: Sequence[int], n: int, inv0: int,
           mask: int) -> list[int]:
    """First n coefficients of a / d, one at a time, with the terms of d
    grouped by value:

        c(k) = d(0)^-1 * (a(k) - sum_v v * sum_{i in S_v, i <= k} c(k - i))

    where S_v holds the exponents i >= 1 with d(i) = v.  The quotient grows
    after a sentinel 0, so at step k each c(k - i) is c[-i], a fixed index.
    A value that recurs is one multiply of one sum in C of
    itemgetter(0, -i, ...); the values that occur once are one shared
    sum(map(mul, weights, itemgetter(0, -i, ...)(c))).  The getters are
    rebuilt when a term joins; the 0 keeps a one-term result a tuple.
    inv0 = d(0)^-1; c(k) is reduced by & mask, -1 in Z.

    In Z, when every exponent of d is a multiple of t >= 2, the t chains
    c(t*j + r), r < t, are independent, and step j computes all of them as
    the w-bit lanes of one integer sum_r c(t*j + r) 2**(r*w): the recurrence
    is linear, so the packed values obey it exactly whatever w is, and w
    only decides whether the lanes can be read back: in balanced form, a
    lane reads back exactly while |c| < 2**(w-1).  With L1 the sum of |d(i)|
    over the terms, step j's lanes have |c| <= |a| + L1 * M when every lane
    before them has |c| <= M, so |a| + L1 * M < 2**(w-1) makes them exact.
    Each step checks its lanes against M = 2**p by one add and one &: they
    pass when every lane of c + sum_r 2**p 2**(r*w) lies in [0, 2**(p+1)).
    When one does not, p and w widen before the next step, and the stored
    values are read at the old width and packed at the new one in place;
    the lanes are read once more at the end.
    """
    lags = list(compress(range(1, n), d[1:n]))
    counts = Counter(map(d.__getitem__, lags))
    t = gcd(*lags) if mask == -1 and lags else 1
    steps = -(-n // t)
    d = d[:n:t]  # the divisor in steps of t
    packed = t > 1
    plain = mask == -1 and inv0 == 1  # c(k) = s: no multiply and no &
    c = [0]
    idx = {}  # v -> [0, -j, ...] over the recurring values' terms joined so far
    getters = {}  # v -> itemgetter(*idx[v])
    weights, widx, wget = [0], [0], None  # the values that occur once
    if packed:
        a = list(a[:n]) + [0] * (steps * t - n)
        chains = [a[r::t] for r in range(t)]
        l1 = sum(map(abs, d[1:])).bit_length()
        abits = max(map(abs, a)).bit_length()
        p = 16
    for j in range(steps):
        if j and (v := d[j]):
            if counts[v] > 1:
                idx.setdefault(v, [0]).append(-j)
                getters[v] = itemgetter(*idx[v])
            else:
                weights.append(v)
                widx.append(-j)
                wget = itemgetter(*widx)
        if packed and (not j or (c[-1] + bias) & outside):
            # |a| + L1 * 2**p < 2**(w-1); the stored lanes were read exactly
            if j:
                lanes = _lanes(c[1:], t, w)
                p = max(p, max(map(abs, chain.from_iterable(lanes))).bit_length()) * 3 // 2
            w = max(p + l1, abits) + 2
            if j:
                c[1:] = _packlanes(lanes, w)
            a = _packlanes(chains, w)
            bias = _packlanes([[1 << p]] * t, w)[0]
            outside = ~_packlanes([[(2 << p) - 1]] * t, w)[0]
        s = a[j]
        for v, g in getters.items():
            s -= v * sum(g(c))
        if wget:
            s -= sum(map(mul, weights, wget(c)))
        c.append(s if plain else inv0 * s & mask)
    if not packed:
        return c[1:]
    lanes = _lanes(c[1:], t, w)
    c.clear()  # the packed lanes; freed before the quotient is interleaved
    out = [0] * (steps * t)
    for r, lane in enumerate(lanes):
        out[r::t] = lane
    return out[:n]


class TruncatedSeries:
    """Power series known exactly up to q^order."""

    __slots__ = ("ring", "order", "_coeffs", "_word", "_low")

    def __init__(self, ring: CoeffRing, coeffs: Iterable[int]):
        # the one place coefficients from outside are reduced into the ring;
        # values already in it come through _reduced
        m = ring.mask
        coeffs = tuple(coeffs) if m is None else tuple(map(m.__and__, coeffs))
        if not coeffs:
            raise ValueError("a series needs at least the q^0 coefficient")
        self._set(ring, len(coeffs) - 1, coeffs, None, None)

    def _set(self, *values) -> "TruncatedSeries":
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("TruncatedSeries is immutable")

    def __reduce__(self):
        # copy and pickle rebuild through the constructor, not __setattr__
        return TruncatedSeries, (self.ring, self.coeffs)

    # -- construction helpers ------------------------------------------

    @classmethod
    def _reduced(cls, ring: CoeffRing, coeffs: Iterable[int]) -> "TruncatedSeries":
        """A series of coefficients already in ring, stored without masking."""
        coeffs = tuple(coeffs)
        return object.__new__(cls)._set(ring, len(coeffs) - 1, coeffs, None, None)

    @classmethod
    def _from_bytes(cls, ring: CoeffRing, low) -> "TruncatedSeries":
        """A series of Z/2**m, m <= 8, whose coefficients are the bytes low."""
        return object.__new__(cls)._set(ring, len(low) - 1, None, None, bytes(low))

    @classmethod
    def zero(cls, ring: CoeffRing, order: int) -> "TruncatedSeries":
        return cls._reduced(ring, [0] * (order + 1))

    @classmethod
    def one(cls, ring: CoeffRing, order: int) -> "TruncatedSeries":
        if ring.is_exact:
            return cls._reduced(ring, [1] + [0] * order)
        return object.__new__(cls)._set(ring, order, None, 1, None)  # packed: slot 0 holds 1

    @classmethod
    def monomial(cls, ring: CoeffRing, order: int, exponent: int,
                 coeff: int = 1) -> "TruncatedSeries":
        if not 0 <= exponent <= order:
            raise ValueError(f"monomial exponent {exponent} outside 0..{order}")
        c = [0] * (order + 1)
        c[exponent] = coeff
        return cls(ring, c)

    # -- the three forms -----------------------------------------------

    @property
    def coeffs(self) -> tuple:
        bits = self.ring.bits
        if self._coeffs is None and bits <= 8:
            object.__setattr__(self, "_coeffs", tuple(self.low_bytes()))
        elif self._coeffs is None:
            sb = _width(self.order, bits)
            data = self._word.to_bytes((self.order + 1) * sb, "little")
            object.__setattr__(self, "_coeffs", _unpack(data, sb, bits))
        return self._coeffs

    def low_bytes(self) -> bytes:
        """The coefficients mod 256 as one bytes: from the packed form, the
        low byte of every slot; in a ring of at most 8 bits, the values."""
        if self._low is None and self._word is not None:
            sb = _width(self.order, self.ring.bits)
            low = self._word.to_bytes((self.order + 1) * sb, "little")[::sb]
            object.__setattr__(self, "_low", low)
        elif self._low is None:
            c = self._coeffs
            low = bytes(c) if (self.ring.mask or 256) < 256 else bytes(map((255).__and__, c))
            object.__setattr__(self, "_low", low)
        return self._low

    def _packed(self, order: int) -> int:
        """This Z/2**m series to q^order <= self.order in _width(order, m)-byte
        slots, kept at full order; cut short, repacked at the shorter width."""
        bits = self.ring.bits
        sb = _width(order, bits)
        if order < self.order or self._word is None:
            word = (int.from_bytes(_reslot(self.low_bytes()[:order + 1], 1, sb, bits), "little")
                    if bits <= 8 else _pack(self.coeffs[:order + 1], sb, bits))
            if order < self.order:
                return word
            object.__setattr__(self, "_word", word)
        return self._word

    def _ringed(self, order: int, word: int) -> "TruncatedSeries":
        """The series to q^order whose slots are those of word mod 2**m."""
        masks = _repeat(self.ring.mask, _width(order, self.ring.bits), order + 1)
        return object.__new__(TruncatedSeries)._set(self.ring, order, None, word & masks, None)

    # -- inspection ----------------------------------------------------

    def __getitem__(self, n: int) -> int:
        """Coefficient of q^n.  n past the truncation order is an error."""
        if not 0 <= n <= self.order:
            raise IndexError(
                f"coefficient of q^{n} requested, series only known to q^{self.order}")
        return self.coeffs[n]

    def __eq__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self.ring == other.ring and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.ring, self.coeffs))

    def __repr__(self):
        terms = []
        for n, c in enumerate(self.coeffs):
            if c:
                terms.append(f"{c}" if n == 0 else f"{c}*q^{n}")
            if len(terms) == 6:
                terms.append("...")
                break
        body = " + ".join(terms) if terms else "0"
        return f"<series {body} (order {self.order}, {self.ring})>"

    # -- arithmetic ----------------------------------------------------

    def _common(self, other) -> int:
        if self.ring != other.ring:
            raise ValueError(f"ring mismatch: {self.ring} vs {other.ring}")
        return min(self.order, other.order)

    def __add__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common(other)
        if self.ring.bits is None:
            return TruncatedSeries._reduced(self.ring, map(add, self.coeffs, other.coeffs))
        return self._ringed(n, self._packed(n) + other._packed(n))

    def __sub__(self, other):
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        return self + -other

    def __neg__(self):
        return self * -1  # in Z/2**m, times 2**m - 1: no slot goes negative

    def __mul__(self, other):
        if isinstance(other, int):
            if self.ring.bits is None:
                return TruncatedSeries._reduced(self.ring, map(other.__mul__, self.coeffs))
            # reduced first, so -2 and 2**m - 2 agree and no slot passes (2**m - 1)**2
            return self._ringed(self.order, self._packed(self.order) * (other & self.ring.mask))
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        n = self._common(other)
        if self.ring.bits is None:
            return TruncatedSeries._reduced(
                self.ring, _convolve(self.coeffs, other.coeffs, n + 1))
        # the & keeps the n + 1 low slots of the product, reduced
        return self._ringed(n, self._packed(n) * other._packed(n))

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

        In Z no fixed slot width holds the coefficients (those of
        1 / phi(-q) grow like e^(pi sqrt n)), and _recur is the quotient.

        In Z/2**m the quotient c = a / d is built in blocks [b, e) of at
        most B = _block(order, m) coefficients.  With P = 1/d mod q^B, from
        _recur over the first B coefficients, each block solves

            c_blk * d = a_blk - r_blk  (mod q^(e-b)),
            r(n) = sum_{i > n-b} d(i) * c(n - i),  b <= n < e,

        so c_blk = P * (a_blk - r_blk) mod q^(e-b), and r reads only
        finished blocks.  They are kept as packed integers of wb-byte
        (w-bit) slots, in pairs: pairs[k] holds blocks k - 1 and k, 2B
        slots, with block -1 all zeros; a is packed once in such slots,
        and a_blk is a slice of its bytes.  -r_blk is summed per distinct
        value of d, as u = -d(i) mod 2**m taken in [-2**(m-1), 2**(m-1)):
        each term i adds the window of c from q^(b-i),
        pairs[p // B] >> w * (p % B) with p = b - i + B.  Its e - b low
        slots are exact: zeros below q^0 and, when i < e - b, zeros above
        the last finished block.  Its higher slots are garbage, kept out of
        the low ones because carries only move up.  pairs gains one entry
        per block, so a term's pair counted from the end, and its shift,
        never change, and each value's terms are one sum of shifts in C.
        A bias K, a multiple of 2**m above every negative sum, keeps each
        slot of a_blk + K - r_blk non-negative, and one & with a repeated
        2**m - 1 reduces them all and drops the garbage.  One multiply by
        P, packed in wp-byte slots, solves the block x, and one more &
        reduces its slots; x completes the last pair and starts the next.
        The blocks are read once at the end, from the high halves, as the
        low byte of each slot in a ring of at most 8 bits.  A short last
        block is solved at full width: its slots past q^order keep within
        the same bounds, carry into nothing below and are dropped there.

        A wb-byte slot holds at most 2**m - 1 + K + (2**m - 1) * (the sum
        of u > 0 over the terms), and a product slot B products below
        (2**m - 1)**2, so wp = _width(B - 1, m), as for every packed
        product.  The widths differ: 2 and 3 bytes for 1 / phi(-q),
        whose u are +-2, in Z/2^7 at 4*10^4, 10 and 17 bytes in Z/2^64.  A
        block moves between them by one _reslot each way.  d(0) must be a
        unit: +-1 exactly, or odd mod 2**m.
        """
        if not isinstance(other, TruncatedSeries):
            return NotImplemented
        order = self._common(other)
        d = other.coeffs
        inv0 = self.ring.invert_unit(d[0])
        n = order + 1
        mask = self.ring.mask
        if mask is None:
            return TruncatedSeries._reduced(
                self.ring, _recur(self.coeffs, d, n, inv0, -1))
        bits = self.ring.bits
        block = min(_block(order, bits), n)
        lags = list(compress(range(1, n), d[1:n]))  # the exponents of the terms
        counts = Counter(map(d.__getitem__, lags))
        half = 1 << (bits - 1)
        # d(i) = v -> u = -v mod 2**m, in [-2**(m-1), 2**(m-1))
        signed = {v: (half - v) % (mask + 1) - half for v in counts}
        up = sum(u * counts[v] for v, u in signed.items() if u > 0)
        down = sum(-u * counts[v] for v, u in signed.items() if u < 0)
        bias = 1 << max(bits, (down * mask).bit_length())
        wb = ((mask + bias + up * mask).bit_length() + 7) // 8
        wp = _width(block - 1, bits)
        inv = _pack(_recur([1] + [0] * (block - 1), d, block, inv0, mask), wp, bits)
        sa = _width(order, bits)
        a = _reslot(self._packed(order).to_bytes(n * sa, "little"), sa, wb, bits)
        w = 8 * wb
        top = w * block
        biases = _repeat(bias, wb, block)
        masks, maskp = _repeat(mask, wb, block), _repeat(mask, wp, block)
        pairs = [0]  # blocks -1 and 0, until block 0 is finished
        terms = {}  # u -> ([pair from the end], [shift]) of the terms with -d(i) = u
        for b in range(0, n, block):
            for i in lags[bisect_left(lags, b):bisect_left(lags, b + block)]:
                ks, shs = terms.setdefault(signed[d[i]], ([], []))
                ks.append((block - i) // block - 1)
                shs.append(w * (-i % block))
            r = biases
            for u, (ks, shs) in terms.items():
                r += u * sum(map(rshift, map(pairs.__getitem__, ks), shs))
            s = (int.from_bytes(a[b * wb:(b + block) * wb], "little") + r) & masks
            s = _reslot(s.to_bytes(block * wb, "little"), wb, wp, bits)
            x = inv * int.from_bytes(s, "little") & maskp
            x = int.from_bytes(_reslot(x.to_bytes(block * wp, "little"), wp, wb, bits), "little")
            pairs[-1] += x << top
            pairs.append(x)
        data = b"".join([(p >> top).to_bytes(block * wb, "little") for p in pairs[:-1]])
        pairs.clear()  # two copies of the quotient; free them before its tuple
        if bits <= 8:  # the low byte of each slot is its value
            return TruncatedSeries._from_bytes(self.ring, data[:n * wb:wb])
        return TruncatedSeries._reduced(self.ring, _unpack(data[:n * wb], wb, bits))

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
        return TruncatedSeries._reduced(
            self.ring, (0,) * k + self.coeffs[:len(self.coeffs) - k])

    def substitute_power(self, t: int) -> "TruncatedSeries":
        """q -> q^t.  Result keeps this order, reading source up to order//t."""
        if t < 1:
            raise ValueError(f"substitution power must be >= 1, got {t}")
        out = [0] * (self.order + 1)
        out[::t] = self.coeffs[:self.order // t + 1]
        return TruncatedSeries._reduced(self.ring, out)

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
        return TruncatedSeries._reduced(self.ring, self.coeffs[r::t])

    def reduce_mod(self, j: int) -> "TruncatedSeries":
        """Reduce every coefficient into [0, 2**j); ring becomes Z/2**j.

        j may not exceed the current ring width: widening would fabricate
        bits the series does not carry.
        """
        ring = mod2_ring(j)
        if self.ring.bits is not None and j > self.ring.bits:
            raise ValueError(
                f"cannot widen {self.ring} to {ring}; bits above {self.ring.bits} are unknown")
        return TruncatedSeries(ring, self.coeffs)
