"""GF(2^m) arithmetic over a primitive modulus: trace, roots and logs.

Elements are represented in the polynomial basis {1, x, ..., x^(m-1)}
modulo the context's primitive polynomial, packed as integer masks.

Two methods serve jump recovery, both in time polynomial in m.  `root`
finds a root of a binary polynomial by trace splitting (Berlekamp,
1970), with each polynomial over the field packed into one int, a slot
of 2m bits per coefficient.  `log` takes the discrete log base alpha by
Pohlig-Hellman (1978) over the factors of 2^m - 1, with baby-step
giant-step for each prime: below MAX_DEGREE the largest prime is
2^19 - 1, about 725 steps.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import UnsupportedParameterError
from .gf2 import BinaryPolynomial, poly_pow_mod, _poly_divmod

MAX_DEGREE = 24

X = BinaryPolynomial(0b10)


def _factor(n: int) -> list[tuple[int, int]]:
    """The prime powers q^e exactly dividing n, as (q, e), by trial division."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


@lru_cache(maxsize=MAX_DEGREE)
def _order_factors(d: int) -> tuple[tuple[int, int], ...]:
    """The factorisation of 2^d - 1, the order of GF(2^d)*: one per degree
    for the primitivity test and the discrete log."""
    return tuple(_factor((1 << d) - 1))


# a run meets only the public polynomials and a few fitted ones
@lru_cache(maxsize=64)
def is_primitive(p: BinaryPolynomial) -> bool:
    """True iff x has order 2^d - 1 modulo p, d = deg p: p(0) = 1,
    x^(2^d - 1) = 1 mod p, and x^((2^d - 1)/q) != 1 mod p for every prime
    q dividing 2^d - 1.  That order alone makes GF(2)[x]/(p) a field, so
    p is irreducible with no separate test (Lidl and Niederreiter,
    Finite Fields, ch. 3).

    The primes come from trial division of 2^d - 1, so the degree is
    capped at MAX_DEGREE.
    """
    d = p.degree
    if d is None or d == 0:
        return False
    if d > MAX_DEGREE:
        raise UnsupportedParameterError(
            f"primitivity test limited to degree {MAX_DEGREE}, got {d}")
    if not p.coefficient(0):
        return False  # divisible by x
    order = (1 << d) - 1
    if poly_pow_mod(X, order, p).mask != 1:
        return False
    return all(poly_pow_mod(X, order // q, p).mask != 1 for q, _ in _order_factors(d))


@dataclass(frozen=True)
class FieldContext:
    """GF(2^m) defined by a primitive degree-m modulus, with alpha = x."""

    m: int
    modulus: BinaryPolynomial

    def __post_init__(self):
        if self.modulus.degree != self.m:
            raise ValueError("modulus degree does not match m")
        if not is_primitive(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not primitive")
        # How polynomials over the field pack into one int: coefficient j
        # in slot j, bits j w .. j w + w - 1 with w = 2m, wide enough for
        # an unreduced product.  Also the masks of the low m and the next
        # m - 1 bits of m + 1 slots, and the exponents of the modulus
        # below x^m.  (Set here rather than cached on first use: that
        # costs more than the work in a small field's first root.)
        m = self.m
        w = 2 * m
        ones = ((1 << (m + 1) * w) - 1) // ((1 << w) - 1)
        tail = self.modulus.mask ^ (1 << m)
        object.__setattr__(self, "_packing", (
            w, ones * ((1 << m) - 1), ones * ((1 << m - 1) - 1),
            [e for e in range(m) if tail >> e & 1]))

    def _scale(self, v: int, c: int) -> int:
        """c times every slot of v, reduced: one shifted copy of v per bit
        of c, then the bits from x^m up of every slot fold down at once by
        x^m = modulus - x^m.  Each slot of v must be reduced, or, with
        c = 1, below x^(2m - 1)."""
        acc = 0
        while c:
            low = c & -c
            acc ^= v * low
            c ^= low
        m = self.m
        _, low, high, tail = self._packing
        top = (acc >> m) & high
        while top:
            acc &= low
            for e in tail:
                acc ^= top << e
            top = (acc >> m) & high
        return acc

    mul = _scale

    def square(self, a: int) -> int:
        # squaring over GF(2) spreads the bits: base-4 digits 0 and 1
        return self._scale(int(format(a, "b"), 4), 1)

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            raise ValueError("negative exponent")
        if not e:
            return 1
        r = a
        for bit in format(e, "b")[1:]:
            r = self.square(r)
            if bit == "1":
                r = self._scale(r, a)
        return r

    def inverse(self, a: int) -> int:
        """a^-1 for nonzero a, by the extended Euclidean algorithm over
        GF(2)[x]: g = u a and h = v a modulo the modulus throughout."""
        if not a:
            raise ZeroDivisionError("zero has no inverse")
        g, h, u, v = a, self.modulus.mask, 1, 0
        while g != 1:
            j = g.bit_length() - h.bit_length()
            if j < 0:
                g, h, u, v, j = h, g, v, u, -j
            g ^= h << j
            u ^= v << j
        return u

    def _divmod(self, a: int, b: int) -> tuple[int, int]:
        """Quotient and remainder of packed a by packed monic b."""
        w = self._packing[0]
        db = (b.bit_length() - 1) // w
        q = 0
        while a:
            shift = ((a.bit_length() - 1) // w - db) * w
            if shift < 0:
                break
            c = a >> shift + db * w
            q ^= c << shift
            a ^= (b if c == 1 else self._scale(b, c)) << shift
        return q, a

    def _gcd(self, a: int, b: int) -> int:
        """The monic gcd of packed monic a and packed b; each divisor is
        made monic once, by one inverse."""
        w = self._packing[0]
        while b:
            b = self._scale(b, self.inverse(b >> (b.bit_length() - 1) // w * w))
            a, b = b, self._divmod(a, b)[1]
        return a

    def root(self, f: BinaryPolynomial) -> int | None:
        """A root in this field of the binary polynomial f, or None unless
        f divides y^(2^m) - y, that is, unless f splits into distinct
        linear factors here.

        Polynomials over the field are packed one coefficient per slot of
        an int (see `__post_init__`), so a scalar times a polynomial is a
        few shifts of one int.  R_i = y^(2^i) mod f has binary
        coefficients, so T(y) = sum_i delta^(2^i) R_i, which is
        Tr(delta y) mod f, costs one integer product per i: R_i spread
        one bit per slot, times delta^(2^i).  T(b) = Tr(delta b) is 0 or
        1 at each root b, so gcd(h, T) splits the roots of a factor h by
        that trace.  Two distinct roots differ in Tr(delta b) for some
        delta of the basis alpha, alpha^2, ..., alpha^m, so one pass over
        it, keeping the smaller factor each time, leaves one root.
        (Tr(delta b) is the same on all conjugates of b when delta is 0
        or 1, so the basis leaves 1 out.)
        """
        d = f.degree
        if not d:
            return None
        m, fm = self.m, f.mask
        w = self._packing[0]
        h = int(("0" * (w - 1)).join(format(fm, "b")), 2)  # f, one coefficient per slot
        # squaring mod f is GF(2)-linear: row j is y^(2j) mod f, as bits
        # and spread over slots
        rows, s, sp = [], 1, 1
        for _ in range(d):
            rows.append((s, sp))
            s <<= 2
            sp <<= 2 * w
            if s >> d + 1 & 1:
                s ^= fm << 1
                sp ^= h << w
            if s >> d & 1:
                s ^= fm
                sp ^= h
        r = y = _poly_divmod(X.mask, fm)[1]
        sp = int(("0" * (w - 1)).join(format(r, "b")), 2)  # R_0 = y mod f, spread
        squares = []  # R_0 .. R_(m-1), spread
        for _ in range(m):
            squares.append(sp)
            nxt = sp = 0
            while r:
                low = r & -r
                s, t = rows[low.bit_length() - 1]
                nxt ^= s
                sp ^= t
                r ^= low
            r = nxt
        if r != y:  # R_m = y exactly when f divides y^(2^m) - y
            return None
        delta = 1
        for _ in range(m):
            dh = (h.bit_length() - 1) // w
            if dh == 1:
                break
            delta <<= 1
            if delta >> m:
                delta ^= self.modulus.mask
            t, c = 0, delta
            for s in squares:
                t ^= s * c
                c = self.square(c)
            g = self._gcd(h, self._divmod(t, h)[1])
            dg = (g.bit_length() - 1) // w
            if 0 < dg < dh:
                h = g if 2 * dg <= dh else self._divmod(h, g)[0]
        if (h.bit_length() - 1) // w != 1:
            raise AssertionError("trace splitting left a factor of degree above 1")
        return h & (1 << m) - 1  # the root of y + b is b

    def log(self, a: int) -> int:
        """The k in [0, 2^m - 1) with alpha^k = a, for nonzero a.

        Pohlig-Hellman: for each prime power q^e of the order n, k mod q^e
        is the log of a^(n/q^e) to the base g = alpha^(n/q^e), of order
        q^e.  Its base-q digits come one at a time, each by baby-step
        giant-step among the powers of g^(q^(e-1)), of order q; the
        residues are then joined by the Chinese remainder theorem.
        """
        if not a:
            raise ValueError("zero has no logarithm")
        n = (1 << self.m) - 1
        k, modulus = 0, 1
        for q, e in _order_factors(self.m):
            qe = q ** e
            g, h = self.pow(X.mask, n // qe), self.pow(a, n // qe)
            gamma = self.pow(g, qe // q)
            x = self._subgroup_log(gamma, self.pow(h, qe // q), q)
            for i in range(1, e):
                rest = self.mul(h, self.pow(g, qe - x))
                x += self._subgroup_log(gamma, self.pow(rest, qe // q ** (i + 1)), q) * q ** i
            k += modulus * ((x - k) * pow(modulus, -1, qe) % qe)
            modulus *= qe
        return k

    def _subgroup_log(self, gamma: int, h: int, q: int) -> int:
        """The j < q with gamma^j = h, for gamma of prime order q, by
        baby-step giant-step."""
        steps = math.isqrt(q - 1) + 1
        baby, g = {}, 1
        for j in range(steps):
            baby[g] = j
            g = self.mul(g, gamma)
        stride = self.inverse(g)
        for i in range(steps):
            if h in baby:
                return i * steps + baby[h]
            h = self.mul(h, stride)
        raise ValueError("element outside the subgroup of order q")

    def trace_of(self, a: int) -> int:
        """Tr(a) = a + a^2 + ... + a^(2^(m-1)), 0 or 1, by m - 1 squarings."""
        acc = a
        for _ in range(self.m - 1):
            a = self.square(a)
            acc ^= a
        return acc


@lru_cache(maxsize=64)
def field_context(modulus: BinaryPolynomial) -> FieldContext:
    """Shared context per modulus; FieldContext is immutable so reuse is safe."""
    d = modulus.degree
    if d is None:
        raise ValueError("zero modulus")
    return FieldContext(d, modulus)
