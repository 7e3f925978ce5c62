"""GF(2^m) arithmetic over a primitive modulus, with trace machinery.

Elements are represented in the polynomial basis {1, x, ..., x^(m-1)}
modulo the context's primitive polynomial, packed as integer masks.
The same basis is used everywhere so trace-system coefficients are
canonical and reproducible across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .errors import UnsupportedParameterError
from .gf2 import BinaryPolynomial, poly_gcd, poly_pow_mod, _poly_mulmod

MAX_DEGREE = 24

X = BinaryPolynomial(0b10)


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


# the generator asks once per register and call, for public and fitted
# feedback alike
@lru_cache(maxsize=64)
def is_irreducible(p: BinaryPolynomial) -> bool:
    """Rabin's test: x^(2^d) = x mod p and gcd(x^(2^(d/q)) - x, p) = 1."""
    d = p.degree
    if d is None or d == 0:
        return False
    if d == 1:
        return True
    # k-fold squaring of x modulo p gives x^(2^k)
    def frob(k: int) -> BinaryPolynomial:
        t = X % p
        for _ in range(k):
            t = BinaryPolynomial(_poly_mulmod(t.mask, t.mask, p.mask))
        return t

    if frob(d) != X % p:
        return False
    for q in _prime_factors(d):
        h = frob(d // q) + (X % p)
        if poly_gcd(h, p).mask != 1:
            return False
    return True


# a run meets only the public polynomials and a few fitted ones
@lru_cache(maxsize=64)
def is_primitive(p: BinaryPolynomial) -> bool:
    """True iff p is irreducible and its root has order 2^deg - 1.

    Order testing factors 2^deg - 1 by trial division, so the degree is
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
    if d == 1:
        return p.mask == 0b11  # x + 1
    if not is_irreducible(p):
        return False
    order = (1 << d) - 1
    for q in _prime_factors(order):
        if poly_pow_mod(X, order // q, p).mask == 1:
            return False
    return True


@dataclass(frozen=True)
class FieldContext:
    """GF(2^m) defined by a primitive degree-m modulus."""

    m: int
    modulus: BinaryPolynomial

    def __post_init__(self):
        if self.modulus.degree != self.m:
            raise ValueError("modulus degree does not match m")
        if not is_primitive(self.modulus):
            raise ValueError(f"modulus {self.modulus} is not primitive")

    @property
    def order(self) -> int:
        return 1 << self.m

    def element(self, mask: int) -> "FieldElement":
        return FieldElement(self, mask)

    @property
    def zero(self) -> "FieldElement":
        return FieldElement(self, 0)

    @property
    def one(self) -> "FieldElement":
        return FieldElement(self, 1)

    @property
    def alpha(self) -> "FieldElement":
        """The class of x: a primitive element by construction."""
        return FieldElement(self, (X % self.modulus).mask)

    def mul(self, a: int, b: int) -> int:
        return _poly_mulmod(a, b, self.modulus.mask)

    def pow(self, a: int, e: int) -> int:
        return poly_pow_mod(BinaryPolynomial(a), e, self.modulus).mask

    @cached_property
    def _trace_mask(self) -> int:
        # bit i holds Tr(x^i); trace of any element then follows by linearity
        mask = 0
        for i in range(self.m):
            acc = 0
            c = 1 << i  # basis element x^i, already reduced for i < m
            for _ in range(self.m):
                acc ^= c
                c = self.mul(c, c)
            if acc == 1:
                mask |= 1 << i
            elif acc != 0:
                raise AssertionError("trace landed outside GF(2)")
        return mask

    def trace_of(self, mask: int) -> int:
        return (mask & self._trace_mask).bit_count() & 1


@dataclass(frozen=True)
class FieldElement:
    """Element of a FieldContext in the polynomial basis."""

    ctx: FieldContext
    mask: int

    def __post_init__(self):
        if not 0 <= self.mask < self.ctx.order:
            raise ValueError("representation out of range for the field")

    def _check(self, other: "FieldElement"):
        if self.ctx != other.ctx:
            raise ValueError("elements from different field contexts")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.mask ^ other.mask)

    __sub__ = __add__

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.ctx, self.ctx.mul(self.mask, other.mask))

    def __pow__(self, e: int) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx.pow(self.mask, e))

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def trace(self) -> int:
        """Sum of the Frobenius conjugates, always 0 or 1."""
        return self.ctx.trace_of(self.mask)

    def conjugates(self) -> list["FieldElement"]:
        """Distinct images under repeated squaring, starting with self."""
        out = [self]
        c = self * self
        while c != self:
            out.append(c)
            c = c * c
        return out

    def minimal_polynomial(self) -> BinaryPolynomial:
        """Product of (y - c) over the distinct conjugates c, over GF(2)."""
        coeffs = [1]  # constant polynomial 1 in y, coefficients in the field
        for c in self.conjugates():
            nxt = [0] * (len(coeffs) + 1)
            for j, a in enumerate(coeffs):
                nxt[j + 1] ^= a
                nxt[j] ^= self.ctx.mul(a, c.mask)
            coeffs = nxt
        mask = 0
        for i, a in enumerate(coeffs):
            if a not in (0, 1):
                raise AssertionError("minimal polynomial has non-binary coefficient")
            mask |= a << i
        return BinaryPolynomial(mask)

    def __repr__(self) -> str:
        return f"FieldElement(GF(2^{self.ctx.m}), 0x{self.mask:x})"


@lru_cache(maxsize=64)
def field_context(modulus: BinaryPolynomial) -> FieldContext:
    """Shared context per modulus; FieldContext is immutable so reuse is safe."""
    d = modulus.degree
    if d is None:
        raise ValueError("zero modulus")
    return FieldContext(d, modulus)
