"""Exact linear algebra and polynomial arithmetic over GF(2).

Bit vectors, matrix rows and polynomial coefficients are all packed into
Python integers: bit i of the mask is entry i (or the coefficient of x^i).
All semantics are defined by that indexed-bit model; the packing only buys
speed in the exhaustive search loops elsewhere in the package.

State vectors are row vectors and multiply matrices on the right:
``xor_rows(v, rows)`` is v times the matrix with row masks ``rows``.  A
register's k-clock jump is such a matrix, built from x^k mod f (see
``registers.jump_rows``); ``poly_pow_mod`` holds the square-and-multiply
loop modulo any binary polynomial.  ``field.FieldContext.pow`` keeps its
own, over the field's faster packed arithmetic, for the discrete log.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True)
class BitVector:
    """Fixed-length vector over GF(2), entry i stored at mask bit i."""

    mask: int
    length: int

    def __post_init__(self):
        if self.length < 0:
            raise ValueError("negative length")
        if self.mask < 0 or self.mask >> self.length:
            raise ValueError("mask has bits beyond the stated length")

    @classmethod
    def from_bits(cls, bits: Iterable[int]) -> "BitVector":
        mask = 0
        n = 0
        for b in bits:
            if b & 1:
                mask |= 1 << n
            n += 1
        return cls(mask, n)

    def __len__(self) -> int:
        return self.length

    def __getitem__(self, i: int) -> int:
        if not 0 <= i < self.length:
            raise IndexError(f"bit index {i} out of range for length {self.length}")
        return (self.mask >> i) & 1

    def __iter__(self) -> Iterator[int]:
        return (self[i] for i in range(self.length))

    def __str__(self) -> str:
        return "".join(str(b) for b in self)

    def __repr__(self) -> str:
        return f"BitVector('{self}')"


@dataclass(frozen=True)
class BitMatrix:
    """rows x cols matrix over GF(2); row i packed at row_masks[i]."""

    rows: int
    cols: int
    row_masks: tuple[int, ...]

    def __post_init__(self):
        if len(self.row_masks) != self.rows:
            raise ValueError("row count mismatch")
        top = 1 << self.cols
        if any(not 0 <= r < top for r in self.row_masks):
            raise ValueError("row mask has bits beyond cols")


def xor_rows(mask: int, rows: tuple[int, ...]) -> int:
    """XOR of rows[i] over the set bits i of mask: the row vector `mask`
    times the matrix whose row masks are `rows`."""
    acc = 0
    while mask:
        low = mask & -mask
        acc ^= rows[low.bit_length() - 1]
        mask ^= low
    return acc


def reverse_bits(mask: int, width: int) -> int:
    """Bits 0 .. width - 1 of `mask` in reverse order: bit i moves to bit
    width - 1 - i, and bits at width and above are dropped."""
    return int(format(mask & ((1 << width) - 1), f"0{width}b")[::-1], 2)


def invert(m: BitMatrix) -> BitMatrix:
    """Inverse of a square matrix; raises ValueError when singular."""
    if m.rows != m.cols:
        raise ValueError("inverse of a non-square matrix")
    n = m.rows
    rows = list(m.row_masks)
    aug = [1 << i for i in range(n)]
    r = 0
    for c in range(n):
        sel = next((i for i in range(r, n) if (rows[i] >> c) & 1), None)
        if sel is None:
            raise ValueError("singular matrix")
        rows[r], rows[sel] = rows[sel], rows[r]
        aug[r], aug[sel] = aug[sel], aug[r]
        for i in range(n):
            if i != r and (rows[i] >> c) & 1:
                rows[i] ^= rows[r]
                aug[i] ^= aug[r]
        r += 1
    return BitMatrix(n, n, tuple(aug))


def rank(m: BitMatrix) -> int:
    rows = [r for r in m.row_masks if r]
    rk = 0
    while rows:
        piv = min(rows, key=lambda r: r & -r)
        rows.remove(piv)
        low = piv & -piv
        rows = [r ^ piv if r & low else r for r in rows]
        rows = [r for r in rows if r]
        rk += 1
    return rk


# ---------------------------------------------------------------------------
# Binary polynomials


def _degree(mask: int) -> int:
    # degree of a nonzero coefficient mask
    return mask.bit_length() - 1


def _poly_divmod(a: int, b: int) -> tuple[int, int]:
    if b == 0:
        raise ZeroDivisionError("division by the zero polynomial")
    db = _degree(b)
    q = 0
    while a and _degree(a) >= db:
        shift = _degree(a) - db
        q |= 1 << shift
        a ^= b << shift
    return q, a


def _poly_mulmod(a: int, b: int, mod: int) -> int:
    # operands already reduced below mod's degree
    dm = _degree(mod)
    c = 0
    while a:
        if a & 1:
            c ^= b
        a >>= 1
        b <<= 1
        if b >> dm & 1:
            b ^= mod
    return c


@dataclass(frozen=True)
class BinaryPolynomial:
    """Polynomial over GF(2); coefficient of x^i at mask bit i.

    The zero polynomial has no degree: ``degree`` is None rather than a
    sentinel integer, so accidental arithmetic on it fails loudly.
    """

    mask: int

    def __post_init__(self):
        if self.mask < 0:
            raise ValueError("negative coefficient mask")

    @property
    def degree(self) -> int | None:
        return None if self.mask == 0 else _degree(self.mask)

    @property
    def is_zero(self) -> bool:
        return self.mask == 0

    def coefficient(self, i: int) -> int:
        return (self.mask >> i) & 1

    def __str__(self) -> str:
        if self.mask == 0:
            return "0"
        terms = []
        for i in range(_degree(self.mask), -1, -1):
            if (self.mask >> i) & 1:
                terms.append("1" if i == 0 else ("x" if i == 1 else f"x^{i}"))
        return " + ".join(terms)

    def __repr__(self) -> str:
        return f"BinaryPolynomial(0x{self.mask:x})"


def poly_pow_mod(base: BinaryPolynomial, e: int, mod: BinaryPolynomial) -> BinaryPolynomial:
    """base^e reduced modulo mod."""
    if mod.is_zero:
        raise ZeroDivisionError("reduction by the zero polynomial")
    if e < 0:
        raise ValueError("negative exponent")
    if mod.mask == 1:
        return BinaryPolynomial(0)
    b = _poly_divmod(base.mask, mod.mask)[1]
    r = 1
    while e:
        if e & 1:
            r = _poly_mulmod(r, b, mod.mask)
        e >>= 1
        if e:
            b = _poly_mulmod(b, b, mod.mask)
    return BinaryPolynomial(r)
