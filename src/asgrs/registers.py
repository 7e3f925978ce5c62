"""Feedback shift registers: jump-clocked LFSRs and the de Bruijn control register.

Register convention (Fibonacci form), used by every register in the package:

* cells are indexed 0..len-1 and packed as mask bit i = cell i;
* one clock shifts every cell up one index and feeds the new bit into
  cell 0, so cell i of the new state is cell i-1 of the old one;
* a generating register outputs cell len-1, which makes the initial
  state hold the first `len` output bits in reverse cell order
  (cell i = output bit len-1-i);
* the clock-control register outputs cell 0.

With feedback polynomial f(x) = x^L + f_{L-1} x^{L-1} + ... + f_0, the
new cell 0 is sum_i f_i * cell[L-1-i], which makes the output sequence
satisfy s_{t+L} = sum_i f_i s_{t+i}: the feedback polynomial is the
characteristic polynomial of the output recurrence.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from .errors import DegenerateStateError, UnsupportedParameterError
from .field import MAX_DEGREE, is_primitive
from .gf2 import BinaryPolynomial, BitMatrix, BitVector, mat_pow, xor_rows

# Sequences of bits are plain lists/tuples of 0/1 ints throughout the package.
BitSequence = Sequence[int]


def _safe_is_primitive(p: BinaryPolynomial) -> bool:
    d = p.degree
    if d is None or d > MAX_DEGREE:
        return False
    return is_primitive(p)


@dataclass(frozen=True)
class LfsrSpec:
    """Shape of an LFSR: its length and feedback polynomial.

    The feedback degree must equal the length.  Primitivity is not
    enforced here; fitted registers from sequence synthesis may carry
    non-primitive feedback.
    """

    length: int
    feedback: BinaryPolynomial

    def __post_init__(self):
        if self.length < 1:
            raise ValueError("register length must be positive")
        if self.feedback.degree != self.length:
            raise ValueError("feedback degree must equal register length")

    @property
    def taps_mask(self) -> int:
        return _taps_mask(self.feedback.mask, self.length)

    def output_cell(self, state: BitVector) -> int:
        return (state.mask >> (self.length - 1)) & 1


@lru_cache(maxsize=None)
def _taps_mask(feedback_mask: int, length: int) -> int:
    # taps bit k = f_{length-1-k}: new cell 0 = parity(state & taps)
    low = feedback_mask ^ (1 << length)
    out = 0
    for i in range(length):
        if (low >> i) & 1:
            out |= 1 << (length - 1 - i)
    return out


def _step_mask(state: int, taps: int, full: int) -> int:
    fb = (state & taps).bit_count() & 1
    return ((state << 1) & full) | fb


@lru_cache(maxsize=None)
def _transition_matrix(feedback_mask: int, length: int) -> BitMatrix:
    # T with state(t) = state(t-1) * T, states as row vectors
    taps = _taps_mask(feedback_mask, length)
    full = (1 << length) - 1
    # row i = image of the basis state e_i under one clock
    rows = tuple(_step_mask(1 << i, taps, full) for i in range(length))
    return BitMatrix(length, length, rows)


@lru_cache(maxsize=None)
def jump_rows(feedback_mask: int, length: int, k: int) -> tuple[int, ...]:
    """Row masks of T^k, the k-clock jump applied as a row-vector product."""
    return mat_pow(_transition_matrix(feedback_mask, length), k).row_masks


def lfsr_step(spec: LfsrSpec, state: BitVector, k: int = 1) -> BitVector:
    """Advance the register k clocks; equals state * T^k.

    Small jumps run as iterated single clocks; larger ones go through the
    precomputed matrix power, since jump sizes can approach the sequence
    period.
    """
    if state.length != spec.length:
        raise ValueError("state length does not match register length")
    if k < 0:
        raise ValueError("cannot clock a register backwards")
    if k < spec.length * spec.length:
        s = state.mask
        taps = spec.taps_mask
        full = (1 << spec.length) - 1
        for _ in range(k):
            s = _step_mask(s, taps, full)
        return BitVector(s, spec.length)
    rows = jump_rows(spec.feedback.mask, spec.length, k)
    return BitVector(xor_rows(state.mask, rows), spec.length)


def output_sequence(spec: LfsrSpec, init: BitVector, count: int) -> list[int]:
    """First `count` output bits; bit t reads cell len-1 after t clocks."""
    if init.length != spec.length:
        raise ValueError("state length does not match register length")
    if init.mask == 0 and _safe_is_primitive(spec.feedback):
        raise DegenerateStateError("all-zero state on a maximum-length register")
    out = []
    s = init.mask
    taps = spec.taps_mask
    full = (1 << spec.length) - 1
    top = spec.length - 1
    for _ in range(count):
        out.append((s >> top) & 1)
        s = _step_mask(s, taps, full)
    return out


def decimate(seq: BitSequence, r: int) -> list[int]:
    """Every r-th bit, starting from bit 0."""
    if r < 1:
        raise ValueError("decimation step must be positive")
    return list(seq[::r])


@dataclass(frozen=True)
class DeBruijnRegister:
    """Nonlinear FSR whose output runs through every span-bit window once.

    Built from a primitive LFSR by the zero-run extension: after the
    shift, if cells 1..span-1 are all zero the feedback bit is
    complemented, which splices the all-zero state into the maximum
    length cycle and stretches the run of span-1 zeros to span.  Output
    is cell 0 (the clock-control cell).
    """

    base: LfsrSpec
    state: BitVector

    def __post_init__(self):
        if self.state.length != self.base.length:
            raise ValueError("state length does not match register length")
        if not _safe_is_primitive(self.base.feedback):
            raise ValueError("de Bruijn base polynomial must be primitive")

    @property
    def span(self) -> int:
        return self.base.length


def _de_bruijn_next(state: int, taps: int, span: int) -> int:
    fb = (state & taps).bit_count() & 1
    # cells 0..span-2 survive the shift into 1..span-1; when they are all
    # zero the complemented feedback inserts the extra zero of the cycle
    if state & ((1 << (span - 1)) - 1) == 0:
        fb ^= 1
    return ((state << 1) & ((1 << span) - 1)) | fb


def de_bruijn_cycle(base: LfsrSpec) -> array:
    """The 2^span states of the de Bruijn register over `base`, in cycle
    order from the all-zero state, as an array("I").

    Every span-bit state lies on this one cycle, so the control bits from
    any state are cell 0 of a window of it, wrapping at the end.
    """
    taps, span = base.taps_mask, base.length
    states = array("I", [0]) * (1 << span)
    s = 0
    for i in range(1 << span):
        states[i] = s
        s = _de_bruijn_next(s, taps, span)
    return states


def de_bruijn_sequence(reg: DeBruijnRegister, count: int) -> list[int]:
    """First `count` control bits from the register's current state."""
    out = []
    s = reg.state.mask
    taps = reg.base.taps_mask
    span = reg.span
    for _ in range(count):
        out.append(s & 1)
        s = _de_bruijn_next(s, taps, span)
    return out


# Primitive polynomials, one per degree, used for defaults and tests.
PRIMITIVE_POLYNOMIALS = {
    1: BinaryPolynomial(0b11),
    2: BinaryPolynomial(0b111),
    3: BinaryPolynomial(0b1011),
    4: BinaryPolynomial(0b10011),
    5: BinaryPolynomial(0b100101),
    6: BinaryPolynomial(0b1000011),
    7: BinaryPolynomial(0b10000011),
    8: BinaryPolynomial(0b100011101),
    9: BinaryPolynomial(0b1000010001),
    10: BinaryPolynomial(0b10000001001),
    11: BinaryPolynomial(0b100000000101),
    12: BinaryPolynomial(0b1000001010011),
    13: BinaryPolynomial(0b10000000011011),
    14: BinaryPolynomial(0b100010001000011),
    15: BinaryPolynomial(0b1000000000000011),
    16: BinaryPolynomial(0b10001000000001011),
}


def primitive_polynomial(degree: int) -> BinaryPolynomial:
    if degree not in PRIMITIVE_POLYNOMIALS:
        raise UnsupportedParameterError(f"no stock primitive polynomial of degree {degree}")
    return PRIMITIVE_POLYNOMIALS[degree]
