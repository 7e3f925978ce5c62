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

Each register kind has one stepping core, an endless generator of packed
states (`lfsr_states` clocks a generating register, `jumped_states`
jumps it k clocks at a time, `de_bruijn_states` steps the control
register); every other stepping function reads them.  `de_bruijn_bits`
reads the control register's bits off its base register's jumped states,
splicing in the one extra zero of the de Bruijn cycle.  A nonzero state of
a primitive register of length m recurs after 2^m - 1 clocks, and every
span-l state of the de Bruijn register after 2^l steps.

A jump of k clocks is the polynomial c = x^k mod f: since f(T) = 0 for
the one-clock map T, the state after k clocks is the XOR of the states
after i clocks over the terms x^i of c, i < L.  So any jump costs
O(log k) products modulo f plus L clocks per basis state, however large
k is.  `jumped_states` then takes one table entry per half of the state:
two lookups per jump (tables of a byte at L = 16), not a loop over L rows.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import islice, repeat
from operator import rshift
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateStateError, UnsupportedParameterError
from .field import MAX_DEGREE, X, is_primitive
from .gf2 import BinaryPolynomial, BitVector, poly_pow_mod, xor_rows

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

    @cached_property
    def taps_mask(self) -> int:
        # taps bit k = f_{length-1-k}: new cell 0 = parity(state & taps)
        low = self.feedback.mask ^ (1 << self.length)
        out = 0
        for i in range(self.length):
            if (low >> i) & 1:
                out |= 1 << (self.length - 1 - i)
        return out


def lfsr_states(spec: LfsrSpec, state: int) -> Iterator[int]:
    """The packed states from `state` on, one clock apart, without end."""
    taps, full = spec.taps_mask, (1 << spec.length) - 1
    while True:
        yield state
        state = ((state << 1) & full) | ((state & taps).bit_count() & 1)


@lru_cache(maxsize=64)
def jump_rows(feedback_mask: int, length: int, k: int) -> tuple[int, ...]:
    """Row masks of T^k, the k-clock jump applied as a row-vector product.

    Row j is basis state e_j after k clocks: the XOR of its first
    `length` successors picked by the terms of x^k mod f.  The cache is
    bounded: every distinct key brings its own jump sizes.
    """
    spec = LfsrSpec(length, BinaryPolynomial(feedback_mask))
    c = poly_pow_mod(X, k, spec.feedback).mask
    return tuple(xor_rows(c, tuple(islice(lfsr_states(spec, 1 << j), length)))
                 for j in range(length))


@lru_cache(maxsize=16)
def _half_tables(feedback_mask: int, length: int, k: int) -> tuple[tuple[int, ...], ...]:
    """T^k of every state of the low L//2 cells, and of the rest: the
    entries with row j set are the earlier entries XOR row j of T^k."""
    half = length // 2
    low, high = [0], [0]
    for j, row in enumerate(jump_rows(feedback_mask, length, k)):
        table = low if j < half else high
        table += [t ^ row for t in table]
    return tuple(low), tuple(high)


def jumped_states(spec: LfsrSpec, state: int, k: int) -> Iterator[int]:
    """The packed states from `state` on, k clocks apart, without end."""
    low, high = _half_tables(spec.feedback.mask, spec.length, k)
    half, mask = spec.length // 2, len(low) - 1
    while True:
        yield state
        state = low[state & mask] ^ high[state >> half]


def lfsr_step(spec: LfsrSpec, state: BitVector, k: int = 1) -> BitVector:
    """Advance the register k clocks; equals state * T^k."""
    if state.length != spec.length:
        raise ValueError("state length does not match register length")
    if k < 0:
        raise ValueError("cannot clock a register backwards")
    return BitVector(next(islice(jumped_states(spec, state.mask, k), 1, None)), spec.length)


def output_sequence(spec: LfsrSpec, init: BitVector, count: int) -> list[int]:
    """First `count` output bits; bit t reads cell len-1 after t clocks."""
    if init.length != spec.length:
        raise ValueError("state length does not match register length")
    if init.mask == 0 and _safe_is_primitive(spec.feedback):
        raise DegenerateStateError("all-zero state on a maximum-length register")
    return list(output_bits(islice(lfsr_states(spec, init.mask), max(count, 0)), spec.length))


def output_bits(states: Iterable[int], length: int) -> Iterator[int]:
    """The output bits (cell length-1) of packed generating-register states."""
    return map(rshift, states, repeat(length - 1))


def state_from_outputs(bits: BitSequence) -> BitVector:
    """The state whose first len(bits) outputs are `bits`: cell i holds
    output bit len-1-i."""
    return BitVector.from_bits(list(bits)[::-1])


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


def de_bruijn_states(base: LfsrSpec, state: int) -> Iterator[int]:
    """The packed states of the de Bruijn register over `base` from
    `state` on, one step apart, without end."""
    taps, span = base.taps_mask, base.length
    full, low = (1 << span) - 1, (1 << (span - 1)) - 1
    while True:
        yield state
        # cells 0..span-2 survive the shift into 1..span-1; when they are
        # all zero the complemented feedback inserts the extra zero of the
        # cycle
        fb = ((state & taps).bit_count() & 1) ^ (state & low == 0)
        state = ((state << 1) & full) | fb


def de_bruijn_cycle(base: LfsrSpec) -> array:
    """The 2^span states of the de Bruijn register over `base`, in cycle
    order from the all-zero state, as an array("I").

    Every span-bit state lies on this one cycle, so the control bits from
    any state are cell 0 of a window of it, wrapping at the end.
    """
    return array("I", islice(de_bruijn_states(base, 0), 1 << base.length))


def de_bruijn_bits(base: LfsrSpec, start: int, count: int) -> int:
    """Control bits start .. start + count - 1 of the de Bruijn cycle over
    `base` as one int: bit i is cell 0 of cycle state (start + i) mod 2^span.

    Cycle state 0 is the all-zero state, and states 1 .. 2^span - 1 are
    the base register's states from state 1 on, so the bits are the base
    register's cell-0 sequence v with a 0 spliced in at every multiple of
    2^span.  The state after k clocks holds v_(k-span+1) .. v_k, oldest in
    cell span-1, so v comes span bits per `jumped_states` lookup, from a
    first state reached by one jump of x^k mod f.  Nothing of size
    2^span is built.
    """
    span, period = base.length, 1 << base.length
    start %= period
    jump = poly_pow_mod(X, max(start - 1, 0) + span - 1, base.feedback).mask
    state = xor_rows(jump, tuple(islice(lfsr_states(base, 1), span)))
    windows = islice(jumped_states(base, state, span), -(-count // span))
    v = "".join(map(format, windows, repeat(f"0{span}b")))
    head = -start % period  # the v bits before the first spliced 0
    bits = "0".join([v[:head]] + [v[k:k + period - 1] for k in range(head, count, period - 1)])
    return int(bits[:count][::-1] or "0", 2)


def de_bruijn_sequence(reg: DeBruijnRegister, count: int) -> list[int]:
    """First `count` control bits from the register's current state."""
    return [s & 1 for s in islice(de_bruijn_states(reg.base, reg.state.mask), max(count, 0))]


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
