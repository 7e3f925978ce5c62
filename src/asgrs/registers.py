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
register); every other stepping function reads them.  A state holds the
register's next L outputs.  `output_word` reads a generating register's
outputs as one int, 64 per lookup of tables that pack a half-state's
next 64 outputs with its part of the state 64 clocks on: the generator
reads its streams this way, and `de_bruijn_word` the control bits off
the base register, splicing in the de Bruijn cycle's extra zero.  A
nonzero state of a primitive register of length m recurs after 2^m - 1
clocks, and every span-l state of the de Bruijn register after 2^l steps.

A jump of k clocks is the polynomial c = x^k mod f: since f(T) = 0 for
the one-clock map T, the state after k clocks is the XOR of the states
after i clocks over the terms x^i of c, i < L.  So any jump costs
O(log k) products modulo f plus 2L clocks, however large k is: L for
the first basis state and one for each of the others.  `jumped_states`
then takes one table entry per half of the state: two lookups per jump
(tables of a byte at L = 16), not a loop over L rows.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import cached_property, lru_cache, reduce
from itertools import islice, repeat
from operator import and_, rshift
from typing import Iterable, Iterator, Sequence

from .errors import DegenerateStateError, UnsupportedParameterError
from .field import is_primitive
from .gf2 import BinaryPolynomial, BitVector, poly_pow_mod, reverse_bits, xor_rows

# Sequences of bits are plain lists/tuples of 0/1 ints throughout the package.
BitSequence = Sequence[int]


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
        return reverse_bits(self.feedback.mask, self.length)


def lfsr_states(spec: LfsrSpec, state: int) -> Iterator[int]:
    """The packed states from `state` on, one clock apart, without end."""
    taps, full = spec.taps_mask, (1 << spec.length) - 1
    while True:
        yield state
        state = ((state << 1) & full) | ((state & taps).bit_count() & 1)


def jump_rows(feedback_mask: int, length: int, k: int) -> tuple[int, ...]:
    """Row masks of T^k, the k-clock jump applied as a row-vector product.

    Row j is basis state e_j after k clocks.  Row 0 is the XOR of the
    first `length` successors of e_0 picked by the terms of x^k mod f.
    One clock takes e_j to e_(j+1) plus e_0 where tap j is set, and T^k
    commutes with T, so row j+1 is row j clocked once plus row 0 where
    tap j is set.
    """
    spec = LfsrSpec(length, BinaryPolynomial(feedback_mask))
    c = poly_pow_mod(k, spec.feedback).mask
    rows = [xor_rows(c, tuple(islice(lfsr_states(spec, 1), length)))]
    for j in range(length - 1):
        clocked = next(islice(lfsr_states(spec, rows[-1]), 1, None))
        rows.append(clocked ^ rows[0] if spec.taps_mask >> j & 1 else clocked)
    return tuple(rows)


def _word_rows(feedback_mask: int, length: int) -> list[int]:
    """Rows of the map from a window (the state with its cells reversed,
    bit i = output i) to its outputs 0 .. 63 + L, bit t = output t: row i
    is u >> (L - 1 - i) less the rows above i, for the outputs u, stepped
    by s_(t+L) = sum_i f_i s_(t+i), from the window of output L - 1."""
    low, u = feedback_mask ^ (1 << length), 1 << (length - 1)
    for t in range(63 + length):
        u |= ((u >> t & low).bit_count() & 1) << (t + length)
    rows = [0] * length
    for i in reversed(range(length)):
        row = (u >> (length - 1 - i)) & ((1 << (64 + length)) - 1)
        rows[i] = row ^ xor_rows(row & ((1 << length) - 1) ^ (1 << i), rows)
    return rows


@lru_cache(maxsize=16)
def _half_tables(feedback_mask: int, length: int, k: int | None) -> tuple[tuple[int, ...], ...]:
    """T^k of every state of the low L//2 cells, and of the rest, or with
    k None the map of `_word_rows` on windows: the entries with row j set
    are the earlier entries XOR row j.  The cache is bounded: every
    distinct key brings its own jump sizes, and every fit its feedback."""
    half = length // 2
    low, high = [0], [0]
    rows = _word_rows(feedback_mask, length) if k is None else jump_rows(feedback_mask, length, k)
    for j, row in enumerate(rows):
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
    if init.mask == 0 and is_primitive(spec.feedback):
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
        if not is_primitive(self.base.feedback):
            raise ValueError("de Bruijn base polynomial must be primitive")


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


def output_word(spec: LfsrSpec, state: int, count: int) -> int:
    """Output bits 0 .. count - 1 of the generating register from `state`
    as one int, bit t = output t, 64 per table lookup."""
    length, count = spec.length, max(count, 0)
    low, high = _half_tables(spec.feedback.mask, length, None)
    half, mask = length // 2, len(low) - 1
    window = reverse_bits(state, length)
    words = array("Q")
    for _ in range(-(-count // 64)):
        entry = low[window & mask] ^ high[window >> half]
        words.append(entry & 0xFFFF_FFFF_FFFF_FFFF)
        window = entry >> 64
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little") & ((1 << count) - 1)


def _repeat(bits: int, period: int, width: int) -> int:
    """The `period`-bit int `bits` repeated to `width` bits or more."""
    while period < width:
        bits |= bits << period
        period <<= 1
    return bits


def de_bruijn_word(base: LfsrSpec, state: int, count: int) -> int:
    """Control bits 0 .. count - 1 of the de Bruijn register over `base`
    from `state` as one int, bit t = control bit t.

    The register follows its base register except that it passes the
    all-zero state between state 1 << (span - 1) and state 1, so a lap
    of its 2^span bits, which then repeats, is the base register's cell-0
    sequence with a 0 spliced in after its one run of span - 1 zeros.
    The state after k clocks holds v_(k-span+1) .. v_k, oldest in cell
    span - 1, so v is the base register's cell span - 1 output from
    `state`, whose first span - 1 bits precede v_0.  A run that fills
    them ended before v_0, past the all-zero state; a run from
    v_(i-span+1) to v_(i-1), i >= 1, makes control bit i the zero.
    """
    span, count = base.length, max(count, 0)
    if state == 0:
        # the all-zero state outputs its 0 and moves to state 1
        return de_bruijn_word(base, 1, count - 1) << 1
    lap = min(count, 1 << span)
    v = output_word(base, state, lap + span - 1)
    zeros = v ^ ((1 << (lap + span - 1)) - 1)
    # the zero may be spliced in at bits 1 .. lap - 1, none when lap is 0
    runs = reduce(and_, (zeros >> k for k in range(span - 1)), max((1 << lap) - 2, 0))
    bits = v >> (span - 1)
    if runs:
        at = (runs ^ (runs - 1)).bit_length() - 1
        bits = bits & ((1 << at) - 1) | (bits >> at) << (at + 1)
    return _repeat(bits & ((1 << lap) - 1), lap, count) & ((1 << count) - 1)


def de_bruijn_bits(base: LfsrSpec, start: int, count: int) -> int:
    """Control bits start .. start + count - 1 of the de Bruijn cycle over
    `base` as one int: bit i is cell 0 of cycle state (start + i) mod 2^span.

    Cycle state 0 is the all-zero state, and cycle state p >= 1 is the
    base register's state p - 1 clocks past state 1, reached by one jump
    of x^(p-1) mod f; `de_bruijn_word` reads on from there.  Nothing of
    size 2^span is built.
    """
    span = base.length
    start %= 1 << span
    state = start and xor_rows(poly_pow_mod(start - 1, base.feedback).mask,
                               tuple(islice(lfsr_states(base, 1), span)))
    return de_bruijn_word(base, state, count)


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
