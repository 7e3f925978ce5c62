import math
import random
from itertools import islice

import pytest

from asgrs.analysis import berlekamp_massey, measure_period
from asgrs.errors import DegenerateStateError, UnsupportedParameterError
from asgrs.field import MAX_DEGREE
from asgrs.gf2 import BinaryPolynomial, BitMatrix, BitVector, xor_rows
from asgrs.registers import (
    DeBruijnRegister,
    LfsrSpec,
    de_bruijn_cycle,
    de_bruijn_sequence,
    de_bruijn_word,
    jump_rows,
    jumped_states,
    lfsr_states,
    lfsr_step,
    output_bits,
    output_sequence,
    output_word,
    primitive_polynomial,
    state_from_outputs,
)

from conftest import _ref_debruijn_step, reference_jump_rows, wide_polynomial

SPEC3 = LfsrSpec(3, BinaryPolynomial(0b1011))
# x^25 + x^3 + 1, primitive, one degree past the primitivity test's cap
SPEC25 = LfsrSpec(25, BinaryPolynomial(1 << 25 | 1 << 3 | 1))


def one_clock_matrix(spec):
    """The one-clock matrix T, as the package's cached jump of one clock."""
    return BitMatrix(spec.length, spec.length,
                     jump_rows(spec.feedback.mask, spec.length, 1))


def times(state, matrix):
    """Row vector `state` times `matrix`."""
    return BitVector(xor_rows(state.mask, matrix.row_masks), matrix.cols)


def identity_rows(n):
    return tuple(1 << i for i in range(n))


def hand_step(cells, poly_mask):
    fb = 0
    for i in range(len(cells)):
        if (poly_mask >> i) & 1:
            fb ^= cells[len(cells) - 1 - i]
    return [fb] + cells[:-1]


class TestLfsrStep:
    def test_zero_clocks_is_identity(self):
        state = BitVector.from_bits([1, 0, 1])
        assert lfsr_step(SPEC3, state, 0) == state
        assert jump_rows(SPEC3.feedback.mask, 3, 0) == identity_rows(3)

    def test_period_seven_by_hand(self):
        cells = [1, 0, 0]
        for _ in range(7):
            cells = hand_step(cells, SPEC3.feedback.mask)
        assert cells == [1, 0, 0]
        state = BitVector.from_bits([1, 0, 0])
        assert lfsr_step(SPEC3, state, 7) == state
        for k in range(1, 7):
            assert lfsr_step(SPEC3, state, k) != state

    def test_clock_additivity(self):
        state = BitVector.from_bits([0, 1, 1])
        assert lfsr_step(SPEC3, state, 5) == lfsr_step(SPEC3, lfsr_step(SPEC3, state, 2), 3)

    def test_negative_clocks_rejected(self):
        with pytest.raises(ValueError, match="cannot clock a register backwards"):
            lfsr_step(SPEC3, BitVector(1, 3), -1)

    def test_length_mismatch(self):
        # every entry that takes a state checks it against the register
        for entry in (lambda state: lfsr_step(SPEC3, state, 1),
                      lambda state: output_sequence(SPEC3, state, 5),
                      lambda state: DeBruijnRegister(SPEC3, state)):
            with pytest.raises(ValueError, match="state length does not match register length"):
                entry(BitVector(1, 4))

    def test_matches_matrix_power(self):
        rng = random.Random(99)
        for _ in range(500):
            degree = rng.randrange(1, 13)
            spec = LfsrSpec(degree, primitive_polynomial(degree))
            state = BitVector(rng.randrange(0, 1 << degree), degree)
            t = rng.randrange(0, 1001)
            # t products with the one-clock matrix, no jump polynomial
            clock, iterated = one_clock_matrix(spec), state
            for _ in range(t):
                iterated = times(iterated, clock)
            assert iterated == lfsr_step(spec, state, t)

    @pytest.mark.parametrize("length", range(1, 13))
    def test_jumps_match_reference_clocks(self, length):
        rng = random.Random(length)
        jumps = {0, 1, length - 1, length, length * length - 1, length * length,
                 (1 << length) - 2, (1 << length) - 1, 1 << length,
                 rng.randrange(1 << 40, 1 << 48)}
        for poly_mask in (primitive_polynomial(length).mask,
                          (1 << length) | rng.randrange(1 << length)):
            spec = LfsrSpec(length, BinaryPolynomial(poly_mask))
            state = rng.randrange(1 << length)
            starts = [1 << j for j in range(length)] + [state]
            walks = [reference_walk(BitVector(s, length), poly_mask) for s in starts]
            for k in jumps:
                after = [walk(k) for walk in walks]
                assert jump_rows(poly_mask, length, k) == tuple(after[:length])
                assert lfsr_step(spec, BitVector(state, length), k).mask == after[-1]


    def test_rows_match_their_definition(self):
        # each row clocks the one before it: primitive and other feedback
        # of every length up to 24, jumps up to 2^20
        rng = random.Random(24)
        for length in range(1, 25):
            for poly_mask in (wide_polynomial(length).mask,
                              (1 << length) | rng.randrange(1 << length)):
                for k in (0, 1, length, rng.randrange(1 << 20), 1 << 20):
                    assert (jump_rows(poly_mask, length, k)
                            == reference_jump_rows(poly_mask, length, k))


def reference_walk(start, poly_mask):
    """k -> the packed state `start` reaches after k reference clocks.

    Clocks by hand until a state repeats; every later state lies on the
    cycle so found, which answers jumps far beyond 2^length.
    """
    cells, path, seen = list(start), [], {}
    while (mask := BitVector.from_bits(cells).mask) not in seen:
        seen[mask] = len(path)
        path.append(mask)
        cells = hand_step(cells, poly_mask)
    tail = seen[mask]
    period = len(path) - tail
    return lambda k: path[k] if k < tail else path[tail + (k - tail) % period]


class TestTransitionMatrix:
    def test_degenerate_length_one(self):
        t = one_clock_matrix(LfsrSpec(1, BinaryPolynomial(0b11)))
        assert t == BitMatrix(1, 1, (1,))

    def test_reproduces_single_step_exhaustively(self):
        t = one_clock_matrix(SPEC3)
        for mask in range(8):
            state = BitVector(mask, 3)
            assert times(state, t) == lfsr_step(SPEC3, state, 1)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_order_of_companion(self, m):
        assert jump_rows(primitive_polynomial(m).mask, m, (1 << m) - 1) == identity_rows(m)


class TestOutputSequence:
    def test_full_period_balance(self):
        # init cells hold the first three output bits in reverse
        seq = output_sequence(SPEC3, BitVector.from_bits([0, 0, 1]), 7)
        assert seq[:3] == [1, 0, 0]
        assert sum(seq) == 4 and len(seq) == 7

    def test_empty(self):
        for count in (-1, 0):
            assert output_sequence(SPEC3, BitVector.from_bits([1, 0, 0]), count) == []

    @pytest.mark.parametrize("m", range(1, 9))
    def test_state_from_outputs_round_trip(self, m):
        spec = LfsrSpec(m, primitive_polynomial(m))
        for mask in range(1, 1 << m):
            bits = output_sequence(spec, BitVector(mask, m), m)
            assert state_from_outputs(bits) == BitVector(mask, m)

    @pytest.mark.parametrize("m", range(2, 11))
    def test_period_detection(self, m):
        spec = LfsrSpec(m, primitive_polynomial(m))
        seq = output_sequence(spec, BitVector(1, m), 2 * ((1 << m) - 1))
        assert measure_period(seq) == (1 << m) - 1

    def test_degenerate_zero_state(self):
        with pytest.raises(DegenerateStateError):
            output_sequence(SPEC3, BitVector(0, 3), 5)

    def test_zero_state_allowed_for_non_primitive(self):
        spec = LfsrSpec(2, BinaryPolynomial(0b101))  # (x+1)^2
        assert output_sequence(spec, BitVector(0, 2), 3) == [0, 0, 0]

    def test_zero_state_above_degree_cap_names_the_cap(self):
        # the register's primitivity is unknown there, so the zero state
        # is refused rather than read as a stream of zeros
        with pytest.raises(UnsupportedParameterError, match=f"degree {MAX_DEGREE}"):
            output_sequence(SPEC25, BitVector(0, 25), 5)


class TestJumpedStates:
    @pytest.mark.parametrize("length", range(1, 17))
    def test_matches_iterated_row_products(self, length):
        # the tables split the state at length // 2, so odd lengths and
        # lengths that are not a multiple of 8 split unevenly; the
        # reference is the row product state * T^k, one jump at a time
        spec = LfsrSpec(length, primitive_polynomial(length))
        period = (1 << length) - 1
        rng = random.Random(length)
        for k in (0, 1, 2, length, period, 3 * period, rng.randrange(1 << 20)):
            rows = jump_rows(spec.feedback.mask, length, k)
            state = rng.randrange(1, 1 << length)
            expected = []
            for _ in range(12):
                expected.append(state)
                state = xor_rows(state, rows)
            assert list(islice(jumped_states(spec, expected[0], k), 12)) == expected
            assert lfsr_step(spec, BitVector(expected[0], length), k).mask == expected[1]
            if k % period == 0:
                assert set(expected) == {expected[0]}

    @pytest.mark.parametrize("length", range(1, 25))
    def test_matches_unit_clocks_for_any_feedback(self, length):
        # every k-th state of the unit-clocked register, and its outputs
        # read 64 per lookup, whatever the feedback: the primitive one
        # and reducible and singular polynomials; counts around words and
        # around a period, whose lengths are capped at 2^12 + 1
        rng = random.Random(length)
        top = 1 << min(length, 12)
        counts = (0, 1, 63, 64, 65, 127, 128, 129, top - 1, top, top + 1)
        for feedback in [wide_polynomial(length)] + [
                BinaryPolynomial((1 << length) | rng.randrange(1 << length)) for _ in range(4)]:
            spec = LfsrSpec(length, feedback)
            state = rng.randrange(1 << length)
            clocks = list(islice(lfsr_states(spec, state), max(counts)))
            for k in (1, 2, 3, 5):
                expected = clocks[:40:k]
                assert list(islice(jumped_states(spec, state, k), len(expected))) == expected
            outputs = list(output_bits(clocks, length))
            for count in counts:
                word = output_word(spec, state, count)
                assert [(word >> t) & 1 for t in range(count)] == outputs[:count], count
                assert word >> count == 0


MSEQ7 = output_sequence(SPEC3, BitVector.from_bits([0, 0, 1]), 7)


class TestDecimate:
    def test_conjugate_decimation_is_a_shift(self):
        stream = output_sequence(SPEC3, BitVector.from_bits([0, 0, 1]), 14)
        dec = stream[::2][:7]
        shifts = [MSEQ7[k:] + MSEQ7[:k] for k in range(7)]
        assert dec in shifts

    def test_decimation_by_three_changes_polynomial(self):
        stream = output_sequence(SPEC3, BitVector.from_bits([0, 0, 1]), 21)
        fit = berlekamp_massey(stream[::3])
        assert fit.linear_complexity == 3
        assert fit.connection.mask == 0b1101  # x^3 + x^2 + 1

    @pytest.mark.parametrize("m", (3, 4, 5))
    def test_msequence_preserved_iff_coprime(self, m):
        period = (1 << m) - 1
        spec = LfsrSpec(m, primitive_polynomial(m))
        failing = []
        for r in range(1, period):
            # enough source bits for two decimated periods
            need = r * (2 * period - 1) + 1
            stream = output_sequence(spec, BitVector(1, m), need)
            dec = stream[::r][:2 * period]
            least = measure_period(dec)
            if least != period:
                failing.append(r)
            assert (least == period) == (math.gcd(r, period) == 1)
        if m == 4:
            assert failing == [3, 5, 6, 9, 10, 12]


class TestDeBruijn:
    def test_empty(self):
        reg = DeBruijnRegister(SPEC3, BitVector.from_bits([1, 0, 0]))
        for count in (-1, 0):
            assert de_bruijn_sequence(reg, count) == []

    def test_smallest_span(self):
        reg = DeBruijnRegister(LfsrSpec(1, BinaryPolynomial(0b11)), BitVector(0, 1))
        assert de_bruijn_sequence(reg, 6) == [0, 1, 0, 1, 0, 1]

    def test_span3_every_window_once(self):
        reg = DeBruijnRegister(SPEC3, BitVector(0, 3))
        seq = de_bruijn_sequence(reg, 8)
        cyc = seq + seq[:2]
        windows = {tuple(cyc[i:i + 3]) for i in range(8)}
        assert len(windows) == 8
        assert measure_period(de_bruijn_sequence(reg, 16)) == 8

    @pytest.mark.parametrize("span", range(1, 11))
    def test_single_cycle(self, span):
        base = LfsrSpec(span, primitive_polynomial(span))
        states = de_bruijn_cycle(base)
        assert len(states) == 1 << span
        assert sorted(states) == list(range(1 << span))  # every state once
        assert states[0] == 0
        for i, s in enumerate(states):
            cells = _ref_debruijn_step(list(BitVector(s, span)), base.feedback.mask)
            # the successor of the last state closes the cycle at state 0
            assert BitVector.from_bits(cells).mask == states[(i + 1) % len(states)]

    @pytest.mark.parametrize("span", range(1, 13))
    def test_window_property(self, span):
        base = LfsrSpec(span, primitive_polynomial(span))
        seq = de_bruijn_sequence(DeBruijnRegister(base, BitVector(0, span)),
                                 1 << span)
        cyc = seq + seq[:span - 1]
        windows = {tuple(cyc[i:i + span]) for i in range(1 << span)}
        assert len(windows) == 1 << span

    @pytest.mark.parametrize("span", range(1, 11))
    def test_digits_match_stepping_from_every_state(self, span):
        # the all-zero state, the state before it (1 << (span - 1)), the
        # state after it, and counts that stop short of, reach or pass the
        # spliced zero
        base = LfsrSpec(span, primitive_polynomial(span))
        period = 1 << span
        for state in range(period):
            stepped = de_bruijn_sequence(DeBruijnRegister(base, BitVector(state, span)),
                                         period + 3)
            for count in (0, 1, span, period - 1, period, period + 3):
                word = de_bruijn_word(base, state, count)
                assert [(word >> t) & 1 for t in range(count)] == stepped[:count]
                assert word >> count == 0

    def test_rejects_non_primitive_base(self):
        with pytest.raises(ValueError):
            DeBruijnRegister(LfsrSpec(2, BinaryPolynomial(0b101)), BitVector(0, 2))

    def test_base_above_degree_cap_names_the_cap(self):
        with pytest.raises(UnsupportedParameterError, match=f"degree {MAX_DEGREE}"):
            DeBruijnRegister(SPEC25, BitVector(1, 25))


class TestSpecValidation:
    def test_degree_must_match_length(self):
        with pytest.raises(ValueError):
            LfsrSpec(4, BinaryPolynomial(0b1011))
        with pytest.raises(ValueError, match="register length must be positive"):
            LfsrSpec(0, BinaryPolynomial(1))

    def test_stock_polynomials(self):
        for degree in range(1, 17):
            assert primitive_polynomial(degree).degree == degree
        for degree in (0, 17):
            with pytest.raises(UnsupportedParameterError,
                               match=f"no stock primitive polynomial of degree {degree}"):
                primitive_polynomial(degree)
