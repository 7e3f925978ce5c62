import dataclasses
import re
import sys
import tracemalloc

import pytest

from asgrs.analysis import measure_period
from asgrs.errors import DegenerateStateError, KeyValidationError
from asgrs.field import field_context
from asgrs.generator import (
    _BLOCK_BITS,
    _SHORT_STREAM,
    AsgKey,
    AsgParams,
    ReducedModel,
    _expand,
    _expand_stages,
    classical_asg_keystream,
    keystream,
    random_key,
    reduce_to_classical,
    validate,
)
from asgrs.gf2 import BinaryPolynomial, BitVector
from asgrs.registers import (
    DeBruijnRegister,
    LfsrSpec,
    _half_tables,
    output_sequence,
    primitive_polynomial,
)

from conftest import (
    alpha,
    make_params,
    minimal_polynomial,
    random_valid_key,
    reference_keystream,
    reference_keystream_by_orbits,
    reference_trace,
)

P334 = make_params(3, 3, 4)


def fixed_key():
    return AsgKey(
        state_a=BitVector.from_bits([1, 0, 1]),
        state_b=BitVector.from_bits([0, 1, 1]),
        state_c=BitVector.from_bits([1, 0, 0, 1]),
        r=2,
        s=4,
    )


class TestValidate:
    def test_ok_case(self):
        key = fixed_key()
        key = AsgKey(key.state_a, key.state_b, key.state_c, 2, 2)
        assert validate(P334, key) == []

    def test_gcd_jump_violation(self):
        params = make_params(3, 4, 3)
        key = AsgKey(BitVector(0, 3), BitVector(1, 4), BitVector(1, 3), 3, 1)
        violations = validate(params, key)
        assert any("gcd(r = 3, 15) = 3" in v for v in violations)

    def test_gcd_mn_violation(self):
        params = make_params(3, 4, 6)
        assert any("gcd(m, n)" in v for v in validate(params))
        relaxed = make_params(3, 4, 6, strict=False)
        assert validate(relaxed) == []

    def test_zero_states_flagged(self):
        key = AsgKey(BitVector(0, 3), BitVector(0, 3), BitVector(0, 4), 1, 1)
        violations = validate(P334, key)
        assert any("state_b" in v for v in violations)
        assert any("state_c" in v for v in violations)

    def test_jump_reduced_modulo_period(self):
        key = fixed_key()
        # r = 9 = 2 mod 7 is accepted and equivalent to r = 2
        shifted = AsgKey(key.state_a, key.state_b, key.state_c, key.r + 7, key.s)
        assert validate(P334, shifted) == []
        assert keystream(P334, shifted, 64) == keystream(P334, key, 64)

    def test_jump_multiple_of_period_rejected(self):
        key = fixed_key()
        bad = AsgKey(key.state_a, key.state_b, key.state_c, 7, key.s)
        assert any("0 mod 7" in v for v in validate(P334, bad))

    def test_non_primitive_polynomial_flagged(self):
        from asgrs.generator import AsgParams
        params = AsgParams(3, 3, 4, primitive_polynomial(3),
                           BinaryPolynomial(0b1111), primitive_polynomial(4))
        assert any("not primitive" in v for v in validate(params))
        # x^25 + x^3 + 1 is primitive, but above the degree the test takes
        params = AsgParams(25, 3, 5, BinaryPolynomial(0x2000009),
                           primitive_polynomial(3), BinaryPolynomial(0x25))
        assert validate(params) == [
            "poly_a degree 25 is above the supported maximum 24"]

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "non-strict"])
    @pytest.mark.parametrize("change, violation", [
        ({"r": -1}, "r = -1 is not a non-negative int"),
        ({"s": -1}, "s = -1 is not a non-negative int"),
        ({"r": 1.0}, "r = 1.0 is not a non-negative int"),
        ({"s": 1.0}, "s = 1.0 is not a non-negative int"),
        ({"r": True}, "r = True is not a non-negative int"),
        ({"s": True}, "s = True is not a non-negative int"),
        ({"state_b": BitVector(1, 4)}, "state_b has 4 cells, expected 3"),
    ], ids=["r-negative", "s-negative", "r-float", "s-float", "r-bool", "s-bool",
            "state_b-cells"])
    def test_bad_key_refused_before_generation(self, change, violation, strict):
        # a jump is a count of clocks, so a negative, float or bool one is
        # a key violation like a bad state, reported before any stepping
        params = make_params(3, 3, 4, strict=strict)
        key = dataclasses.replace(fixed_key(), **change)
        assert validate(params, key) == [violation]
        for entry in (lambda: keystream(params, key, 64), lambda: reduce_to_classical(params, key)):
            with pytest.raises(KeyValidationError, match=re.escape(f"invalid key: {violation}")):
                entry()

    @pytest.mark.parametrize("params", [
        AsgParams(3, 0, 4, primitive_polynomial(3), BinaryPolynomial(1), primitive_polynomial(4)),
        AsgParams(3, 3, 0, primitive_polynomial(3), primitive_polynomial(3), BinaryPolynomial(1)),
        make_params(3, 1, 2),
        AsgParams(3, 3, 4, primitive_polynomial(3), primitive_polynomial(4), primitive_polynomial(4)),
        AsgParams(3, 3, 4, primitive_polynomial(3), BinaryPolynomial(0b1111), primitive_polynomial(4)),
    ], ids=["B0", "C0", "B1", "degree", "non-primitive"])
    def test_key_not_judged_against_invalid_params(self, params):
        # a key means nothing against invalid params, so only theirs are
        # listed; a 0-cell register's period 2^0 - 1 = 0 reduces no jump
        violations = validate(params)
        assert violations
        text = re.escape("invalid params: " + "; ".join(violations))
        for key in (fixed_key(), AsgKey(BitVector(0, 1), BitVector(0, 0), BitVector(0, 0), 0, 2.5)):
            assert validate(params, key) == violations
            for entry in (lambda: keystream(params, key, 8),
                          lambda: reduce_to_classical(params, key)):
                with pytest.raises(KeyValidationError, match=text):
                    entry()

    @pytest.mark.parametrize("lmn, register", [((3, 1, 2), "B"), ((3, 2, 1), "C")],
                             ids=["m1", "n1"])
    def test_one_cell_register_rejected(self, lmn, register, rng):
        # period 2^1 - 1 = 1: every jump is 0 modulo it
        params = make_params(*lmn)
        violations = validate(params)
        assert any(f"register {register}" in v for v in violations)
        with pytest.raises(KeyValidationError):
            random_key(params, rng)
        assert validate(make_params(1, 2, 3)) == []


class TestRandomKey:
    def test_always_valid(self, rng):
        for dims in ((3, 3, 4), (8, 7, 5)):
            params = make_params(*dims)
            for _ in range(50):
                assert validate(params, random_key(params, rng)) == []

    def test_seeded_determinism(self):
        import random
        assert random_key(P334, random.Random(7)) == random_key(P334, random.Random(7))

    def test_rejects_bad_params(self):
        import random
        from asgrs.errors import KeyValidationError
        with pytest.raises(KeyValidationError):
            random_key(make_params(3, 4, 6), random.Random(0))


class TestKeystream:
    @staticmethod
    def edge_counts(l, moves):
        """0, 1, 2, k * 2^l and k * 2^l +- 1, counts whose count - 1 steps
        are k * N and k * N +- 1 for the merge block width N (2^12 for
        l <= 12, many control laps per block when l is small), and a count
        long enough for each generating register to move about `moves`
        times."""
        period = 1 << l
        laps = [k * period + d for k in range(1, 4) for d in (-1, 0, 1)]
        blocks = [k * _BLOCK_BITS + d for k in range(1, 4) for d in (0, 1, 2)]
        return sorted({0, 1, 2, *laps, *blocks, 2 * moves + 3})

    @staticmethod
    def reference(params, key, count):
        """The reference keystream of `count` bits, read off the register
        orbits and checked against the stepped simulator on 200 bits."""
        expected = reference_keystream_by_orbits(params, key, count)
        assert expected[:200] == reference_keystream(params, key, min(count, 200))
        return expected

    def test_empty(self):
        model = reduce_to_classical(P334, fixed_key())
        for count in (-1, 0):
            assert keystream(P334, fixed_key(), count) == []
            assert classical_asg_keystream(model, count) == []

    def test_first_bit_ignores_control(self, rng):
        key = fixed_key()
        b0 = key.state_b[2] ^ key.state_c[3]
        for a_mask in range(8):
            moved = AsgKey(BitVector(a_mask, 3), key.state_b, key.state_c, key.r, key.s)
            assert keystream(P334, moved, 1) == [b0]

    def test_matches_reference_simulator_fixed(self):
        z = keystream(P334, fixed_key(), 64)
        assert z == reference_keystream(P334, fixed_key(), 64)

    def test_matches_reference_simulator_random(self, rng):
        for _ in range(20):
            params = make_params(*rng.choice([(3, 3, 4), (4, 3, 5), (5, 4, 7)]))
            key = random_valid_key(params, rng)
            assert keystream(params, key, 120) == reference_keystream(params, key, 120)
        # non-strict keys: jumps sharing a factor with the period shorten the
        # jumped streams (r = 3, 5 at m = 4 give periods 5, 3, not 15), and
        # jumps of at least a period wrap; counts straddle control periods
        # and merge blocks.  The fit of a long stream is then shorter than
        # m (r = 5, 20 at m = 4; s = 9, 21 at n = 6), or empty for an
        # all-zero stream
        for l, m, n, jumps_r, jumps_s in ((2, 4, 3, (3, 5, 16, 20), (1, 8, 9)),
                                          (3, 4, 6, (5, 6, 17), (3, 7, 9, 21, 64)),
                                          (4, 3, 5, (2, 7 + 3, 7 + 7 + 1), (32, 33))):
            params = make_params(l, m, n, strict=False)
            for r in jumps_r:
                for s in jumps_s:
                    key = AsgKey(BitVector(rng.randrange(1 << l), l),
                                 BitVector(rng.randrange(1, 1 << m), m),
                                 BitVector(rng.randrange(1, 1 << n), n), r, s)
                    assert validate(params, key) == []
                    counts = self.edge_counts(l, 64)
                    expected = self.reference(params, key, counts[-1])
                    for count in counts:
                        assert keystream(params, key, count) == expected[:count], count

    def test_jump_cache_is_bounded(self, rng):
        bound = _half_tables.cache_info().maxsize
        assert bound is not None
        params = make_params(3, 7, 8)
        jumps = set()
        for _ in range(bound):
            key = random_valid_key(params, rng)
            jumps.update({(7, key.r), (8, key.s)})
            keystream(params, key, 10)
        assert len(jumps) > bound
        assert _half_tables.cache_info().currsize <= bound
        # the word tables share the cache: streams longer than
        # _SHORT_STREAM are read off their substitute registers, one
        # feedback per decimation
        feedbacks = set()
        for _ in range(bound):
            key = random_valid_key(params, rng)
            model = reduce_to_classical(params, key)
            feedbacks.update({model.beta_spec.feedback, model.lambda_spec.feedback})
            keystream(params, key, 4 * _SHORT_STREAM)
        assert len(feedbacks) > bound
        assert _half_tables.cache_info().currsize <= bound

    def test_invalid_key_raises(self):
        bad = AsgKey(BitVector(0, 3), BitVector(0, 3), BitVector(1, 4), 1, 1)
        with pytest.raises(KeyValidationError):
            keystream(P334, bad, 8)

    def test_period(self, rng):
        for _ in range(3):
            key = random_valid_key(P334, rng)
            assert measure_period(keystream(P334, key, 1680)) == 840

    @pytest.mark.parametrize("dims", [(1, 2, 3), (2, 3, 2), (2, 5, 4), (3, 3, 5),
                                      (4, 5, 3), (4, 2, 5), (13, 3, 4)])
    def test_edge_counts_match_reference(self, dims, rng):
        # the jumped streams are built one period long and repeated, so
        # counts at and around control laps, and streams several B and C
        # periods long, are where an off-by-one would show; at l = 13 a
        # control lap is longer than 2^12, and a merge block is one lap
        params = make_params(*dims)
        l, m, n = dims
        for _ in range(4):
            key = random_valid_key(params, rng)
            model = reduce_to_classical(params, key)
            counts = self.edge_counts(l, 4 << max(m, n))
            expected = self.reference(params, key, counts[-1])
            for count in counts:
                assert keystream(params, key, count) == expected[:count], count
                assert classical_asg_keystream(model, count) == expected[:count], count

    def test_peak_memory_is_the_output(self, rng):
        # one period of each sequence is held, never a count-sized copy
        params = make_params(16, 15, 16)
        key = random_valid_key(params, rng)
        model = reduce_to_classical(params, key)
        for run in (lambda: keystream(params, key, 10 ** 6),
                    lambda: classical_asg_keystream(model, 10 ** 6)):
            tracemalloc.start()
            try:
                out = run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(out) == 10 ** 6
            assert peak < sys.getsizeof(out) + (1 << 20)


class TestTraceInstrumentation:
    def test_one_register_advances_per_step(self, rng):
        key = random_valid_key(P334, rng)
        tr = reference_trace(P334, key, 200)
        # after t steps the two streams together moved exactly t times
        assert (len(tr.beta_stream) - 1) + (len(tr.lambda_stream) - 1) == 199
        assert len(tr.control_bits) == 199
        assert sum(tr.control_bits) == len(tr.beta_stream) - 1

    def test_streams_are_decimations(self, rng):
        for _ in range(5):
            key = random_valid_key(P334, rng)
            tr = reference_trace(P334, key, 150)
            b = output_sequence(LfsrSpec(3, P334.poly_b), key.state_b,
                                key.r * len(tr.beta_stream))
            c = output_sequence(LfsrSpec(4, P334.poly_c), key.state_c,
                                key.s * len(tr.lambda_stream))
            assert tr.beta_stream == b[::key.r][:len(tr.beta_stream)]
            assert tr.lambda_stream == c[::key.s][:len(tr.lambda_stream)]

    def test_difference_identity_on_control_one_steps(self, rng):
        # z_t ^ z_{t+1} equals the B-side stream difference when a_t = 1
        key = random_valid_key(P334, rng)
        tr = reference_trace(P334, key, 300)
        p = q = 0
        for t, a in enumerate(tr.control_bits):
            diff = tr.keystream[t] ^ tr.keystream[t + 1]
            if a:
                assert diff == tr.beta_stream[p] ^ tr.beta_stream[p + 1]
                p += 1
            else:
                assert diff == tr.lambda_stream[q] ^ tr.lambda_stream[q + 1]
                q += 1


class TestReduction:
    def test_unit_jumps_are_identity(self):
        key = AsgKey(BitVector.from_bits([1, 0, 1]), BitVector.from_bits([0, 1, 1]),
                     BitVector.from_bits([1, 0, 0, 1]), 1, 1)
        model = reduce_to_classical(P334, key)
        assert model.beta_spec.feedback == P334.poly_b
        assert model.beta_state == key.state_b
        assert model.lambda_spec.feedback == P334.poly_c
        assert model.lambda_state == key.state_c

    def test_jump_three_swaps_polynomial(self):
        key = fixed_key()
        key3 = AsgKey(key.state_a, key.state_b, key.state_c, 3, key.s)
        model = reduce_to_classical(P334, key3)
        assert model.beta_spec.feedback.mask == 0b1101  # x^3 + x^2 + 1

    def test_conjugate_jump_keeps_polynomial(self):
        key = fixed_key()  # r = 2, conjugate exponent of 1
        model = reduce_to_classical(P334, key)
        assert model.beta_spec.feedback.mask == 0b1011  # x^3 + x + 1

    @pytest.mark.parametrize("dims", [(3, 3, 4), (5, 5, 7)])
    def test_model_equivalence(self, dims, rng):
        params = make_params(*dims)
        for _ in range(25):
            key = random_valid_key(params, rng)
            model = reduce_to_classical(params, key)
            assert classical_asg_keystream(model, 1000) == keystream(params, key, 1000)

    def test_all_zero_register_rejected(self):
        model = reduce_to_classical(P334, fixed_key())
        broken = type(model)(model.beta_spec, model.beta_state,
                             model.lambda_spec, BitVector(0, 4), model.control)
        with pytest.raises(DegenerateStateError):
            classical_asg_keystream(broken, 10)

    def test_state_length_must_match_register(self, rng):
        # a state with a cell more or less than its register would index
        # the register's tables with bits it does not have
        params = make_params(4, 3, 5)
        model = reduce_to_classical(params, random_valid_key(params, rng))
        for beta, lam in ((BitVector(0b1011, 4), model.lambda_state),
                          (model.beta_state, BitVector(0b1011, 4))):
            with pytest.raises(ValueError, match="state length does not match register length"):
                ReducedModel(model.beta_spec, beta, model.lambda_spec, lam, model.control)

    def test_collapsing_decimation_rejected(self):
        # non-strict mode lets gcd(r, period) > 1 through generation, but a
        # jump whose decimated stream drops below full linear complexity
        # cannot be modelled by a same-length register
        params = make_params(3, 4, 3, strict=False)
        key = AsgKey(BitVector(0, 3), BitVector(1, 4), BitVector(1, 3), 5, 1)
        assert validate(params, key) == []
        assert len(keystream(params, key, 16)) == 16
        with pytest.raises(DegenerateStateError):
            reduce_to_classical(params, key)
        # keystream still reads such long streams off their shorter fits:
        # from B states 0x1, 0x6 and 0x7 the stream of r = 5 is all zero (an
        # empty fit), from the others it has linear complexity 2
        counts = TestKeystream.edge_counts(3, 64)
        for b_state in range(1, 16):
            for r in (5, 20):
                key = AsgKey(BitVector(5, 3), BitVector(b_state, 4), BitVector(3, 3), r, 1)
                expected = TestKeystream.reference(params, key, counts[-1])
                for count in counts:
                    assert keystream(params, key, count) == expected[:count], (b_state, r, count)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_matches_field_minimal_polynomial(self, m, rng):
        # the substitute feedback is the minimal polynomial of alpha^r;
        # below degree m the reduction must refuse
        params = make_params(3, m, 3, strict=False)
        ctx = field_context(params.poly_b)
        for r in range(1, (1 << m) - 1):
            key = AsgKey(BitVector(rng.randrange(8), 3), BitVector(rng.randrange(1, 1 << m), m),
                         BitVector(rng.randrange(1, 8), 3), r, 1)
            minimal = minimal_polynomial(ctx, ctx.pow(alpha(ctx), r))
            if minimal.degree == m:
                model = reduce_to_classical(params, key)
                assert model.beta_spec.feedback == minimal
                assert classical_asg_keystream(model, 64) == keystream(params, key, 64)
            else:
                with pytest.raises(DegenerateStateError):
                    reduce_to_classical(params, key)

    def test_full_degree_non_coprime_jump_still_reduces(self):
        # r = 3 at m = 4 hits the degree-4 cyclotomic polynomial: not an
        # m-sequence any more, but still representable at full length
        params = make_params(3, 4, 3, strict=False)
        key = AsgKey(BitVector(0, 3), BitVector(1, 4), BitVector(1, 3), 3, 1)
        model = reduce_to_classical(params, key)
        assert model.beta_spec.feedback.mask == 0b11111
        assert classical_asg_keystream(model, 500) == keystream(params, key, 500)

    @pytest.mark.parametrize("beta_feedback, lambda_feedback", [
        (0b10001, 0b111),      # (x+1)^4: period 4, which does not divide 15
        (0b11111, 0b1001),     # x^4+x^3+x^2+x+1 (period 5); x^3+1 = (x+1)(x^2+x+1)
        (0b11000, 0b110),      # x^4+x^3 and x^2+x: singular, not periodic from the start
        # (x^3+x+1)(x^3+x^2+1): reducible, period 7, and x^63 = 1 modulo it
        (0b1111111, 0b111),
        (0b10, 0b111),         # x: irreducible, but x^1 = 0 mod x, so never periodic
    ])
    def test_non_primitive_model_matches_reference(self, beta_feedback, lambda_feedback, rng):
        # a hand-built model may carry any feedback, so the classical path
        # must not assume the streams repeat after 2^L - 1 clocks
        bpoly, cpoly = BinaryPolynomial(beta_feedback), BinaryPolynomial(lambda_feedback)
        control = DeBruijnRegister(LfsrSpec(3, primitive_polynomial(3)), BitVector(5, 3))
        # the reference runs the model as an ASG with unit jumps
        params = AsgParams(3, bpoly.degree, cpoly.degree, control.base.feedback, bpoly, cpoly,
                           strict=False)
        for _ in range(4):
            beta = BitVector(rng.randrange(1, 1 << bpoly.degree), bpoly.degree)
            lam = BitVector(rng.randrange(1, 1 << cpoly.degree), cpoly.degree)
            model = ReducedModel(LfsrSpec(bpoly.degree, bpoly), beta,
                                 LfsrSpec(cpoly.degree, cpoly), lam, control)
            key = AsgKey(control.state, beta, lam, 1, 1)
            for count in (0, 1, 2, 7, 8, 9, 17, 100):
                assert classical_asg_keystream(model, count) == reference_keystream(params, key, count)


class TestExpand:
    @staticmethod
    def deposit(word, mask):
        """Bits 0, 1, ... of `word` at the set bits of `mask`, lowest
        first, one bit at a time."""
        out = k = 0
        for i in range(mask.bit_length()):
            if mask >> i & 1:
                out |= (word >> k & 1) << i
                k += 1
        return out

    def test_matches_per_bit_deposit(self, rng):
        cases = [(width, mask) for width in range(1, 201)
                 for mask in (0, (1 << width) - 1, rng.getrandbits(width),
                              rng.getrandbits(width) & rng.getrandbits(width))]
        wide = 1 << 16
        cases += [(wide, mask) for mask in (0, (1 << wide) - 1, rng.getrandbits(wide))]
        for width, mask in cases:
            word = rng.getrandbits(mask.bit_count())
            got = _expand(word, _expand_stages(mask, width)) & mask
            assert got == self.deposit(word, mask), (width, mask)
