import math
import signal
from contextlib import contextmanager

import pytest

from asgrs.errors import UnsupportedParameterError
from asgrs.field import FieldContext, field_context, is_primitive
from asgrs.gf2 import BinaryPolynomial, _poly_mulmod, reverse_bits
from asgrs.registers import primitive_polynomial

from conftest import (alpha, minimal_polynomial, reference_pow_mod, sparse_primitive,
                      wide_polynomial)

GF8 = field_context(BinaryPolynomial(0b1011))  # x^3 + x + 1
A8 = alpha(GF8)


class TestMulPow:
    def test_multiplicative_identity(self):
        assert GF8.mul(A8, 1) == A8

    def test_alpha_cubed(self):
        # x^3 = x + 1 after reduction by the modulus
        assert GF8.pow(A8, 3) == 0b011

    def test_lagrange_order(self):
        for m in (3, 4, 5):
            ctx = field_context(primitive_polynomial(m))
            assert ctx.pow(alpha(ctx), (1 << m) - 1) == 1

    def test_order_by_iterated_product(self):
        # multiply step by step as the oracle for the pow ladder
        acc = 1
        for _ in range(7):
            acc = GF8.mul(acc, A8)
        assert acc == 1
        for e in range(1, 7):
            assert GF8.pow(A8, e) != 1

    def test_pow_zero(self):
        assert GF8.pow(0b101, 0) == 1

    def test_negative_exponent_and_zero_modulus_rejected(self):
        with pytest.raises(ValueError, match="negative exponent"):
            GF8.pow(A8, -1)
        with pytest.raises(ValueError, match="zero modulus"):
            field_context(BinaryPolynomial(0))


class TestTrace:
    def test_zero(self):
        assert GF8.trace_of(0) == 0

    def test_one_gives_parity_of_m(self):
        assert GF8.trace_of(1) == 1  # m = 3
        gf16 = field_context(primitive_polynomial(4))
        assert gf16.trace_of(1) == 0  # m = 4

    def test_alpha_conjugates_cancel(self):
        # alpha + alpha^2 + alpha^4 with alpha^4 = alpha^2 + alpha
        assert A8 ^ GF8.mul(A8, A8) ^ GF8.pow(A8, 4) == 0
        assert GF8.trace_of(A8) == 0

    @pytest.mark.parametrize("m", range(2, 9))
    def test_linearity_exhaustive(self, m):
        ctx = field_context(primitive_polynomial(m))
        traces = [ctx.trace_of(v) for v in range(1 << m)]
        for a in range(1 << m):
            for b in range(1 << m):
                assert traces[a ^ b] == traces[a] ^ traces[b]

    @pytest.mark.parametrize("m", range(2, 9))
    def test_frobenius_invariance_exhaustive(self, m):
        ctx = field_context(primitive_polynomial(m))
        for v in range(1 << m):
            assert ctx.trace_of(ctx.mul(v, v)) == ctx.trace_of(v)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_trace_zero_count(self, m):
        ctx = field_context(primitive_polynomial(m))
        zeros = sum(1 for v in range(1 << m) if ctx.trace_of(v) == 0)
        assert zeros == 1 << (m - 1)


class TestMinimalPolynomial:
    """The reference in conftest, which the jump tests rely on."""

    def test_one(self):
        assert minimal_polynomial(GF8, 1).mask == 0b11

    def test_defining_element(self):
        assert minimal_polynomial(GF8, A8) == GF8.modulus

    def test_alpha_cubed_by_expansion(self):
        # (y - a^3)(y - a^6)(y - a^5) = y^3 + y^2 + 1, which vanishes at
        # each of the three conjugates
        f = minimal_polynomial(GF8, GF8.pow(A8, 3))
        assert f.mask == 0b1101
        assert all(evaluate(GF8, f, GF8.pow(A8, k)) == 0 for k in (3, 6, 5))

    @pytest.mark.parametrize("m", range(2, 9))
    def test_degree_full_for_coprime_power(self, m):
        # the converse is false: non-coprime powers can still have full-degree
        # minimal polynomials (alpha^3 in GF(16) hits the 5th cyclotomic)
        ctx = field_context(primitive_polynomial(m))
        period = (1 << m) - 1
        for r in range(1, period):
            degree = minimal_polynomial(ctx, ctx.pow(alpha(ctx), r)).degree
            if math.gcd(r, period) == 1:
                assert degree == m
            else:
                assert degree == len(set(
                    (r << j) % period for j in range(m)))


def lfsr_cycles_all_nonzero(poly_mask, degree):
    # independent primitivity oracle: primitive feedback means the walk from
    # state 1 is a pure cycle that covers every nonzero state exactly once
    taps = 0
    low = poly_mask ^ (1 << degree)
    for i in range(degree):
        if (low >> i) & 1:
            taps |= 1 << (degree - 1 - i)
    full = (1 << degree) - 1
    s = 1
    seen = set()
    for _ in range((1 << degree) - 1):
        if s == 0 or s in seen:
            return False
        seen.add(s)
        s = ((s << 1) & full) | ((s & taps).bit_count() & 1)
    return s == 1


class TestPrimitivity:
    def test_known_primitive(self):
        assert is_primitive(BinaryPolynomial(0b1011))

    def test_reducible(self):
        assert not is_primitive(BinaryPolynomial(0b101))  # (x+1)^2

    def test_constants_are_not_primitive(self):
        assert not is_primitive(BinaryPolynomial(1))
        assert not is_primitive(BinaryPolynomial(0))

    def test_irreducible_but_not_primitive(self):
        # the minimal polynomial of alpha^3 in GF(16), whose order is 5, not 15
        gf16 = field_context(primitive_polynomial(4))
        p = BinaryPolynomial(0b11111)
        assert minimal_polynomial(gf16, gf16.pow(alpha(gf16), 3)) == p
        assert not is_primitive(p)

    def test_degree_cap(self):
        with pytest.raises(UnsupportedParameterError):
            is_primitive(BinaryPolynomial(1 << 25 | 1))

    @pytest.mark.parametrize("degree", range(2, 7))
    def test_against_orbit_oracle(self, degree):
        for low in range(1 << degree):
            p = BinaryPolynomial((1 << degree) | low)
            assert is_primitive(p) == lfsr_cycles_all_nonzero(p.mask, degree)

    @pytest.mark.parametrize("degree", range(1, 13))
    def test_count_is_phi_over_degree(self, degree):
        # the primitive polynomials of degree d are the minimal polynomials
        # of the phi(2^d - 1) generators of GF(2^d)*, d of them each
        order = (1 << degree) - 1
        phi = sum(1 for k in range(1, order + 1) if math.gcd(k, order) == 1)
        count = sum(is_primitive(BinaryPolynomial(1 << degree | low))
                    for low in range(1 << degree))
        assert count == phi // degree

    def test_stock_table(self):
        for degree in range(1, 17):
            p = primitive_polynomial(degree)
            assert p.degree == degree and is_primitive(p)


def frobenius_class(k, m):
    period = (1 << m) - 1
    return {(k << j) % period for j in range(m)}


def evaluate(ctx, f, b):
    """f(b) by Horner's rule."""
    acc = 0
    for i in range(f.degree, -1, -1):
        acc = ctx.mul(acc, b) ^ f.coefficient(i)
    return acc


class TestArithmetic:
    @pytest.mark.parametrize("m", [2, 3, 8, 13, 16, 20, 24])
    def test_mul_square_pow_match_polynomial_arithmetic(self, m, rng):
        ctx = field_context(wide_polynomial(m))
        mod = ctx.modulus.mask
        for _ in range(200):
            a, b = rng.randrange(1 << m), rng.randrange(1 << m)
            assert ctx.mul(a, b) == _poly_mulmod(a, b, mod)
            assert ctx._square(a) == _poly_mulmod(a, a, mod)
            e = rng.randrange(3 << m)
            assert ctx.pow(a, e) == reference_pow_mod(a, e, mod)

    @staticmethod
    def moduli(m):
        """Primitive moduli of degree m with low and high tails: the sparse
        one, its reciprocal (also primitive) and the stock or wide one."""
        low = sparse_primitive(m)
        return {low, BinaryPolynomial(reverse_bits(low.mask, m + 1)), wide_polynomial(m)}

    @pytest.mark.parametrize("m", range(2, 25))
    def test_scalar_mul_and_square_under_either_reduction(self, m, rng):
        for p in self.moduli(m):
            ctx, mod = field_context(p), p.mask
            top = (1 << m) - 1
            pairs = [(top, top), (top, 1), (1 << m - 1, 1 << m - 1)]
            pairs += [(rng.randrange(1 << m), rng.randrange(1 << m)) for _ in range(100)]
            for a, b in pairs:
                assert ctx.mul(a, b) == _poly_mulmod(a, b, mod)
                assert ctx._square(a) == _poly_mulmod(a, a, mod)

    def test_both_reductions_are_exercised(self):
        # the choice is per modulus: a fold where its passes are few and
        # cheap, serial reduction from the top elsewhere
        chosen = {field_context(p)._reduce.__func__ for m in range(2, 25) for p in self.moduli(m)}
        assert chosen == {FieldContext._fold, FieldContext._serial}

    @pytest.mark.parametrize("m", range(2, 9))
    def test_inverse_exhaustive(self, m):
        ctx = field_context(primitive_polynomial(m))
        for a in range(1, 1 << m):
            assert ctx.mul(a, ctx.inverse(a)) == 1
        with pytest.raises(ZeroDivisionError):
            ctx.inverse(0)


class TestLog:
    @pytest.mark.parametrize("m", range(2, 10))
    def test_every_power(self, m):
        ctx = field_context(primitive_polynomial(m))
        a = 1
        for k in range((1 << m) - 1):
            assert ctx.log(a) == k
            a = ctx.mul(a, alpha(ctx))

    # 2^6 - 1 = 3^2 * 7, 2^12 - 1 = 3^2 * 5 * 7 * 13,
    # 2^20 - 1 = 3 * 5^2 * 11 * 31 * 41, 2^24 - 1 = 3^2 * 5 * 7 * 13 * 17 * 241;
    # 2^19 - 1 is prime, the largest baby-step giant-step below MAX_DEGREE
    @pytest.mark.parametrize("m", [6, 12, 16, 19, 20, 24])
    def test_sampled_powers(self, m, rng):
        ctx = field_context(wide_polynomial(m))
        period = (1 << m) - 1
        # multiples of each prime power's digits as well as random k
        ks = [0, 1, period - 1, 9, 25, 3 * 25, period // 3, period // 9 * 2]
        ks += [rng.randrange(period) for _ in range(40)]
        for k in ks:
            if k < period:
                assert ctx.log(ctx.pow(alpha(ctx), k)) == k

    def test_zero_rejected(self):
        with pytest.raises(ValueError, match="zero has no logarithm"):
            GF8.log(0)


@contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the body once `seconds` have passed."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# none of these is an element: inverse once looped forever on the
# modulus, x times it and -1 and returned a value for 2^m and 2^m + 1, and
# log looped on -1 and blamed the subgroup for the others; mul(3, -1)
# looped forever, pow and trace_of of -1 raised "negative shift count",
# and pow(2^m, 1) returned 2^m unreduced
@pytest.mark.parametrize("a", [0b10011, 0b100110, 0b10000, 0b10001, -1],
                         ids=["modulus", "x-modulus", "two-to-the-m", "two-to-the-m-plus-1",
                              "negative"])
def test_non_elements_refused(a):
    ctx = field_context(primitive_polynomial(4))
    calls = [lambda a: ctx.mul(3, a), lambda a: ctx.mul(a, 3), lambda a: ctx.pow(a, 1),
             lambda a: ctx.pow(a, 3), ctx.trace_of, ctx.inverse, ctx.log]
    with time_limit(5):
        for call in calls:
            with pytest.raises(ValueError, match="not an element of GF"):
                call(a)


class TestRoot:
    @pytest.mark.parametrize("m", [2, 3, 6, 9, 12, 16, 20, 24])
    def test_root_of_minimal_polynomial_lies_in_the_class(self, m, rng):
        ctx = field_context(wide_polynomial(m))
        period = (1 << m) - 1
        for k in [1, 3, period - 1] + [rng.randrange(1, period) for _ in range(12)]:
            root = ctx.root(minimal_polynomial(ctx, ctx.pow(alpha(ctx), k)))
            assert ctx.log(root) in frobenius_class(k, m)

    @pytest.mark.parametrize("m", range(2, 8))
    def test_exactly_the_polynomials_that_split(self, m):
        # f splits into distinct linear factors here iff it divides
        # y^(2^m) - y; the root found is then one of its roots
        ctx = field_context(primitive_polynomial(m))
        for degree in range(1, m + 2):
            for low in range(1 << degree):
                f = BinaryPolynomial(1 << degree | low)
                roots = [b for b in range(1 << m) if not evaluate(ctx, f, b)]
                root = ctx.root(f)
                if len(roots) == degree:
                    assert root in roots
                else:
                    assert root is None

    def test_constant_has_no_root(self):
        assert GF8.root(BinaryPolynomial(1)) is None


class TestContext:
    def test_rejects_non_primitive_modulus(self):
        with pytest.raises(ValueError):
            FieldContext(2, BinaryPolynomial(0b101))

    def test_rejects_degree_mismatch(self):
        with pytest.raises(ValueError):
            FieldContext(4, BinaryPolynomial(0b1011))
