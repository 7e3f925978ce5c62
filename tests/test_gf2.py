import pytest
from hypothesis import given, settings, strategies as st

from asgrs.generator import _fit
from asgrs.gf2 import (
    BinaryPolynomial,
    BitMatrix,
    BitVector,
    _poly_mulmod,
    invert,
    poly_pow_mod,
    rank,
    reverse_bits,
    xor_rows,
)

from conftest import coprime_jump, poly_divmod, reference_pow_mod, wide_polynomial

COMPANION_X3 = BitMatrix(3, 3, (0b010, 0b101, 0b001))  # row i: bit j = entry (i, j)


def random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, tuple(rng.randrange(0, 1 << cols) for _ in range(rows)))


def product(a, b):
    """a times b, row by row."""
    return BitMatrix(a.rows, b.cols, tuple(xor_rows(row, b.row_masks) for row in a.row_masks))


def identity(n):
    return BitMatrix(n, n, tuple(1 << i for i in range(n)))


class TestBitVector:
    def test_round_trip(self):
        v = BitVector.from_bits([1, 0, 1, 1])
        assert v.mask == 0b1101 and len(v) == 4
        assert tuple(v) == (1, 0, 1, 1)
        assert v[0] == 1 and v[1] == 0

    def test_out_of_range_index(self):
        with pytest.raises(IndexError):
            BitVector.from_bits([1, 0])[2]

    def test_mask_bounds_checked(self):
        with pytest.raises(ValueError):
            BitVector(0b100, 2)


@pytest.mark.parametrize("build, error, match", [
    (lambda: BitVector(0, -1), ValueError, "negative length"),
    (lambda: BitMatrix(2, 2, (0b01,)), ValueError, "row count mismatch"),
    (lambda: BitMatrix(1, 2, (0b100,)), ValueError, "bits beyond cols"),
    (lambda: invert(BitMatrix(1, 2, (0b01,))), ValueError, "non-square"),
    (lambda: BinaryPolynomial(-1), ValueError, "negative coefficient mask"),
    (lambda: poly_pow_mod(3, BinaryPolynomial(0)), ZeroDivisionError, "zero polynomial"),
    (lambda: poly_pow_mod(-1, BinaryPolynomial(0b1011)), ValueError, "negative exponent"),
], ids=["vector-length", "matrix-rows", "matrix-cols", "invert-non-square",
        "polynomial-mask", "pow-zero-modulus", "pow-negative-exponent"])
def test_malformed_input_refused(build, error, match):
    with pytest.raises(error, match=match):
        build()


class TestReverseBits:
    def test_keeps_leading_zeros(self):
        assert reverse_bits(1, 5) == 16
        assert reverse_bits(0b110, 3) == 0b011

    def test_drops_bits_at_width_and_above(self):
        assert reverse_bits(0b1_0001, 4) == 0b1000

    @pytest.mark.parametrize("width", range(1, 25))
    def test_twice_is_identity(self, width, rng):
        for mask in (0, 1, (1 << width) - 1, rng.randrange(1 << width)):
            assert reverse_bits(reverse_bits(mask, width), width) == mask


class TestMatMul:
    def test_inverse_product(self):
        inv = invert(COMPANION_X3)
        assert product(COMPANION_X3, inv) == identity(3)
        assert product(inv, COMPANION_X3) == identity(3)


class TestInvert:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            invert(BitMatrix(2, 2, (0b11, 0b11)))

    def test_round_trip(self, rng):
        for _ in range(25):
            a = random_matrix(rng, 6, 6)
            if rank(a) < 6:
                continue
            assert product(a, invert(a)) == identity(6)


class TestPolynomials:
    def test_long_division(self):
        # x^4 + x mod x^3 + x + 1: x^4 = x(x+1) = x^2 + x, plus x leaves x^2
        q, r = poly_divmod(0b10010, 0b1011)
        assert (q, r) == (0b10, 0b100)

    def test_zero_degree_marker(self):
        assert BinaryPolynomial(0).degree is None
        assert BinaryPolynomial(1).degree == 0
        assert str(BinaryPolynomial(0)) == "0"

    def test_pow_modulo_one_is_zero(self):
        # every polynomial is 0 modulo the constant 1
        assert poly_pow_mod(3, BinaryPolynomial(1)) == BinaryPolynomial(0)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divmod(0b10, 0)

    @settings(max_examples=200)
    @given(st.integers(0, (1 << 16) - 1), st.integers(1, (1 << 12) - 1))
    def test_divmod_invariant(self, a, b):
        # the package divides by no polynomial; this checks the long
        # division behind the tests' references (`alpha`,
        # `reference_pow_mod`); q * b has degree below a's bit length
        q, r = poly_divmod(a, b)
        assert _poly_mulmod(q, b, 1 << a.bit_length()) ^ r == a
        assert r.bit_length() < b.bit_length()


# the primitive moduli of the CI attack and keystream smokes above degree 16
CI_MODULI = (0x100009, 0x400003, 0x800021, 0x1000087)


class TestPowMod:
    @pytest.mark.parametrize("d", range(1, 25))
    def test_matches_square_and_multiply(self, d, rng):
        # stock or sparse primitive, x^d, x^d + 1 and a random modulus
        # (both reducible from degree 2), a dense fitted connection
        # polynomial, and the CI moduli of this degree
        top = 1 << d
        moduli = [wide_polynomial(d).mask, top, top | 1, top | rng.randrange(top)]
        if d > 1:
            fit = _fit(wide_polynomial(d), BitVector(1, d), coprime_jump(rng, d))
            moduli.append(fit.connection.mask)
        moduli += [f for f in CI_MODULI if f.bit_length() == d + 1]
        # below and at the degree, where the leading bits reach it, around
        # the order of a primitive modulus, and up to 2^64
        exponents = [0, 1, d - 1, d, d << 7 | 1, (d - 1) << 7 | 1,
                     top - 2, top - 1, top, top + 1]
        exponents += [rng.randrange(1 << 64) for _ in range(6)]
        for f in moduli:
            for e in exponents:
                assert poly_pow_mod(e, BinaryPolynomial(f)).mask == reference_pow_mod(0b10, e, f), \
                    (hex(f), e)
