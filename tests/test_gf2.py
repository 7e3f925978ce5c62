import pytest
from hypothesis import given, settings, strategies as st

from asgrs.gf2 import (
    BinaryPolynomial,
    BitMatrix,
    BitVector,
    invert,
    mat_mul,
    mat_pow,
    poly_gcd,
    rank,
    xor_rows,
)

COMPANION_X3 = BitMatrix.from_rows([[0, 1, 0], [1, 0, 1], [1, 0, 0]])


def random_matrix(rng, rows, cols):
    return BitMatrix(rows, cols, tuple(rng.randrange(0, 1 << cols) for _ in range(rows)))


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


class TestMatMul:
    def test_identity(self):
        assert mat_mul(BitMatrix.identity(3), COMPANION_X3) == COMPANION_X3

    def test_inverse_product(self):
        inv = invert(COMPANION_X3)
        assert mat_mul(COMPANION_X3, inv) == BitMatrix.identity(3)
        assert mat_mul(inv, COMPANION_X3) == BitMatrix.identity(3)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            mat_mul(BitMatrix.identity(3), BitMatrix.identity(4))

    def test_iterated_equals_power(self, rng):
        v = rng.randrange(1, 8)
        for t in range(65):
            iterated = v
            for _ in range(t):
                iterated = xor_rows(iterated, COMPANION_X3.row_masks)
            assert iterated == xor_rows(v, mat_pow(COMPANION_X3, t).row_masks)


class TestMatPow:
    def test_zeroth_power(self):
        assert mat_pow(COMPANION_X3, 0) == BitMatrix.identity(3)

    def test_order_seven(self):
        # direct multiplication as the oracle, no repeated squaring
        acc = BitMatrix.identity(3)
        for _ in range(7):
            acc = mat_mul(acc, COMPANION_X3)
        assert acc == BitMatrix.identity(3)
        assert mat_pow(COMPANION_X3, 7) == BitMatrix.identity(3)

    def test_exponent_additivity_small(self):
        assert mat_pow(COMPANION_X3, 5) == mat_mul(mat_pow(COMPANION_X3, 2),
                                                   mat_pow(COMPANION_X3, 3))

    def test_exponent_additivity_random(self, rng):
        for _ in range(50):
            t_mat = random_matrix(rng, 8, 8)
            t, u = rng.randrange(0, 1 << 16), rng.randrange(0, 1 << 16)
            assert mat_pow(t_mat, t + u) == mat_mul(mat_pow(t_mat, t), mat_pow(t_mat, u))

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            mat_pow(BitMatrix(2, 3, (0, 0)), 2)


class TestInvert:
    def test_singular_rejected(self):
        with pytest.raises(ValueError):
            invert(BitMatrix.from_rows([[1, 1], [1, 1]]))

    def test_round_trip(self, rng):
        for _ in range(25):
            a = random_matrix(rng, 6, 6)
            if rank(a) < 6:
                continue
            assert mat_mul(a, invert(a)) == BitMatrix.identity(6)


class TestPolynomials:
    def test_frobenius_square(self):
        x_plus_1 = BinaryPolynomial(0b11)
        assert (x_plus_1 * x_plus_1).mask == 0b101

    def test_gcd_coprime(self):
        assert poly_gcd(BinaryPolynomial(0b1011), BinaryPolynomial(0b110)).mask == 1

    def test_long_division(self):
        # x^4 + x mod x^3 + x + 1: x^4 = x(x+1) = x^2 + x, plus x leaves x^2
        q, r = divmod(BinaryPolynomial(0b10010), BinaryPolynomial(0b1011))
        assert r.mask == 0b100
        assert (q * BinaryPolynomial(0b1011) + r).mask == 0b10010

    def test_zero_degree_marker(self):
        assert BinaryPolynomial(0).degree is None
        assert BinaryPolynomial(1).degree == 0

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            divmod(BinaryPolynomial(0b10), BinaryPolynomial(0))

    @settings(max_examples=200)
    @given(st.integers(0, (1 << 16) - 1), st.integers(1, (1 << 12) - 1))
    def test_divmod_invariant(self, a_mask, b_mask):
        a, b = BinaryPolynomial(a_mask), BinaryPolynomial(b_mask)
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree

    @settings(max_examples=200)
    @given(st.integers(1, (1 << 12) - 1), st.integers(1, (1 << 12) - 1))
    def test_gcd_divides_both(self, a_mask, b_mask):
        a, b = BinaryPolynomial(a_mask), BinaryPolynomial(b_mask)
        g = poly_gcd(a, b)
        assert (a % g).is_zero and (b % g).is_zero
