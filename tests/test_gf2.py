import pytest
from hypothesis import given, settings, strategies as st

from asgrs.gf2 import (
    BinaryPolynomial,
    BitMatrix,
    BitVector,
    invert,
    rank,
    xor_rows,
)

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
    def test_frobenius_square(self):
        x_plus_1 = BinaryPolynomial(0b11)
        assert (x_plus_1 * x_plus_1).mask == 0b101

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
