"""Linear synthesis and period detection for binary sequences.

The Berlekamp-Massey implementation keeps the working polynomials and
the reversed input window as integer masks, so each discrepancy is one
AND plus a popcount instead of an inner loop.  That keeps synthesis of
multi-thousand-bit sequences comfortably fast in pure Python.  Its
bit-sliced form fits many short sequences at once, one per bit of an
integer, as the attack's sweep does with every control guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from operator import and_, xor

from .gf2 import BinaryPolynomial, BitVector
from .registers import BitSequence, LfsrSpec, output_sequence, state_from_outputs


@dataclass(frozen=True)
class LfsrFit:
    """Shortest LFSR found for a sequence.

    ``connection`` is the characteristic polynomial of the fitted
    recurrence, degree exactly L: with f = connection, the sequence
    satisfies s_{t+L} = sum_{i<L} f_i s_{t+i}.  ``initial_state`` holds
    the first L bits.
    """

    linear_complexity: int
    connection: BinaryPolynomial
    initial_state: BitVector

    def extend(self, count: int) -> list[int]:
        """Regenerate the first `count` bits of the fitted sequence."""
        L = self.linear_complexity
        if L == 0:
            return [0] * count
        return output_sequence(LfsrSpec(L, self.connection),
                               state_from_outputs(self.initial_state), count)


def berlekamp_massey(seq: BitSequence) -> LfsrFit:
    """Shortest LFSR generating `seq`; empty and all-zero input give L = 0."""
    c, b = 1, 1  # current / previous connection polynomial (Massey form)
    L, x = 0, 1
    rev = 0  # bit i = seq[n - i], the window the discrepancy dots against
    for n, s in enumerate(seq):
        rev = (rev << 1) | (s & 1)
        d = (c & rev).bit_count() & 1
        if d:
            t = c
            c ^= b << x
            if 2 * L <= n:
                L = n + 1 - L
                b = t
                x = 1
            else:
                x += 1
        else:
            x += 1
    # Massey's c has coefficient i on the bit i steps back; reversing it over
    # L+1 slots gives the characteristic polynomial, monic of degree L.
    f = 0
    for i in range(L + 1):
        if (c >> i) & 1:
            f |= 1 << (L - i)
    head = BitVector.from_bits(list(seq[:L]))
    return LfsrFit(L, BinaryPolynomial(f), head)


def berlekamp_massey_lanes(seq: list[int], length: int,
                           lanes: int) -> tuple[list[int], list[int]]:
    """Berlekamp-Massey on the first `length` bits of every lane at once.

    seq[k] holds bit k of every lane, and `lanes` is the mask of all
    lanes.  Returns Massey's connection polynomial c as slices (c[i]: the
    lanes whose coefficient of x^i is 1) and the linear complexity L as a
    thermometer code (T[k]: the lanes with L >= k).  Each branch of
    `berlekamp_massey` becomes a masked update: where the discrepancy is
    1, c ^= D for D = b x^x, and where also 2L <= n, L becomes n + 1 - L
    (T'_k = not T_{n+2-k}) and D the old c times x; elsewhere D = D x.
    """
    c = [lanes] + [0] * length
    shifted = [0, lanes] + [0] * (length - 1)  # D, degree <= n + 1 at step n
    T = [lanes] + [0] * (length + 1)
    for n in range(length):
        # deg c <= L <= n, so the discrepancy reads c_0 .. c_n
        d = reduce(xor, map(and_, c[:n + 1], seq[n::-1]))
        top = min(n + 2, length + 1)
        if d:
            grow = d & ~T[n // 2 + 1]
            old = c[:top]
            c[:top] = [ci ^ (di & d) for ci, di in zip(old, shifted)]
            if grow:
                T[1:n + 2] = [tk ^ ((tk ^ ~T[n + 2 - k]) & grow)
                              for k, tk in enumerate(T[1:n + 2], 1)]
                shifted[:top] = [di ^ ((ci ^ di) & grow) for ci, di in zip(old, shifted)]
        shifted = [0] + shifted[:length]
    return c, T


def measure_period(seq: BitSequence) -> int | None:
    """Least p with seq[t+p] == seq[t] for all valid t, if the window shows it.

    A period is only reported when the window covers at least two of
    them; otherwise None means "aperiodic within this window".
    """
    n = len(seq)
    if n == 0:
        return None
    # classic failure function: smallest shift-period = n - longest border
    fail = [0] * n
    k = 0
    for i in range(1, n):
        while k and seq[i] != seq[k]:
            k = fail[k - 1]
        if seq[i] == seq[k]:
            k += 1
        fail[i] = k
    p = n - fail[n - 1]
    return p if 2 * p <= n else None
