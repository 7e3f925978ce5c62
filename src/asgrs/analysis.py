"""Linear synthesis and period detection for binary sequences.

The Berlekamp-Massey implementation keeps the working polynomials and
the reversed input window as integer masks, so each discrepancy is one
AND plus a popcount instead of an inner loop.  That keeps synthesis of
multi-thousand-bit sequences comfortably fast in pure Python.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf2 import BinaryPolynomial, BitVector
from .registers import BitSequence


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
        bits = list(self.initial_state)[:count]
        if L == 0:
            return [0] * count
        taps = [i for i in range(L) if self.connection.coefficient(i)]
        while len(bits) < count:
            t = len(bits) - L
            nxt = 0
            for i in taps:
                nxt ^= bits[t + i]
            bits.append(nxt)
        return bits


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
