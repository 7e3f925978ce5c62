import random

from hypothesis import given, settings, strategies as st

from asgrs.analysis import berlekamp_massey, berlekamp_massey_lanes, measure_period
from asgrs.generator import keystream

from conftest import make_params, random_valid_key


def brute_force_min_lfsr(seq):
    """Smallest L such that some length-L recurrence explains seq[L:]."""
    n = len(seq)
    s = 0
    for t, b in enumerate(seq):
        s |= (b & 1) << t
    for L in range(n + 1):
        if L == n:
            return n
        high = ((1 << (n - L)) - 1) << L
        for taps in range(1 << L):
            # err bit t = seq[t] ^ sum_{i=1..L} taps_i seq[t-i]
            err = s
            tt = taps
            i = 1
            while tt:
                if tt & 1:
                    err ^= s << i
                tt >>= 1
                i += 1
            if err & high == 0:
                return L
    return n


class TestBerlekampMassey:
    def test_all_zero(self):
        assert berlekamp_massey([0] * 12).linear_complexity == 0
        assert berlekamp_massey([]).linear_complexity == 0

    def test_period7_msequence(self):
        fit = berlekamp_massey([1, 0, 0, 1, 0, 1, 1])
        assert fit.linear_complexity == 3
        assert fit.connection.mask == 0b1011
        # brute-force oracle over all LFSRs of length <= 3
        assert brute_force_min_lfsr([1, 0, 0, 1, 0, 1, 1]) == 3

    def test_impulse_tail(self):
        assert berlekamp_massey([0, 0, 0, 1]).linear_complexity == 4
        assert brute_force_min_lfsr([0, 0, 0, 1]) == 4

    def test_against_brute_force(self):
        rng = random.Random(2024)
        for _ in range(1000):
            n = rng.randrange(0, 25)
            seq = [rng.randrange(2) for _ in range(n)]
            assert berlekamp_massey(seq).linear_complexity == brute_force_min_lfsr(seq)

    @settings(max_examples=150)
    @given(st.lists(st.integers(0, 1), max_size=80))
    def test_fit_regenerates_prefix(self, seq):
        fit = berlekamp_massey(seq)
        assert fit.extend(len(seq)) == seq
        assert len(fit.initial_state) == fit.linear_complexity

    @settings(max_examples=100)
    @given(st.lists(st.integers(0, 1), min_size=1, max_size=60))
    def test_monotone_in_prefix_length(self, seq):
        previous = 0
        for end in range(len(seq) + 1):
            current = berlekamp_massey(seq[:end]).linear_complexity
            assert current >= previous
            previous = current


    def test_lanes_match_one_by_one(self):
        # 200 lanes (more than a machine word): random bits, impulses and
        # low-complexity streams, so L runs from 0 to the whole length
        rng = random.Random(3)
        for length in (1, 2, 7, 16, 33):
            seqs = [[rng.randrange(2) for _ in range(length)] for _ in range(120)]
            seqs += [[0] * k + [1] + [0] * (length - k - 1) for k in range(length)]
            seqs += [berlekamp_massey([rng.randrange(2) for _ in range(2 * L)]).extend(length)
                     for L in range(1, 6) for _ in range(8)]
            seqs += [[0] * length] * (200 - len(seqs))
            slices = [sum(s[k] << j for j, s in enumerate(seqs)) for k in range(length)]
            c, T = berlekamp_massey_lanes(slices, length, (1 << len(seqs)) - 1)
            for j, s in enumerate(seqs):
                fit = berlekamp_massey(s)
                L = sum((tk >> j) & 1 for tk in T[1:])
                assert L == fit.linear_complexity
                # Massey's c is the connection polynomial reversed over L + 1 slots
                assert [(ci >> j) & 1 for ci in c] == (
                    [fit.connection.coefficient(L - i) for i in range(L + 1)] + [0] * (length - L))
                assert all((tk >> j) & 1 == (k <= L) for k, tk in enumerate(T))


class TestMeasurePeriod:
    def test_alternating(self):
        assert measure_period([0, 1, 0, 1, 0, 1]) == 2

    def test_constant(self):
        assert measure_period([1, 1, 1, 1]) == 1
        assert measure_period([0, 0]) == 1

    def test_window_too_small(self):
        assert measure_period([0, 1, 1]) is None
        assert measure_period([]) is None

    def test_full_generator_cycle(self, rng):
        params = make_params(3, 3, 4)
        key = random_valid_key(params, rng)
        z = keystream(params, key, 2 * 840)
        assert measure_period(z) == 840

    def test_exact_boundary(self):
        # window of exactly two periods is accepted, less is not
        seq = [1, 0, 1, 1, 0, 1]
        assert measure_period(seq) == 3
        assert measure_period(seq[:5]) is None


class TestFullGeneratorComplexity:
    def test_linear_complexity_window(self, rng):
        params = make_params(3, 3, 4)
        bound_l = (3 + 4) * (1 << 3)      # (m+n) 2^l = 56
        bound_s = (3 + 4) * (1 << 2)      # (m+n) 2^(l-1) = 28
        for _ in range(3):
            key = random_valid_key(params, rng)
            fit = berlekamp_massey(keystream(params, key, 840 + 2 * bound_l))
            assert bound_s < fit.linear_complexity <= bound_l
