import math
import tracemalloc

import pytest

from asgrs.complexity import (
    ComplexityInputs,
    attack_complexity,
    estimate_table1,
    estimate_table2,
    johansson_segment_probability,
    johansson_segment_probability_exact,
    reference_values_table1,
    reference_values_table2,
)

C64 = ComplexityInputs(64, 64, 64)


class TestInputs:
    def test_derived_quantities(self):
        c = ComplexityInputs(3, 3, 4)
        assert c.total_length == 10
        assert c.max_generator == 4
        assert abs(c.gamma - (1 - 1 / (0.19 * 3 + 3.1))) < 1e-12

    def test_minimum_sizes(self):
        with pytest.raises(ValueError):
            ComplexityInputs(1, 3, 4)


class TestTable1:
    def test_reference_point_all_rows(self):
        rows = estimate_table1(C64)
        refs = reference_values_table1()
        assert refs == [135, 118.8, 83, 76, 71.8, 70, 70, 54.7, 78]
        assert len(rows) == 9
        for row, ref in zip(rows, refs):
            assert abs(row.complexity_log2 - ref) <= 0.5, row.attack_name
            assert not row.flagged

    def test_mklr_column(self):
        rows = {r.attack_name: r for r in estimate_table1(C64)}
        assert rows["Linear Consistency"].mklr_log2 is None
        assert abs(rows["ASG(r,s) Algebraic Key Recovery"].mklr_log2
                   - math.log2(3 * 128)) < 1e-9
        assert abs(rows["Johansson Reduced Complexity"].mklr_log2 - 128 / 3) < 1e-9


class TestTable2:
    def test_consistent_rows(self):
        rows = estimate_table2(C64)
        refs = reference_values_table2()
        assert len(rows) == 9
        consistent = [(row, ref) for row, ref in zip(rows, refs) if not row.flagged]
        assert sorted(ref for _, ref in consistent) == [82, 196, 196, 202, 209, 261]
        for row, ref in consistent:
            assert abs(row.complexity_log2 - ref) <= 0.5, row.attack_name

    def test_flagged_rows_disagree_with_reference(self):
        # the flag must mean exactly "formula cannot reproduce the published
        # number": check both directions at the reference point
        for row, ref in zip(estimate_table2(C64), reference_values_table2()):
            assert row.flagged == (abs(row.complexity_log2 - ref) > 0.5)

    def test_flagged_names(self):
        flagged = {r.attack_name for r in estimate_table2(C64) if r.flagged}
        assert flagged == {"Clock Control Guessing", "Khazaei Reduced Complexity",
                           "Johansson Reduced Complexity"}


def pascal_central(n):
    row = [1]
    for _ in range(n):
        row = [a + b for a, b in zip([0] + row, row + [0])]
    return row[n // 2]


class TestJohanssonProbability:
    def test_small_cases(self):
        assert johansson_segment_probability(2) == 0.5
        assert johansson_segment_probability(4) == 0.375

    def test_m64_against_pascal(self):
        expected = pascal_central(64) / 2 ** 64
        got = johansson_segment_probability(64)
        assert abs(got - 0.0993) <= 1e-4
        assert got == expected

    @pytest.mark.parametrize("m", range(2, 66, 2))
    def test_exact_binomial_identity(self, m):
        # the exact rational times 2^M is the central binomial on the nose;
        # the float form is its correctly rounded conversion
        exact = johansson_segment_probability_exact(m)
        assert exact * 2 ** m == pascal_central(m)
        assert johansson_segment_probability(m) == float(exact)

    def test_odd_rejected(self):
        with pytest.raises(ValueError):
            johansson_segment_probability(7)

    def test_range_enforced(self):
        with pytest.raises(ValueError):
            johansson_segment_probability(1026)


class TestAttackComplexity:
    def test_reference_point(self):
        assert abs(attack_complexity(C64) - 82) <= 0.5

    def test_small_point_exact(self):
        # (9+16)*16 + 27*4 + 64*8 = 1020
        assert abs(attack_complexity(ComplexityInputs(3, 3, 4))
                   - math.log2(1020)) < 1e-12

    def test_first_term_dominates_for_tiny_generators(self):
        got = attack_complexity(ComplexityInputs(40, 2, 2))
        assert abs(got - (math.log2(8) + 40 + 1)) < 0.01

    def test_log_space_matches_exact_integer_sum(self):
        for l in range(2, 21):
            for m in range(2, 21):
                for n in range(2, 21):
                    exact = (((m * m + n * n) << (l + 1)) + (m ** 3 << (m - 1))
                             + (n ** 3 << (n - 1)))
                    got = attack_complexity(ComplexityInputs(l, m, n))
                    assert abs(got - math.log2(exact)) < 1e-9, (l, m, n)

    def test_memory_does_not_grow_with_register_length(self):
        # the exact integer sum at n = 10^8 would take about 12 MB
        tracemalloc.start()
        try:
            got = attack_complexity(ComplexityInputs(64, 64, 10 ** 8))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert abs(got - (math.log2(10 ** 24) + 10 ** 8 - 1)) < 1e-6

    def test_matches_table2_row(self):
        row = [r for r in estimate_table2(C64)
               if r.attack_name == "ASG(r,s) Algebraic Key Recovery"][0]
        assert row.complexity_log2 == attack_complexity(C64)
