import math
import tracemalloc

import pytest

from asgrs.complexity import (
    ComplexityInputs,
    attack_complexity,
    estimate_table1,
    estimate_table2,
)

C64 = ComplexityInputs(64, 64, 64)
# the published figures at l = m = n = 64, in table order
TABLE1_REFS = [135, 118.8, 83, 76, 71.8, 70, 70, 54.7, 78]
TABLE2_REFS = [566, 261, 209, 202, 196, 196, 167.5, 153.5, 82]


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
        assert len(rows) == 9
        for row, ref in zip(rows, TABLE1_REFS):
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
        assert len(rows) == 9
        consistent = [(row, ref) for row, ref in zip(rows, TABLE2_REFS) if not row.flagged]
        assert sorted(ref for _, ref in consistent) == [82, 196, 196, 202, 209, 261]
        for row, ref in consistent:
            assert abs(row.complexity_log2 - ref) <= 0.5, row.attack_name

    def test_flagged_rows_disagree_with_reference(self):
        # the flag must mean exactly "formula cannot reproduce the published
        # number": check both directions at the reference point
        for row, ref in zip(estimate_table2(C64), TABLE2_REFS):
            assert row.flagged == (abs(row.complexity_log2 - ref) > 0.5)

    def test_flagged_names(self):
        flagged = {r.attack_name for r in estimate_table2(C64) if r.flagged}
        assert flagged == {"Clock Control Guessing", "Khazaei Reduced Complexity",
                           "Johansson Reduced Complexity"}

    @pytest.mark.parametrize("lmn", [(13, 7, 9), (2, 2, 2)])
    def test_flags_belong_to_the_published_row(self, lmn):
        # a flag compares a formula with its figure at l = m = n = 64, so
        # it is the same at any register lengths
        flags = [r.flagged for r in estimate_table2(ComplexityInputs(*lmn))]
        assert flags == [r.flagged for r in estimate_table2(C64)]
        assert [r.flagged for r in estimate_table1(ComplexityInputs(*lmn))] == [False] * 9


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
