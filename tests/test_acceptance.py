"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
criteria execute.  Every tolerance is pinned here; nothing is deferred.
"""

import math
import random
import time

import pytest

from asgrs.analysis import berlekamp_massey, measure_period
from asgrs.attack import (
    AttackConfig,
    recover_decimation,
    run_attack,
)
from asgrs.complexity import ComplexityInputs, estimate_table1, estimate_table2
from asgrs.field import field_context
from asgrs.generator import classical_asg_keystream, keystream, reduce_to_classical
from asgrs.gf2 import rank
from asgrs.oracle import brute_force_oracle
from asgrs.registers import BitVector, LfsrSpec, output_sequence, primitive_polynomial

from conftest import alpha, make_params, random_valid_key, trace_system_matrix


def report(num, ok, detail, dt, budget):
    ok = bool(ok) and dt < budget
    status = "PASS" if ok else "FAIL"
    print(f"\n[criterion {num:2d}] {status}  {detail}  ({dt:.2f}s, budget {budget:g}s)")
    assert ok, f"criterion {num}: {detail} ({dt:.2f}s, budget {budget:g}s)"


def test_criterion_1_model_reduction_equivalence():
    rng = random.Random(101)
    start = time.perf_counter()
    mismatches = 0
    for dims in ((3, 3, 4), (5, 5, 7)):
        params = make_params(*dims)
        for _ in range(100):
            key = random_valid_key(params, rng)
            model = reduce_to_classical(params, key)
            if classical_asg_keystream(model, 1000) != keystream(params, key, 1000):
                mismatches += 1
    dt = time.perf_counter() - start
    report(1, mismatches == 0,
           f"reduced model replays 1000 bits for 100 keys at (3,3,4) and (5,5,7); "
           f"{mismatches} mismatches", dt, 5)


def test_criterion_2_period():
    rng = random.Random(102)
    params = make_params(3, 3, 4)
    start = time.perf_counter()
    periods = set()
    for _ in range(20):
        key = random_valid_key(params, rng)
        periods.add(measure_period(keystream(params, key, 2 * 840)))
    dt = time.perf_counter() - start
    report(2, periods == {840},
           f"measured period(s) {sorted(periods)} == 840 for 20 keys", dt, 5)


def test_criterion_3_linear_complexity_bounds():
    rng = random.Random(103)
    params = make_params(3, 3, 4)
    low, high = (3 + 4) * (1 << 2), (3 + 4) * (1 << 3)  # 28 and 56
    start = time.perf_counter()
    values = []
    for _ in range(20):
        key = random_valid_key(params, rng)
        window = keystream(params, key, 840 + 2 * high)
        values.append(berlekamp_massey(window).linear_complexity)
    dt = time.perf_counter() - start
    report(3, all(low < v <= high for v in values),
           f"linear complexities {sorted(set(values))} all in ({low}, {high}]", dt, 10)


def test_criterion_4_decimation_msequence_iff_coprime():
    start = time.perf_counter()
    spec = LfsrSpec(4, primitive_polynomial(4))
    failing = []
    for r in range(1, 15):
        stream = output_sequence(spec, BitVector(1, 4), r * 29 + 1)
        least = measure_period(stream[::r][:30])
        if least != 15:
            failing.append(r)
        if (least == 15) != (math.gcd(r, 15) == 1):
            report(4, False, f"direction broken at r={r}", time.perf_counter() - start, 1)
    dt = time.perf_counter() - start
    report(4, failing == [3, 5, 6, 9, 10, 12],
           f"failing decimations {failing} == [3, 5, 6, 9, 10, 12]", dt, 1)


def test_criterion_5_attack_success_rate():
    rng = random.Random(105)
    params = make_params(8, 7, 5)
    supplied = 4 * (7 + 5) + 8 + 20  # 76
    start = time.perf_counter()
    trials, hits, unsound = 50, 0, 0
    for _ in range(trials):
        key = random_valid_key(params, rng)
        z = keystream(params, key, supplied)
        rep = run_attack(AttackConfig(params, z))
        for k in rep.recovered_keys:
            if keystream(params, k, supplied) != z:
                unsound += 1
        held_out = keystream(params, key, supplied + 1000)
        if any(keystream(params, k, supplied + 1000) == held_out
               for k in rep.recovered_keys):
            hits += 1
    dt = time.perf_counter() - start
    report(5, hits >= math.ceil(0.95 * trials) and unsound == 0,
           f"{hits}/{trials} runs regenerate 1000 held-out bits (need >= 48); "
           f"{unsound} unsound reported keys (need 0)", dt, 600)


def test_criterion_6_minimum_keystream_length():
    rng = random.Random(106)
    params = make_params(3, 3, 4)
    minimum = 3 * (3 + 4)
    start = time.perf_counter()
    with pytest.raises(ValueError):
        AttackConfig(params, [0] * (minimum - 1))
    successes = 0
    for _ in range(30):
        key = random_valid_key(params, rng)
        z = keystream(params, key, minimum)
        rep = run_attack(AttackConfig(params, z))
        assert all(keystream(params, k, minimum) == z for k in rep.recovered_keys)
        if rep.recovered_keys:
            successes += 1
    dt = time.perf_counter() - start
    report(6, successes >= 15,
           f"shorter inputs rejected; {successes}/30 minimum-length runs "
           f"recovered a consistent key (need >= 15)", dt, 60)


def test_criterion_7_trace_recovery():
    rng = random.Random(107)
    ctx = field_context(primitive_polynomial(7))
    period = 127
    start = time.perf_counter()
    full_rank = 0
    exact = 0
    cases = 0
    for r in range(1, period):
        if math.gcd(r, period) != 1:
            continue
        if rank(trace_system_matrix(ctx, r)) == 7:
            full_rank += 1
        gamma = ctx.pow(alpha(ctx), r)
        for _ in range(20):
            cases += 1
            u = rng.randrange(1, 128)
            observed = [ctx.trace_of(ctx.mul(u, ctx.pow(gamma, t))) for t in range(3 * 7)]
            fit = recover_decimation(ctx, observed)
            if fit is None:
                continue
            # unique answer up to Frobenius conjugacy: the smallest admissible
            # exponent of the class with the matching power of u
            leader = min((r << j) % period for j in range(7))
            j = next(j for j in range(7) if (r << j) % period == leader)
            witness = ctx.pow(u, 1 << j)
            head = [ctx.trace_of(ctx.mul(witness, ctx.pow(alpha(ctx), t))) for t in range(7)]
            if fit.r == leader and list(fit.initial_bits) == head:
                exact += 1
    dt = time.perf_counter() - start
    report(7, full_rank == 126 and exact == cases == 126 * 20,
           f"{exact}/{cases} recoveries exact up to conjugacy; "
           f"{full_rank}/126 systems full rank", dt, 30)


def test_criterion_8_oracle_equivalence():
    rng = random.Random(108)
    params = make_params(3, 3, 4)
    length = 3 * (3 + 4) + 3
    start = time.perf_counter()
    subset_ok = True
    represented = 0
    for _ in range(30):
        key = random_valid_key(params, rng)
        z = keystream(params, key, length)
        matching = brute_force_oracle(params, z)
        rep = run_attack(AttackConfig(params, z))
        if not all(k in matching for k in rep.recovered_keys):
            subset_ok = False
        long_true = keystream(params, key, 2 * 840)
        if any(keystream(params, k, 2 * 840) == long_true for k in rep.recovered_keys):
            represented += 1
    dt = time.perf_counter() - start
    report(8, subset_ok and represented == 30,
           f"recovered keys within the oracle set in all runs: {subset_ok}; "
           f"true keystream class represented in {represented}/30", dt, 300)


def test_criterion_9_complexity_tables():
    start = time.perf_counter()
    inputs = ComplexityInputs(64, 64, 64)
    t1 = estimate_table1(inputs)
    t2 = estimate_table2(inputs)
    ok = True
    # the published figures at l = m = n = 64
    for row, ref in zip(t1, [135, 118.8, 83, 76, 71.8, 70, 70, 54.7, 78]):
        ok &= abs(row.complexity_log2 - ref) <= 0.5 and not row.flagged
    matched = flagged = 0
    for row, ref in zip(t2, [566, 261, 209, 202, 196, 196, 167.5, 153.5, 82]):
        if row.flagged:
            flagged += 1
            ok &= abs(row.complexity_log2 - ref) > 0.5  # genuinely inconsistent
        else:
            matched += 1
            ok &= abs(row.complexity_log2 - ref) <= 0.5
    ok &= matched == 6 and flagged == 3
    dt = time.perf_counter() - start
    report(9, ok,
           f"all 9 classic-table values within 0.5; {matched} consistent "
           f"variant-table values matched, {flagged} rows flagged", dt, 1)


def test_criterion_10_counter_scaling():
    # full-scale key recovery at l = m = n = 64 is out of computational
    # reach by design (~2^82 steps); the substitute check is that the
    # exhaustive control sweep scales exactly as 2^l
    rng = random.Random(110)
    start = time.perf_counter()
    counts = {}
    for l in range(6, 11):
        params = make_params(l, 3, 4)
        key = random_valid_key(params, rng)
        z = keystream(params, key, 4 * 7 + l + 20)
        rep = run_attack(AttackConfig(params, z))
        counts[l] = rep.counters.a_states_tried
    ok = all(counts[l] == 1 << l for l in counts)
    ok &= all(counts[l + 1] == 2 * counts[l] for l in range(6, 10))
    dt = time.perf_counter() - start
    report(10, ok,
           f"control states tried {counts}: exact doubling per unit of l", dt, 60)
