import concurrent.futures
import dataclasses
import math
import os
import random

import pytest
from hypothesis import given, settings, strategies as st

from asgrs import attack
from asgrs.analysis import LfsrFit, berlekamp_massey
from asgrs.attack import (
    AttackConfig,
    AttackCounters,
    DecimationFit,
    FitFailure,
    _attack_chunk,
    _control_windows,
    brute_force_oracle,
    fit_candidate,
    reconstruct_streams,
    recover_decimation,
    run_attack,
    suggested_keystream_length,
    trace_system_matrix,
    verify_candidate,
)
from asgrs.errors import UnsupportedParameterError
from asgrs.field import field_context
from asgrs.generator import keystream, keystream_trace
from asgrs.gf2 import BinaryPolynomial, BitVector, invert, rank
from asgrs.registers import (
    DeBruijnRegister,
    LfsrSpec,
    de_bruijn_sequence,
    primitive_polynomial,
)

from conftest import _ref_debruijn_step, make_params, random_valid_key

P334 = make_params(3, 3, 4)
P875 = make_params(8, 7, 5)


def lmn_id(lmn):
    return "-".join(map(str, lmn))


def coset_leader(r, period, width):
    return min((r << j) % period for j in range(width))


def ascending_trace_search(ctx, systems, observed, verify_bits):
    """Reference jump recovery: for each coprime r in ascending order,
    solve u from the first m bits with the precomputed inverse trace
    system and keep the first nonzero u that reproduces the next
    verify_bits bits."""
    m = ctx.m
    head = sum((observed[t] & 1) << t for t in range(m))
    for r, gamma, inv in systems:
        u = sum(((row & head).bit_count() & 1) << j for j, row in enumerate(inv.row_masks))
        if u == 0:
            continue
        u = ctx.element(u)
        if all((u * gamma ** t).trace() == observed[t] for t in range(m, m + verify_bits)):
            head_bits = [(u * ctx.alpha ** t).trace() for t in range(m)]
            return DecimationFit(r, u, BitVector.from_bits(head_bits))
    return None


def replay_reference(params, z, a_mask, beta0):
    """Reference guess check: step the control register bit by bit, peel
    the streams, fit on the 2m / 2n prefixes with the length caps, then
    replay the fitted model through LfsrFit.extend against every
    keystream bit.  Returns (outcome, fits, BM runs)."""
    cells = list(BitVector(a_mask, params.l))
    control = []
    for _ in range(len(z) - 1):
        control.append(cells[0])
        cells = _ref_debruijn_step(cells, params.poly_a.mask)
    beta, lam = [beta0], [z[0] ^ beta0]
    for t, a in enumerate(control):
        side = beta if a else lam
        side.append(side[-1] ^ z[t] ^ z[t + 1])
    if len(beta) < 2 * params.m or len(lam) < 2 * params.n:
        return "insufficient", None, 0
    fits = []
    for bits, cap in ((beta[:2 * params.m], params.m), (lam[:2 * params.n], params.n)):
        fits.append(berlekamp_massey(bits))
        if fits[-1].linear_complexity > cap:
            return "complexity", None, len(fits)
    ones = sum(control)
    beta_hat = fits[0].extend(ones + 1)
    lam_hat = fits[1].extend(len(control) - ones + 1)
    p = q = 0
    ok = beta_hat[0] ^ lam_hat[0] == z[0]
    for t, a in enumerate(control):
        if a:
            p += 1
        else:
            q += 1
        ok = ok and beta_hat[p] ^ lam_hat[q] == z[t + 1]
    return ("accepted" if ok else "rejected"), tuple(fits), 2


class TestReconstructStreams:
    def test_direct_substitution(self):
        # one control-1 step with equal keystream bits keeps the B-side bit
        beta, lam = reconstruct_streams([1], [0, 0], beta0=1)
        assert beta == [1, 1]
        assert lam == [1]

    def test_single_bit_base_case(self):
        beta, lam = reconstruct_streams([], [1], beta0=0)
        assert beta == [0] and lam == [1]
        beta, lam = reconstruct_streams([], [1], beta0=1)
        assert beta == [1] and lam == [0]

    def test_all_ones_control_never_extends_lambda(self):
        z = [0, 1, 1, 0, 1, 0, 0, 1]
        beta, lam = reconstruct_streams([1] * 7, z, beta0=0)
        assert len(beta) == 8 and len(lam) == 1

    def test_short_control_rejected(self):
        with pytest.raises(ValueError):
            reconstruct_streams([1], [0, 1, 1], beta0=0)

    def test_round_trip_with_true_control(self, rng):
        for _ in range(10):
            key = random_valid_key(P334, rng)
            tr = keystream_trace(P334, key, 80)
            beta, lam = reconstruct_streams(tr.control_bits, tr.keystream,
                                            tr.beta_stream[0])
            assert beta == tr.beta_stream
            assert lam == tr.lambda_stream


def true_candidate(params, key, nbits):
    z = keystream(params, key, nbits)
    config = AttackConfig(params, z)
    beta0 = keystream_trace(params, key, 2).beta_stream[0]
    return config, key.state_a, beta0


class TestFitCandidate:
    def test_true_guess_fits_within_caps(self, rng):
        config, a_init, beta0 = true_candidate(
            P875, random_valid_key(P875, rng), suggested_keystream_length(P875))
        cand = fit_candidate(config, a_init, beta0)
        assert not isinstance(cand, FitFailure)
        assert cand.beta_fit.linear_complexity <= P875.m
        assert cand.lambda_fit.linear_complexity <= P875.n
        assert verify_candidate(config, cand)

    def test_insufficient_bits_when_stream_starves_one_side(self, rng):
        # at (5, 2, 9) a 33-bit keystream spans one full control period:
        # exactly 16 zeros, so the C-side stream can never reach 2n = 18 bits
        params = make_params(5, 2, 9)
        key = random_valid_key(params, rng)
        z = keystream(params, key, 3 * (params.m + params.n))
        config = AttackConfig(params, z)
        for a_mask in range(1 << params.l):
            outcome = fit_candidate(config, BitVector(a_mask, params.l), 0)
            assert outcome is FitFailure.INSUFFICIENT_BITS

    def test_wrong_guesses_rejected(self, rng):
        key = random_valid_key(P875, rng)
        config, a_true, beta0_true = true_candidate(
            P875, key, suggested_keystream_length(P875))
        rejected = 0
        total = 200
        done = 0
        while done < total:
            a_mask = rng.randrange(0, 1 << P875.l)
            beta0 = rng.randrange(2)
            if a_mask == a_true.mask and beta0 == beta0_true:
                continue
            done += 1
            cand = fit_candidate(config, BitVector(a_mask, P875.l), beta0)
            if isinstance(cand, FitFailure) or not verify_candidate(config, cand):
                rejected += 1
        assert rejected >= math.ceil(0.99 * total)

    def test_bm_runs_counted(self, rng):
        config, a_init, beta0 = true_candidate(
            P334, random_valid_key(P334, rng), 40)
        counters = AttackCounters()
        fit_candidate(config, a_init, beta0, counters)
        assert counters.bm_runs == 2


class TestVerifyCandidate:
    def test_true_candidate_verifies(self, rng):
        config, a_init, beta0 = true_candidate(
            P334, random_valid_key(P334, rng), 60)
        cand = fit_candidate(config, a_init, beta0)
        assert verify_candidate(config, cand)

    def test_flipped_fit_bit_fails(self, rng):
        config, a_init, beta0 = true_candidate(
            P334, random_valid_key(P334, rng), 60)
        cand = fit_candidate(config, a_init, beta0)
        flipped = type(cand.beta_fit)(
            cand.beta_fit.linear_complexity,
            cand.beta_fit.connection,
            BitVector(cand.beta_fit.initial_state.mask ^ 1,
                      cand.beta_fit.initial_state.length),
        )
        mutated = type(cand)(cand.a_init, cand.beta0, flipped, cand.lambda_fit)
        assert not verify_candidate(config, mutated)


class TestRecoverDecimation:
    def test_identity_decimation(self):
        ctx = field_context(primitive_polynomial(3))
        observed = [ctx.element(ctx.pow(ctx.alpha.mask, t)).trace() for t in range(12)]
        fit = recover_decimation(ctx, observed)
        assert fit is not None and fit.r == 1 and fit.u == ctx.one

    def test_exact_recovery_small_field(self, rng):
        # r = 3 is its own conjugacy-class leader mod 7, so recovery is literal
        ctx = field_context(primitive_polynomial(3))
        for _ in range(10):
            u = ctx.element(rng.randrange(1, 8))
            gamma = ctx.alpha ** 3
            observed = [(u * gamma ** t).trace() for t in range(9)]
            fit = recover_decimation(ctx, observed, verify_bits=6)
            assert fit is not None
            assert (fit.r, fit.u) == (3, u)

    def test_conjugate_jump_returns_class_leader(self, rng):
        ctx = field_context(primitive_polynomial(5))
        period = 31
        for r in (2, 12, 24):
            u = ctx.element(rng.randrange(1, 32))
            gamma = ctx.alpha ** r
            observed = [(u * gamma ** t).trace() for t in range(3 * 5)]
            fit = recover_decimation(ctx, observed)
            leader = coset_leader(r, period, 5)
            assert fit is not None and fit.r == leader
            # the returned pair regenerates the stream exactly
            g2 = ctx.alpha ** fit.r
            assert [(fit.u * g2 ** t).trace() for t in range(15)] == observed

    def test_initial_bits_are_register_head(self, rng):
        ctx = field_context(primitive_polynomial(4))
        u = ctx.element(rng.randrange(1, 16))
        observed = [(u * (ctx.alpha ** 4) ** t).trace() for t in range(12)]
        fit = recover_decimation(ctx, observed)
        expected = [(u ** (1 << j)).mask for j in range(4)]  # conjugacy witnesses
        head = [(fit.u * ctx.alpha ** t).trace() for t in range(4)]
        assert list(fit.initial_bits) == head
        assert fit.u.mask in expected

    def test_all_zero_stream_not_found(self):
        ctx = field_context(primitive_polynomial(3))
        assert recover_decimation(ctx, [0] * 12) is None

    def test_short_observation_rejected(self):
        ctx = field_context(primitive_polynomial(3))
        with pytest.raises(ValueError):
            recover_decimation(ctx, [1, 0, 1])

    def test_verify_bits_below_m_rejected(self):
        ctx = field_context(primitive_polynomial(5))
        observed = [(ctx.alpha ** t).trace() for t in range(15)]
        assert recover_decimation(ctx, observed, verify_bits=5) is not None
        with pytest.raises(ValueError, match="at least m"):
            recover_decimation(ctx, observed, verify_bits=4)

    @pytest.mark.parametrize("m", range(3, 9))
    def test_matches_ascending_trace_search(self, m, rng):
        ctx = field_context(primitive_polynomial(m))
        period = (1 << m) - 1
        systems = [(r, ctx.alpha ** r, invert(trace_system_matrix(ctx, r)))
                   for r in range(1, period) if math.gcd(r, period) == 1]
        cases = []
        for r, gamma, _ in systems:
            u = ctx.element(rng.randrange(1, period + 1))
            cases.append([(u * gamma ** t).trace() for t in range(3 * m)])
        for _ in range(20):
            # random bit strings, and register outputs whose connection
            # polynomial has degree m but is rarely primitive
            cases.append([rng.randrange(2) for _ in range(3 * m)])
            conn = BinaryPolynomial((1 << m) | rng.randrange(1 << m))
            head = BitVector(rng.randrange(1, 1 << m), m)
            cases.append(LfsrFit(m, conn, head).extend(3 * m))
        for observed in cases:
            for v in (m, 2 * m):
                assert (recover_decimation(ctx, observed[:m + v], verify_bits=v)
                        == ascending_trace_search(ctx, systems, observed, v))

    @pytest.mark.parametrize("m", range(3, 9))
    def test_trace_system_full_rank(self, m):
        ctx = field_context(primitive_polynomial(m))
        period = (1 << m) - 1
        for r in range(1, period):
            if math.gcd(r, period) != 1:
                continue
            assert rank(trace_system_matrix(ctx, r)) == m


class TestRunAttack:
    def test_end_to_end(self, rng):
        nbits = suggested_keystream_length(P875)
        hits = 0
        for _ in range(5):
            key = random_valid_key(P875, rng)
            z = keystream(P875, key, nbits)
            report = run_attack(AttackConfig(P875, z))
            assert report.counters.a_states_tried == 1 << P875.l
            held_out = keystream(P875, key, nbits + 1000)
            for k in report.recovered_keys:
                assert keystream(P875, k, nbits) == z  # soundness, always
            if any(keystream(P875, k, nbits + 1000) == held_out
                   for k in report.recovered_keys):
                hits += 1
        assert hits == 5

    def test_short_keystream_rejected(self):
        with pytest.raises(ValueError, match="3\\(m\\+n\\)"):
            AttackConfig(P875, [0] * (3 * 12 - 1))

    def test_non_binary_keystream_rejected(self):
        # 1.0 == 1 but is not an int; the sweep would fail on it with a TypeError
        for entry in (2, 1.0):
            z = [0, 1] * 15
            z[7] = entry
            with pytest.raises(ValueError, match=f"entry 7 is {entry!r}"):
                AttackConfig(P334, z)

    def test_random_bits_yield_only_consistent_keys(self, rng):
        z = [rng.randrange(2) for _ in range(3 * 7)]
        report = run_attack(AttackConfig(P334, z))
        matching = brute_force_oracle(P334, z)
        for k in report.recovered_keys:
            assert keystream(P334, k, len(z)) == z
            assert k in matching

    def test_deterministic_across_workers(self, rng):
        key = random_valid_key(P334, rng)
        z = keystream(P334, key, suggested_keystream_length(P334))
        reports = [run_attack(AttackConfig(P334, z, worker_count=w)) for w in (1, 2, 4)]
        for rep in reports[1:]:
            assert rep.recovered_keys == reports[0].recovered_keys
            assert rep.counters == reports[0].counters

    def test_worker_count_clamped_to_cpus(self, rng, monkeypatch):
        # a missing clamp reaches the pool stub and fails without starting
        # any process
        def no_pool(*args, **kwargs):
            raise AssertionError("run_attack asked for a process pool")

        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        key = random_valid_key(P334, rng)
        z = keystream(P334, key, suggested_keystream_length(P334))
        report = run_attack(AttackConfig(P334, z, worker_count=100_000))
        assert report.counters.a_states_tried == 1 << P334.l
        assert report.recovered_keys == run_attack(AttackConfig(P334, z)).recovered_keys

    def test_max_candidates_cap(self, rng):
        key = random_valid_key(P334, rng)
        z = keystream(P334, key, 3 * 7)
        full = run_attack(AttackConfig(P334, z, max_candidates=16))
        if len(full.recovered_keys) > 1:
            capped = run_attack(AttackConfig(P334, z, max_candidates=1))
            assert capped.recovered_keys == full.recovered_keys[:1]


class TestBruteForceOracle:
    def test_contains_true_key(self, rng):
        key = random_valid_key(P334, rng)
        z = keystream(P334, key, 24)
        assert key in brute_force_oracle(P334, z)

    def test_attack_subset_and_class_represented(self, rng):
        for _ in range(5):
            key = random_valid_key(P334, rng)
            z = keystream(P334, key, 3 * 7 + 3)
            matching = brute_force_oracle(P334, z)
            assert key in matching
            report = run_attack(AttackConfig(P334, z))
            long_true = keystream(P334, key, 1680)
            assert all(k in matching for k in report.recovered_keys)
            assert any(keystream(P334, k, 1680) == long_true
                       for k in report.recovered_keys)

    def test_impossible_keystream_empty(self):
        rng = random.Random(31337)
        found_empty = False
        for _ in range(20):
            z = [rng.randrange(2) for _ in range(30)]
            if not brute_force_oracle(P334, z):
                found_empty = True
                break
        assert found_empty

    def test_work_cap(self):
        with pytest.raises(UnsupportedParameterError):
            brute_force_oracle(P875, [0] * 40)

    def test_matches_generator_on_all_keys(self, rng):
        # every oracle hit regenerates the target through the real generator
        key = random_valid_key(P334, rng)
        z = keystream(P334, key, 22)
        for k in brute_force_oracle(P334, z):
            assert keystream(P334, k, 22) == z


class TestSweep:
    @pytest.mark.parametrize("lmn", [(4, 3, 5), (5, 4, 3), (6, 5, 4)], ids=lmn_id)
    def test_matches_replay_reference(self, lmn, rng, monkeypatch):
        # every (state, beta_0) guess gets the same decision, fits and BM
        # runs from the sweep, from fit_candidate + verify_candidate, and
        # from the replay reference
        params = make_params(*lmn)
        l, floor = params.l, 3 * (params.m + params.n)
        inputs = [keystream(params, random_valid_key(params, rng), nbits)
                  for nbits in (floor, floor + 5, suggested_keystream_length(params))]
        inputs += [[rng.randrange(2) for _ in range(floor + extra)] for extra in (0, 3, 9)]
        seen = set()
        for z in inputs:
            config = AttackConfig(params, z)
            swept = []
            monkeypatch.setattr(
                attack, "_recover_key",
                lambda config, cand, counters: swept.append(cand))
            _, counters = _attack_chunk(config, 0, 1 << l)
            expected, bm_runs = [], 0
            for a_mask in range(1 << l):
                a_init = BitVector(a_mask, l)
                for beta0 in (0, 1):
                    outcome, fits, runs = replay_reference(params, z, a_mask, beta0)
                    seen.add(outcome)
                    bm_runs += runs
                    cand = fit_candidate(config, a_init, beta0)
                    if fits is None:
                        assert isinstance(cand, FitFailure)
                        continue
                    assert (cand.beta_fit, cand.lambda_fit) == fits
                    assert verify_candidate(config, cand) == (outcome == "accepted")
                    # like the replay, verification ignores the beta_0 label
                    relabelled = dataclasses.replace(cand, beta0=1 - beta0)
                    assert verify_candidate(config, relabelled) == (outcome == "accepted")
                    if outcome == "accepted":
                        expected.append(cand)
            assert swept == expected
            assert counters.bm_runs == bm_runs
            assert counters.verified_candidates == len(expected)
        assert {"accepted", "rejected", "complexity"} <= seen


class TestControlWindows:
    def test_slices_match_de_bruijn_sequence(self):
        for l in range(2, 9):
            spec = LfsrSpec(l, primitive_polynomial(l))
            period = 1 << l
            for steps in (l, 2 * period + 3):
                bits, start = _control_windows(spec, steps)
                assert sorted(start) == list(range(period))
                for s in range(period):
                    reg = DeBruijnRegister(spec, BitVector(s, l))
                    window = bits[start[s]:start[s] + steps]
                    assert list(window) == de_bruijn_sequence(reg, steps)


class TestSoundnessAndCompleteness:
    """The attack's invariants on random inputs: every reported key
    regenerates the input, and on ASG keystreams every reported key is
    one the brute-force oracle finds too."""

    @pytest.mark.parametrize("lmn, examples", [((3, 3, 4), 12), ((4, 3, 5), 3)],
                             ids=["3-3-4", "4-3-5"])
    def test_keys_regenerate_and_lie_in_oracle_set(self, lmn, examples):
        params = make_params(*lmn)
        floor = 3 * (params.m + params.n)

        @settings(max_examples=examples, deadline=None)
        @given(st.randoms(use_true_random=False), st.integers(0, 8))
        def check(rand, extra):
            key = random_valid_key(params, rand)
            z = keystream(params, key, floor + extra)
            found = run_attack(AttackConfig(params, z)).recovered_keys
            assert all(keystream(params, k, len(z)) == z for k in found)
            oracle = brute_force_oracle(params, z)
            assert key in oracle
            assert all(k in oracle for k in found)

        check()

    @pytest.mark.parametrize("lmn", [(3, 3, 4), (4, 3, 5)], ids=lmn_id)
    def test_random_strings_yield_only_regenerating_keys(self, lmn):
        params = make_params(*lmn)
        floor = 3 * (params.m + params.n)

        @settings(max_examples=25, deadline=None)
        @given(st.lists(st.integers(0, 1), min_size=floor, max_size=floor + 8))
        def check(z):
            found = run_attack(AttackConfig(params, z)).recovered_keys
            assert all(keystream(params, k, len(z)) == z for k in found)

        check()
