import concurrent.futures
import dataclasses
import math
import os
import random
from itertools import accumulate

import pytest
from hypothesis import given, settings, strategies as st

from asgrs import attack, cli, formats, oracle, registers
from asgrs.analysis import LfsrFit, berlekamp_massey, berlekamp_massey_lanes
from asgrs.attack import (
    AttackConfig,
    AttackCounters,
    CandidateModel,
    DecimationFit,
    _attack_chunk,
    _peel_lanes,
    _recover_jump,
    _sweep_lanes,
    _windows_at_least,
    reconstruct_streams,
    recover_decimation,
    run_attack,
    suggested_keystream_length,
    verify_candidate,
)
from asgrs.errors import KeyValidationError, UnsupportedParameterError
from asgrs.field import field_context
from asgrs.generator import AsgKey, keystream, validate
from asgrs.gf2 import BinaryPolynomial, BitVector, invert, rank, reverse_bits
from asgrs.oracle import ORACLE_KEY_CAP, ORACLE_WINDOW_CAP, brute_force_oracle
from asgrs.registers import (
    DeBruijnRegister,
    LfsrSpec,
    de_bruijn_bits,
    de_bruijn_cycle,
    de_bruijn_sequence,
    output_sequence,
    primitive_polynomial,
    state_from_outputs,
)

from conftest import (_ref_debruijn_step, alpha, frobenius_class, make_params,
                      minimal_polynomial, random_valid_key, reference_jump, reference_oracle,
                      reference_trace, scan_oracle, trace_system_matrix, wide_polynomial)

P334 = make_params(3, 3, 4)
P875 = make_params(8, 7, 5)
# without the gcd constraints: validate admits r = 3, which shares a
# factor with B's period 15
P343_LOOSE = make_params(3, 4, 3, strict=False)
KEY_R3 = AsgKey(BitVector(5, 3), BitVector(9, 4), BitVector(3, 3), 3, 2)
# both register periods are 15, and r = 3 and s = 5 share a factor with it
P244_LOOSE = make_params(2, 4, 4, strict=False)
KEY_R3_S5 = AsgKey(BitVector(1, 2), BitVector(9, 4), BitVector(3, 4), 3, 5)
# B's period 63 = 3^2 * 7: r = 21 and r = 9 share factors with it
P365_LOOSE = make_params(3, 6, 5, strict=False)
KEY_R21 = AsgKey(BitVector(5, 3), BitVector(0x2d, 6), BitVector(0x13, 5), 21, 3)
KEY_R9 = AsgKey(BitVector(2, 3), BitVector(0x11, 6), BitVector(0x7, 5), 9, 3)


def lmn_id(lmn):
    return "-".join(map(str, lmn))


def coset_leader(r, period, width):
    return min((r << j) % period for j in range(width))


def traces(ctx, u, gamma, count):
    """Tr(u gamma^t) for t < count: the register output for gamma = alpha,
    its decimation by r for gamma = alpha^r."""
    return [ctx.trace_of(ctx.mul(u, ctx.pow(gamma, t))) for t in range(count)]


def register_head(ctx, u):
    """The first m outputs Tr(u alpha^t) of the undecimated register."""
    return traces(ctx, u, alpha(ctx), ctx.m)


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
        if traces(ctx, u, gamma, m + verify_bits)[m:] == observed[m:m + verify_bits]:
            head_bits = register_head(ctx, u)
            return DecimationFit(r, BitVector.from_bits(head_bits))
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


def reference_sweep(params, z):
    """Every guess through the replay reference, in (control state,
    beta_0) order, as (outcome, candidate or None without fits), with the
    accepted candidates and the counters a sweep of all of them reports."""
    guesses, bm_runs = [], 0
    for a_mask in range(1 << params.l):
        for beta0 in (0, 1):
            outcome, fits, runs = replay_reference(params, z, a_mask, beta0)
            bm_runs += runs
            guesses.append((outcome, fits and CandidateModel(
                BitVector(a_mask, params.l), beta0, *fits)))
    accepted = [cand for outcome, cand in guesses if outcome == "accepted"]
    return guesses, (accepted, AttackCounters(1 << params.l, bm_runs, 0, len(accepted)))


def by_guess(cands):
    return sorted(cands, key=lambda c: (c.a_init.mask, c.beta0))


def built(*args):
    """A stand-in for a step that must not run."""
    raise AssertionError("built")


def over_cap_keystream(params, a_mask, nbits):
    """A keystream on which the guess (a_mask, beta_0 = 0) harvests a
    constant beta stream and a lambda stream whose 2n-bit fit, of linear
    complexity 2n > n, generates all of it."""
    reg = DeBruijnRegister(LfsrSpec(params.l, params.poly_a), BitVector(a_mask, params.l))
    control = de_bruijn_sequence(reg, nbits - 1)
    lam = berlekamp_massey([0] * (2 * params.n - 1) + [1]).extend(nbits - sum(control))
    z, q = [lam[0]], 0
    for a in control:
        q += not a
        z.append(lam[q])
    return z


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

    def test_empty_keystream_has_empty_streams(self):
        # no z_0, so not even beta_0 is fixed
        assert reconstruct_streams([], [], beta0=1) == ([], [])

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
            tr = reference_trace(P334, key, 80)
            beta, lam = reconstruct_streams(tr.control_bits, tr.keystream,
                                            tr.beta_stream[0])
            assert beta == tr.beta_stream
            assert lam == tr.lambda_stream


def true_candidate(params, key, nbits):
    z = keystream(params, key, nbits)
    config = AttackConfig(params, z)
    beta0 = reference_trace(params, key, 2).beta_stream[0]
    return config, key.state_a, beta0


def reference_candidate(config, a_init, beta0):
    """The guess with the replay reference's fits, whatever its outcome."""
    outcome, fits, _ = replay_reference(config.params, config.keystream, a_init.mask, beta0)
    assert fits is not None, outcome
    return CandidateModel(a_init, beta0, *fits)


def sweep_candidates(config, lo=0, width=None):
    """The sweep's survivors over cycle positions lo .. lo + width - 1
    (default: the whole cycle as one chunk), with its counters."""
    counters = AttackCounters()
    width = (1 << config.params.l) - lo if width is None else width
    return _sweep_lanes(config, lo, width, counters), counters


class TestFitCandidate:
    """The sweep's length, complexity and consistency filters on single
    guesses."""

    def test_true_guess_fits_within_caps(self, rng):
        config, a_init, beta0 = true_candidate(
            P875, random_valid_key(P875, rng), suggested_keystream_length(P875))
        cand = reference_candidate(config, a_init, beta0)
        assert cand.beta_fit.linear_complexity <= P875.m
        assert cand.lambda_fit.linear_complexity <= P875.n
        assert verify_candidate(config, cand)
        assert cand in sweep_candidates(config)[0]

    def test_insufficient_bits_when_stream_starves_one_side(self, rng):
        # at (5, 2, 9) a 33-bit keystream spans one full control period:
        # exactly 16 zeros, so the C-side stream can never reach 2n = 18 bits
        params = make_params(5, 2, 9)
        key = random_valid_key(params, rng)
        z = keystream(params, key, 3 * (params.m + params.n))
        config = AttackConfig(params, z)
        for a_mask in range(1 << params.l):
            for beta0 in (0, 1):
                assert replay_reference(params, z, a_mask, beta0)[0] == "insufficient"
        survivors, counters = sweep_candidates(config)
        assert survivors == []
        assert counters == AttackCounters(a_states_tried=1 << params.l)

    def test_wrong_guesses_rejected(self, rng):
        key = random_valid_key(P875, rng)
        config, a_true, beta0_true = true_candidate(
            P875, key, suggested_keystream_length(P875))
        survivors = {(c.a_init.mask, c.beta0) for c in sweep_candidates(config)[0]}
        rejected = 0
        total = 200
        done = 0
        while done < total:
            a_mask = rng.randrange(0, 1 << P875.l)
            beta0 = rng.randrange(2)
            if a_mask == a_true.mask and beta0 == beta0_true:
                continue
            done += 1
            if (a_mask, beta0) not in survivors:
                rejected += 1
        assert rejected >= math.ceil(0.99 * total)

    def test_bm_runs_counted(self, rng):
        # one lane pair: the true state with both beta_0 guesses
        config, a_init, beta0 = true_candidate(
            P334, random_valid_key(P334, rng), 40)
        states = de_bruijn_cycle(LfsrSpec(P334.l, P334.poly_a))
        survivors, counters = sweep_candidates(config, states.index(a_init.mask), 1)
        runs = [replay_reference(P334, config.keystream, a_init.mask, b)[2] for b in (0, 1)]
        assert runs[beta0] == 2
        assert counters.bm_runs == sum(runs)
        assert counters.a_states_tried == 1
        assert reference_candidate(config, a_init, beta0) in survivors

    def test_last_keystream_bit_is_checked(self, rng):
        # a one-position chunk makes the true guess's streams the longest
        # in the chunk; flipping z's last bit breaks only their last window
        for _ in range(4):
            key = random_valid_key(P875, rng)
            config, a_init, beta0 = true_candidate(P875, key, suggested_keystream_length(P875))
            states = de_bruijn_cycle(LfsrSpec(P875.l, P875.poly_a))
            position = states.index(a_init.mask)
            true_cand = reference_candidate(config, a_init, beta0)
            assert true_cand in sweep_candidates(config, position, 1)[0]
            z = config.keystream[:-1] + [config.keystream[-1] ^ 1]
            flipped = AttackConfig(P875, z)
            assert replay_reference(P875, z, a_init.mask, beta0)[0] == "rejected"
            assert sweep_candidates(flipped, position, 1)[0] == []


class TestVerifyCandidate:
    def test_true_candidate_verifies(self, rng):
        config, a_init, beta0 = true_candidate(
            P334, random_valid_key(P334, rng), 60)
        cand = reference_candidate(config, a_init, beta0)
        assert verify_candidate(config, cand)

    def test_flipped_fit_bit_fails(self, rng):
        config, a_init, beta0 = true_candidate(
            P334, random_valid_key(P334, rng), 60)
        cand = reference_candidate(config, a_init, beta0)
        flipped = type(cand.beta_fit)(
            cand.beta_fit.linear_complexity,
            cand.beta_fit.connection,
            BitVector(cand.beta_fit.initial_state.mask ^ 1,
                      cand.beta_fit.initial_state.length),
        )
        mutated = type(cand)(cand.a_init, cand.beta0, flipped, cand.lambda_fit)
        assert not verify_candidate(config, mutated)

    def test_fit_longer_than_its_stream(self, rng):
        # a fit with more head bits than its harvested stream verifies when
        # its head starts with that stream, whatever follows, and fails
        # when the stream's last bit differs; for the beta and lambda fit
        config, a_init, beta0 = true_candidate(P334, random_valid_key(P334, rng), 60)
        control = de_bruijn_sequence(DeBruijnRegister(LfsrSpec(P334.l, P334.poly_a), a_init),
                                     len(config.keystream) - 1)
        streams = reconstruct_streams(control, config.keystream, beta0)
        for side, stream in enumerate(streams):
            length = len(stream) + 3
            for flip, verifies in ((0, True), (1 << (len(stream) - 1), False)):
                head = BitVector(BitVector.from_bits(stream + [1, 0, 1]).mask ^ flip, length)
                fits = [berlekamp_massey(s) for s in streams]
                fits[side] = LfsrFit(length, BinaryPolynomial((1 << length) | 1), head)
                assert verify_candidate(config, CandidateModel(a_init, beta0, *fits)) == verifies


class TestRecoverDecimation:
    def test_identity_decimation(self):
        ctx = field_context(primitive_polynomial(3))
        observed = traces(ctx, 1, alpha(ctx), 12)
        fit = recover_decimation(ctx, observed)
        assert fit is not None and fit.r == 1
        assert list(fit.initial_bits) == register_head(ctx, 1)

    def test_exact_recovery_small_field(self, rng):
        # r = 3 is its own conjugacy-class leader mod 7, so recovery is literal
        ctx = field_context(primitive_polynomial(3))
        for _ in range(10):
            u = rng.randrange(1, 8)
            observed = traces(ctx, u, ctx.pow(alpha(ctx), 3), 9)
            fit = recover_decimation(ctx, observed, verify_bits=6)
            assert fit is not None
            assert fit.r == 3 and list(fit.initial_bits) == register_head(ctx, u)

    def test_conjugate_jump_returns_class_leader(self, rng):
        ctx = field_context(primitive_polynomial(5))
        period = 31
        for r in (2, 12, 24):
            u = rng.randrange(1, 32)
            observed = traces(ctx, u, ctx.pow(alpha(ctx), r), 3 * 5)
            fit = recover_decimation(ctx, observed)
            leader = coset_leader(r, period, 5)
            assert fit is not None and fit.r == leader
            # the register from the returned head, decimated by the
            # returned jump, regenerates the stream exactly
            j = next(j for j in range(5) if (r << j) % period == leader)
            assert list(fit.initial_bits) == register_head(ctx, ctx.pow(u, 1 << j))
            spec = LfsrSpec(5, primitive_polynomial(5))
            b = output_sequence(spec, state_from_outputs(fit.initial_bits), 15 * fit.r)
            assert b[::fit.r] == observed

    def test_initial_bits_are_register_head(self, rng):
        ctx = field_context(primitive_polynomial(4))
        u = rng.randrange(1, 16)
        observed = traces(ctx, u, ctx.pow(alpha(ctx), 4), 12)
        fit = recover_decimation(ctx, observed)
        # the head of one conjugacy witness u^(2^j)
        expected = [register_head(ctx, ctx.pow(u, 1 << j)) for j in range(4)]
        assert list(fit.initial_bits) in expected

    def test_all_zero_stream_not_found(self):
        ctx = field_context(primitive_polynomial(3))
        assert recover_decimation(ctx, [0] * 12) is None

    def test_short_observation_rejected(self):
        ctx = field_context(primitive_polynomial(3))
        with pytest.raises(ValueError):
            recover_decimation(ctx, [1, 0, 1])

    def test_verify_bits_below_m_rejected(self):
        ctx = field_context(primitive_polynomial(5))
        observed = traces(ctx, 1, alpha(ctx), 15)
        assert recover_decimation(ctx, observed, verify_bits=5) is not None
        with pytest.raises(ValueError, match="at least m"):
            recover_decimation(ctx, observed, verify_bits=4)

    @pytest.mark.parametrize("m", range(2, 9))
    def test_matches_ascending_trace_search(self, m, rng):
        ctx = field_context(primitive_polynomial(m))
        period = (1 << m) - 1
        systems = [(r, ctx.pow(alpha(ctx), r), invert(trace_system_matrix(ctx, r)))
                   for r in range(1, period) if math.gcd(r, period) == 1]
        cases = []
        for r, gamma, _ in systems:
            cases.append(traces(ctx, rng.randrange(1, period + 1), gamma, 3 * m))
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


def check_against_table_search(ctx, connection, rng):
    fit = LfsrFit(ctx.m, connection, BitVector(rng.randrange(1, 1 << ctx.m), ctx.m))
    got, want = AttackCounters(), AttackCounters()
    assert _recover_jump(ctx, fit, got) == reference_jump(ctx, fit, want), connection
    assert got == want


class TestRecoverJump:
    """The root and log against the table search in conftest: the same
    jump, head and trace_solves count."""

    @pytest.mark.parametrize("m", range(1, 10))
    def test_every_polynomial(self, m, rng):
        # reducible, irreducible but not primitive, and primitive f alike;
        # at m = 1 the period is 1 and no jump is admissible
        ctx = field_context(primitive_polynomial(m))
        for low in range(1 << m):
            check_against_table_search(ctx, BinaryPolynomial(1 << m | low), rng)

    @pytest.mark.parametrize("m", range(10, 17))
    def test_sampled_polynomials(self, m, rng):
        # uniform f are mostly reducible, so every other one is the
        # minimal polynomial of a random power of alpha, coprime or not
        ctx = field_context(primitive_polynomial(m))
        for i in range(300):
            conn = BinaryPolynomial(1 << m | rng.randrange(1 << m))
            if i % 2:
                power = minimal_polynomial(ctx, ctx.pow(alpha(ctx), rng.randrange(1, 1 << m)))
                conn = power if power.degree == m else conn
            check_against_table_search(ctx, conn, rng)

    @pytest.mark.parametrize("m", [6, 12, 20])
    def test_group_order_with_a_square_factor(self, m, rng):
        # 2^m - 1 is 3^2 * 7, 3^2 * 5 * 7 * 13 and 3 * 5^2 * 11 * 31 * 41:
        # the log lifts a second base-q digit, for r coprime to 2^m - 1
        # and for r sharing each prime with it
        ctx = field_context(wide_polynomial(m))
        period = (1 << m) - 1
        ks = [rng.randrange(1, period) for _ in range(30)] + [3, 5, 7, 25, 3 * 7, 5 * 11]
        for k in ks:
            conn = minimal_polynomial(ctx, ctx.pow(alpha(ctx), k))
            if conn.degree == m:
                check_against_table_search(ctx, conn, rng)


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

    @pytest.mark.parametrize("lmn", [(8, 20, 21), (8, 24, 23)], ids=lmn_id)
    def test_wide_registers(self, lmn, rng):
        # jump recovery takes time polynomial in m, so registers too wide
        # for a table of 2^m powers recover like narrow ones
        params = make_params(*lmn)
        key = random_valid_key(params, rng)
        z = keystream(params, key, suggested_keystream_length(params))
        report = run_attack(AttackConfig(params, z))
        assert report.counters.trace_solves == 2
        long_true = keystream(params, key, 4096)
        assert any(keystream(params, k, 4096) == long_true for k in report.recovered_keys)

    def test_short_keystream_rejected(self):
        with pytest.raises(ValueError, match="3\\(m\\+n\\)"):
            AttackConfig(P875, [0] * (3 * 12 - 1))

    @pytest.mark.parametrize("entry", [AttackConfig, brute_force_oracle], ids=["config", "oracle"])
    def test_invalid_params_rejected(self, entry):
        with pytest.raises(KeyValidationError, match="invalid params: gcd\\(m, n\\) = 2 != 1"):
            entry(make_params(3, 4, 6), [0, 1] * 15)

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

    def test_long_keystream_with_last_bit_flipped(self, rng, monkeypatch):
        # on 20 000 bits the true guess passes the lane test, which reads
        # only a prefix, and its own whole-stream check fails at the
        # flipped last bit, so no key is reported
        key = random_valid_key(P875, rng)
        z = keystream(P875, key, 20_000)
        assert any(keystream(P875, k, len(z)) == z
                   for k in run_attack(AttackConfig(P875, z)).recovered_keys)
        tested, reconstruct = [], attack.reconstruct_streams
        monkeypatch.setattr(attack, "reconstruct_streams",
                            lambda *args: tested.append(args[::2]) or reconstruct(*args))
        z[-1] ^= 1
        assert run_attack(AttackConfig(P875, z)).recovered_keys == []
        control = de_bruijn_sequence(
            DeBruijnRegister(LfsrSpec(P875.l, P875.poly_a), key.state_a), len(z) - 1)
        assert (control, reference_trace(P875, key, 2).beta_stream[0]) in tested

    def test_deterministic_across_workers(self, rng, monkeypatch):
        key = random_valid_key(P334, rng)
        z = keystream(P334, key, suggested_keystream_length(P334))
        reports = [run_attack(AttackConfig(P334, z, worker_count=w)) for w in (1, 2, 4)]
        # one-position chunks, so that 2 and 4 workers start a real pool
        monkeypatch.setattr(attack, "CHUNK_LANES", 2)
        reports += [run_attack(AttackConfig(P334, z, worker_count=w)) for w in (1, 2, 4)]
        for rep in reports[1:]:
            assert rep.recovered_keys == reports[0].recovered_keys
            assert rep.counters == reports[0].counters

    def test_worker_count_clamped_to_cpus(self, rng, monkeypatch):
        # without an affinity call the CPU count is the clamp; a missing
        # clamp reaches the pool stub and fails without starting any process.
        # One-position chunks, so that the sweep is long enough for a pool
        def no_pool(*args, **kwargs):
            raise AssertionError("run_attack asked for a process pool")

        monkeypatch.setattr(attack, "CHUNK_LANES", 2)
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        key = random_valid_key(P334, rng)
        z = keystream(P334, key, suggested_keystream_length(P334))
        report = run_attack(AttackConfig(P334, z, worker_count=100_000))
        assert report.counters.a_states_tried == 1 << P334.l
        assert report.recovered_keys == run_attack(AttackConfig(P334, z)).recovered_keys

    def test_worker_count_clamped_to_cpu_affinity(self, rng, monkeypatch):
        # the host's CPU count is not what the process may run on
        def no_pool(*args, **kwargs):
            raise AssertionError("run_attack asked for a process pool")

        monkeypatch.setattr(attack, "CHUNK_LANES", 2)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
        key = random_valid_key(P334, rng)
        z = keystream(P334, key, suggested_keystream_length(P334))
        report = run_attack(AttackConfig(P334, z, worker_count=4))
        assert report.counters.a_states_tried == 1 << P334.l
        assert report.recovered_keys == run_attack(AttackConfig(P334, z)).recovered_keys

    @pytest.mark.parametrize("chunk, cpus, worker_counts, pool", [
        # 2^l = 8 positions: a sweep of one chunk of 8 starts no pool
        (16, 5, (1, 2, 5, 100), None),
        (17, 5, (100,), None),
        # one position past it the pool is as large as workers, CPUs and
        # positions allow, however few positions each worker gets
        (14, 5, (1,), None),
        (14, 5, (2,), 2),
        (14, 5, (5, 100), 5),
        (14, 12, (100,), 8),
        (4, 5, (3,), 3),
        (2, 5, (100,), 5),
    ])
    def test_pool_starts_only_past_one_chunk(self, chunk, cpus, worker_counts, pool,
                                             rng, monkeypatch):
        sizes, chunks = [], []

        class RecordingPool:
            """Runs each job in this process and records the pool size and
            the (lo, hi) of each chunk it is given."""

            def __init__(self, max_workers):
                sizes.append(max_workers)
                chunks.append([])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, config, lo, hi):
                chunks[-1].append((lo, hi))
                future = concurrent.futures.Future()
                future.set_result(fn(config, lo, hi))
                return future

        key = random_valid_key(P334, rng)
        z = keystream(P334, key, suggested_keystream_length(P334))
        expected = run_attack(AttackConfig(P334, z))
        assert expected.recovered_keys
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        monkeypatch.setattr(attack, "CHUNK_LANES", chunk)
        for w in worker_counts:
            report = run_attack(AttackConfig(P334, z, worker_count=w))
            assert report.recovered_keys == expected.recovered_keys
            assert report.counters == expected.counters
        assert sizes == ([pool] * len(worker_counts) if pool else [])
        # the sweep is cut once: the chunks tile the cycle positions in
        # order, none empty or wider than CHUNK_LANES / 2, at least one
        # per process
        for size, bounds in zip(sizes, chunks):
            assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
            assert bounds[-1][1] == 1 << P334.l
            assert all(0 < hi - lo <= chunk // 2 for lo, hi in bounds)
            assert len(bounds) >= size

    @pytest.mark.parametrize("knob, value", [
        ("max_candidates", 1.5), ("max_candidates", True), ("max_candidates", "2"),
        ("worker_count", 2.5), ("worker_count", True), ("worker_count", 2.0),
    ])
    def test_non_integer_knobs_rejected(self, knob, value):
        z = [0, 1] * 15
        with pytest.raises(ValueError, match=f"{knob} must be an int, not {value!r}"):
            AttackConfig(P334, z, **{knob: value})

    @pytest.mark.parametrize("knob", ["max_candidates", "worker_count"])
    def test_non_positive_knobs_rejected(self, knob):
        with pytest.raises(ValueError, match=f"{knob} must be positive"):
            AttackConfig(P334, [0, 1] * 15, **{knob: 0})

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

    def test_window_cap(self, monkeypatch):
        # (16,15,16) needs 1800 * 32767 + 2048 * 65535 windows, refused
        # before any jump list or window is built; a target that takes
        # strict (5,4,7)'s 2316 windows up to the cap is accepted, and one
        # bit more is refused
        monkeypatch.setattr(oracle, "_jumps", built)
        with pytest.raises(UnsupportedParameterError, match=r"^oracle window cap: 193196280 "
                           r"windows of 160 bits weigh 2\^37\.73, above 2\^30$"):
            brute_force_oracle(make_params(16, 15, 16), [0] * 160)
        bits = ORACLE_WINDOW_CAP // 2316 - 1024
        with pytest.raises(AssertionError, match="built"):
            brute_force_oracle(make_params(5, 4, 7), [0] * bits)
        with pytest.raises(UnsupportedParameterError, match="2316 windows"):
            brute_force_oracle(make_params(5, 4, 7), [0] * (bits + 1))

    def test_phase_cap(self, monkeypatch):
        # 2^16 phases of 1984 bits weigh 2^16 * (1984 + 2^6) = 2^27, the
        # cap; one bit more is refused
        monkeypatch.setattr(oracle, "_jumps", built)
        with pytest.raises(AssertionError, match="built"):
            brute_force_oracle(make_params(16, 2, 3), [0] * 1984)
        with pytest.raises(UnsupportedParameterError, match=r"^oracle phase cap: 65536 "
                           r"phases of 1985 bits weigh 2\^27\.00, above 2\^27$"):
            brute_force_oracle(make_params(16, 2, 3), [0] * 1985)

    @pytest.mark.parametrize("strict", [True, False], ids=["strict", "loose"])
    def test_class_count_matches_windows(self, strict):
        # the closed form the window cap counts by is the number of
        # classes _windows builds windows for
        for length in range(2, 13):
            spec = LfsrSpec(length, primitive_polynomial(length))
            side = oracle._windows(spec, oracle._jumps(length, strict), 1)
            assert oracle._class_count(length, strict) == len(side.classes)

    def test_matches_generator_on_all_keys(self, rng):
        # every oracle hit regenerates the target through the real generator
        key = random_valid_key(P334, rng)
        z = keystream(P334, key, 22)
        for k in brute_force_oracle(P334, z):
            assert keystream(P334, k, 22) == z

    def test_non_coprime_jump_found_without_strict(self):
        assert validate(P343_LOOSE, KEY_R3) == []
        z = keystream(P343_LOOSE, KEY_R3, 30)
        matching = brute_force_oracle(P343_LOOSE, z)
        assert KEY_R3 in matching
        assert all(keystream(P343_LOOSE, k, 30) == z for k in matching)

    def test_window_cap_counts_non_coprime_jumps(self, monkeypatch):
        # strict (5,4,7) has 8 jumps r in 2 classes, 2 * 15 + 18 * 127 =
        # 2316 windows, and is accepted on a target at its cap; without
        # the gcd constraints 14 jumps r in 4 classes give 2346 windows,
        # which that target takes past the cap
        monkeypatch.setattr(oracle, "_jumps", built)
        bits = ORACLE_WINDOW_CAP // 2316 - 1024
        with pytest.raises(AssertionError, match="built"):
            brute_force_oracle(make_params(5, 4, 7), [0] * bits)
        with pytest.raises(UnsupportedParameterError, match="oracle window cap: 2346 windows"):
            brute_force_oracle(make_params(5, 4, 7, strict=False), [0] * bits)

    def test_key_cap(self, monkeypatch):
        # the empty target matches every key: 624,960 at (4,3,5) and about
        # 2^26 at strict (5,4,7)
        for params in (make_params(4, 3, 5), make_params(5, 4, 7)):
            with pytest.raises(UnsupportedParameterError, match="more than 65536 keys"):
                brute_force_oracle(params, [])
        # the cap is above the largest list a target can give at (3,3,4)
        assert len(brute_force_oracle(P334, [])) == 40320 < ORACLE_KEY_CAP
        # a phase's keys are counted before any half is built: at (2,11,12)
        # a 1-bit target keeps every one of 1936 * 2047 B halves and 1728 *
        # 4095 C halves
        monkeypatch.setattr(oracle._Side, "halves", built)
        with pytest.raises(UnsupportedParameterError, match="more than 65536 keys"):
            brute_force_oracle(make_params(2, 11, 12), [1])

    def test_non_binary_target_rejected(self):
        for entry in (2, 300, 1.0):
            z = [0, 1] * 12
            z[7] = entry
            with pytest.raises(ValueError, match=f"entry 7 is {entry!r}, not 0 or 1"):
                brute_force_oracle(P334, z)

    @pytest.mark.parametrize("params", [make_params(2, 3, 5), P334, make_params(4, 3, 5),
                                        P343_LOOSE, P244_LOOSE],
                             ids=["2-3-5", "3-3-4", "4-3-5", "3-4-3-loose", "2-4-4-loose"])
    def test_matches_reference_oracle(self, params, rng):
        # same keys in the same order as the per-candidate reference on a
        # true keystream past one control period and past twice the longer
        # register period, so that windows wrap their cycle, and on it with
        # its last bit flipped; below l = 4 (where the reference takes well
        # under 1 s) also on one of 3(m+n) bits, on its 2- and 3-bit
        # prefixes, where P or Q is 0, and on a random string, and at
        # (3, 3, 4) on the empty and 1-bit targets.  Without strict, 15
        # is composite, so at (2, 4, 4) jumps 3, 5, 6, 9, 10 and 12 split
        # both cycles into several orbits
        floor = 3 * (params.m + params.n)
        key = {P343_LOOSE: KEY_R3, P244_LOOSE: KEY_R3_S5}.get(params)
        key = key or random_valid_key(params, rng)
        longest = (1 << max(params.m, params.n)) - 1
        z = keystream(params, key, max((1 << params.l) + floor + 3, 2 * longest + 3))
        inputs = [z, z[:-1] + [1 - z[-1]]]
        if params.l < 4:
            short = keystream(params, key, floor)
            inputs += [short, short[:2], short[:3], [rng.randrange(2) for _ in range(floor)]]
        if params is P334:
            inputs += [[], [1]]
        for z in inputs:
            assert brute_force_oracle(params, z) == reference_oracle(params, z)

    def test_matches_scan_at_strict_547(self, rng):
        # same keys in the same order as the linear scan over all 8 * 15 +
        # 126 * 127 windows per phase: on true keystreams of 69 bits and of
        # 300, past twice C's period of 127 so that windows wrap, each also
        # with its last bit flipped, on random strings and on the constant
        # ones, whose peeled streams are all 0 and their complements all 1
        params = make_params(5, 4, 7)
        key = random_valid_key(params, rng)
        inputs = [[0] * 69, [1] * 69]
        for nbits in (69, 300):
            z = keystream(params, key, nbits)
            assert key in brute_force_oracle(params, z)
            inputs += [z, z[:-1] + [1 - z[-1]], [rng.randrange(2) for _ in range(nbits)]]
        for z in inputs:
            assert brute_force_oracle(params, z) == scan_oracle(params, z)

    @pytest.mark.parametrize("params", [make_params(2, 3, 5), P334, make_params(4, 3, 5)],
                             ids=["2-3-5", "3-3-4", "4-3-5"])
    def test_matches_scan_at_the_edges(self, params, rng):
        # on l + 1 bits one phase has l control 1s: its C side peels a 1-bit
        # stream (Q = 0) and its B side one as long as the window, so that
        # nothing is shifted off; another phase has l 0s and the reverse.
        # The constant targets peel all-0 streams, whose all-1 complement
        # runs up to 2^len(z).  The 0- and 1-bit targets have P = Q = 0.
        l = params.l
        controls = [st & 1 for st in de_bruijn_cycle(LfsrSpec(l, params.poly_a))]
        runs = {sum(controls[(phase + t) % (1 << l)] for t in range(l))
                for phase in range(1 << l)}
        assert {0, l} <= runs
        key = random_valid_key(params, rng)
        inputs = [[0] * (l + 1), [1] * (l + 1), keystream(params, key, l + 1),
                  [rng.randrange(2) for _ in range(l + 1)]]
        if params is P334:  # the other shapes have more than 2 * ORACLE_KEY_CAP keys
            inputs += [[], [0], [1]]
        for z in inputs:
            assert brute_force_oracle(params, z) == scan_oracle(params, z)

    def test_matches_scan_across_control_laps(self, rng):
        # at l = 2 a 40-bit target spans ten laps of the 4-bit control
        # cycle, so each phase's slice of the extended control bits wraps
        # the lap nine or ten times
        params = make_params(2, 3, 5)
        key = random_valid_key(params, rng)
        z = keystream(params, key, 40)
        assert key in brute_force_oracle(params, z)
        for z in (z, z[:-1] + [1 - z[-1]], [rng.randrange(2) for _ in range(40)]):
            assert brute_force_oracle(params, z) == scan_oracle(params, z)

    @pytest.mark.parametrize("lmn", [(3, 3, 4), (3, 4, 3), (4, 3, 5), (4, 4, 5), (5, 4, 7)],
                             ids=lmn_id)
    def test_equals_the_classes_of_the_attacks_keys(self, lmn):
        # a key is fixed only up to its Frobenius conjugates r * 2^i and
        # s * 2^j, so at desk scale, from 3(m+n) bits on, the oracle lists
        # exactly the conjugates of the attack's keys, and each regenerates z
        params = make_params(*lmn)
        floor = 3 * (params.m + params.n)
        for seed in range(6):
            key = random_valid_key(params, random.Random(seed))
            for nbits in (floor, floor + 4, floor + 8):
                z = keystream(params, key, nbits)
                report = run_attack(AttackConfig(params, z, max_candidates=1 << 20))
                found = set().union(*(frobenius_class(params, k) for k in report.recovered_keys))
                assert set(brute_force_oracle(params, z)) == found, (seed, nbits)
                assert all(keystream(params, k, nbits) == z for k in found)

    @pytest.mark.parametrize("lmn, nbits, misses",
                             [((13, 7, 9), 48, {5}), ((14, 5, 6), 33, {0, 8}),
                              ((13, 9, 7), 48, set()), ((14, 6, 5), 33, set())],
                             ids=["13-7-9-48", "14-5-6-33", "13-9-7-48", "14-6-5-33"])
    def test_at_the_attacks_shapes(self, lmn, nbits, misses):
        # at exactly 3(m+n) bits: the oracle lists the true key, only keys
        # that regenerate z, and every conjugate of every key the attack
        # reports.  The sweep skips a guess with fewer than 2m beta bits or
        # 2n lambda bits over its len(z) - 1 control bits, so each oracle
        # key outside the attack's classes must be such a guess's; the seeds
        # where that happens are listed (ROADMAP item 5).  At (14, 6, 5)
        # seed 7 has a second class with exactly 2m beta bits
        params = make_params(*lmn)
        l, m, n = params.l, params.m, params.n
        cycle = de_bruijn_cycle(LfsrSpec(l, params.poly_a))
        position = {state: i for i, state in enumerate(cycle)}
        missed = set()
        for seed in (0, 1, 2, 3, 5, 7, 8):
            key = random_valid_key(params, random.Random(seed))
            z = keystream(params, key, nbits)
            keys = set(brute_force_oracle(params, z))
            assert key in keys
            assert all(keystream(params, k, nbits) == z for k in keys)
            found = set().union(*(frobenius_class(params, k)
                                  for k in run_attack(AttackConfig(params, z)).recovered_keys))
            assert found <= keys
            for k in keys - found:
                at = position[k.state_a.mask]
                ones = sum(cycle[(at + t) % (1 << l)] & 1 for t in range(nbits - 1))
                assert ones + 1 < 2 * m or nbits - ones < 2 * n, (seed, k)
                missed.add(seed)
        assert missed == misses

    @pytest.mark.parametrize("params, key", [(P365_LOOSE, KEY_R21), (P365_LOOSE, KEY_R9),
                                             (P244_LOOSE, KEY_R3_S5)],
                             ids=["3-6-5-r21", "3-6-5-r9", "2-4-4-s5"])
    def test_matches_scan_on_short_doubling_classes(self, params, key, rng):
        # without strict, a doubling class of jumps can be shorter than the
        # register: at m = 6, r = 21 lies in {21, 42} and r = 9 in {9, 18,
        # 36}, and j = 9 walks 9 cosets of 7 states; at n = 4, s = 5 lies
        # in {5, 10}.  Same keys in the same order as the linear scan on a
        # true keystream of 40 bits and one past twice the longer period,
        # so that windows wrap, each also with its last bit flipped, on
        # random strings and on the constant ones
        for nbits in (40, 2 * ((1 << max(params.m, params.n)) - 1) + 3):
            z = keystream(params, key, nbits)
            assert key in brute_force_oracle(params, z)
            for z in (z, z[:-1] + [1 - z[-1]], [rng.randrange(2) for _ in range(nbits)],
                      [0] * nbits, [1] * nbits):
                assert brute_force_oracle(params, z) == scan_oracle(params, z)

    def test_windows_need_an_m_sequence(self):
        # x^4 + x^3 + x^2 + x + 1 is irreducible but not primitive: its
        # output has period 5, and decimating it by 2 shifts it by no tau
        with pytest.raises(ValueError, match="is no m-sequence"):
            oracle._windows(LfsrSpec(4, BinaryPolynomial(0b11111)), [1, 2, 4, 8], 4)


class TestSweep:
    # l = 7 and 9 put more lanes in a chunk than a machine word holds;
    # l = 2 and 3 run keystreams of 3(m+n) bits and more past one control
    # period; (4, 3, 5) covers both sides of the 2^l = 3(m+n) - 8 mark
    @pytest.mark.parametrize("lmn", [(4, 3, 5), (5, 4, 3), (6, 5, 4), (2, 3, 5), (3, 4, 3),
                                     (7, 4, 5), (9, 5, 3)], ids=lmn_id)
    def test_matches_replay_reference(self, lmn, rng, monkeypatch):
        # every (state, beta_0) guess gets the same decision, fits and BM
        # runs from the sweep and from the replay reference, and
        # verify_candidate agrees with the reference on its fits
        params = make_params(*lmn)
        l, floor = params.l, 3 * (params.m + params.n)
        inputs = [keystream(params, random_valid_key(params, rng), nbits)
                  for nbits in (floor, floor + 5, suggested_keystream_length(params))]
        inputs += [[rng.randrange(2) for _ in range(floor + extra)] for extra in (0, 3, 9)]
        # every stream of an all-zero keystream is constant, so every guess
        # with enough bits passes the B side and gets the C-side test
        inputs.append([0] * floor)
        # one guess passes the B side and fails only the cap at n
        a_over = rng.randrange(1 << l)
        inputs.append(over_cap_keystream(params, a_over, floor + 5))
        assert replay_reference(params, inputs[-1], a_over, 0)[0] == "complexity"
        seen = set()
        for z in inputs:
            config = AttackConfig(params, z)
            swept = []
            monkeypatch.setattr(
                attack, "_recover_key",
                lambda config, cand, counters: swept.append(cand))
            _, counters = _attack_chunk(config, 0, 1 << l)
            guesses, expected = reference_sweep(params, z)
            for outcome, cand in guesses:
                seen.add(outcome)
                if cand is None:
                    continue
                assert verify_candidate(config, cand) == (outcome == "accepted")
                # like the replay, verification ignores the beta_0 label
                relabelled = dataclasses.replace(cand, beta0=1 - cand.beta0)
                assert verify_candidate(config, relabelled) == (outcome == "accepted")
            assert (by_guess(swept), counters) == expected
        assert {"accepted", "rejected", "complexity"} <= seen

    @pytest.mark.parametrize("chunk", [attack.CHUNK_LANES, 64], ids=["one-chunk", "64-lane"])
    def test_matches_replay_reference_at_the_lane_cap(self, chunk, rng, monkeypatch):
        # the lanes' B streams are peeled up to the cap, 2m + bit_length of
        # the lanes in a chunk, and a guess that passes the lane test with a
        # longer stream gets the rest checked on its own: the true guess's
        # stream ends one bit short of the cap, at it and one past it, and
        # on a last input it fails only at a flipped bit past the cap.
        # 64-lane chunks start inside the cycle, the one chunk before it
        params = P875
        width = min(chunk // 2, 1 << params.l)
        cap = 2 * params.m + (2 * width).bit_length()
        key = random_valid_key(params, rng)
        tr = reference_trace(params, key, 8 * cap)
        ones = list(accumulate(tr.control_bits))
        # the shortest keystream on which the true B stream holds k bits
        # ends with a control-1 step
        nbits = {k: ones.index(k - 1) + 2 for k in (cap - 1, cap, cap + 1, cap + 3)}
        inputs = [tr.keystream[:nbits[k]] for k in (cap - 1, cap, cap + 1)]
        z = tr.keystream[:nbits[cap + 3]]
        inputs.append(z[:-1] + [z[-1] ^ 1])
        a_mask, beta0 = key.state_a.mask, tr.beta_stream[0]
        assert replay_reference(params, inputs[-1], a_mask, beta0)[0] == "rejected"
        caps, tested = [], []
        peel, reconstruct = attack._peel_lanes, attack.reconstruct_streams
        monkeypatch.setattr(attack, "_peel_lanes",
                            lambda *args: caps.append(args[-1]) or peel(*args))
        monkeypatch.setattr(attack, "reconstruct_streams",
                            lambda *args: tested.append(args[::2]) or reconstruct(*args))
        for z in inputs:
            assert len(z) >= 3 * (params.m + params.n)
            config = AttackConfig(params, z)
            counters, swept = AttackCounters(), []
            caps.clear()
            for lo in range(0, 1 << params.l, width):
                swept += _sweep_lanes(config, lo, width, counters)
            assert set(caps) == {cap}
            accepted, expected = reference_sweep(params, z)[1]
            assert (by_guess(swept), counters) == (accepted, expected)
            assert any(c.a_init.mask == a_mask for c in accepted) == (z is not inputs[-1])
        # the flipped guess passed the lane test and failed on its own
        assert (tr.control_bits[:len(z) - 1], beta0) in tested

    def test_lane_fit_runs_for_the_b_side_only(self, rng, monkeypatch):
        # each chunk runs the lane fit once, on the B side; the C side is
        # fitted guess by guess, also at 3(m+n) bits, where about a
        # hundred guesses pass the B side at (13, 7, 9)
        lane_fits = []
        monkeypatch.setattr(attack, "berlekamp_massey_lanes",
                            lambda *args: lane_fits.append(args) or berlekamp_massey_lanes(*args))
        for lmn, chunk, chunks in [((8, 7, 9), attack.CHUNK_LANES, 1), ((8, 7, 9), 64, 8),
                                   ((13, 7, 9), attack.CHUNK_LANES, 1)]:
            params = make_params(*lmn)
            key = random_valid_key(params, rng)
            monkeypatch.setattr(attack, "CHUNK_LANES", chunk)
            for nbits in (3 * (params.m + params.n), suggested_keystream_length(params)):
                lane_fits.clear()
                report = run_attack(AttackConfig(params, keystream(params, key, nbits)))
                assert [length for _, length, _ in lane_fits] == [2 * params.m] * chunks
            assert report.recovered_keys

    @pytest.mark.parametrize("lmn, count", [((8, 7, 5), 4), ((3, 3, 4), 1)], ids=["8-7-5", "3-3-4"])
    def test_chunking_and_workers_do_not_change_the_report(self, lmn, count, rng, monkeypatch):
        # at the default chunk size both shapes sweep in-process; 8-lane
        # chunks (4 positions) start a pool, where 3 workers split 2^l
        # positions unevenly
        params = make_params(*lmn)
        floor = 3 * (params.m + params.n)
        positions = {s: i for i, s in enumerate(
            de_bruijn_cycle(LfsrSpec(params.l, params.poly_a)))}
        inputs = [keystream(params, random_valid_key(params, rng), nbits)
                  for nbits in (floor, suggested_keystream_length(params)) * count]
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        default, reordered = attack.CHUNK_LANES, False
        for z in inputs + [[rng.randrange(2) for _ in range(floor)]]:
            reports = []
            for chunk in (default, 8):
                monkeypatch.setattr(attack, "CHUNK_LANES", chunk)
                reports += [run_attack(AttackConfig(params, z, worker_count=w)) for w in (1, 2, 3)]
            for rep in reports[1:]:
                assert rep.recovered_keys == reports[0].recovered_keys
                assert rep.counters == reports[0].counters
            assert reports[0].counters.a_states_tried == 1 << params.l
            assert reports[0].recovered_keys or z not in inputs
            # keys come in control-state order, not cycle order
            states = [k.state_a.mask for k in reports[0].recovered_keys]
            assert states == sorted(states)
            reordered |= sorted(states, key=positions.get) != states
        assert reordered or lmn != (8, 7, 5)


class TestPeelLanes:
    def test_matches_reconstruct_streams_up_to_the_cap(self, rng):
        # each lane's B stream and control-1 count as `reconstruct_streams`
        # has them, cut at cap bits; with few steps no lane reaches the cap,
        # with many every lane does and the peel stops early
        for _ in range(60):
            width, cap = rng.choice([1, 5, 64, 70]), rng.randrange(4, 20)
            steps = rng.choice([1, cap - 2, cap, 2 * cap, 5 * cap])
            z = [rng.randrange(2) for _ in range(steps + 1)]
            words = [rng.getrandbits(width) for _ in range(steps)]
            beta, at_least = _peel_lanes(z, iter(words), width, cap)
            streams = [reconstruct_streams([(w >> j) & 1 for w in words], z, 0)[0]
                       for j in range(width)]
            assert len(at_least) == cap
            assert len(beta) == cap
            for j, stream in enumerate(streams):
                kept = min(len(stream), cap)
                assert [(s >> j) & 1 for s in beta[:kept]] == stream[:kept]
                assert [(s >> (width + j)) & 1 for s in beta[:kept]] == [
                    1 - b for b in stream[:kept]]
                assert [(t >> j) & 1 for t in at_least] == [k < kept for k in range(cap)]


class TestWindowsAtLeast:
    def test_matches_per_lane_popcount(self, rng):
        # the sweep's thresholds, span + 1 - 2n for the C side's 2n bits,
        # one off them, and the counts of some lanes, so that lanes sit
        # exactly on them
        for span in range(1, 131):
            width = rng.choice([1, 3, 64, 65, 200])
            bits = rng.getrandbits(width + span - 1)
            counts = [((bits >> j) & ((1 << span) - 1)).bit_count() for j in range(width)]
            thresholds = {max(span + 2 - 2 * n + d, 0) for n in (3, 5, 9, 16) for d in (-1, 0, 1)}
            thresholds |= {max(counts[j] + d, 0) for j in (0, width // 2, width - 1)
                           for d in (-1, 0, 1)}
            for threshold in thresholds | {0, span, span + 1}:
                expected = sum(1 << j for j, c in enumerate(counts) if c >= threshold)
                assert _windows_at_least(bits, span, threshold, width) == expected


class TestLaneSlices:
    # every slice is a non-negative int inside its lane mask: bitwise ops
    # on negative ints cost several times more at lane width
    @staticmethod
    def _inside(slices, mask):
        return all(isinstance(s, int) and 0 <= s <= mask for s in slices)

    def test_berlekamp_massey_lanes(self, rng):
        # random streams and ones of low linear complexity, so that L takes
        # values on both sides of n // 2 at every step and both halves of
        # the thermometer update move; lengths up to 2m at m = 24
        for width in (1, 63, 64, 65, 200):
            mask = (1 << width) - 1
            for length in (1, 2, 3, 14, 28, 47, 48):
                seqs = [berlekamp_massey([rng.randrange(2) for _ in range(2 * L)]).extend(length)
                        for L in (rng.randrange(length // 2 + 2) for _ in range(width // 2))]
                seqs += [[rng.randrange(2) for _ in range(length)]
                         for _ in range(width - len(seqs))]
                slices = [sum(s[k] << j for j, s in enumerate(seqs)) for k in range(length)]
                c, T = berlekamp_massey_lanes(slices, length, mask)
                assert self._inside(c, mask) and self._inside(T, mask)
                for j, s in enumerate(seqs):
                    L = berlekamp_massey(s).linear_complexity
                    assert [(tk >> j) & 1 for tk in T] == [int(k <= L) for k in range(len(T))]

    def test_peel_and_window_counts(self, rng):
        # control words wider than the lanes they drive: their high bits
        # must neither change the peel nor leak into its slices
        for width in (1, 63, 64, 65, 200):
            half, lanes = (1 << width) - 1, (1 << 2 * width) - 1
            for steps in (1, 20, 60):
                cap = rng.randrange(4, 24)
                z = [rng.randrange(2) for _ in range(steps + 1)]
                bits = rng.getrandbits(width + steps + 8)
                words = [bits >> t for t in range(steps)]
                beta, at_least = _peel_lanes(z, iter(words), width, cap)
                assert (beta, at_least) == _peel_lanes(z, (w & half for w in words), width, cap)
                assert self._inside(beta, lanes) and self._inside(at_least, half)
                for threshold in (0, steps // 2, steps, steps + 1):
                    assert self._inside([_windows_at_least(bits, steps, threshold, width)], half)


class TestChunkControl:
    def test_words_and_windows_match_de_bruijn_cycle(self):
        # chunks that start at position 0, end at position 2^l - 1, sit
        # inside the cycle, or take the whole of it, with steps that run
        # past the cycle's end, some of them several times round
        for l in range(2, 11):
            spec = LfsrSpec(l, primitive_polynomial(l))
            period = 1 << l
            cycle = de_bruijn_cycle(spec)
            chunks = [(0, period), (0, 3), (period - 3, 3), (period - 1, 1),
                      (period // 3, period - period // 3), (1, period // 2)]
            for steps in (1, l, period - 1, 2 * period + 3):
                for lo, width in chunks:
                    # what the sweep reads: the l - 1 bits before lo, then
                    # one word of width bits per step
                    bits = de_bruijn_bits(spec, lo - l + 1, width + steps + l - 2)
                    words = [(bits >> t) & ((1 << width) - 1)
                             for t in range(l - 1, l - 1 + steps)]
                    # every lane's window, but the long runs only on a
                    # sample of lanes, each crossing the spliced zero at a
                    # different step
                    lanes = range(width) if steps <= l else {*range(0, width, 37), width - 1}
                    for j in range(width):
                        assert reverse_bits(bits >> j, l) == cycle[lo + j]
                    for j in lanes:
                        reg = DeBruijnRegister(spec, BitVector(cycle[lo + j], l))
                        assert [(w >> j) & 1 for w in words] == de_bruijn_sequence(reg, steps)

    def test_chunk_starts_leave_the_jump_caches_alone(self, rng, monkeypatch):
        # each chunk jumps to its start without a cached jump or table per
        # start, so 128 chunks add no more cache entries than one does
        params = make_params(12, 5, 6)
        z = keystream(params, random_valid_key(params, rng), suggested_keystream_length(params))
        misses = []
        for chunk in (1 << 14, 64):
            monkeypatch.setattr(attack, "CHUNK_LANES", chunk)
            registers._half_tables.cache_clear()
            registers.jump_rows.cache_clear()
            report = run_attack(AttackConfig(params, z))
            assert report.recovered_keys
            misses.append((registers._half_tables.cache_info().misses,
                           registers.jump_rows.cache_info().misses))
        assert misses[1] == misses[0]
        assert misses[0][0] <= 6


class TestSoundnessAndCompleteness:
    """The attack's invariants on random inputs: every reported key
    regenerates the input, and on ASG keystreams every reported key is
    one the brute-force oracle finds too."""

    @pytest.mark.parametrize("lmn, examples", [((3, 3, 4), 12), ((4, 3, 5), 12), ((5, 4, 7), 4)],
                             ids=["3-3-4", "4-3-5", "5-4-7"])
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

    def test_gate_rejects_a_replay_off_in_its_last_bit(self, rng, tmp_path, monkeypatch):
        # every filter of the sweep passes; only the replay of the assembled
        # key, made to differ from the input in its last bit, can refuse it
        z = keystream(P875, random_valid_key(P875, rng), suggested_keystream_length(P875))
        config = AttackConfig(P875, z)  # one worker: the patch below reaches the sweep
        honest = run_attack(config)
        assert honest.recovered_keys

        def last_bit_flipped(params, key, count):
            out = keystream(params, key, count)
            out[-1] ^= 1
            return out

        monkeypatch.setattr(attack, "keystream", last_bit_flipped)
        report = run_attack(config)
        assert report.recovered_keys == []
        assert report.counters.verified_candidates == honest.counters.verified_candidates > 0
        pfile, zfile = tmp_path / "p.json", tmp_path / "z.txt"
        formats.write_params(pfile, P875)
        formats.write_bits(zfile, z)
        assert cli.main(["attack", "--params", str(pfile), "--in", str(zfile),
                         "--out", str(tmp_path / "report.json")]) == 1

    def test_gate_rejects_a_wrong_register_head(self, rng, monkeypatch):
        z = keystream(P875, random_valid_key(P875, rng), suggested_keystream_length(P875))
        config = AttackConfig(P875, z)
        assert run_attack(config).recovered_keys
        recover = attack._recover_jump

        def head_bit_flipped(ctx, fit, counters):
            found = recover(ctx, fit, counters)
            return found and DecimationFit(found.r, BitVector(found.initial_bits.mask ^ 1, ctx.m))

        monkeypatch.setattr(attack, "_recover_jump", head_bit_flipped)
        assert run_attack(config).recovered_keys == []

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
