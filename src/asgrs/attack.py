"""Algebraic key recovery for the ASG(r,s) from a short keystream.

The search runs over all 2^l control states and both guesses for the
first decimated B-bit.  Every span-l state lies on one de Bruijn cycle,
so each worker steps the control register through one period and reads
each state's control sequence off it as a window.  Per state the two
decimated streams are peeled out of consecutive keystream differences
once (a step with control bit 1 changes only the B-side stream, a step
with 0 only the C-side), for beta_0 = 0; the streams for beta_0 = 1 are
their bitwise complements.  Per guess Berlekamp-Massey fits short LFSRs
to the first 2m and 2n harvested bits, and the guess is kept only if
each fitted connection polynomial generates every harvested bit of its
stream.  This linear-consistency test accepts exactly the guesses whose
fitted model, replayed under the guessed control sequence, reproduces
every supplied keystream bit: harvested bits satisfy beta_p ^ lambda_q
= z_t by construction, so the replay matches z at every step if and
only if the fitted streams equal the harvested ones.

Surviving candidates then have their jump sizes recovered: writing the
undecimated register output as b_t = Tr(u a^t) for a root a of the
public feedback polynomial, the decimated stream is Tr(u g^t) with
g = a^r.  The connection polynomial f that Berlekamp-Massey fits to that
stream is the minimal polynomial of g, so the admissible jumps are the r
coprime to 2^m - 1 with f(a^r) = 0.  A table of a^k for 0 <= k < 2^m - 1,
built once per call, makes each root test wt(f) lookups.  Only the first
r that passes gets its m x m trace system solved for u, which is linear
in the coordinates of u, and (r, u) yields the register's initial state
via b_t = Tr(u a^t).  The search is still O(2^m) table lookups and uses
4 * 2^m bytes per call (about 0.04 s and 256 KiB at m = 16).

Note that (r, u) is only determined up to Frobenius conjugacy:
Tr(u g^t) = Tr(u^2 (g^2)^t), so jumps r and 2r mod (2^m - 1) with
matching u-powers generate identical streams.  The roots of f are
exactly the conjugates of g, so the ascending root search returns the
smallest admissible r of the class, and the assembled key is
keystream-equivalent to the one used for encryption.
"""

from __future__ import annotations

import math
import os
import time
from array import array
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate, compress, islice
from operator import not_, xor

from .analysis import LfsrFit, berlekamp_massey
from .errors import UnsupportedParameterError
from .field import FieldContext, FieldElement, field_context
from .gf2 import BitMatrix, BitVector, invert
from .generator import AsgKey, AsgParams, keystream, validate_params
from .registers import (
    BitSequence,
    DeBruijnRegister,
    LfsrSpec,
    de_bruijn_cycle,
    de_bruijn_sequence,
    lfsr_states,
    output_bits,
    state_from_outputs,
)

ORACLE_WORK_CAP = 1 << 26


@dataclass
class AttackCounters:
    """Work actually performed, for empirical complexity measurements.

    ``trace_solves`` counts trace systems solved, at most one per
    `recover_decimation` call.
    """

    a_states_tried: int = 0
    bm_runs: int = 0
    trace_solves: int = 0
    verified_candidates: int = 0

    def merge(self, other: "AttackCounters"):
        self.a_states_tried += other.a_states_tried
        self.bm_runs += other.bm_runs
        self.trace_solves += other.trace_solves
        self.verified_candidates += other.verified_candidates


@dataclass(frozen=True)
class AttackConfig:
    """Attack inputs and knobs.

    Candidates are always checked against every supplied keystream bit,
    which must each be 0 or 1.
    """

    params: AsgParams
    keystream: list[int]
    max_candidates: int = 16
    worker_count: int = 1

    def __post_init__(self):
        violations = validate_params(self.params)
        if violations:
            raise ValueError("invalid params: " + "; ".join(violations))
        minimum = 3 * (self.params.m + self.params.n)
        if len(self.keystream) < minimum:
            raise ValueError(
                f"keystream of {len(self.keystream)} bits is below the "
                f"minimum requirement of 3(m+n) = {minimum}")
        bad = next((t for t, b in enumerate(self.keystream)
                    if not (isinstance(b, int) and b in (0, 1))), None)
        if bad is not None:
            raise ValueError(
                f"keystream entry {bad} is {self.keystream[bad]!r}, not 0 or 1")
        if self.max_candidates < 1:
            raise ValueError("max_candidates must be positive")
        if self.worker_count < 1:
            raise ValueError("worker_count must be positive")


def suggested_keystream_length(params: AsgParams) -> int:
    """Comfortable default: 4(m+n) bits for fitting plus l + 20 more, which
    keeps the expected number of chance survivors across all 2^(l+1)
    guesses below 2^-19."""
    return 4 * (params.m + params.n) + params.l + 20


class FitFailure(Enum):
    INSUFFICIENT_BITS = "insufficient-bits"
    COMPLEXITY_EXCEEDED = "complexity-exceeded"


@dataclass(frozen=True)
class CandidateModel:
    """A surviving (control state, beta_0) guess with its fitted registers."""

    a_init: BitVector
    beta0: int
    beta_fit: LfsrFit
    lambda_fit: LfsrFit


def _control_windows(base: LfsrSpec, steps: int) -> tuple[bytes, array]:
    """Control bits along one de Bruijn period, repeated to cover `steps`
    more, and each state's position on the cycle: the first `steps`
    control bits from state s are bits[start[s]:start[s] + steps]."""
    states = de_bruijn_cycle(base)
    period = len(states)
    start = array("I", [0]) * period
    for i, s in enumerate(states):
        start[s] = i
    return bytes(s & 1 for s in states) * (steps // period + 2), start


def reconstruct_streams(a_seq: BitSequence, keystream: BitSequence,
                        beta0: int) -> tuple[list[int], list[int]]:
    """Peel the two decimated streams out of the keystream.

    Requires len(a_seq) >= len(keystream) - 1.  Each step t with control
    bit 1 extends the B-side stream by beta_{p+1} = beta_p ^ z_t ^ z_{t+1};
    a 0 extends the C-side stream the same way.  Short keystreams simply
    yield short prefixes.
    """
    if len(keystream) == 0:
        return [], []
    if len(a_seq) < len(keystream) - 1:
        raise ValueError("control sequence shorter than keystream - 1")
    diffs = list(map(xor, keystream, keystream[1:]))
    return _peel(diffs, a_seq, map(not_, a_seq), beta0 & 1, keystream[0] ^ (beta0 & 1))


def _peel(diffs: list[int], ones: BitSequence, zeros: BitSequence, beta0: int,
          lam0: int) -> tuple[list[int], list[int]]:
    # diffs[t] = z_t ^ z_{t+1}; ones/zeros mark the steps with control 1/0
    return (list(accumulate(compress(diffs, ones), xor, initial=beta0)),
            list(accumulate(compress(diffs, zeros), xor, initial=lam0)))


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_FLIP = bytes.maketrans(b"\x00\x01", b"\x01\x00")


def _pack(bits: list[int]) -> int:
    """The bits as one integer, bit t = bits[t]."""
    return int(bytes(bits[::-1]).translate(_BIT_DIGITS), 2)


def _fit_prefixes(params: AsgParams, beta: list[int], lam: list[int],
                  counters: AttackCounters | None) -> tuple[LfsrFit, LfsrFit] | FitFailure:
    """Fit both registers on the first 2m (resp. 2n) harvested bits,
    rejecting any fit above the public register length."""
    m, n = params.m, params.n
    beta_fit = berlekamp_massey(beta[:2 * m])
    if counters:
        counters.bm_runs += 1
    if beta_fit.linear_complexity > m:
        return FitFailure.COMPLEXITY_EXCEEDED
    lambda_fit = berlekamp_massey(lam[:2 * n])
    if counters:
        counters.bm_runs += 1
    if lambda_fit.linear_complexity > n:
        return FitFailure.COMPLEXITY_EXCEEDED
    return beta_fit, lambda_fit


def _generates(fit: LfsrFit, packed: int, length: int) -> bool:
    """Whether the fitted register outputs exactly the `length` bits in
    `packed` (bit t = s_t).

    Bit t of the XOR of packed >> i over the terms x^i of the connection
    polynomial is s_{t+L} XOR the recurrence's prediction for it, so one
    shift and XOR per term tests every bit past the head at once.
    """
    L = fit.linear_complexity
    if (packed ^ fit.initial_state.mask) & ((1 << min(L, length)) - 1):
        return False
    if length <= L:
        return True
    residue = 0
    f = fit.connection.mask
    while f:
        low = f & -f
        residue ^= packed >> (low.bit_length() - 1)
        f ^= low
    return residue & ((1 << (length - L)) - 1) == 0


def _guess_streams(config: AttackConfig, a_init: BitVector,
                   beta0: int) -> tuple[list[int], list[int]]:
    control = de_bruijn_sequence(
        DeBruijnRegister(LfsrSpec(config.params.l, config.params.poly_a), a_init),
        max(len(config.keystream) - 1, 0))
    return reconstruct_streams(control, config.keystream, beta0)


def fit_candidate(config: AttackConfig, a_init: BitVector, beta0: int,
                  counters: AttackCounters | None = None) -> CandidateModel | FitFailure:
    """Reconstruct, harvest quotas of 2m/2n bits, and fit both registers.

    The fits run on exactly the first 2m (resp. 2n) harvested bits, the
    budget that suffices to pin down a register of the public length;
    anything above the length cap cannot be the real register and is
    rejected outright.
    """
    m, n = config.params.m, config.params.n
    beta, lam = _guess_streams(config, a_init, beta0)
    if len(beta) < 2 * m or len(lam) < 2 * n:
        return FitFailure.INSUFFICIENT_BITS
    fits = _fit_prefixes(config.params, beta, lam, counters)
    if isinstance(fits, FitFailure):
        return fits
    return CandidateModel(a_init, beta0, *fits)


def verify_candidate(config: AttackConfig, cand: CandidateModel) -> bool:
    """Whether replaying the fitted model reproduces every supplied
    keystream bit.

    Harvested bits satisfy beta_p ^ lambda_q = z_t, so the replay matches
    z at every step exactly when both fitted registers generate the
    streams harvested under the fit's own first B-bit; that is what is
    tested, one linear-consistency check per register.
    """
    beta, lam = _guess_streams(config, cand.a_init, cand.beta_fit.extend(1)[0])
    return (_generates(cand.beta_fit, _pack(beta), len(beta))
            and _generates(cand.lambda_fit, _pack(lam), len(lam)))


@dataclass(frozen=True)
class DecimationFit:
    """Recovered decimation: jump r, trace coefficient u, and the first
    m output bits of the undecimated register (b_t = Tr(u a^t))."""

    r: int
    u: FieldElement
    initial_bits: BitVector


def trace_system_matrix(ctx: FieldContext, r: int) -> BitMatrix:
    """The m x m trace system for gamma = alpha^r, linear in the
    coordinates of u: row t, column i holds Tr(x^i * gamma^t).

    It is invertible whenever gamma has degree m, since 1, gamma, ...,
    gamma^(m-1) is then a basis and the trace form is non-degenerate.
    """
    m = ctx.m
    gamma = ctx.pow(ctx.alpha.mask, r)
    rows = []
    g = 1
    for _ in range(m):
        row = 0
        for i in range(m):
            if ctx.trace_of(ctx.mul(1 << i, g)):
                row |= 1 << i
        rows.append(row)
        g = ctx.mul(g, gamma)
    return BitMatrix(m, m, tuple(rows))


def recover_decimation(ctx: FieldContext, observed: BitSequence,
                       verify_bits: int | None = None,
                       counters: AttackCounters | None = None) -> DecimationFit | None:
    """Find (r, u) with observed_t = Tr(u (alpha^r)^t), plus the register head.

    Returns the smallest r coprime to 2^m - 1 for which some u explains
    the first m + verify_bits observed bits, or None.  The connection
    polynomial f fitted to those bits must have degree m, and r is the
    first coprime exponent with f(alpha^r) = 0; one trace system then
    gives u, which must be nonzero (a zero register state is invalid) and
    reproduce observed bits m .. m + verify_bits - 1.  verify_bits
    defaults to 2m and must be at least m, because a connection
    polynomial of degree m is unique only on 2m or more bits (Massey).
    """
    m = ctx.m
    v = 2 * m if verify_bits is None else verify_bits
    if v < m:
        raise ValueError(f"verify_bits must be at least m = {m}, got {v}")
    if len(observed) < m + v:
        raise ValueError(f"need at least m + {v} = {m + v} observed bits")
    fit = berlekamp_massey(observed[:m + v])
    if fit.linear_complexity != m:
        return None
    period = (1 << m) - 1
    # exp[k] = alpha^k: alpha is the class of x, so each step is one shift
    # and at most one reduction
    exp = array("I", [0]) * period
    e, top, modulus = 1, 1 << m, ctx.modulus.mask
    for k in range(period):
        exp[k] = e
        e <<= 1
        if e & top:
            e ^= modulus
    taps = [i for i in range(m + 1) if fit.connection.coefficient(i)]
    for r in range(1, period):
        if math.gcd(r, period) != 1:
            continue
        root = 0
        for i in taps:
            root ^= exp[r * i % period]
        if root == 0:
            break
    else:
        return None
    inv = invert(trace_system_matrix(ctx, r))
    if counters:
        counters.trace_solves += 1
    head_mask = 0
    for t in range(m):
        head_mask |= (observed[t] & 1) << t
    u = 0
    for j, row in enumerate(inv.row_masks):
        u |= ((row & head_mask).bit_count() & 1) << j
    if u == 0:
        return None
    # the solution matches observed[:m] by construction; check the rest
    gamma = exp[r]
    e = ctx.mul(u, exp[r * m % period])
    for t in range(m, m + v):
        if ctx.trace_of(e) != observed[t]:
            return None
        e = ctx.mul(e, gamma)
    alpha = ctx.alpha.mask
    bits = []
    e = u
    for _ in range(m):
        bits.append(ctx.trace_of(e))
        e = ctx.mul(e, alpha)
    return DecimationFit(r, ctx.element(u), BitVector.from_bits(bits))


@dataclass(frozen=True)
class AttackReport:
    recovered_keys: list[AsgKey]
    counters: AttackCounters
    wall_time_seconds: float


def _recover_key(config: AttackConfig, cand: CandidateModel,
                 counters: AttackCounters) -> AsgKey | None:
    """Assemble the key of a verified candidate.

    Each fit already generates its whole harvested stream, so the
    decimation is recovered from 3m bits of the fit itself.
    """
    params = config.params
    z = config.keystream

    def recover(poly, m, fit):
        return recover_decimation(field_context(poly), fit.extend(3 * m), counters=counters)

    fit_b = recover(params.poly_b, params.m, cand.beta_fit)
    if fit_b is None:
        return None
    fit_c = recover(params.poly_c, params.n, cand.lambda_fit)
    if fit_c is None:
        return None
    key = AsgKey(
        state_a=cand.a_init,
        state_b=state_from_outputs(fit_b.initial_bits),
        state_c=state_from_outputs(fit_c.initial_bits),
        r=fit_b.r,
        s=fit_c.r,
    )
    # soundness gate: a reported key must regenerate the whole input
    if keystream(params, key, len(z)) != list(z):
        return None
    return key


def _attack_chunk(config: AttackConfig, lo: int, hi: int) -> tuple[list[AsgKey], AttackCounters]:
    counters = AttackCounters()
    keys: list[AsgKey] = []
    params = config.params
    l, m, n = params.l, params.m, params.n
    z = config.keystream
    steps = len(z) - 1
    diffs = list(map(xor, z, z[1:]))
    control, start = _control_windows(LfsrSpec(l, params.poly_a), steps)
    flipped = control.translate(_FLIP)
    for a_mask in range(lo, hi):
        counters.a_states_tried += 1
        i = start[a_mask]
        beta, lam = _peel(diffs, control[i:i + steps], flipped[i:i + steps], 0, z[0])
        nb, nl = len(beta), len(lam)
        if nb < 2 * m or nl < 2 * n:
            continue  # both guesses: the lengths do not depend on beta_0
        packed_b, packed_l = _pack(beta), _pack(lam)
        for beta0 in (0, 1):
            if beta0:
                # the beta_0 = 1 streams are the complements; the fits
                # read only the 2m / 2n prefixes
                beta = [b ^ 1 for b in beta[:2 * m]]
                lam = [b ^ 1 for b in lam[:2 * n]]
                packed_b ^= (1 << nb) - 1
                packed_l ^= (1 << nl) - 1
            fits = _fit_prefixes(params, beta, lam, counters)
            if isinstance(fits, FitFailure):
                continue
            if not (_generates(fits[0], packed_b, nb) and _generates(fits[1], packed_l, nl)):
                continue
            counters.verified_candidates += 1
            cand = CandidateModel(BitVector(a_mask, l), beta0, *fits)
            key = _recover_key(config, cand, counters)
            if key is not None:
                keys.append(key)
    return keys, counters


def run_attack(config: AttackConfig) -> AttackReport:
    """Exhaust all 2^l control states and both beta_0 guesses.

    Every reported key regenerates the entire input keystream; reports
    are deterministic for a given config regardless of worker_count
    (wall time aside).  At most min(worker_count, 2^l, CPU count)
    processes run the sweep.  The candidate list is truncated to
    max_candidates after the full sweep, so counters always reflect the
    complete search.
    """
    start = time.perf_counter()
    total = 1 << config.params.l
    workers = min(config.worker_count, total, os.cpu_count() or 1)
    bounds = [(total * i // workers, total * (i + 1) // workers)
              for i in range(workers)]
    if workers == 1:
        parts = [_attack_chunk(config, lo, hi) for lo, hi in bounds]
    else:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_attack_chunk, config, lo, hi)
                       for lo, hi in bounds]
            parts = [f.result() for f in futures]
    keys: list[AsgKey] = []
    counters = AttackCounters()
    for part_keys, part_counters in parts:
        keys.extend(part_keys)
        counters.merge(part_counters)
    keys = keys[:config.max_candidates]
    return AttackReport(keys, counters, time.perf_counter() - start)


def _coprime_jumps(length: int) -> list[int]:
    period = (1 << length) - 1
    return [r for r in range(1, period) if math.gcd(r, period) == 1]


def brute_force_oracle(params: AsgParams, target: BitSequence) -> list[AsgKey]:
    """All valid keys whose keystream matches `target`, by exhaustion.

    Independent of the generator's merge and jumps: every candidate
    keystream bit is read off precomputed output cycles as
    z_t = b[(p_t * r + off_b) mod 2^m-1] ^ c[(q_t * s + off_c) mod 2^n-1],
    where p_t/q_t count the control bits seen so far.
    """
    violations = validate_params(params)
    if violations:
        raise ValueError("invalid params: " + "; ".join(violations))
    l, m, n = params.l, params.m, params.n
    jumps_r = _coprime_jumps(m)
    jumps_s = _coprime_jumps(n)
    work = (1 << (l + m + n)) * len(jumps_r) * len(jumps_s)
    if work > ORACLE_WORK_CAP:
        raise UnsupportedParameterError(
            f"oracle work 2^{math.log2(work):.1f} exceeds the cap of "
            f"2^{int(math.log2(ORACLE_WORK_CAP))}")

    spec_b = LfsrSpec(m, params.poly_b)
    spec_c = LfsrSpec(n, params.poly_c)
    pm, pn = (1 << m) - 1, (1 << n) - 1
    b_states, b_cycle = _state_cycle(spec_b, pm)
    c_states, c_cycle = _state_cycle(spec_c, pn)
    a_states = de_bruijn_cycle(LfsrSpec(l, params.poly_a))
    control = [st & 1 for st in a_states]

    z = list(target)
    big = len(z)
    out: list[AsgKey] = []
    for phase in range(1 << l):
        p_arr = [0] * big
        q_arr = [0] * big
        for t in range(big - 1):
            if control[(phase + t) % (1 << l)]:
                p_arr[t + 1] = p_arr[t] + 1
                q_arr[t + 1] = q_arr[t]
            else:
                p_arr[t + 1] = p_arr[t]
                q_arr[t + 1] = q_arr[t] + 1
        qs_for_s = {s_: [(q_arr[t] * s_) % pn for t in range(big)] for s_ in jumps_s}
        for r in jumps_r:
            pr = [(p_arr[t] * r) % pm for t in range(big)]
            for off_b in range(pm):
                need = [z[t] ^ b_cycle[(pr[t] + off_b) % pm] for t in range(big)]
                for s_ in jumps_s:
                    qs = qs_for_s[s_]
                    for off_c in range(pn):
                        if all(c_cycle[(qs[t] + off_c) % pn] == need[t]
                               for t in range(big)):
                            out.append(AsgKey(
                                BitVector(a_states[phase], l),
                                BitVector(b_states[off_b], m),
                                BitVector(c_states[off_c], n),
                                r, s_))
    return out


def _state_cycle(spec: LfsrSpec, period: int) -> tuple[list[int], list[int]]:
    """The register's states from state 1 over one period, and the output
    bit (the top cell) of each."""
    states = list(islice(lfsr_states(spec, 1), period))
    return states, list(output_bits(states, spec.length))
