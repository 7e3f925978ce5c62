"""Algebraic key recovery for the ASG(r,s) from a short keystream.

The search runs over all 2^l control states and both guesses for the
first decimated B-bit, bit-sliced: each guess is one lane, and bit j of
a Python int holds lane j's value, so every operation below acts on up
to CHUNK_LANES guesses at once.  Lanes are numbered by position on the
one de Bruijn cycle that holds every span-l state, so the control bits
of all lanes at step t are one word of the cycle's control bits shifted
by t.  A chunk of positions lo .. lo + w - 1 needs only the w + steps
control bits from lo on, and l - 1 before it: the control register's
base LFSR is jumped once to that spot and then stepped l clocks per
table lookup (`registers.de_bruijn_bits`), with the cycle's extra zero
spliced in, so no worker steps or stores the 2^l-state cycle.  Each
survivor's control state is the l-bit window of control bits ending at
its position.  The two decimated streams are peeled out of consecutive
keystream differences (a step with control bit 1 changes only the
B-side stream, a step with 0 only the C-side): the difference is the
same for every lane, and a one-hot count of each lane's control-1 steps
routes it into bit slice k of its stream.  The beta_0 = 1 lanes sit
above the beta_0 = 0 lanes and hold the complemented slices.
Berlekamp-Massey then runs on the first 2m and 2n harvested bits of all
lanes at once, with the connection polynomial held coefficient by
coefficient as slices and the linear complexity as a thermometer code
(T_k = the lanes with L >= k), so that each branch of the algorithm is
a masked update.  A guess is kept only if both fits stay within the
register lengths and each fitted connection polynomial generates every
harvested bit of its stream.  This linear-consistency test accepts
exactly the guesses whose fitted model, replayed under the guessed
control sequence, reproduces every supplied keystream bit: harvested
bits satisfy beta_p ^ lambda_q = z_t by construction, so the replay
matches z at every step if and only if the fitted streams equal the
harvested ones.  The few surviving lanes are decoded in ascending
(control state, beta_0) order and fitted again one by one.

Surviving candidates then have their jump sizes recovered.  The
undecimated register output b_t = Tr(u a^t), for a root a of the public
feedback polynomial, has period 2^m - 1, and the decimated stream is
d_t = b_(rt) = Tr(u g^t) with g = a^r.  The connection polynomial f that
Berlekamp-Massey fits to d is the minimal polynomial of g, so the
admissible jumps are the r coprime to 2^m - 1 with f(a^r) = 0.  They
are found in time polynomial in m, with no table of powers of a: one
root a^r0 of f by trace splitting (`FieldContext.root`), and r0 as its
discrete log (`FieldContext.log`, Pohlig-Hellman with baby-step
giant-step).  Because r is coprime to the period, the decimation
inverts: b_t = d_(t r') with r' = r^-1 mod 2^m - 1, so the register
head is the first m outputs of the fitted register jumped r' clocks at
a time, through the same stepping core as the generator.  One recovery
takes about 1 ms at m = 14 and 2.5 ms at m = 24 (Python 3.11, 2 CPUs),
so the sweep's 2^(l+1) guesses are the attack's only exponential cost.

The jump is only determined up to Frobenius conjugacy:
Tr(u g^t) = Tr(u^2 (g^2)^t), so d is also the 2r-fold decimation (mod
2^m - 1) of the register output Tr(u^2 a^t).  f has binary
coefficients, so its roots are whole conjugacy classes; when one root
has a log coprime to the period, f is the minimal polynomial of that
root and its roots are exactly the conjugates of g.  So the least
member r0 2^j mod 2^m - 1 of the class is the smallest admissible r,
the inverse decimation by that r gives the matching head, and the
assembled key is keystream-equivalent to the one used for encryption.
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass
from functools import reduce
from itertools import accumulate, compress, islice
from operator import and_, itemgetter, not_, xor
from typing import Iterator

from .analysis import LfsrFit, berlekamp_massey, berlekamp_massey_lanes
from .field import FieldContext, field_context
from .gf2 import BitVector
from .generator import AsgKey, AsgParams, keystream, require_bits, validate_params
from .registers import (
    BitSequence,
    DeBruijnRegister,
    LfsrSpec,
    de_bruijn_bits,
    de_bruijn_sequence,
    jumped_states,
    output_bits,
    state_from_outputs,
)

@dataclass
class AttackCounters:
    """Work actually performed, for empirical complexity measurements.

    ``trace_solves`` counts jump solves, one per jump found: at most one
    per `recover_decimation` call.
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
        require_bits(self.keystream)
        # bool is an int subclass; a float knob would pass a bounds check
        # and fail only after the sweep, slicing or sizing the pool
        for name in ("max_candidates", "worker_count"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool):
                raise ValueError(f"{name} must be an int, not {value!r}")
            if value < 1:
                raise ValueError(f"{name} must be positive")


def suggested_keystream_length(params: AsgParams) -> int:
    """Comfortable default: 4(m+n) bits for fitting plus l + 20 more, which
    keeps the expected number of chance survivors across all 2^(l+1)
    guesses below 2^-19."""
    return 4 * (params.m + params.n) + params.l + 20


@dataclass(frozen=True)
class CandidateModel:
    """A surviving (control state, beta_0) guess with its fitted registers."""

    a_init: BitVector
    beta0: int
    beta_fit: LfsrFit
    lambda_fit: LfsrFit


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
    return (list(accumulate(compress(diffs, a_seq), xor, initial=beta0 & 1)),
            list(accumulate(compress(diffs, map(not_, a_seq)), xor,
                            initial=keystream[0] ^ (beta0 & 1))))


_BIT_DIGITS = bytes.maketrans(b"\x00\x01", b"01")


def _pack(bits: list[int]) -> int:
    """The bits as one integer, bit t = bits[t]."""
    return int(bytes(bits[::-1]).translate(_BIT_DIGITS), 2)


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


def verify_candidate(config: AttackConfig, cand: CandidateModel) -> bool:
    """Whether replaying the fitted model reproduces every supplied
    keystream bit.

    Harvested bits satisfy beta_p ^ lambda_q = z_t, so the replay matches
    z at every step exactly when both fitted registers generate the
    streams harvested under the fit's own first B-bit; that is what is
    tested, one linear-consistency check per register.
    """
    control = de_bruijn_sequence(
        DeBruijnRegister(LfsrSpec(config.params.l, config.params.poly_a), cand.a_init),
        max(len(config.keystream) - 1, 0))
    beta, lam = reconstruct_streams(control, config.keystream, cand.beta_fit.extend(1)[0])
    return (_generates(cand.beta_fit, _pack(beta), len(beta))
            and _generates(cand.lambda_fit, _pack(lam), len(lam)))


@dataclass(frozen=True)
class DecimationFit:
    """Recovered decimation: jump r and the first m output bits of the
    undecimated register."""

    r: int
    initial_bits: BitVector


def recover_decimation(ctx: FieldContext, observed: BitSequence,
                       verify_bits: int | None = None,
                       counters: AttackCounters | None = None) -> DecimationFit | None:
    """Find the jump r and the register head that explain `observed`.

    Returns the smallest r coprime to 2^m - 1 such that observed is the
    r-fold decimation of an output sequence of the field's register, on
    its first m + verify_bits bits, or None.  verify_bits defaults to 2m
    and must be at least m, because a connection polynomial of degree m
    is unique only on 2m or more bits (Massey).
    """
    m = ctx.m
    v = 2 * m if verify_bits is None else verify_bits
    if v < m:
        raise ValueError(f"verify_bits must be at least m = {m}, got {v}")
    if len(observed) < m + v:
        raise ValueError(f"need at least m + {v} = {m + v} observed bits")
    return _recover_jump(ctx, berlekamp_massey(observed[:m + v]), counters)


def _recover_jump(ctx: FieldContext, fit: LfsrFit,
                  counters: AttackCounters | None) -> DecimationFit | None:
    """The jump and register head behind a fitted decimated stream.

    The fit must have linear complexity m, and r is the least exponent
    coprime to 2^m - 1 with f(alpha^r) = 0 for its connection
    polynomial f.  A binary f of degree m with such a root is that
    root's minimal polynomial, so it divides y^(2^m) - y and its roots
    are one Frobenius class: r is the least r0 2^j mod 2^m - 1 for the
    log r0 of any root.  So there is none when f does not split into
    distinct linear factors over the field, or when the root found has
    a log sharing a factor with 2^m - 1.  The head is b_t = d_(t r^-1)
    for t < m: the fitted register jumped by r^-1 mod 2^m - 1.
    """
    m = ctx.m
    if fit.linear_complexity != m:
        return None
    root = ctx.root(fit.connection)
    if not root:
        return None
    period = (1 << m) - 1
    r = ctx.log(root)
    # jumps run over 1 .. 2^m - 2, and log 0 (the root 1) is none of them
    if not r or math.gcd(r, period) != 1:
        return None
    r = min((r << j) % period for j in range(m))
    if counters:
        counters.trace_solves += 1
    states = jumped_states(LfsrSpec(m, fit.connection),
                           state_from_outputs(fit.initial_state).mask, pow(r, -1, period))
    return DecimationFit(r, BitVector.from_bits(list(islice(output_bits(states, m), m))))


@dataclass(frozen=True)
class AttackReport:
    recovered_keys: list[AsgKey]
    counters: AttackCounters
    wall_time_seconds: float


def _recover_key(config: AttackConfig, cand: CandidateModel,
                 counters: AttackCounters) -> AsgKey | None:
    """Assemble the key of a verified candidate.

    Each fit already generates its whole harvested stream, and with
    2L <= 2m it is the only register of its length that generates the
    fitted prefix, so the decimation is recovered from the fit itself.
    """
    params = config.params
    z = config.keystream
    fit_b = _recover_jump(field_context(params.poly_b), cand.beta_fit, counters)
    if fit_b is None:
        return None
    fit_c = _recover_jump(field_context(params.poly_c), cand.lambda_fit, counters)
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


# Guesses swept at once.  Wider chunks spread each step's Python work over
# more lanes: at (l, 7, 9), l = 16 .. 22, 2^16 lanes take about 0.65 of
# the time per guess of 2^14, and 2^17 gains nothing steady.  Each
# worker's lane slices stay near 2 MB whatever l is.  It also decides when
# run_attack starts a process pool: a sweep of at most one chunk
# (CHUNK_LANES / 2 cycle positions) runs in-process whatever worker_count
# is, because a pool costs more to start than splitting so small a sweep
# saves (at (14, 7, 9) on 2 CPUs, 2 workers took 28-39 ms against 13-14 ms
# for 1).
CHUNK_LANES = 1 << 16


def _chunk_control(base: LfsrSpec, lo: int, width: int, steps: int) -> int:
    """The control bits a chunk of cycle positions lo .. lo + width - 1
    reads over `steps` steps, after the l - 1 bits before lo: bit i is
    the control bit of cycle position lo - l + 1 + i, wrapping at 2^l."""
    l = base.length
    return de_bruijn_bits(base, lo - l + 1, width + steps + l - 2)


def _control_words(bits: int, l: int, width: int, steps: int) -> Iterator[int]:
    """The chunk's control bits at each step: bit j of word t is the
    control bit t steps after position lo + j, read off `_chunk_control`
    past its l - 1 bits of history."""
    mask = (1 << width) - 1
    for t in range(l - 1, l - 1 + steps):
        yield (bits >> t) & mask


def _window_state(bits: int, l: int, j: int) -> int:
    """The control state at position lo + j of a chunk: the l control
    bits ending there, the newest in cell 0."""
    return int(format((bits >> j) & ((1 << l) - 1), f"0{l}b")[::-1], 2)


def _peel_lanes(z: list[int], words: Iterator[int],
                width: int) -> tuple[list[int], list[int], list[int]]:
    """`reconstruct_streams` on 2 * width lanes at once: the control
    words drive lanes 0 .. width - 1 with beta_0 = 0, and lanes width + j
    hold the complemented streams of lane j, which are those for
    beta_0 = 1.

    Returns both streams as bit slices (bit j of beta[k]: bit k of lane
    j's beta stream, for k below its length; likewise lambda), and each
    lane's count p of control-1 steps as a thermometer code over the
    first width lanes (bit j of at_least[k]: lane j has p >= k), so that
    a lane's streams hold p + 1 and steps - p + 1 bits.  The keystream
    difference is the same for every lane, so the peel records where
    each stream toggles: at a step where z changes, a one-hot count
    routes the lanes with p = k and control bit 1 to toggle the B-side
    stream past index k, and the others with p = k the C-side one past
    index t - k.
    """
    steps = len(z) - 1
    half = (1 << width) - 1
    beta_toggle, lam_toggle = [0] * steps, [0] * steps
    low, count = 0, [half]  # count[k - low]: the lanes with p = k
    for t, a in enumerate(words):
        moved = [c & a for c in count]
        if z[t] != z[t + 1]:
            for k, (c, mv) in enumerate(zip(count, moved), low):
                beta_toggle[k] |= mv
                lam_toggle[t - k] |= c ^ mv
        count = [c ^ mv | up for c, mv, up in zip(count, moved, [0] + moved)]
        if moved[-1]:
            count.append(moved[-1])
        if not count[0]:
            del count[0]
            low += 1
    high = low + len(count) - 1
    at_least = [half] * (low + 1) + [0] * (steps + 1 - low)
    for k in range(high, low, -1):
        at_least[k] = at_least[k + 1] | count[k - low]
    beta = [s | ((s ^ half) << width)
            for s in accumulate(beta_toggle[:high], xor, initial=0)]
    lam = [s | ((s ^ half) << width)
           for s in accumulate(lam_toggle[:steps - low], xor, initial=half if z[0] else 0)]
    return beta, lam, at_least


def _sweep_lanes(config: AttackConfig, lo: int, width: int,
                 counters: AttackCounters) -> list[CandidateModel]:
    """Filter the guesses of cycle positions lo .. lo + width - 1 as
    2 * width lanes: lane j is position lo + j with beta_0 = 0, lane
    width + j the same position with beta_0 = 1.

    Returns the guesses that have enough bits on both streams, fit within
    both length caps and pass the linear-consistency test, in ascending
    (control state, beta_0) order, each fitted by `berlekamp_massey` on
    its 2m / 2n prefix.
    """
    params = config.params
    l, m, n = params.l, params.m, params.n
    z = config.keystream
    steps = len(z) - 1
    half, lanes = (1 << width) - 1, (1 << 2 * width) - 1
    counters.a_states_tried += width
    bits = _chunk_control(LfsrSpec(l, params.poly_a), lo, width, steps)
    beta, lam, at_least = _peel_lanes(z, _control_words(bits, l, width, steps), width)
    # p + 1 >= 2m beta bits and steps - p + 1 >= 2n lambda bits
    enough = at_least[2 * m - 1] & ~at_least[steps + 2 - 2 * n]
    if not enough:
        return []
    enough |= enough << width
    c_beta, t_beta = berlekamp_massey_lanes(beta, 2 * m, lanes)
    c_lam, t_lam = berlekamp_massey_lanes(lam, 2 * n, lanes)
    # the lambda fit runs only where the beta fit is within its cap
    ok = enough & ~t_beta[m + 1]
    counters.bm_runs += enough.bit_count() + ok.bit_count()
    ok &= ~t_lam[n + 1]
    # linear consistency: where L <= m, c has no term above x^m and must
    # annihilate every window of each lane's whole stream; the fit
    # already covers the windows inside the 2m-bit prefix
    for j in range(2 * m, len(beta)):
        alive = at_least[j]
        ok &= ~((alive | (alive << width))
                & reduce(xor, map(and_, c_beta[:m + 1], beta[j - m:j + 1][::-1])))
    for j in range(2 * n, len(lam)):
        alive = half & ~at_least[steps + 1 - j]
        ok &= ~((alive | (alive << width))
                & reduce(xor, map(and_, c_lam[:n + 1], lam[j - n:j + 1][::-1])))
    counters.verified_candidates += ok.bit_count()
    survivors = []
    while ok:
        j = (ok & -ok).bit_length() - 1
        ok &= ok - 1
        survivors.append((_window_state(bits, l, j % width), j // width, j))
    return [CandidateModel(BitVector(state, params.l), beta0,
                           berlekamp_massey([(s >> j) & 1 for s in beta[:2 * m]]),
                           berlekamp_massey([(s >> j) & 1 for s in lam[:2 * n]]))
            for state, beta0, j in sorted(survivors)]


def _attack_chunk(config: AttackConfig, lo: int,
                  hi: int) -> tuple[list[tuple[int, int, AsgKey]], AttackCounters]:
    """Sweep cycle positions lo .. hi - 1, at most CHUNK_LANES guesses at
    a time; each recovered key comes with its (control state, beta_0)."""
    counters = AttackCounters()
    found = []
    width = CHUNK_LANES // 2
    for start in range(lo, hi, width):
        for cand in _sweep_lanes(config, start, min(width, hi - start), counters):
            key = _recover_key(config, cand, counters)
            if key is not None:
                found.append((cand.a_init.mask, cand.beta0, key))
    return found, counters


def _usable_cpus() -> int:
    """The CPUs this process may run on, where the platform says."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_attack(config: AttackConfig) -> AttackReport:
    """Exhaust all 2^l control states and both beta_0 guesses.

    Every reported key regenerates the entire input keystream; reports
    are deterministic for a given config regardless of worker_count
    (wall time aside): keys come in ascending (control state, beta_0)
    order.  A sweep of at most one chunk (2^l <= CHUNK_LANES / 2) runs
    in this process and no pool starts; a longer one runs in
    min(worker_count, usable CPUs, 2^l) processes, each over a contiguous
    range of de Bruijn cycle positions (with one, in this process).  The
    candidate list is truncated to max_candidates after the full sweep, so
    counters always reflect the complete search.
    """
    start = time.perf_counter()
    total = 1 << config.params.l
    workers = (1 if total <= CHUNK_LANES // 2
               else min(config.worker_count, _usable_cpus(), total))
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
    found = []
    counters = AttackCounters()
    for part_found, part_counters in parts:
        found.extend(part_found)
        counters.merge(part_counters)
    found.sort(key=itemgetter(0, 1))
    keys = [key for _, _, key in found[:config.max_candidates]]
    return AttackReport(keys, counters, time.perf_counter() - start)
