"""Algebraic key recovery for the ASG(r,s) from a short keystream.

The search runs over all 2^l control states and both guesses for the
first decimated B-bit, bit-sliced: each guess is one lane, and bit j of
a Python int holds lane j's value, so every operation below acts on up
to CHUNK_LANES guesses at once.  Lanes are numbered by position on the
one de Bruijn cycle that holds every span-l state, so the control bits
of all lanes at step t are one word of the cycle's control bits shifted
by t.  A chunk of positions lo .. lo + w - 1 needs only the w + steps
control bits from lo on, and l - 1 before it: the control register's
base LFSR is jumped once to that spot and then read 64 clocks per
table lookup (`registers.de_bruijn_bits`), with the cycle's extra zero
spliced in, so no worker steps or stores the 2^l-state cycle.  Each
survivor's control state is the l-bit window of control bits ending at
its position.  A guess is kept only if Berlekamp-Massey fits on the
first 2m and 2n harvested bits stay within the register lengths and
each fitted connection polynomial generates every harvested bit of its
stream.  This linear-consistency test accepts exactly the guesses whose
fitted model, replayed under the guessed control sequence, reproduces
every supplied keystream bit: harvested bits satisfy
beta_p ^ lambda_q = z_t by construction, so the replay matches z at
every step if and only if the fitted streams equal the harvested ones.
The test is a conjunction, so the B side runs first, on all lanes at
once.  Its stream is peeled out of consecutive keystream differences (a
step with control bit 1 changes only the B-side stream, a step with 0
only the C-side): the difference is the same for every lane, and a
one-hot count of each lane's control-1 steps routes it into bit slice k
of the stream.  The count follows a lane only until its stream holds
2m + b bits, for b the bit length of the chunk's lane count: each bit
past the first 2m halves a wrong guess's odds of passing, so about one
chance guess per chunk gets through the capped test, and the peel stops
once every lane has reached the cap.  The C side needs 2n - 1 control-0
steps, so each lane's control-1 steps are also counted in full, in its
window of control bits: lane j's window is lane 0's shifted by j, so the
counts of all lanes are bit-sliced sums built by doubling.  The
beta_0 = 1 lanes sit above the beta_0 = 0 lanes and hold the
complemented slices.  Berlekamp-Massey runs on the slices, with the
connection polynomial held coefficient by coefficient and the linear
complexity as a thermometer code (T_k = the lanes with L >= k), so that
each branch of the algorithm is a masked update.  At the suggested
keystream length about one guess per chunk passes the B side,
and at 3(m+n) bits tens to hundreds do.  Only those get the rest, one
at a time: `reconstruct_streams` rebuilds the guess's streams from its
own control bits, and it passes when its whole lambda stream has linear
complexity at most n and then its whole beta stream, past the cap, at
most m.  So the sweep costs about m^2 2^(l+1) lane work, with a peel
that stops after about 3(2m + b) steps however long the keystream is
(82 at (13, 7, 9) on 97 bits and on 400), plus one stream rebuild and
one or two fits per B-consistent guess, against the paper's
(m^2 + n^2) 2^(l+1).  `run_attack` sorts the keys by (control state,
beta_0).

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
inverts: b_t = d_(t r') with r' = r^-1 mod 2^m - 1.  The fitted
register's output d_k is the parity of (x^k mod f) AND its first m
bits, so the register head b_0 .. b_(m-1) takes one power x^r' mod f
and m products modulo f, and no jump table.  One recovery takes about
0.4 ms at m = 14 and 1.3 ms at m = 24 once the field context is built
(Python 3.11, 2 CPUs), so the sweep's 2^(l+1) guesses are the attack's
only exponential cost.

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
from dataclasses import dataclass, fields
from functools import reduce
from itertools import accumulate, chain, compress, islice, repeat, zip_longest
from operator import and_, itemgetter, not_, or_, xor
from typing import Iterator

from .analysis import LfsrFit, berlekamp_massey, berlekamp_massey_lanes
from .field import FieldContext, field_context
from .gf2 import BitVector, _poly_mulmod, poly_pow_mod, reverse_bits
from .generator import AsgKey, AsgParams, keystream, require_bits, require_valid
from .registers import (
    BitSequence,
    DeBruijnRegister,
    LfsrSpec,
    de_bruijn_bits,
    de_bruijn_sequence,
    state_from_outputs,
)

@dataclass
class AttackCounters:
    """Work counts of an attack, for empirical complexity measurements.

    ``a_states_tried`` counts the control states swept, 2^l in all.
    ``bm_runs`` counts one B-side Berlekamp-Massey fit per guess with
    enough bits on both streams, plus one C-side fit per guess whose B fit
    is within m.  ``verified_candidates`` counts the guesses that pass
    every filter.  Both count by that per-guess filter order, not by the
    order in which the sweep runs the filters: the sweep fits the C side
    only for guesses that also pass the B-side consistency test, so
    ``bm_runs`` is not the number of fits it performs.  ``trace_solves``
    counts jump solves, one per jump found: at most one per
    `_recover_jump` call, of which `_recover_key` makes at most two per
    verified candidate (the C side only once the B side has a jump).
    """

    a_states_tried: int = 0
    bm_runs: int = 0
    trace_solves: int = 0
    verified_candidates: int = 0

    def merge(self, other: "AttackCounters"):
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


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
        require_valid(self.params)
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


def verify_candidate(config: AttackConfig, cand: CandidateModel) -> bool:
    """Whether replaying the fitted model reproduces every supplied
    keystream bit.

    Harvested bits satisfy beta_p ^ lambda_q = z_t, so the replay matches
    z at every step exactly when both fitted registers generate the
    streams harvested under the fit's own first B-bit; that is what is
    tested, by replaying each fitted register over its whole stream.
    """
    control = de_bruijn_sequence(
        DeBruijnRegister(LfsrSpec(config.params.l, config.params.poly_a), cand.a_init),
        max(len(config.keystream) - 1, 0))
    beta, lam = reconstruct_streams(control, config.keystream, cand.beta_fit.extend(1)[0])
    return (cand.beta_fit.extend(len(beta)) == beta
            and cand.lambda_fit.extend(len(lam)) == lam)


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
    for t < m, with r^-1 taken mod 2^m - 1.
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
    # d_k is the parity of (x^k mod f) & (d_0 .. d_(m-1)), so the head
    # reads the powers of x^(r^-1) mod f
    f = fit.connection.mask
    jump = poly_pow_mod(pow(r, -1, period), fit.connection).mask
    power, head = 1, 0
    for t in range(m):
        head |= ((power & fit.initial_state.mask).bit_count() & 1) << t
        power = _poly_mulmod(power, jump, f)
    return DecimationFit(r, BitVector(head, m))


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


# Guesses swept at once: each chunk of the sweep, one task of run_attack,
# spans at most CHUNK_LANES / 2 cycle positions.  Wider chunks spread each
# step's Python work over more lanes: at (l, 7, 9), l = 16 .. 22, 2^16
# lanes take about 0.65 of the time per guess of 2^14, and 2^17 gains
# nothing steady.  A chunk's lane slices stay near 2 MB whatever l is.  A
# sweep of at most one chunk runs in-process whatever worker_count is,
# because a pool costs more to start than splitting so small a sweep
# saves (at (14, 7, 9) on 2 CPUs, 2 workers took 28-39 ms against 13-14 ms
# for 1).
CHUNK_LANES = 1 << 16


def _window_state(bits: int, l: int, j: int) -> int:
    """The control state at position lo + j of a chunk: the l control
    bits ending there, the newest in cell 0."""
    return reverse_bits(bits >> j, l)


def _peel_lanes(z: list[int], words: Iterator[int], width: int,
                cap: int) -> tuple[list[int], list[int]]:
    """The B side of `reconstruct_streams` on 2 * width lanes at once, up
    to `cap` bits a lane: the control words drive lanes 0 .. width - 1
    with beta_0 = 0, and lanes width + j hold the complemented stream of
    lane j, which is the one for beta_0 = 1.  Bits of a word from width
    up are ignored: they only ever meet the count, which holds none.

    Returns cap bit slices of the B-side streams (bit j of beta[k]: bit k
    of lane j's stream while k is below its length, its last bit after),
    and each lane's count p of control-1 steps, capped at cap - 1, as a
    thermometer code over the first width lanes (bit j of at_least[k]:
    lane j has p >= k), so that a lane holds p + 1 B-side bits.  The
    keystream difference is the same for every lane, so the peel records
    where the stream toggles: at a step where z changes, a one-hot count
    routes the lanes with p = k and control bit 1 to toggle it past index
    k.  A lane whose stream reaches cap bits leaves the count, the peel
    stops once the count is empty, and lane j has p >= k unless the count
    still holds it below k.
    """
    half = (1 << width) - 1
    toggle = [0] * (cap - 1)
    low, count = 0, [half]  # count[k - low]: the lanes with p = k < cap - 1
    for t, a in enumerate(words):
        moved = [c & a for c in count]
        if z[t] != z[t + 1]:
            for k, mv in enumerate(moved, low):
                toggle[k] |= mv
        count = [c ^ mv | up for c, mv, up in zip(count, moved, [0] + moved)]
        if moved[-1] and low + len(count) < cap - 1:
            count.append(moved[-1])
        if not count[0]:
            del count[0]
            low += 1
            if not count:
                break
    below = accumulate(chain([0] * low, count, repeat(0)), or_, initial=0)
    at_least = [half ^ b for b in islice(below, cap)]
    beta = [s | ((s ^ half) << width) for s in accumulate(toggle, xor, initial=0)]
    return beta, at_least


def _add_slices(a: list[int], b: list[int]) -> list[int]:
    """The sum of two bit-sliced counts, least significant slice first."""
    out, carry = [], 0
    for x, y in zip_longest(a, b, fillvalue=0):
        out.append(x ^ y ^ carry)
        carry = x & y | carry & (x ^ y)
    return out + [carry] if carry else out


def _windows_at_least(bits: int, span: int, threshold: int, width: int) -> int:
    """Bit j, j < width, set where bits j .. j + span - 1 of `bits` hold
    at least `threshold` ones.

    Each lane's window is the one of lane 0 shifted by j, so the counts
    of all windows are built by doubling: with counts over 2^e-bit
    windows as bit slices, the 2^(e+1)-bit ones are the sum of two of
    them, the second shifted 2^e lanes down, and the span-bit ones the
    sum over the binary digits of span.  Then the slices are compared
    with the threshold from the top digit down.
    """
    total, done, power, e = [], 0, [bits], 0
    while True:
        if span >> e & 1:
            total = _add_slices(total, [s >> done for s in power])
            done += 1 << e
        if not span >> (e + 1):
            break
        power = _add_slices(power, [s >> (1 << e) for s in power])
        e += 1
    total += [0] * (threshold.bit_length() - len(total))
    above, equal = 0, (1 << width) - 1
    for i in reversed(range(len(total))):
        if threshold >> i & 1:
            equal &= total[i]
        else:
            above |= equal & total[i]
            equal ^= equal & total[i]
    return above | equal


def _sweep_lanes(config: AttackConfig, lo: int, width: int,
                 counters: AttackCounters) -> list[CandidateModel]:
    """Filter the guesses of cycle positions lo .. lo + width - 1 as
    2 * width lanes: lane j is position lo + j with beta_0 = 0, lane
    width + j the same position with beta_0 = 1.

    Returns the guesses that have enough bits on both streams, fit within
    both length caps and pass the linear-consistency test, in lane order,
    each fitted by `berlekamp_massey` on its whole streams, which is the
    fit of its 2m / 2n prefix.  The B side is tested on all lanes at once
    up to the peel's cap, and the C side, then the B side past the cap,
    only for the guesses that pass it, one at a time.
    """
    params = config.params
    l, m, n = params.l, params.m, params.n
    z = config.keystream
    steps = len(z) - 1
    lanes = (1 << 2 * width) - 1
    counters.a_states_tried += width
    # bit i: the control bit of cycle position lo - l + 1 + i, wrapping at
    # 2^l, so lane j reads bit l - 1 + j + t at step t
    bits = de_bruijn_bits(LfsrSpec(l, params.poly_a), lo - l + 1, width + steps + l - 2)
    # each beta bit past the first 2m halves a wrong guess's odds of
    # passing, so with bit_length(lanes) of them about one chance guess per
    # chunk passes the lane test
    cap = 2 * m + (2 * width).bit_length()
    beta, at_least = _peel_lanes(
        z, (bits >> t for t in range(l - 1, l - 1 + steps)), width, cap)
    # p + 1 >= 2m beta bits, and steps - p + 1 >= 2n lambda bits: lane j
    # has at most steps + 1 - 2n ones among control bits j .. j + steps - 1
    enough = at_least[2 * m - 1]
    enough ^= enough & _windows_at_least(bits >> (l - 1), steps, steps + 2 - 2 * n, width)
    enough |= enough << width
    c_beta, t_beta = berlekamp_massey_lanes(beta, 2 * m, lanes)
    # counted per guess: the lambda fit follows wherever the beta fit is
    # within its cap
    ok = enough ^ (enough & t_beta[m + 1])
    counters.bm_runs += enough.bit_count() + ok.bit_count()
    # linear consistency: where L <= m, c has no term above x^m and must
    # annihilate every window of each lane's stream up to the cap; the fit
    # already covers the windows inside the 2m-bit prefix
    for j in range(2 * m, cap):
        alive = at_least[j]
        ok ^= ok & (alive | (alive << width)) & reduce(
            xor, map(and_, c_beta[:m + 1], beta[j - m:j + 1][::-1]))
    # the C side of each guess left: its lambda stream, of 2n bits or
    # more, passes when its linear complexity is at most n, and the fit of
    # the whole stream is then the fit of its first 2n bits (no other LFSR
    # of that length generates them)
    survivors = []
    mask = (1 << steps) - 1
    while ok:
        j = (ok ^ (ok - 1)).bit_length() - 1
        ok &= ok - 1
        i = j % width
        control = (bits >> (l - 1 + i)) & mask
        beta_j, lam_j = reconstruct_streams(
            [(control >> t) & 1 for t in range(steps)], z, j // width)
        fit_lam = berlekamp_massey(lam_j)
        if fit_lam.linear_complexity > n:
            continue
        # the B side past the cap: likewise, its whole stream within m
        fit_beta = berlekamp_massey(beta_j)
        if fit_beta.linear_complexity <= m:
            survivors.append(CandidateModel(
                BitVector(_window_state(bits, l, i), l), j // width, fit_beta, fit_lam))
    counters.verified_candidates += len(survivors)
    return survivors


def _attack_chunk(config: AttackConfig, lo: int,
                  hi: int) -> tuple[list[tuple[int, int, AsgKey]], AttackCounters]:
    """Sweep the one chunk of cycle positions lo .. hi - 1; each recovered
    key comes with its (control state, beta_0)."""
    counters = AttackCounters()
    found = []
    for cand in _sweep_lanes(config, lo, hi - lo, counters):
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
    (wall time aside): the keys of all chunks are sorted once, by
    (control state, beta_0).  A sweep of at most one chunk
    (2^l <= CHUNK_LANES / 2) runs in this process and no pool starts; a
    longer one runs in min(worker_count, usable CPUs, 2^l) processes (with
    one, in this process).  The de Bruijn cycle positions are cut once,
    into near-equal chunks of at most CHUNK_LANES / 2 and at least one per
    process, and each chunk is one task.  The candidate list is truncated
    to max_candidates after the full sweep, so counters always reflect
    the complete search.
    """
    start = time.perf_counter()
    total, width = 1 << config.params.l, CHUNK_LANES // 2
    workers = 1 if total <= width else min(config.worker_count, _usable_cpus(), total)
    k = min(total, workers * -(-total // (workers * width)))
    bounds = [(total * i // k, total * (i + 1) // k) for i in range(k)]
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
