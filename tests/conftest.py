import math
import random
from dataclasses import dataclass
from itertools import islice

import pytest

from asgrs import AsgKey, AsgParams, BitMatrix, BitVector
from asgrs.registers import (
    LfsrSpec,
    de_bruijn_cycle,
    lfsr_states,
    output_bits,
    primitive_polynomial,
)


def make_params(l, m, n, strict=True):
    return AsgParams(l, m, n,
                     primitive_polynomial(l),
                     primitive_polynomial(m),
                     primitive_polynomial(n),
                     strict=strict)


def coprime_jump(rng, length):
    period = (1 << length) - 1
    while True:
        j = rng.randrange(1, period)
        if math.gcd(j, period) == 1:
            return j


def random_valid_key(params, rng):
    return AsgKey(
        state_a=BitVector(rng.randrange(0, 1 << params.l), params.l),
        state_b=BitVector(rng.randrange(1, 1 << params.m), params.m),
        state_c=BitVector(rng.randrange(1, 1 << params.n), params.n),
        r=coprime_jump(rng, params.m),
        s=coprime_jump(rng, params.n),
    )


@pytest.fixture
def rng():
    return random.Random(0xA56)


# ---------------------------------------------------------------------------
# Straight-line reference simulator, written directly from the generator
# description with plain bit lists.  Deliberately independent of the
# package's packed-integer engine; used as an oracle.


def _ref_lfsr_step(cells, poly_mask):
    # new cell 0 = sum_i f_i * cell[len-1-i]; everything shifts up
    fb = 0
    for i in range(len(cells)):
        if (poly_mask >> i) & 1:
            fb ^= cells[len(cells) - 1 - i]
    return [fb] + cells[:-1]


def _ref_debruijn_step(cells, poly_mask):
    nxt = _ref_lfsr_step(cells, poly_mask)
    if all(c == 0 for c in cells[:-1]):
        nxt[0] ^= 1
    return nxt


@dataclass(frozen=True)
class ReferenceTrace:
    """A reference run: the keystream plus everything normally hidden."""

    keystream: list
    control_bits: list    # a_t for each step taken
    beta_stream: list     # B's output after 0, 1, 2, ... jumps
    lambda_stream: list   # C's output after 0, 1, 2, ... jumps


def reference_trace(params, key, count):
    a = list(key.state_a)
    b = list(key.state_b)
    c = list(key.state_c)
    tr = ReferenceTrace([], [], [b[-1]], [c[-1]])
    for t in range(count):
        tr.keystream.append(b[-1] ^ c[-1])
        if t == count - 1:
            break
        tr.control_bits.append(a[0])
        if a[0]:
            for _ in range(key.r):
                b = _ref_lfsr_step(b, params.poly_b.mask)
            tr.beta_stream.append(b[-1])
        else:
            for _ in range(key.s):
                c = _ref_lfsr_step(c, params.poly_c.mask)
            tr.lambda_stream.append(c[-1])
        a = _ref_debruijn_step(a, params.poly_a.mask)
    return tr if count > 0 else ReferenceTrace([], [], [], [])


def reference_keystream(params, key, count):
    return reference_trace(params, key, count).keystream


# ---------------------------------------------------------------------------
# Per-candidate brute-force oracle: the reference the hash-join oracle is
# checked against.  It tests every (phase, r, B state, s, C state) tuple
# on its own, reading candidate bits off the registers' output cycles.


def reference_oracle(params, target):
    l, m, n = params.l, params.m, params.n
    pm, pn = (1 << m) - 1, (1 << n) - 1

    def jumps(period):
        return [j for j in range(1, period)
                if not params.strict or math.gcd(j, period) == 1]

    def state_cycle(spec, period):
        states = list(islice(lfsr_states(spec, 1), period))
        return states, list(output_bits(states, spec.length))

    jumps_r, jumps_s = jumps(pm), jumps(pn)
    b_states, b_cycle = state_cycle(LfsrSpec(m, params.poly_b), pm)
    c_states, c_cycle = state_cycle(LfsrSpec(n, params.poly_c), pn)
    a_states = de_bruijn_cycle(LfsrSpec(l, params.poly_a))
    control = [st & 1 for st in a_states]

    z = list(target)
    big = len(z)
    out = []
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


# ---------------------------------------------------------------------------
# Trace system of the decimated register: solving d_t = Tr(u gamma^t)
# for u is a second, linear way to the register head, and the
# differential jump-recovery tests compare the package against it.


def trace_system_matrix(ctx, r):
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
