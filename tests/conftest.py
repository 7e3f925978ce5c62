import math
import random
from array import array
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations, islice
from operator import xor

import pytest

from asgrs import AsgKey, AsgParams, BitMatrix, BitVector
from asgrs.attack import DecimationFit
from asgrs.field import X, is_primitive
from asgrs.gf2 import BinaryPolynomial
from asgrs.registers import (
    PRIMITIVE_POLYNOMIALS,
    LfsrSpec,
    de_bruijn_cycle,
    jumped_states,
    lfsr_states,
    output_bits,
    primitive_polynomial,
    state_from_outputs,
)


@lru_cache(maxsize=None)
def wide_polynomial(degree):
    """The stock primitive polynomial up to degree 16; above, the first
    primitive trinomial x^d + x^k + 1 by ascending k, else the first
    primitive pentanomial by ascending taps, largest tap first."""
    if degree in PRIMITIVE_POLYNOMIALS:
        return primitive_polynomial(degree)
    for taps in [(k,) for k in range(1, degree)] + sorted(
            combinations(range(1, degree), 3), key=lambda t: t[::-1]):
        p = BinaryPolynomial(1 << degree | 1 | sum(1 << k for k in taps))
        if is_primitive(p):
            return p
    raise ValueError(f"no primitive trinomial or pentanomial of degree {degree}")


def make_params(l, m, n, strict=True):
    return AsgParams(l, m, n,
                     wide_polynomial(l),
                     wide_polynomial(m),
                     wide_polynomial(n),
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


def _ref_orbit(cells, step, poly_mask, cell):
    """Cell `cell` of the states from `cells` on under `step`, until a
    state recurs: (bits, the index where the cycle starts)."""
    seen, bits = {}, []
    while tuple(cells) not in seen:
        seen[tuple(cells)] = len(bits)
        bits.append(cells[cell])
        cells = step(cells, poly_mask)
    return bits, seen[tuple(cells)]


def _ref_at(orbit, k):
    bits, start = orbit
    return bits[k] if k < len(bits) else bits[start + (k - start) % (len(bits) - start)]


def reference_keystream_by_orbits(params, key, count):
    """`reference_keystream` read off each register's orbit under the
    same reference steppers instead of stepped bit by bit: z_t = beta_p
    ^ lambda_q, where beta_p is B's output p * r clocks on.  Fast enough
    for keystreams of many control laps and merge blocks."""
    a = _ref_orbit(list(key.state_a), _ref_debruijn_step, params.poly_a.mask, 0)
    b = _ref_orbit(list(key.state_b), _ref_lfsr_step, params.poly_b.mask, -1)
    c = _ref_orbit(list(key.state_c), _ref_lfsr_step, params.poly_c.mask, -1)
    out, p, q = [], 0, 0
    for t in range(count):
        out.append(_ref_at(b, p * key.r) ^ _ref_at(c, q * key.s))
        if _ref_at(a, t):
            p += 1
        else:
            q += 1
    return out


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
# GF(2^m) elements are packed ints of a FieldContext, as in the package.


def alpha(ctx):
    """The class of x, the primitive element of the context."""
    return (X % ctx.modulus).mask


def minimal_polynomial(ctx, a):
    """The product of y - c over the distinct conjugates c = a^(2^j) of
    a: the binary polynomial a decimated register obeys."""
    conjugates, c = [a], ctx.mul(a, a)
    while c != a:
        conjugates.append(c)
        c = ctx.mul(c, c)
    coeffs = [1]  # in y, each coefficient in the field
    for c in conjugates:
        coeffs = [high ^ ctx.mul(low, c) for high, low in zip([0] + coeffs, coeffs + [0])]
    if any(co not in (0, 1) for co in coeffs):
        raise AssertionError("minimal polynomial has a coefficient outside GF(2)")
    return BinaryPolynomial(sum(co << i for i, co in enumerate(coeffs)))


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
    gamma = ctx.pow(alpha(ctx), r)
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


# ---------------------------------------------------------------------------
# Jump recovery by table search: the reference for the package's root and
# log.  The package once searched this way, with a table of alpha^k.


@lru_cache(maxsize=4)
def _root_table(modulus):
    """For GF(2^m) over `modulus`: the exponents r coprime to 2^m - 1
    that lead their Frobenius class (r is the least r 2^j mod 2^m - 1),
    ascending, and column i = [alpha^(r i) for each such r], i <= m."""
    m, period = modulus.degree, (1 << modulus.degree) - 1
    exp = array("I", [0]) * period
    e, top = 1, 1 << m
    for k in range(period):
        exp[k] = e
        e <<= 1
        if e & top:
            e ^= modulus.mask
    seen, leaders = bytearray(period), []
    for r in range(1, period):
        if not seen[r] and math.gcd(r, period) == 1:
            leaders.append(r)
            for j in range(m):
                seen[(r << j) % period] = 1
    return leaders, [[exp[r * i % period] for r in leaders] for i in range(m + 1)]


def reference_jump(ctx, fit, counters=None):
    """`attack._recover_jump` by table search: r is the least exponent
    coprime to 2^m - 1 with f(alpha^r) = 0 for the fitted connection
    polynomial f, and the head is the fitted register jumped by r^-1.

    f has binary coefficients, so f(alpha^(2r)) = f(alpha^r)^2 and the
    least such r leads its Frobenius class: only class leaders are
    tried, all at once, one column of the table per term of f.
    """
    m = ctx.m
    if fit.linear_complexity != m:
        return None
    leaders, columns = _root_table(ctx.modulus)
    terms = [columns[i] for i in range(m + 1) if fit.connection.coefficient(i)]
    values = reduce(lambda acc, col: list(map(xor, acc, col)), terms)
    r = next((r for r, v in zip(leaders, values) if not v), None)
    if r is None:
        return None
    if counters:
        counters.trace_solves += 1
    period = (1 << m) - 1
    states = jumped_states(LfsrSpec(m, fit.connection),
                           state_from_outputs(fit.initial_state).mask, pow(r, -1, period))
    return DecimationFit(r, BitVector.from_bits(list(islice(output_bits(states, m), m))))
