"""The alternating step generator with secret jump sizes, ASG(r,s).

A control register A (de Bruijn output, span l) gates two generating
LFSRs: when A's cell 0 reads 1, register B jumps r clocks, otherwise
register C jumps s clocks.  Each output bit is the XOR of the two
generating registers' output cells.

Stepping discipline: the first output bit is read from the initial
states before anything is clocked; afterwards each step reads the
control bit, jumps exactly one generating register, advances the
control register one clock, and emits the next XOR.  This is the unique
ordering in which output bit t+1 depends on control bit t.

So the keystream is a classical alternating step generator over two
decimated streams: z_t = beta_p ^ lambda_q, where beta_p is B's output
after p jumps, lambda_q is C's after q jumps, and p and q count the 1s
and 0s among the control bits before step t.  Every entry point merges
a control sequence and two such streams (`_merge`, the inverse of the
attack's peeling): a control-1 step changes z by beta_p ^ beta_{p+1}, a
control-0 step by lambda_q ^ lambda_{q+1}.  Each stream is stepped for
one period at most and then repeated: 2^l steps for the control
sequence, 2^m - 1 jumps for B (a nonzero state of a primitive register
recurs after that many clocks) and 2^n - 1 for C.

Because B only ever moves in strides of r, its stream is the r-fold
decimation of B's regular output sequence (and likewise s for C).
Whenever gcd(r, 2^m - 1) = 1 that decimation is again a maximum-length
sequence, so the whole generator collapses to a classical alternating
step generator over two substitute LFSRs of the same lengths: the
reduction computed by `reduce_to_classical`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from itertools import accumulate, chain, cycle, islice, pairwise, repeat, starmap
from operator import xor
from typing import Iterable, Iterator

from .analysis import berlekamp_massey
from .errors import DegenerateStateError, KeyValidationError
from .gf2 import BinaryPolynomial, BitVector, xor_rows
from .registers import (
    DeBruijnRegister,
    LfsrSpec,
    _safe_is_primitive,
    de_bruijn_sequence,
    jump_rows,
    lfsr_states,
    output_bits,
    state_from_outputs,
)


@dataclass(frozen=True)
class AsgParams:
    """Public parameters: register lengths and feedback polynomials."""

    l: int
    m: int
    n: int
    poly_a: BinaryPolynomial
    poly_b: BinaryPolynomial
    poly_c: BinaryPolynomial
    strict: bool = True


@dataclass(frozen=True)
class AsgKey:
    """Secret key: the three initial states and the jump sizes r, s."""

    state_a: BitVector
    state_b: BitVector
    state_c: BitVector
    r: int
    s: int


def validate_params(params: AsgParams) -> list[str]:
    """Every violated parameter constraint, as data (empty list = ok)."""
    v = []
    for name, degree, poly in (
        ("poly_a", params.l, params.poly_a),
        ("poly_b", params.m, params.poly_b),
        ("poly_c", params.n, params.poly_c),
    ):
        if poly.degree != degree:
            v.append(f"{name} degree {poly.degree} != {degree}")
        elif not _safe_is_primitive(poly):
            v.append(f"{name} ({poly}) is not primitive")
    if params.strict and math.gcd(params.m, params.n) != 1:
        v.append(f"gcd(m, n) = {math.gcd(params.m, params.n)} != 1")
    return v


def validate(params: AsgParams, key: AsgKey) -> list[str]:
    """Every violated constraint on (params, key); violations are data.

    Jump sizes are judged modulo the generating sequence periods, since
    a jump of r and of r mod (2^m - 1) move the register identically.
    """
    v = validate_params(params)
    for name, state, length in (
        ("state_a", key.state_a, params.l),
        ("state_b", key.state_b, params.m),
        ("state_c", key.state_c, params.n),
    ):
        if state.length != length:
            v.append(f"{name} has {state.length} cells, expected {length}")
    if key.state_b.length == params.m and key.state_b.mask == 0:
        v.append("state_b is all-zero")
    if key.state_c.length == params.n and key.state_c.mask == 0:
        v.append("state_c is all-zero")
    for name, jump, length in (("r", key.r, params.m), ("s", key.s, params.n)):
        period = (1 << length) - 1
        reduced = jump % period
        if reduced == 0:
            v.append(f"{name} = {jump} is 0 mod {period}")
        elif params.strict and math.gcd(reduced, period) != 1:
            v.append(f"gcd({name} = {jump}, {period}) = {math.gcd(reduced, period)} != 1")
    return v


def _require_valid(params: AsgParams, key: AsgKey):
    violations = validate(params, key)
    if violations:
        raise KeyValidationError(violations)


def random_key(params: AsgParams, rng: random.Random) -> AsgKey:
    """Uniformly random valid key, by rejection on the jump constraints.

    The control state may be anything (every span-l state sits on the de
    Bruijn cycle); generating states are nonzero; jumps are drawn from
    [1, period - 1] until coprime with their register's period.
    """
    violations = validate_params(params)
    if violations:
        raise KeyValidationError(violations)

    def jump(length: int) -> int:
        period = (1 << length) - 1
        while True:
            j = rng.randrange(1, period)
            if math.gcd(j, period) == 1:
                return j

    return AsgKey(
        state_a=BitVector(rng.randrange(0, 1 << params.l), params.l),
        state_b=BitVector(rng.randrange(1, 1 << params.m), params.m),
        state_c=BitVector(rng.randrange(1, 1 << params.n), params.n),
        r=jump(params.m),
        s=jump(params.n),
    )


def _merge(control: Iterable[int], beta: Iterable[int], lam: Iterable[int],
           count: int) -> list[int]:
    """First `count` bits of z_t = beta_p ^ lambda_q: each control bit
    pulls the next difference of the stream it moves, and z accumulates
    those differences from z_0 by XOR."""
    if count <= 0:
        return []
    beta, lam = iter(beta), iter(lam)
    b0, l0 = next(beta), next(lam)
    diffs = (starmap(xor, pairwise(chain((l0,), lam))),
             starmap(xor, pairwise(chain((b0,), beta))))
    moves = map(next, map(diffs.__getitem__, islice(control, count - 1)))
    return list(accumulate(moves, xor, initial=b0 ^ l0))


def _control(reg: DeBruijnRegister, count: int) -> Iterator[int]:
    """The register's control bits, endless: at most one period, repeated."""
    return cycle(de_bruijn_sequence(reg, min(count, 1 << reg.span)))


def _jumped(poly: BinaryPolynomial, length: int, state: BitVector,
            jump: int) -> Iterator[int]:
    """Outputs after 0, 1, 2, ... jumps of `jump` clocks, endless: the
    register is stepped for one period at most, which then repeats."""
    period = (1 << length) - 1
    rows = jump_rows(poly.mask, length, jump % period)
    states = accumulate(repeat(rows, period - 1), xor_rows, initial=state.mask)
    return cycle(output_bits(states, length))


def _streams(params: AsgParams, key: AsgKey, count: int) -> tuple[Iterator[int], ...]:
    control = DeBruijnRegister(LfsrSpec(params.l, params.poly_a), key.state_a)
    return (_control(control, count),
            _jumped(params.poly_b, params.m, key.state_b, key.r),
            _jumped(params.poly_c, params.n, key.state_c, key.s))


def keystream(params: AsgParams, key: AsgKey, count: int) -> list[int]:
    """First `count` keystream bits; raises KeyValidationError on a bad key."""
    _require_valid(params, key)
    return _merge(*_streams(params, key, count), count)


@dataclass(frozen=True)
class KeystreamTrace:
    """Instrumented run: the keystream plus everything normally hidden."""

    keystream: list[int]
    control_bits: list[int]    # a_t for each step taken
    beta_stream: list[int]     # B's output after 0, 1, 2, ... jumps
    lambda_stream: list[int]   # C's output after 0, 1, 2, ... jumps


def keystream_trace(params: AsgParams, key: AsgKey, count: int) -> KeystreamTrace:
    _require_valid(params, key)
    if count <= 0:
        return KeystreamTrace([], [], [], [])
    control, beta, lam = _streams(params, key, count)
    control = list(islice(control, count - 1))
    ones = sum(control)
    beta, lam = list(islice(beta, ones + 1)), list(islice(lam, count - ones))
    return KeystreamTrace(_merge(control, beta, lam, count), control, beta, lam)


@dataclass(frozen=True)
class ReducedModel:
    """Classical alternating step generator equivalent to an ASG(r,s) key.

    The substitute registers regenerate the decimated streams directly,
    so running this model with unit jumps reproduces the original
    keystream bit for bit.
    """

    beta_spec: LfsrSpec
    beta_state: BitVector
    lambda_spec: LfsrSpec
    lambda_state: BitVector
    control: DeBruijnRegister


def reduce_to_classical(params: AsgParams, key: AsgKey) -> ReducedModel:
    """Substitute registers for the decimated streams.

    The decimated sequence b_{rt} = Tr(u (alpha^r)^t) obeys the minimal
    polynomial of alpha^r, alpha a root of poly_b.  When that has degree
    m, Berlekamp-Massey returns it from the first 2m stream bits (2L bits
    fix a register of length L), and the first m bits are the initial
    state.  Likewise for lambda with (poly_c, s).
    """
    _require_valid(params, key)
    beta_spec, beta_state = _decimated_register(
        params.poly_b, params.m, key.state_b, key.r)
    lambda_spec, lambda_state = _decimated_register(
        params.poly_c, params.n, key.state_c, key.s)
    control = DeBruijnRegister(LfsrSpec(params.l, params.poly_a), key.state_a)
    return ReducedModel(beta_spec, beta_state, lambda_spec, lambda_state, control)


def _decimated_register(poly: BinaryPolynomial, m: int, state: BitVector,
                        jump: int) -> tuple[LfsrSpec, BitVector]:
    head = list(islice(_jumped(poly, m, state, jump), 2 * m))
    fit = berlekamp_massey(head)
    if fit.linear_complexity != m:
        # only possible when gcd(jump, period) > 1, i.e. non-strict keys
        raise DegenerateStateError(
            f"decimation by {jump} collapses the register: linear complexity "
            f"{fit.linear_complexity} < {m}")
    return LfsrSpec(m, fit.connection), state_from_outputs(head[:m])


def classical_asg_keystream(model: ReducedModel, count: int) -> list[int]:
    """Run the reduced model with unit jumps on both generating registers."""
    if model.beta_state.mask == 0 or model.lambda_state.mask == 0:
        raise DegenerateStateError("all-zero generating register in reduced model")
    # any feedback may reach here, so the streams assume no period
    b, c = model.beta_spec, model.lambda_spec
    return _merge(_control(model.control, count),
                  output_bits(lfsr_states(b, model.beta_state.mask), b.length),
                  output_bits(lfsr_states(c, model.lambda_state.mask), c.length), count)
