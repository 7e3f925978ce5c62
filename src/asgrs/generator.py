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
and 0s among the control bits before step t.  Both entry points share
one merge (`_merge`, the inverse of the attack's peeling): a control-1
step changes z by beta_p ^ beta_{p+1}, a control-0 step by
lambda_q ^ lambda_{q+1}.  Both build each sequence once as `bytes`,
one period at most: min(count - 1, 2^l) control bits, and
min(need, 2^m - 1) B and min(need, 2^n - 1) C outputs, `need` counted
from the control bits.  That period holds for irreducible feedback,
which every generator and every model `reduce_to_classical` builds has;
a hand-built model with other feedback gets all `need` outputs.

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
from itertools import accumulate, chain, islice, repeat
from operator import xor
from typing import Iterator

from .analysis import berlekamp_massey
from .errors import DegenerateStateError, KeyValidationError
from .field import is_irreducible
from .gf2 import BinaryPolynomial, BitVector
from .registers import (
    DeBruijnRegister,
    LfsrSpec,
    _safe_is_primitive,
    de_bruijn_sequence,
    jumped_states,
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
    for name, length in (("B", params.m), ("C", params.n)):
        # a jump is only judged modulo the period 2^length - 1, which is 1
        # for a single cell, so no jump would be valid
        if length < 2:
            v.append(f"register {name} has length {length}; it needs at least 2 cells")
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


def require_bits(bits: list) -> None:
    """Raise ValueError naming the first entry that is not the int 0 or 1.

    1.0 == 1 and True == 1, but only ints are bits here; a float entry
    would break the integer arithmetic downstream.
    """
    bad = next((t for t, b in enumerate(bits)
                if not (isinstance(b, int) and b in (0, 1))), None)
    if bad is not None:
        raise ValueError(f"keystream entry {bad} is {bits[bad]!r}, not 0 or 1")


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


def _merge(control: bytes, diffs_b: Iterator[int], diffs_c: Iterator[int],
           z0: int, count: int) -> list[int]:
    """First `count` >= 1 bits of z_t = beta_p ^ lambda_q from z_0.  Each
    position of the control period picks, once, the differences of the
    stream it moves; the picks repeat and z is the prefix XOR of them."""
    picks = tuple(map([diffs_c, diffs_b].__getitem__, control))
    moves = map(next, islice(chain.from_iterable(repeat(picks)), count - 1))
    return list(accumulate(moves, xor, initial=z0))


def _control(reg: DeBruijnRegister, steps: int) -> bytes:
    """The control bits of the first `steps` steps, one period at most."""
    return bytes(de_bruijn_sequence(reg, min(steps, 1 << reg.span)))


def _jumped(poly: BinaryPolynomial, state: BitVector, jump: int, count: int) -> bytes:
    """The register's outputs after 0, 1, ..., count - 1 jumps of `jump`."""
    spec = LfsrSpec(state.length, poly)
    return bytes(output_bits(islice(jumped_states(spec, state.mask, jump), count), spec.length))


def _jumped_diffs(poly: BinaryPolynomial, state: BitVector, jump: int,
                  need: int) -> tuple[int, Iterator[int]]:
    """The first output and the endless differences of `need` outputs
    after jumps.  Irreducible feedback has T^(2^L - 1) = I, so one period
    at most is built and repeated; other feedback is assumed to repeat
    nowhere, and all `need` outputs are built."""
    period = (1 << state.length) - 1 if is_irreducible(poly) else need
    bits = _jumped(poly, state, jump, min(need, period))
    return bits[0], chain.from_iterable(repeat(bytes(map(xor, bits, bits[1:] + bits[:1]))))


def _alternate(control_reg: DeBruijnRegister, b: tuple[BinaryPolynomial, BitVector, int],
               c: tuple[BinaryPolynomial, BitVector, int], count: int) -> list[int]:
    """First `count` >= 1 bits of the generator whose control register
    jumps register b (feedback, state, jump) on a 1 and c on a 0."""
    control = _control(control_reg, count - 1)
    laps, rest = divmod(count - 1, len(control) or 1)
    ones = laps * control.count(1) + control.count(1, 0, rest)
    b0, diffs_b = _jumped_diffs(*b, ones + 1)
    c0, diffs_c = _jumped_diffs(*c, count - ones)
    return _merge(control, diffs_b, diffs_c, b0 ^ c0, count)


def keystream(params: AsgParams, key: AsgKey, count: int) -> list[int]:
    """First `count` keystream bits; raises KeyValidationError on a bad key."""
    _require_valid(params, key)
    if count <= 0:
        return []
    return _alternate(DeBruijnRegister(LfsrSpec(params.l, params.poly_a), key.state_a),
                      (params.poly_b, key.state_b, key.r),
                      (params.poly_c, key.state_c, key.s), count)


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
    head = list(_jumped(poly, state, jump, 2 * m))
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
    if count <= 0:
        return []
    return _alternate(model.control, (model.beta_spec.feedback, model.beta_state, 1),
                      (model.lambda_spec.feedback, model.lambda_state, 1), count)
