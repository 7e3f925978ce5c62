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

Because B only ever moves in strides of r, the B-bits that reach the
output are the r-fold decimation of B's regular output sequence (and
likewise s for C).  Whenever gcd(r, 2^m - 1) = 1 that decimation is
again a maximum-length sequence, so the whole generator collapses to a
classical alternating step generator over two substitute LFSRs of the
same lengths: the reduction computed by `reduce_to_classical`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .errors import DegenerateStateError, KeyValidationError
from .field import field_context
from .gf2 import BinaryPolynomial, BitVector, xor_rows
from .registers import (
    DeBruijnRegister,
    LfsrSpec,
    _de_bruijn_next,
    _safe_is_primitive,
    jump_rows,
    lfsr_step,
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


class _Engine:
    """Packed-integer stepping core shared by the generator entry points."""

    __slots__ = ("a", "b", "c", "a_taps", "a_full", "b_rows", "c_rows",
                 "b_top", "c_top", "span")

    def __init__(self, params: AsgParams, key: AsgKey):
        l, m, n = params.l, params.m, params.n
        self.span = l
        self.a = key.state_a.mask
        self.b = key.state_b.mask
        self.c = key.state_c.mask
        self.a_taps = LfsrSpec(l, params.poly_a).taps_mask
        self.a_full = (1 << l) - 1
        self.b_rows = jump_rows(params.poly_b.mask, m, key.r % ((1 << m) - 1))
        self.c_rows = jump_rows(params.poly_c.mask, n, key.s % ((1 << n) - 1))
        self.b_top = m - 1
        self.c_top = n - 1

    def output(self) -> int:
        return ((self.b >> self.b_top) & 1) ^ ((self.c >> self.c_top) & 1)

    def step(self) -> int:
        """One clocking step; returns the control bit that drove it."""
        bit = self.a & 1
        if bit:
            self.b = xor_rows(self.b, self.b_rows)
        else:
            self.c = xor_rows(self.c, self.c_rows)
        self.a = _de_bruijn_next(self.a, self.a_taps, self.span)
        return bit


def keystream(params: AsgParams, key: AsgKey, count: int) -> list[int]:
    """First `count` keystream bits; raises KeyValidationError on a bad key."""
    _require_valid(params, key)
    if count <= 0:
        return []
    eng = _Engine(params, key)
    out = [eng.output()]
    for _ in range(count - 1):
        eng.step()
        out.append(eng.output())
    return out


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
    eng = _Engine(params, key)
    b_out = (eng.b >> eng.b_top) & 1
    c_out = (eng.c >> eng.c_top) & 1
    z = [b_out ^ c_out]
    control, beta, lam = [], [b_out], [c_out]
    for _ in range(count - 1):
        bit = eng.step()
        control.append(bit)
        if bit:
            beta.append((eng.b >> eng.b_top) & 1)
        else:
            lam.append((eng.c >> eng.c_top) & 1)
        z.append(eng.output())
    return KeystreamTrace(z, control, beta, lam)


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

    The feedback of the beta register is the minimal polynomial of
    alpha^r, where alpha is a root of poly_b: the decimated sequence
    b_{rt} = Tr(u (alpha^r)^t) obeys exactly that recurrence.  Its
    initial state is the first m decimated output bits.  Likewise for
    lambda with (poly_c, s).
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
    ctx = field_context(poly)
    period = (1 << m) - 1
    gamma = ctx.alpha ** (jump % period)
    feedback = gamma.minimal_polynomial()
    if feedback.degree != m:
        # only possible when gcd(jump, period) > 1, i.e. non-strict keys
        raise DegenerateStateError(
            f"decimation by {jump} collapses the register: minimal polynomial "
            f"degree {feedback.degree} < {m}")
    spec = LfsrSpec(m, poly)
    head = []
    s = state
    for _ in range(m):
        head.append(spec.output_cell(s))
        s = lfsr_step(spec, s, jump % period)
    cells = 0
    for i in range(m):
        cells |= head[m - 1 - i] << i
    return LfsrSpec(m, feedback), BitVector(cells, m)


def classical_asg_keystream(model: ReducedModel, count: int) -> list[int]:
    """Run the reduced model with unit jumps on both generating registers."""
    if model.beta_state.mask == 0 or model.lambda_state.mask == 0:
        raise DegenerateStateError("all-zero generating register in reduced model")
    if count <= 0:
        return []
    b_spec, c_spec = model.beta_spec, model.lambda_spec
    b_taps, c_taps = b_spec.taps_mask, c_spec.taps_mask
    b_full, c_full = (1 << b_spec.length) - 1, (1 << c_spec.length) - 1
    b_top, c_top = b_spec.length - 1, c_spec.length - 1
    a_taps = model.control.base.taps_mask
    span = model.control.span
    a = model.control.state.mask
    b = model.beta_state.mask
    c = model.lambda_state.mask
    out = [((b >> b_top) & 1) ^ ((c >> c_top) & 1)]
    for _ in range(count - 1):
        if a & 1:
            fb = (b & b_taps).bit_count() & 1
            b = ((b << 1) & b_full) | fb
        else:
            fb = (c & c_taps).bit_count() & 1
            c = ((c << 1) & c_full) | fb
        a = _de_bruijn_next(a, a_taps, span)
        out.append(((b >> b_top) & 1) ^ ((c >> c_top) & 1))
    return out
