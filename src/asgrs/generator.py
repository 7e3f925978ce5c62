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
lambda_q ^ lambda_{q+1}.  Each sequence is built once as an int (bit t
= bit t of the sequence): the control bits of one merge block, and the
`need` outputs of each stream that they call for, but one period at
most: 2^L - 1 from a register of length L whose feedback f has
x^(2^L - 1) = 1 mod f (a hand-built model with other feedback gets all
`need`).  `classical_asg_keystream` reads its model's registers, and
`keystream` reads each stream off its substitute register, the fit
`reduce_to_classical` makes, so it runs the classical generator over
the reduced model; both read 64 outputs per table lookup
(`registers.output_word`).  A stream too short to repay its fit is
stepped one jump per output instead.

The merge works a block of whole control laps at a time, on Python
ints with one bit per step: the expand network of Hacker's Delight
(section 7-5) deposits the block's B differences into its control-1
positions and its C differences into its 0-positions, with stage masks
built once for every block, and z is the block's prefix XOR, taken in
log(width) shift-xors and written out a block of `bytes` at a time.

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
from functools import partial
from itertools import islice
from typing import Callable

from .analysis import LfsrFit, berlekamp_massey
from .errors import DegenerateStateError, KeyValidationError
from .field import MAX_DEGREE, is_primitive
from .gf2 import BinaryPolynomial, BitVector, poly_pow_mod
from .registers import (
    DeBruijnRegister,
    LfsrSpec,
    _repeat,
    de_bruijn_word,
    jumped_states,
    output_bits,
    output_word,
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


def validate(params: AsgParams, key: AsgKey | None = None) -> list[str]:
    """Every violated constraint on the params, or else on the key; the
    violations are data (empty list = ok), returned and not raised.

    A key is only judged against valid params: while the params have a
    violation, the list holds theirs alone.  Jump sizes are judged modulo
    the generating sequence periods, since a jump of r and of
    r mod (2^m - 1) move the register identically; each must be an int
    (not a bool) and non-negative, a count of clocks.
    """
    v = []
    for name, degree, poly in (
        ("poly_a", params.l, params.poly_a),
        ("poly_b", params.m, params.poly_b),
        ("poly_c", params.n, params.poly_c),
    ):
        if poly.degree != degree:
            v.append(f"{name} degree {poly.degree} != {degree}")
        elif degree > MAX_DEGREE:
            v.append(f"{name} degree {degree} is above the supported maximum {MAX_DEGREE}")
        elif not is_primitive(poly):
            v.append(f"{name} ({poly}) is not primitive")
    for name, length in (("B", params.m), ("C", params.n)):
        # a jump is only judged modulo the period 2^length - 1, which is 1
        # for a single cell, so no jump would be valid
        if length < 2:
            v.append(f"register {name} has length {length}; it needs at least 2 cells")
    if params.strict and math.gcd(params.m, params.n) != 1:
        v.append(f"gcd(m, n) = {math.gcd(params.m, params.n)} != 1")
    if v or key is None:
        return v
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
        if isinstance(jump, bool) or not isinstance(jump, int) or jump < 0:
            v.append(f"{name} = {jump!r} is not a non-negative int")
        elif jump % period == 0:
            v.append(f"{name} = {jump} is 0 mod {period}")
        elif params.strict and math.gcd(jump, period) != 1:
            v.append(f"gcd({name} = {jump}, {period}) = {math.gcd(jump, period)} != 1")
    return v


def require_valid(params: AsgParams, key: AsgKey | None = None) -> None:
    """Raise KeyValidationError listing the violations `validate` finds:
    "invalid params: ..." while the params have any, else "invalid key: ..."."""
    violations = validate(params, key)
    if violations:
        what = "params" if key is None or validate(params) else "key"
        raise KeyValidationError(f"invalid {what}: " + "; ".join(violations))


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
    require_valid(params)

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


# A merge block holds whole control laps and at least this many
# positions, unless the keystream is shorter; one set of deposit masks
# serves every block.
_BLOCK_BITS = 1 << 12

# A decimated stream of at most this many outputs is stepped one jump
# per output: below it, the fit of 2m head bits and the word tables of
# the substitute register cost more than they save.  With cold tables
# the two paths cost the same at about 1024 to 1280 outputs for m = 13
# to 16 (0.22-0.45 ms each on a 2-CPU host, Python 3.11); with warm ones
# the fit already wins from about 600 to 768.
_SHORT_STREAM = 1024

_DIGITS = bytes.maketrans(b"\x00\x01", b"01")
_BITS = bytes.maketrans(b"01", b"\x00\x01")

# (an int whose bit t is bit t of a sequence, the period or length held)
Periodic = tuple[int, int]


def _expand_stages(mask: int, width: int) -> tuple[tuple[int, int], ...]:
    """The stages of the expand network (Hacker's Delight, section 7-5)
    that deposits bits 0, 1, ... of a word into the set bits of `mask`,
    a `width`-bit mask, lowest first: (shift, positions that take the
    bit `shift` below), in the order they apply.

    A bit moves up by the number of 0s of `mask` below its target.
    Stage i moves the bits whose count has bit i set by 2^i, and the
    parallel prefix XOR of the 0s to each position's right marks them.
    """
    full = (1 << width) - 1
    zeros_right = ((full ^ mask) << 1) & full
    stages = []
    shift = 1
    while shift < width:
        odd = zeros_right
        step = 1
        while step < width:
            odd ^= odd << step
            step <<= 1
        odd &= full
        moved = odd & mask
        if moved:
            stages.append((shift, moved))
        mask = (mask ^ moved) | (moved >> shift)
        zeros_right ^= zeros_right & odd
        shift <<= 1
    return tuple(reversed(stages))


def _expand(word: int, stages: tuple[tuple[int, int], ...]) -> int:
    """`word` after the network of `_expand_stages`; only its bits at the
    mask's set positions are meaningful."""
    for shift, moved in stages:
        word ^= (word ^ (word << shift)) & moved
    return word


def _merge(control: Periodic, b: Periodic, c: Periodic, count: int) -> list[int]:
    """First `count` >= 1 bits of z_t = beta_p ^ lambda_q from a block of
    control laps and a period (or all needed outputs) of each stream.

    z changes at step t by the next B difference where control bit t is
    1 and by the next C difference where it is 0.  Each block of whole
    control laps deposits its B differences into its 1-positions and its
    C differences into its 0-positions with the expand network, whose
    stage masks are the same for every block, then takes the prefix XOR
    in log(width) shift-xors and writes its bits out.
    """
    z = (b[0] ^ c[0]) & 1
    out = [z]
    steps = count - 1
    if not steps:
        return out
    ones, width = control
    full = (1 << width) - 1
    zeros = full ^ ones
    take_b = ones.bit_count()
    take_c = width - take_b
    # d_p = s_p ^ s_(p+1) of each stream, the last one wrapping, repeated
    # so that a block's differences from any offset below the period fit
    diffs_b, diffs_c = (_repeat(s ^ (s >> 1) ^ ((s & 1) << (p - 1)), p, p + take)
                        for (s, p), take in ((b, take_b), (c, take_c)))
    to_b, to_c = _expand_stages(ones, width), _expand_stages(zeros, width)
    at_b = at_c = 0
    fmt = f"0{width}b"
    for start in range(0, steps, width):
        x = (_expand((diffs_b >> at_b) & ((1 << take_b) - 1), to_b) & ones
             | _expand((diffs_c >> at_c) & ((1 << take_c) - 1), to_c) & zeros)
        at_b = (at_b + take_b) % b[1]
        at_c = (at_c + take_c) % c[1]
        shift = 1
        while shift < width:
            x ^= x << shift
            shift <<= 1
        if z:
            x ^= full
        out += format(x & full, fmt)[::-1][:steps - start].encode().translate(_BITS)
        z = out[-1]
    return out


def _jumped(poly: BinaryPolynomial, state: BitVector, jump: int, count: int) -> bytes:
    """The register's outputs after 0, 1, ..., count - 1 jumps of `jump`."""
    spec = LfsrSpec(state.length, poly)
    return bytes(output_bits(islice(jumped_states(spec, state.mask, jump), count), spec.length))


def _register(spec: LfsrSpec, state: BitVector, need: int) -> Periodic:
    """The first `need` outputs of a unit-clocked model register, one
    period at most.  Feedback with x^(2^L - 1) = 1 mod f has
    T^(2^L - 1) = I, so 2^L - 1 outputs are a period; a hand-built model
    with other feedback is assumed to repeat nowhere, and all `need`
    outputs are built."""
    full = (1 << spec.length) - 1
    period = min(need, full if poly_pow_mod(full, spec.feedback).mask == 1 else need)
    return output_word(spec, state.mask, period), period


def _fit(poly: BinaryPolynomial, state: BitVector, jump: int) -> LfsrFit:
    """The Berlekamp-Massey fit of the register's first 2m outputs after
    0, 1, ... jumps of `jump`."""
    return berlekamp_massey(_jumped(poly, state, jump, 2 * state.length))


def _decimated(poly: BinaryPolynomial, state: BitVector, jump: int, need: int) -> Periodic:
    """The first `need` outputs of a primitive register after 0, 1, ...
    jumps of `jump`, one period at most.

    A stream of more than `_SHORT_STREAM` outputs is read off its
    substitute register, the Berlekamp-Massey fit of its 2m head bits.
    The stream b_(jump*t) = Tr(u (alpha^jump)^t) obeys the minimal
    polynomial of alpha^jump, irreducible of degree L <= m with a nonzero
    root, so x^(2^L - 1) = 1 modulo it and the stream repeats after
    2^L - 1 outputs; L < m only when gcd(jump, 2^m - 1) > 1, and L = 0
    when the stream is all zero.
    """
    if need <= _SHORT_STREAM:
        period = min(need, (1 << state.length) - 1)
        return int(_jumped(poly, state, jump, period)[::-1].translate(_DIGITS), 2), period
    fit = _fit(poly, state, jump)
    if not fit.linear_complexity:
        return 0, 1
    return _register(LfsrSpec(fit.linear_complexity, fit.connection),
                     state_from_outputs(fit.initial_state), need)


def _alternate(control_reg: DeBruijnRegister, stream_b: Callable[[int], Periodic],
               stream_c: Callable[[int], Periodic], count: int) -> list[int]:
    """First `count` >= 1 bits of the generator whose control register
    moves stream b on a 1 and stream c on a 0; stream_x(need) gives the
    first `need` outputs of x, one period at most."""
    base = control_reg.base
    period = min(count - 1, 1 << base.length) or 1
    width = min(-(-_BLOCK_BITS // period) * period, count - 1)
    control = de_bruijn_word(base, control_reg.state.mask, width)
    blocks, rest = divmod(count - 1, width or 1)
    ones = blocks * control.bit_count() + (control & ((1 << rest) - 1)).bit_count()
    return _merge((control, width), stream_b(ones + 1), stream_c(count - ones), count)


def keystream(params: AsgParams, key: AsgKey, count: int) -> list[int]:
    """First `count` keystream bits; raises KeyValidationError on a bad key."""
    require_valid(params, key)
    if count <= 0:
        return []
    return _alternate(DeBruijnRegister(LfsrSpec(params.l, params.poly_a), key.state_a),
                      partial(_decimated, params.poly_b, key.state_b, key.r),
                      partial(_decimated, params.poly_c, key.state_c, key.s), count)


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

    def __post_init__(self):
        if (self.beta_state.length != self.beta_spec.length
                or self.lambda_state.length != self.lambda_spec.length):
            raise ValueError("state length does not match register length")


def reduce_to_classical(params: AsgParams, key: AsgKey) -> ReducedModel:
    """Substitute registers for the decimated streams.

    The decimated sequence b_{rt} = Tr(u (alpha^r)^t) obeys the minimal
    polynomial of alpha^r, alpha a root of poly_b.  When that has degree
    m, Berlekamp-Massey returns it from the first 2m stream bits (2L bits
    fix a register of length L), and the first m bits are the initial
    state.  Likewise for lambda with (poly_c, s).
    """
    require_valid(params, key)
    parts = []
    for poly, state, jump in ((params.poly_b, key.state_b, key.r),
                              (params.poly_c, key.state_c, key.s)):
        fit = _fit(poly, state, jump)
        if fit.linear_complexity != state.length:
            # only possible when gcd(jump, period) > 1, i.e. non-strict keys
            raise DegenerateStateError(
                f"decimation by {jump} collapses the register: linear complexity "
                f"{fit.linear_complexity} < {state.length}")
        parts += [LfsrSpec(state.length, fit.connection), state_from_outputs(fit.initial_state)]
    control = DeBruijnRegister(LfsrSpec(params.l, params.poly_a), key.state_a)
    return ReducedModel(*parts, control)


def classical_asg_keystream(model: ReducedModel, count: int) -> list[int]:
    """Run the reduced model with unit jumps on both generating registers."""
    if model.beta_state.mask == 0 or model.lambda_state.mask == 0:
        raise DegenerateStateError("all-zero generating register in reduced model")
    if count <= 0:
        return []
    return _alternate(model.control, partial(_register, model.beta_spec, model.beta_state),
                      partial(_register, model.lambda_spec, model.lambda_state), count)
