"""Brute-force oracle: every key of the ASG(r,s) that matches a keystream.

It exhausts all control states, generating states and jump sizes, and
shares nothing with the generator's merge or jumps or with the attack's
sweep, so that tests can check the attack's completeness against it at
desk scale.

The keystream is z_t = beta_{p_t} ^ lambda_{q_t}, where p_t and q_t count
the 1s and 0s among the control bits before step t, so once the control
phase is fixed a key splits into a B half (r, B state) and a C half
(s, C state).  For that phase the identity holds for every t < len(z)
exactly when
  (i)   beta_{p_t} ^ beta_{p_t+1} = z_t ^ z_{t+1} at the control-1 steps t,
  (ii)  lambda_{q_t} ^ lambda_{q_t+1} = z_t ^ z_{t+1} at the control-0 steps t,
  (iii) beta_0 ^ lambda_0 = z_0.
Necessary: a control-1 step moves p_t and keeps q_t, so z changes by the
beta difference alone, and a control-0 step likewise by the lambda one.
Sufficient, by induction on t: (iii) is t = 0, and (i) or (ii) carries
the identity from t to t+1.  So per phase the oracle peels beta^ (P+1
bits, P the 1s among the len(z)-1 control bits) and lambda^ (Q+1 bits,
Q the 0s) off the differences of z, each with bit 0 set to 0; it keeps
the halves whose stream begins with the peeled one or its complement,
which gives beta_0 or lambda_0, and pairs each kept B half with the kept
C halves of lambda_0 = z_0 ^ beta_0.  The streams are len(z)-bit windows
of the output cycles: |R|*(2^m-1) + |S|*(2^n-1) of them, built once per
call, and as many masked compares per phase.  The work cap still counts
all 2^l * |R|*(2^m-1) * |S|*(2^n-1) candidates.  R and S are the jumps
that `validate` admits: with strict params those coprime to the
register's period, otherwise every jump that is nonzero modulo it.
"""

from __future__ import annotations

import math
from itertools import accumulate, compress, cycle, islice, repeat
from operator import xor

from .errors import UnsupportedParameterError
from .generator import AsgKey, AsgParams, require_bits, require_valid
from .gf2 import BitVector
from .registers import BitSequence, LfsrSpec, de_bruijn_cycle, lfsr_states, output_bits

ORACLE_WORK_CAP = 1 << 26
ORACLE_KEY_CAP = 1 << 16  # a target this ambiguous pins no key, and lists cost memory


def _jumps(length: int, strict: bool) -> list[int]:
    """The jump sizes in [1, 2^length - 2] that `validate` admits."""
    period = (1 << length) - 1
    return [j for j in range(1, period) if not strict or math.gcd(j, period) == 1]


def brute_force_oracle(params: AsgParams, target: BitSequence) -> list[AsgKey]:
    """All valid keys whose keystream matches `target`, by exhaustion.

    Independent of the generator's merge and jumps: the stream of a half
    is read off its register's output cycle, beta_k = b[(k*r + off_b) mod
    2^m-1] and lambda_k = c[(k*s + off_c) mod 2^n-1], and B and C halves
    are kept and paired per phase by conditions (i)-(iii) of the module
    docstring, which hold exactly when z_t = beta_{p_t} ^ lambda_{q_t}
    for every t < len(z).  That costs |R|*(2^m-1) + |S|*(2^n-1) windows
    once and as many masked compares per phase.  Keys come in the order
    (phase along the de Bruijn cycle, r, B state, s, C state), B and C
    states in cycle order from state 1.  The work cap counts
    2^(l+m+n) * |R| * |S| candidates; past ORACLE_KEY_CAP matching keys
    the search stops with an error.  The empty target has no z_0 and
    0-bit windows, so every half is kept with first bit 0 and every pair
    of halves is a key.
    """
    require_valid(params)
    l, m, n = params.l, params.m, params.n
    jumps_r, jumps_s = _jumps(m, params.strict), _jumps(n, params.strict)
    work = (1 << (l + m + n)) * len(jumps_r) * len(jumps_s)
    if work > ORACLE_WORK_CAP:
        raise UnsupportedParameterError(
            f"oracle work 2^{math.log2(work):.1f} exceeds the cap of "
            f"2^{int(math.log2(ORACLE_WORK_CAP))}")
    z = list(target)
    require_bits(z)

    sides = (_windows(LfsrSpec(n, params.poly_c), jumps_s, len(z)),  # C: control bit 0
             _windows(LfsrSpec(m, params.poly_b), jumps_r, len(z)))  # B: control bit 1
    a_states = de_bruijn_cycle(LfsrSpec(l, params.poly_a))
    first = z[0] if z else 0
    out: list[AsgKey] = []
    for phase, state in enumerate(a_states):
        steps = list(zip(map(xor, z, z[1:]), islice(cycle(a_states), phase, None)))
        c_halves, b_halves = (_kept(*side, [d for d, a in steps if a & 1 == control])
                              for control, side in enumerate(sides))
        state_a = BitVector(state, l)
        for beta0, r, state_b in b_halves:
            out += [AsgKey(state_a, state_b, state_c, r, s)
                    for lambda0, s, state_c in c_halves if lambda0 == first ^ beta0]
            if len(out) > ORACLE_KEY_CAP:
                raise UnsupportedParameterError(
                    f"more than {ORACLE_KEY_CAP} keys match the {len(z)}-bit target")
    return out


Half = tuple[int, int, BitVector]  # (first stream bit, jump, generating state)


def _windows(spec: LfsrSpec, jumps: list[int], width: int) -> tuple[list[int], list[Half]]:
    """The halves of the register, jumps outermost and states from state 1
    in cycle order, and the `width`-bit window of each: bit k is the output
    bit (the top cell) of the state k*j clocks on.

    The states k*j clocks apart walk one coset of <j> in Z/(2^length - 1),
    the only coset unless params are not strict.  The output bits of each
    walk are packed once into an int that runs `width` bits past its end,
    so the window of its k-th state is one shift by k and mask.
    """
    period = (1 << spec.length) - 1
    states = list(islice(lfsr_states(spec, 1), period))
    digits = "".join(map(str, output_bits(states, spec.length)))
    vectors = [BitVector(st, spec.length) for st in states]
    mask = (1 << width) - 1
    windows, halves = [], []
    for j in jumps:
        row = [0] * period
        for coset in range(math.gcd(j, period)):
            walk = [i % period for i in range(coset, coset + math.lcm(j, period), j)]
            orbit = "".join(map(digits.__getitem__, islice(cycle(walk), len(walk) + width)))
            packed = int(orbit[::-1], 2)
            for k, i in enumerate(walk):
                row[i] = packed >> k & mask
        windows += row
        halves += zip(map((1).__and__, row), repeat(j), vectors)
    return windows, halves


def _kept(windows: list[int], halves: list[Half], diffs: list[int]) -> list[Half]:
    """The halves whose stream's successive differences begin with `diffs`.

    Bit k of the peeled stream is the stream's bit k xor its bit 0, so a
    kept stream begins with the peeled one or with its complement.
    """
    peeled = int("".join(map(str, accumulate(diffs, xor, initial=0)))[::-1], 2)
    mask = (1 << (len(diffs) + 1)) - 1
    return list(compress(halves, map({peeled, peeled ^ mask}.__contains__,
                                     map(mask.__and__, windows))))

