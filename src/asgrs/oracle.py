"""Brute-force oracle: every key of the ASG(r,s) that matches a keystream.

It exhausts all control states, generating states and jump sizes, and
shares nothing with the generator's merge or jumps or with the attack's
sweep, so that tests can check the attack's completeness against it at
desk scale.

The keystream is z_t = beta_{p_t} ^ lambda_{q_t}, where p_t and q_t count
the 1s and 0s among the control bits before step t, so once the control
phase is fixed a key splits into a B half (r, B state) and a C half
(s, C state).  Per phase the oracle writes the C word lambda_{q_t},
t < len(z), of every C half into a dict, and looks up the word
z_t ^ beta_{p_t} of every B half in it: an exact equality join.  That
is 2^l * (|R|*(2^m-1) + |S|*(2^n-1)) word builds of len(z) bits each,
not 2^l * |R|*(2^m-1) * |S|*(2^n-1) candidate checks, although every
candidate is still covered.  R and S are the jumps that `validate`
admits: with strict params those coprime to the register's period,
otherwise every jump that is nonzero modulo it.
"""

from __future__ import annotations

import math
from itertools import accumulate, islice
from operator import xor

from .errors import UnsupportedParameterError
from .generator import AsgKey, AsgParams, require_bits, validate_params
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

    Independent of the generator's merge and jumps: candidate keystream
    bits are read off precomputed output cycles as
    z_t = b[(p_t * r + off_b) mod 2^m-1] ^ c[(q_t * s + off_c) mod 2^n-1],
    and B and C halves are paired by a per-phase hash join (see the
    module docstring).  Keys come in the order (phase along the de
    Bruijn cycle, r, B state, s, C state), B and C states in cycle order
    from state 1.  The work cap counts 2^(l+m+n) * |R| * |S| candidates;
    past ORACLE_KEY_CAP matching keys the search stops with an error.
    """
    violations = validate_params(params)
    if violations:
        raise ValueError("invalid params: " + "; ".join(violations))
    l, m, n = params.l, params.m, params.n
    jumps_r = _jumps(m, params.strict)
    jumps_s = _jumps(n, params.strict)
    work = (1 << (l + m + n)) * len(jumps_r) * len(jumps_s)
    if work > ORACLE_WORK_CAP:
        raise UnsupportedParameterError(
            f"oracle work 2^{math.log2(work):.1f} exceeds the cap of "
            f"2^{int(math.log2(ORACLE_WORK_CAP))}")
    z = list(target)
    require_bits(z)

    pm, pn = (1 << m) - 1, (1 << n) - 1
    b_states, b_cycle = _state_cycle(LfsrSpec(m, params.poly_b), pm)
    c_states, c_cycle = _state_cycle(LfsrSpec(n, params.poly_c), pn)
    b_vectors = [BitVector(st, m) for st in b_states]
    c_vectors = [BitVector(st, n) for st in c_states]
    b_twice, c_twice = b_cycle * 2, c_cycle * 2
    a_states = de_bruijn_cycle(LfsrSpec(l, params.poly_a))
    period = 1 << l

    out: list[AsgKey] = []
    for phase in range(period):
        steps = [a_states[(phase + t) % period] & 1 for t in range(len(z) - 1)]
        p_arr = list(accumulate(steps, initial=0))[:len(z)]
        q_arr = [t - p for t, p in enumerate(p_arr)]
        c_halves: dict[bytes, list[tuple[int, int]]] = {}
        for s in jumps_s:
            qs = [q * s % pn for q in q_arr]
            for off_c in range(pn):
                cycle = c_twice[off_c:off_c + pn]
                c_halves.setdefault(bytes(map(cycle.__getitem__, qs)), []).append((s, off_c))
        state_a = BitVector(a_states[phase], l)
        for r in jumps_r:
            ps = [p * r % pm for p in p_arr]
            for off_b in range(pm):
                cycle = b_twice[off_b:off_b + pm]
                need = bytes(map(xor, z, map(cycle.__getitem__, ps)))
                for s, off_c in c_halves.get(need, ()):
                    out.append(AsgKey(state_a, b_vectors[off_b], c_vectors[off_c], r, s))
                if len(out) > ORACLE_KEY_CAP:
                    raise UnsupportedParameterError(
                        f"more than {ORACLE_KEY_CAP} keys match the {len(z)}-bit target")
    return out


def _state_cycle(spec: LfsrSpec, period: int) -> tuple[list[int], list[int]]:
    """The register's states from state 1 over one period, and the output
    bit (the top cell) of each."""
    states = list(islice(lfsr_states(spec, 1), period))
    return states, list(output_bits(states, spec.length))
