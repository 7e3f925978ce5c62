"""Brute-force oracle: every key of the ASG(r,s) that matches a keystream.

It exhausts all control states, generating states and jump sizes, and
shares nothing with the generator's merge or jumps or with the attack's
sweep, so that tests can check the attack's completeness against it at
desk scale.
"""

from __future__ import annotations

import math
from itertools import islice

from .errors import UnsupportedParameterError
from .generator import AsgKey, AsgParams, validate_params
from .gf2 import BitVector
from .registers import BitSequence, LfsrSpec, de_bruijn_cycle, lfsr_states, output_bits

ORACLE_WORK_CAP = 1 << 26


def _coprime_jumps(length: int) -> list[int]:
    period = (1 << length) - 1
    return [r for r in range(1, period) if math.gcd(r, period) == 1]


def brute_force_oracle(params: AsgParams, target: BitSequence) -> list[AsgKey]:
    """All valid keys whose keystream matches `target`, by exhaustion.

    Independent of the generator's merge and jumps: every candidate
    keystream bit is read off precomputed output cycles as
    z_t = b[(p_t * r + off_b) mod 2^m-1] ^ c[(q_t * s + off_c) mod 2^n-1],
    where p_t/q_t count the control bits seen so far.
    """
    violations = validate_params(params)
    if violations:
        raise ValueError("invalid params: " + "; ".join(violations))
    l, m, n = params.l, params.m, params.n
    jumps_r = _coprime_jumps(m)
    jumps_s = _coprime_jumps(n)
    work = (1 << (l + m + n)) * len(jumps_r) * len(jumps_s)
    if work > ORACLE_WORK_CAP:
        raise UnsupportedParameterError(
            f"oracle work 2^{math.log2(work):.1f} exceeds the cap of "
            f"2^{int(math.log2(ORACLE_WORK_CAP))}")

    spec_b = LfsrSpec(m, params.poly_b)
    spec_c = LfsrSpec(n, params.poly_c)
    pm, pn = (1 << m) - 1, (1 << n) - 1
    b_states, b_cycle = _state_cycle(spec_b, pm)
    c_states, c_cycle = _state_cycle(spec_c, pn)
    a_states = de_bruijn_cycle(LfsrSpec(l, params.poly_a))
    control = [st & 1 for st in a_states]

    z = list(target)
    big = len(z)
    out: list[AsgKey] = []
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


def _state_cycle(spec: LfsrSpec, period: int) -> tuple[list[int], list[int]]:
    """The register's states from state 1 over one period, and the output
    bit (the top cell) of each."""
    states = list(islice(lfsr_states(spec, 1), period))
    return states, list(output_bits(states, spec.length))
