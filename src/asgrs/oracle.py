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
of the output cycles.  A cycle b with primitive feedback has odd period
P, and decimating it by 2 shifts it: b_(2t) = b_(t+tau) for every t
(Golomb; Lidl-Niederreiter, Finite Fields, ch. 8).  So the window of
jump 2j at position i is that of jump j at position i/2 + tau mod P,
and as the jumps are closed under doubling mod P, only the least jump of
each doubling class gets windows: |classes|*P per side, W in all, built
and sorted once per call.  Packed with stream bit 0 on top, the windows
that begin with a given prefix are one run of the sorted list, so each
phase finds its kept halves by binary search, two for the B side and,
only when B keeps a half, two for the C side, and maps each hit to
every member of its class: W log W compares once, then 2^l * (log W +
len(z)) plus the halves kept.  Each kept half pairs with at least one
other, so counting the phase's keys from its runs before any half is
built bounds the halves by ORACLE_KEY_CAP.  Two caps are checked before
anything is built: ORACLE_WINDOW_CAP on W * (len(z) + 2^10) and
ORACLE_PHASE_CAP on 2^l * (len(z) + 2^6), each of W and 2^l weighed by
the bits it costs.  W counts the classes in closed form, so a refusal
builds no jump list.  R and S are the jumps that `validate` admits: with
strict params those coprime to the register's period, otherwise every
jump that is nonzero modulo it.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import accumulate, compress, cycle, islice
from operator import not_, xor
from typing import Iterable, NamedTuple

from .errors import UnsupportedParameterError
from .field import _order_factors
from .generator import AsgKey, AsgParams, require_bits, require_valid
from .gf2 import _DIGITS, BitVector
from .registers import BitSequence, LfsrSpec, de_bruijn_cycle, lfsr_states, output_bits

# Sized for about 10 s and 256 MB on a 2-CPU host with Python 3.11: a window
# weighs its len(z) bits and about 2^10 more in its int and list slots, and a
# phase its peel of len(z) bits and about 2^6 more in fixed calls
ORACLE_WINDOW_CAP = 1 << 30
ORACLE_PHASE_CAP = 1 << 27
ORACLE_KEY_CAP = 1 << 16  # a target this ambiguous pins no key, and lists cost memory


def _jumps(length: int, strict: bool) -> list[int]:
    """The jump sizes in [1, 2^length - 2] that `validate` admits."""
    period = (1 << length) - 1
    return [j for j in range(1, period) if not strict or math.gcd(j, period) == 1]


def _class_count(length: int, strict: bool) -> int:
    """The doubling classes of the jumps in `_jumps`, by Burnside's lemma
    over the products by 2^a, a < L = `length`, modulo P = 2^L - 1: 2^a
    fixes the j with j * (2^a - 1) = 0 mod P, 2^gcd(a, L) - 2 of the
    nonzero ones and, for 0 < a, no unit, so the units fall in classes
    of L."""
    if strict:
        return math.prod((q - 1) * q ** (e - 1) for q, e in _order_factors(length)) // length
    return sum((1 << math.gcd(a, length)) - 2 for a in range(length)) // length


def brute_force_oracle(params: AsgParams, target: BitSequence) -> list[AsgKey]:
    """All valid keys whose keystream matches `target`, by exhaustion.

    Independent of the generator's merge and jumps: the stream of a half
    is read off its register's output cycle, beta_k = b[(k*r + off_b) mod
    2^m-1] and lambda_k = c[(k*s + off_c) mod 2^n-1], and B and C halves
    are kept and paired per phase by conditions (i)-(iii) of the module
    docstring, which hold exactly when z_t = beta_{p_t} ^ lambda_{q_t}
    for every t < len(z).  By the shift identity of the module docstring
    that costs |classes|*P windows per side, sorted once, and up to four
    binary searches per phase.  Keys come in the order (phase along the
    de Bruijn cycle, r, B state, s, C state), B and C states in cycle
    order from state 1.  Params and targets over the window or phase cap
    are refused before anything is built, and a phase whose keys would
    take the list past ORACLE_KEY_CAP stops the search with an error
    before they are built.  The empty target has no z_0 and
    0-bit windows, so every half is kept with first bit 0 and every pair
    of halves is a key.
    """
    require_valid(params)
    l, m, n = params.l, params.m, params.n
    z = list(target)
    require_bits(z)
    windows = sum(_class_count(length, params.strict) * ((1 << length) - 1) for length in (m, n))
    for name, count, unit, overhead, cap in (
            ("window", windows, "windows", 1 << 10, ORACLE_WINDOW_CAP),
            ("phase", 1 << l, "phases", 1 << 6, ORACLE_PHASE_CAP)):
        if count * (len(z) + overhead) > cap:
            raise UnsupportedParameterError(
                f"oracle {name} cap: {count} {unit} of {len(z)} bits weigh "
                f"2^{math.log2(count * (len(z) + overhead)):.2f}, above 2^{cap.bit_length() - 1}")
    jumps_r, jumps_s = _jumps(m, params.strict), _jumps(n, params.strict)

    c_side = _windows(LfsrSpec(n, params.poly_c), jumps_s, len(z))  # control bit 0
    b_side = _windows(LfsrSpec(m, params.poly_b), jumps_r, len(z))  # control bit 1
    a_states = de_bruijn_cycle(LfsrSpec(l, params.poly_a))
    diffs = list(map(xor, z, z[1:]))
    # the control bits of one lap and len(z) - 1 past it, so that each
    # phase's are one slice
    controls = list(islice(cycle([state & 1 for state in a_states]),
                           len(a_states) + len(diffs)))
    first = z[0] if z else 0
    out: list[AsgKey] = []
    for phase, state in enumerate(a_states):
        ones = controls[phase:phase + len(diffs)]
        b_runs = _runs(b_side, len(z), compress(diffs, ones))
        if not b_runs:
            continue  # a key needs both halves
        c_runs = _runs(c_side, len(z), compress(diffs, map(not_, ones)))
        # beta_0 ^ lambda_0 = z_0 pairs the B run of each first bit with
        # at most one C run
        b_runs = {beta0: run for beta0, run in b_runs.items() if first ^ beta0 in c_runs}
        c_runs = {first ^ beta0: c_runs[first ^ beta0] for beta0 in b_runs}
        count = sum(b_side.count(run) * c_side.count(c_runs[first ^ beta0])
                    for beta0, run in b_runs.items())
        if len(out) + count > ORACLE_KEY_CAP:
            raise UnsupportedParameterError(
                f"more than {ORACLE_KEY_CAP} keys match the {len(z)}-bit target")
        c_halves = c_side.halves(c_runs)
        state_a = BitVector(state, l)
        out += [AsgKey(state_a, state_b, state_c, r, s)
                for beta0, r, state_b in b_side.halves(b_runs)
                for lambda0, s, state_c in c_halves if lambda0 == first ^ beta0]
    return out


Half = tuple[int, int, BitVector]  # (first stream bit, jump, generating state)
Member = tuple[int, int, int]  # (jump j * 2^a, 2^a mod P, tau * (2^(a+1) - 2) mod P)
Run = tuple[int, int]  # [lo, hi) of the sorted windows


class _Side(NamedTuple):
    """The sorted windows of one register, the label class * P + position
    of each, the members of each class, and the states from state 1 in
    cycle order."""

    windows: list[int]
    labels: list[int]
    classes: list[list[Member]]
    states: list[int]

    def count(self, run: Run) -> int:
        """The halves whose windows lie in `run`."""
        period = len(self.states)
        return sum(len(self.classes[label // period]) for label in self.labels[slice(*run)])

    def halves(self, runs: dict[int, Run]) -> list[Half]:
        """The halves whose windows lie in the runs, each with the first
        stream bit it is keyed by, jumps outermost and states in cycle
        order; each window is also the window of every member of its class."""
        period = len(self.states)
        hits: list[tuple[int, int, int]] = []
        for first, run in runs.items():
            for label in self.labels[slice(*run)]:
                c, i = divmod(label, period)
                hits += [(j, (mult * i - off) % period, first) for j, mult, off in self.classes[c]]
        # the period is 2^L - 1, which has L bits
        return [(first, j, BitVector(self.states[i], period.bit_length()))
                for j, i, first in sorted(hits)]


def _windows(spec: LfsrSpec, jumps: list[int], width: int) -> _Side:
    """The sorted `width`-bit windows of the least jump of each doubling
    class of `jumps`, with their labels, classes and states (see _Side).
    Bit k from the top of the window of jump j at position i is the output
    bit (the top cell) of the state k*j clocks on from position i.

    b_(2t) for t < P is b's even positions, then its odd ones, so tau is
    where that string starts in b, checked over the whole period.  Member
    j * 2^a has the leader's window at position i at position
    2^a * i - tau * (2^(a+1) - 2).  The states k*j clocks apart walk one
    coset of <j> in Z/P, the only coset unless params are not strict.
    The output bits of each walk are packed once, first bit on top, into
    an int that runs width - 1 bits past its end, so the window of its
    k-th state is one shift and mask, the shift counted from the top.
    """
    period = (1 << spec.length) - 1
    states = list(islice(lfsr_states(spec, 1), period))
    digits = bytes(output_bits(states, spec.length)).translate(_DIGITS)
    tau = (digits * 2).find(digits[::2] + digits[1::2])
    if tau < 0:
        raise ValueError(f"the output cycle of {spec.feedback} is no m-sequence")
    mask = (1 << width) - 1
    windows, classes, seen = [], [], set()
    for j in jumps:
        if j in seen:
            continue
        size = next(a for a in range(1, spec.length + 1) if (j << a) % period == j)
        classes.append([((j << a) % period, (1 << a) % period, tau * ((2 << a) - 2) % period)
                        for a in range(size)])
        seen.update(member for member, _, _ in classes[-1])
        row = [0] * period
        for coset in range(math.gcd(j, period)):
            walk = [i % period for i in range(coset, coset + math.lcm(j, period), j)]
            orbit = bytes(map(digits.__getitem__, islice(cycle(walk), len(walk) + width - 1)))
            packed = int(orbit, 2)
            for shift, i in zip(range(len(walk) - 1, -1, -1), walk):
                row[i] = packed >> shift & mask
        windows += row
    labels = sorted(range(len(windows)), key=windows.__getitem__)
    return _Side([windows[i] for i in labels], labels, classes, states)


def _runs(side: _Side, width: int, diffs: Iterable[int]) -> dict[int, Run]:
    """The nonempty runs of the sorted windows whose streams' successive
    differences begin with `diffs`, by first stream bit.

    Bit k of the peeled stream is the stream's bit k xor its bit 0, so a
    kept stream begins with the peeled one or with its complement.  The
    windows that begin with a prefix p of `bits` bits are those in
    [p, p + 1) shifted up by width - bits, one run of the sorted windows.
    """
    digits = bytes(accumulate(diffs, xor, initial=0)).translate(_DIGITS)
    bits = min(len(digits), width)  # the empty target has 0-bit windows
    peeled = int(digits, 2)
    shift = width - bits
    runs = {}
    for p in (peeled, peeled ^ (1 << bits) - 1):
        lo = bisect_left(side.windows, p << shift)
        hi = bisect_left(side.windows, p + 1 << shift, lo)
        if lo < hi:
            runs[p >> max(bits - 1, 0)] = lo, hi  # stream bit 0, which 0-bit windows read as 0
    return runs
