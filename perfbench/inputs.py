"""Workload table, seeded inputs and the wire format shared by the
benchmark's parent process and its workers.

Keys come from this module's own sampler, written in the style of the
test suite's reference sampler rather than taken from ``asgrs.random_key``,
so that a change to the package's key generation cannot move a workload.
"""

from __future__ import annotations

import functools
import math
import os
import random
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    """Import ``asgrs`` from the checkout's ``src`` and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "asgrs", "__init__.py")):
        raise SystemExit(f"perfbench: no package source at {SRC}")
    sys.path.insert(0, SRC)
    import asgrs
    if not os.path.abspath(asgrs.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"perfbench: asgrs imported from {asgrs.__file__}, not {SRC}")
    return asgrs


# Each worker is a fresh interpreter, so every timed call sees the package's
# caches (trace solvers, jump matrices, field contexts) as cold as a fresh
# `asgrs attack` process does.  A worker runs its ops in the listed order;
# `primary` and `secondary` name the ops behind the two timing metrics.
# Trace runs replay `replayed` ops through public functions, with spans.
# `input` says whether workers get a keystream to attack or only the key;
# `jump_ranks` is the share of jump classes keys are drawn from (see below).
# Bit counts are fixed here rather than derived from the package: 97 and
# 136 are `suggested_keystream_length` at this writing and 24 is 3(m+n).
# The sweep runs at l = 13, not 14: on a 2-CPU virtual machine an l = 14
# attack took 4 s, only three inputs fitted in a 30-second run, and the
# run's median moved by 9-25% between seeds.
WORKLOADS = {
    "sweep": {
        "input": "keystream",
        "lmn": (13, 7, 9), "bits": 97,
        "workers": [["attack"], ["attack_w2"]],
        "primary": "attack", "secondary": "attack_w2",
        "replayed": [["attack"]],
        "jump_ranks": (0, 1),
    },
    "jumps": {
        "input": "keystream",
        "lmn": (8, 14, 13), "bits": 136,
        "workers": [["attack", "attack_warm"]],
        "primary": "attack", "secondary": "attack_warm",
        "replayed": [["attack"]],
        "jump_ranks": (3 / 8, 5 / 8),
    },
    "keystream": {
        "input": "key",
        "lmn": (16, 15, 16), "bits": 10 ** 6,
        "workers": [["keystream", "reduced"]],
        "primary": "keystream", "secondary": "reduced",
        "replayed": [["keystream", "reduced"]],
        "jump_ranks": (0, 1),
    },
    "oracle": {
        "input": "keystream",
        "lmn": (4, 3, 5), "bits": 24,
        "workers": [["attack", "oracle"]],
        "primary": "oracle", "secondary": "attack",
        "replayed": [["attack", "oracle"]],
        "jump_ranks": (0, 1),
    },
}


def make_params(asgrs, lmn):
    from asgrs.registers import primitive_polynomial
    l, m, n = lmn
    return asgrs.AsgParams(l, m, n, primitive_polynomial(l),
                           primitive_polynomial(m), primitive_polynomial(n))


# Jump recovery tries the admissible r in ascending order and stops at the
# smallest member of the true jump's Frobenius class {r 2^j mod 2^m - 1}, so
# its cost grows with that class leader's rank, for r and s alike: at
# (8,14,13) on a 2-CPU virtual machine, from 0.1 s for the lowest sixteenth
# of ranks to 3 s for the highest.  With a run's dozen and a half keys drawn
# uniformly, the jumps workload's median moved by 40% between seeds, and by
# 10-20% with the full range stratified.  So keys are drawn from the
# `jump_ranks` share of the classes sorted by leader, split into STRATA equal
# bands; every STRATA consecutive inputs visit each band once, r and s share
# the band, and within a band the class and then its member are uniform.
# The visiting order is the bit-reversal of the input index XOR a seeded
# mask, so that a run cut short after any 2^k inputs has still seen every
# 2^k-th band.
STRATA = 16
_BAND_BITS = STRATA.bit_length() - 1


@functools.lru_cache(maxsize=None)
def class_leaders(length: int) -> tuple[int, ...]:
    """Smallest member of each class of jumps coprime to 2^length - 1."""
    period = (1 << length) - 1
    seen, leaders = set(), []
    for r in range(1, period):
        if r in seen or math.gcd(r, period) != 1:
            continue
        leaders.append(r)
        seen.update(r * (1 << j) % period for j in range(length))
    return tuple(leaders)


def _jump(rng: random.Random, length: int, ranks, band: int) -> int:
    leaders = class_leaders(length)
    leaders = leaders[int(len(leaders) * ranks[0]):max(1, int(len(leaders) * ranks[1]))]
    lo = len(leaders) * band // STRATA
    hi = max(lo + 1, len(leaders) * (band + 1) // STRATA)
    leader = leaders[rng.randrange(lo, hi)]
    return leader * (1 << rng.randrange(length)) % ((1 << length) - 1)


def sample_key(workload: str, seed: int, index: int) -> dict:
    """Valid key as plain masks: any control state, nonzero generating
    states, jumps coprime to the register periods (stratified, above)."""
    spec = WORKLOADS[workload]
    l, m, n = spec["lmn"]
    mask = random.Random(f"perfbench:{workload}:{seed}:bands").randrange(STRATA)
    band = int(f"{index % STRATA:0{_BAND_BITS}b}"[::-1], 2) ^ mask
    # input `index` depends on the seed alone, not on how many inputs an
    # earlier, faster or slower, run got through
    rng = random.Random(f"perfbench:{workload}:{seed}:{index}")
    return {
        "a": rng.randrange(0, 1 << l),
        "b": rng.randrange(1, 1 << m),
        "c": rng.randrange(1, 1 << n),
        "r": _jump(rng, m, spec["jump_ranks"], band),
        "s": _jump(rng, n, spec["jump_ranks"], band),
    }


def to_key(asgrs, lmn, k: dict):
    l, m, n = lmn
    bv = asgrs.BitVector
    return asgrs.AsgKey(bv(k["a"], l), bv(k["b"], m), bv(k["c"], n), k["r"], k["s"])


def from_key(key) -> dict:
    return {"a": key.state_a.mask, "b": key.state_b.mask, "c": key.state_c.mask,
            "r": key.r, "s": key.s}

