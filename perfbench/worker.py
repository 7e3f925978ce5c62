"""One fresh interpreter per job: set up, run the timed ops, check them.

Reads one JSON job from stdin, prints ``ready`` with its own set-up time
once the package is imported and the input decoded, then runs the ops in
order and prints one JSON result line.  Output checks run after every op
of the job, so they cannot warm a cache that a later op is timed on.

A ``replay`` job re-runs the workload through the package's public
functions, one layer per call, and records the time spent in each layer
(``<module>.<what>_s``) along with the attack's filter funnel, then
times the GF(2), GF(2^m) and register kernels at the workload's sizes.
"""

from __future__ import annotations

import hashlib
import json
import random
import resource
import statistics
import sys
import time
from collections import defaultdict
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context

from inputs import import_package, make_params, to_key, from_key

TRUE_CLASS_BITS = 4096


def _reference_loop(_=None) -> float:
    """Seconds for a fixed pure-Python loop of the package's kind of work
    (shift, mask, popcount, xor), averaged over three runs.  It allocates
    nothing, since page faults for fresh list memory made it bimodal."""
    total = 0.0
    for _ in range(3):
        s, taps, full, acc = 1, 0b1011001, (1 << 20) - 1, 0
        t = time.perf_counter()
        for _ in range(100_000):
            s = ((s << 1) & full) | ((s & taps).bit_count() & 1)
            acc ^= s & 1
        total += time.perf_counter() - t
    return total / 3


def reference_s(pool=None, width: int = 1) -> float:
    """The reference loop's time, on `width` CPUs at once via `pool`.

    On a shared 2-CPU virtual machine, speed drifted by about +-20% over
    seconds to minutes, and the drift hit this loop and the package alike.
    Timing each op in units of this loop, run just before and just after
    it on as many CPUs as the op uses, cancels most of the drift: over
    30-second windows there, the spread of the ratio was 3% against 15%
    for raw seconds."""
    if width == 1:
        return _reference_loop()
    return statistics.fmean(pool.map(_reference_loop, range(width)))


def digest(bits) -> str:
    return hashlib.sha256(bytes(bits)).hexdigest()


def run_ops(asgrs, job, params, key, z):
    width = job["w2"] if "attack_w2" in job["ops"] else 1
    if width == 1:
        return _run_ops(asgrs, job, params, key, z, reference_s)
    with ProcessPoolExecutor(width, mp_context=get_context("spawn")) as pool:
        list(pool.map(_reference_loop, range(width)))  # start the processes
        return _run_ops(asgrs, job, params, key, z, lambda: reference_s(pool, width))


def _run_ops(asgrs, job, params, key, z, ref):
    times, refs, out, failures = {}, {}, {}, defaultdict(list)
    clock = time.perf_counter
    before = ref()
    for op in job["ops"]:
        t = clock()
        if op in ("attack", "attack_warm", "attack_w2"):
            workers = job["w2"] if op == "attack_w2" else 1
            out[op] = asgrs.run_attack(asgrs.AttackConfig(params, z, worker_count=workers))
        elif op == "keystream":
            out[op] = asgrs.keystream(params, key, job["bits"])
        elif op == "reduced":
            model = asgrs.reduce_to_classical(params, key)
            out[op] = asgrs.classical_asg_keystream(model, job["bits"])
        elif op == "oracle":
            out[op] = asgrs.brute_force_oracle(params, z)
        else:
            raise ValueError(f"unknown op {op}")
        times[op] = clock() - t
        after = ref()
        refs[op] = (before + after) / 2
        before = after

    long_true = None
    for op, rep in out.items():
        if not op.startswith("attack"):
            continue
        if rep.counters.a_states_tried != 1 << params.l:
            failures[op].append(f"a_states_tried = {rep.counters.a_states_tried}")
        if any(asgrs.keystream(params, k, len(z)) != z for k in rep.recovered_keys):
            failures[op].append("a reported key does not regenerate z")
        if long_true is None:
            long_true = asgrs.keystream(params, key, TRUE_CLASS_BITS)
        if not any(asgrs.keystream(params, k, TRUE_CLASS_BITS) == long_true
                   for k in rep.recovered_keys):
            failures[op].append(f"no key matches the true keystream over {TRUE_CLASS_BITS} bits")
    if "attack_warm" in out and out["attack_warm"].recovered_keys != out["attack"].recovered_keys:
        failures["attack_warm"].append("warm attack keys differ from the cold attack's")
    if "reduced" in out and out["reduced"] != out["keystream"]:
        failures["reduced"].append("reduced-model bits differ from keystream bits")
    if "oracle" in out:
        oracle_keys = out["oracle"]
        if key not in oracle_keys:
            failures["oracle"].append("true key missing from the oracle's keys")
        attack_keys = out["attack"].recovered_keys
        if not attack_keys or any(k not in oracle_keys for k in attack_keys):
            failures["oracle"].append("attack keys are not a non-empty subset of the oracle's")

    result = {"times": times, "refs": refs, "failures": failures}
    if "keystream" in out:
        result["digest"] = digest(out["keystream"])
    attacks = {op: rep for op, rep in out.items() if op.startswith("attack")}
    result["keys"] = {op: [from_key(k) for k in rep.recovered_keys] for op, rep in attacks.items()}
    result["counters"] = {op: vars(rep.counters) for op, rep in attacks.items()}
    return result


class Spans:
    """Busy time per layer, accumulated around calls into the package."""

    def __init__(self):
        self.seconds = defaultdict(float)

    def call(self, name, fn, *args, **kwargs):
        t = time.perf_counter()
        value = fn(*args, **kwargs)
        self.seconds[name] += time.perf_counter() - t
        return value


def _bits_to_cells(asgrs, bits):
    # output bits b_0..b_{m-1} -> register cells (cell i = b_{m-1-i})
    m = bits.length
    return asgrs.BitVector(sum(bits[m - 1 - i] << i for i in range(m)), m)


def replay_attack(asgrs, params, z, spans):
    """`run_attack` with one worker, step by step through public functions.

    Mirrors the package's sweep call for call: the control sequence is
    generated for each guess and again for each verified candidate, as
    the attack does, so traced and untraced runs do the same work.
    """
    from asgrs.registers import DeBruijnRegister, LfsrSpec, de_bruijn_sequence
    l, m, n = params.l, params.m, params.n
    config = asgrs.AttackConfig(params, z)
    spec_a = LfsrSpec(l, params.poly_a)
    steps = len(z) - 1
    solves = asgrs.AttackCounters()
    funnel = dict.fromkeys(
        ("guesses", "insufficient_bits", "complexity_exceeded", "verify_rejected",
         "verified", "jump_failed", "soundness_rejected", "recovered", "bm_runs"), 0)
    keys = []

    def streams(a_init, beta0):
        a_seq = spans.call("registers.control_s", de_bruijn_sequence,
                           DeBruijnRegister(spec_a, a_init), steps)
        return spans.call("attack.reconstruct_s", asgrs.reconstruct_streams, a_seq, z, beta0)

    def decimation(poly, length, fit, harvested):
        def recover():
            ctx = asgrs.field_context(poly)
            obs = fit.extend(max(3 * length, len(harvested)))
            return asgrs.recover_decimation(ctx, obs, verify_bits=len(obs) - length,
                                            counters=solves)
        return spans.call("attack.jump_s", recover)

    for a_mask in range(1 << l):
        a_init = asgrs.BitVector(a_mask, l)
        for beta0 in (0, 1):
            funnel["guesses"] += 1
            beta, lam = streams(a_init, beta0)
            if len(beta) < 2 * m or len(lam) < 2 * n:
                funnel["insufficient_bits"] += 1
                continue
            fits = []
            for seq, cap in ((beta[:2 * m], m), (lam[:2 * n], n)):
                fit = spans.call("analysis.bm_s", asgrs.berlekamp_massey, seq)
                funnel["bm_runs"] += 1
                if fit.linear_complexity > cap:
                    break
                fits.append(fit)
            if len(fits) < 2:
                funnel["complexity_exceeded"] += 1
                continue
            cand = asgrs.CandidateModel(a_init, beta0, *fits)
            if not spans.call("attack.verify_s", asgrs.verify_candidate, config, cand):
                funnel["verify_rejected"] += 1
                continue
            funnel["verified"] += 1
            beta, lam = streams(a_init, beta0)
            fit_b = decimation(params.poly_b, m, fits[0], beta)
            fit_c = fit_b and decimation(params.poly_c, n, fits[1], lam)
            if fit_c is None:
                funnel["jump_failed"] += 1
                continue
            key = asgrs.AsgKey(a_init, _bits_to_cells(asgrs, fit_b.initial_bits),
                               _bits_to_cells(asgrs, fit_c.initial_bits), fit_b.r, fit_c.r)
            if spans.call("generator.keystream_s", asgrs.keystream, params, key, len(z)) != z:
                funnel["soundness_rejected"] += 1
                continue
            funnel["recovered"] += 1
            keys.append(key)
    funnel["trace_solves"] = solves.trace_solves
    return keys[:config.max_candidates], funnel


def replay_keystream(asgrs, params, key, count, spans):
    """`keystream` and `classical_asg_keystream(reduce_to_classical(...))`
    rebuilt from register-level calls: one de Bruijn control sequence,
    one `lfsr_step` jump per generating-register move, and unit-clock
    output sequences for the substitute registers."""
    from asgrs.registers import (DeBruijnRegister, LfsrSpec, de_bruijn_sequence,
                                 lfsr_step, output_sequence)
    control = spans.call("registers.control_s", de_bruijn_sequence,
                         DeBruijnRegister(LfsrSpec(params.l, params.poly_a), key.state_a),
                         count - 1)
    ones = sum(control)

    def jumped(spec, state, jump, moves):
        top = spec.length - 1
        out = [state.mask >> top]
        for _ in range(moves):
            state = lfsr_step(spec, state, jump)
            out.append(state.mask >> top)
        return out

    b_out = spans.call("registers.jump_s", jumped, LfsrSpec(params.m, params.poly_b),
                       key.state_b, key.r, ones)
    c_out = spans.call("registers.jump_s", jumped, LfsrSpec(params.n, params.poly_c),
                       key.state_c, key.s, len(control) - ones)
    model = spans.call("generator.reduce_s", asgrs.reduce_to_classical, params, key)
    beta = spans.call("registers.lfsr_s", output_sequence, model.beta_spec,
                      model.beta_state, ones + 1)
    lam = spans.call("registers.lfsr_s", output_sequence, model.lambda_spec,
                     model.lambda_state, len(control) - ones + 1)
    return _interleave(control, b_out, c_out), _interleave(control, beta, lam)


def _interleave(control, b_out, c_out):
    p = q = 0
    out = [b_out[0] ^ c_out[0]]
    for a in control:
        if a:
            p += 1
        else:
            q += 1
        out.append(b_out[p] ^ c_out[q])
    return out


def _median_rate(fn, batches=5):
    """Median over batches of fn(), which returns (seconds, operations)."""
    return statistics.median(s / ops for s, ops in (fn() for _ in range(batches)))


def kernels(asgrs, params, rng):
    """Per-operation cost of the primitives under each layer, at the
    workload's register sizes (field and matrices at degree m)."""
    from asgrs.registers import (DeBruijnRegister, LfsrSpec, de_bruijn_sequence,
                                 lfsr_step, output_sequence)
    clock = time.perf_counter
    l, m = params.l, params.m
    ctx = asgrs.field_context(params.poly_b)
    spec_a, spec_b = LfsrSpec(l, params.poly_a), LfsrSpec(m, params.poly_b)
    elems = [(rng.randrange(1, 1 << m), rng.randrange(1, 1 << m)) for _ in range(4096)]
    mats = []
    while len(mats) < 64:
        mat = asgrs.BitMatrix(m, m, tuple(rng.randrange(1 << m) for _ in range(m)))
        if asgrs.rank(mat) == m:
            mats.append(mat)
    seqs = [output_sequence(spec_b, asgrs.BitVector(rng.randrange(1, 1 << m), m), 2 * m)
            for _ in range(256)]
    bits = 1 << 16
    jump = m * m + rng.randrange(1 << m)  # at least m^2 clocks: the matrix path
    state_b = asgrs.BitVector(rng.randrange(1, 1 << m), m)
    lfsr_step(spec_b, state_b, jump)  # build the cached jump matrix first

    def field_mul():
        mul, t = ctx.mul, clock()
        for a, b in elems:
            mul(a, b)
        return clock() - t, len(elems)

    def field_trace():
        tr, t = ctx.trace_of, clock()
        for a, _ in elems:
            tr(a)
        return clock() - t, len(elems)

    def invert():
        t = clock()
        for mat in mats:
            asgrs.invert(mat)
        return clock() - t, len(mats)

    def bm():
        t = clock()
        for seq in seqs:
            asgrs.berlekamp_massey(seq)
        return clock() - t, len(seqs)

    def debruijn():
        reg = DeBruijnRegister(spec_a, asgrs.BitVector(rng.randrange(1 << l), l))
        t = clock()
        de_bruijn_sequence(reg, bits)
        return clock() - t, bits

    def lfsr():
        t = clock()
        output_sequence(spec_b, state_b, bits)
        return clock() - t, bits

    def jumps():
        s, t = state_b, clock()
        for _ in range(2000):
            s = lfsr_step(spec_b, s, jump)
        return clock() - t, 2000

    return {
        "field.mul_ns": _median_rate(field_mul) * 1e9,
        "field.trace_ns": _median_rate(field_trace) * 1e9,
        "gf2.invert_us": _median_rate(invert) * 1e6,
        "analysis.bm_us": _median_rate(bm) * 1e6,
        "registers.debruijn_ns_per_bit": _median_rate(debruijn) * 1e9,
        "registers.lfsr_ns_per_bit": _median_rate(lfsr) * 1e9,
        "registers.jump_us": _median_rate(jumps) * 1e6,
    }


def replay(asgrs, job, params, key, z):
    spans = Spans()
    result = {"failures": defaultdict(list)}
    before = reference_s()
    t = time.perf_counter()
    if job["workload"] == "keystream":
        asg_bits, reduced_bits = replay_keystream(asgrs, params, key, job["bits"], spans)
        total = time.perf_counter() - t
        if asg_bits != reduced_bits:
            result["failures"]["replay"].append("replayed ASG and reduced-model bits differ")
        result["digest"] = digest(asg_bits)
    else:
        keys, funnel = replay_attack(asgrs, params, z, spans)
        if job["workload"] == "oracle":
            oracle_keys = spans.call("attack.oracle_s", asgrs.brute_force_oracle, params, z)
        total = time.perf_counter() - t
        if job["workload"] == "oracle" and (key not in oracle_keys
                                            or any(k not in oracle_keys for k in keys)):
            result["failures"]["replay"].append("replay keys or true key outside the oracle's keys")
        result["keys"] = [from_key(k) for k in keys]
        result["funnel"] = funnel
    result["spans"] = dict(spans.seconds)
    result["total_s"] = total
    result["ref_s"] = (before + reference_s()) / 2
    result["kernels"] = kernels(asgrs, params, random.Random(job["kernel_seed"]))
    return result


def main():
    job = json.loads(sys.stdin.readline())
    asgrs = import_package()
    params = make_params(asgrs, job["lmn"])
    key = to_key(asgrs, job["lmn"], job["key"])
    z = [int(c) for c in job["z"]] if job.get("z") else None
    print(json.dumps({"ready": time.monotonic() - job["spawned"]}), flush=True)
    if job["ops"] == ["replay"]:
        result = replay(asgrs, job, params, key, z)
    else:
        result = run_ops(asgrs, job, params, key, z)
    result["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
