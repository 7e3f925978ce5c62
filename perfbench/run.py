"""Benchmark for asgrs: key recovery, keystream throughput and the oracle.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports the package from its
``src``.  Each input is drawn from ``--seed`` and handed to fresh worker
interpreters (``worker.py``), one job per worker and one worker at a
time, until ``--seconds`` have passed.  Every output is checked.

Workloads (see ``inputs.WORKLOADS``) and the ops behind their two timings:

    sweep      (13,7,9), 97 bits    primary: run_attack, 1 worker
                                    secondary: run_attack, min(2, cpus) workers
    jumps      (8,14,13), 136 bits  primary: run_attack, 1 worker, cold caches
                                    secondary: the same attack again, same process
    keystream  (16,15,16)           primary: keystream, 10^6 bits
                                    secondary: classical_asg_keystream(reduce_to_classical)
    oracle     (4,3,5), 24 bits     primary: brute_force_oracle
                                    secondary: run_attack, cold caches

With ``--trace 0`` the last stdout line reports the end-to-end metrics,
each a median over the run: worker set-up in seconds (interpreter start,
import, input generation and decoding), the primary and secondary op in
units of a reference loop timed around it (``worker.reference_s``), and
the primary worker's peak RSS.  With ``--trace 1`` each input is run
untraced and then replayed layer by layer in a second fresh worker; the
last line reports per-layer medians over the inputs, and a layer the
workload never calls reads 0.  A replay that disagrees with the untraced
run (keys, work counters, keystream digest) aborts the run with exit
status 1 and no result line.

The line before the result records the Python version, CPU count,
commit, seed, parameters and every sample, raw seconds included, for
diffing against a later run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from inputs import ROOT, WORKLOADS, import_package, make_params, sample_key, to_key

WORKER = os.path.join(os.path.dirname(os.path.abspath(__file__)), "worker.py")
# the whole run, worker jobs included, must end well inside three minutes
HARD_LIMIT_S = 170

SPAN_METRICS = [
    "registers.control_s", "registers.jump_s", "registers.lfsr_s",
    "attack.reconstruct_s", "analysis.bm_s", "attack.verify_s", "attack.jump_s",
    "attack.oracle_s", "generator.keystream_s", "generator.reduce_s",
]
FUNNEL_METRICS = [
    "guesses", "insufficient_bits", "complexity_exceeded", "verify_rejected",
    "verified", "bm_runs", "trace_solves",
]


class BenchError(Exception):
    pass


def run_worker(job: dict, deadline: float) -> dict:
    """Run one job in a fresh interpreter; return its result with the
    set-up time it reported."""
    job = dict(job, spawned=time.monotonic())
    timeout = max(1.0, deadline - time.monotonic())
    # a session of its own, so that a timeout also stops the processes an
    # attack with several workers has started
    with subprocess.Popen([sys.executable, WORKER], cwd=ROOT, text=True,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                          start_new_session=True) as proc:
        try:
            out, _ = proc.communicate(json.dumps(job) + "\n", timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise BenchError(f"worker {job['ops']} exceeded the time limit")
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise BenchError(f"worker {job['ops']} failed with exit status {proc.returncode}")
    result = json.loads(lines[-1])
    result["setup_s"] = json.loads(lines[0])["ready"]
    return result


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                          capture_output=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def totient(q: int) -> int:
    out, p, rest = q, 2, q
    while p * p <= rest:
        if rest % p == 0:
            out -= out // p
            while rest % p == 0:
                rest //= p
        p += 1
    return out - out // rest if rest > 1 else out


def layer_metrics(params, untraced: dict, replayed: dict, ops: list[str]) -> dict:
    """Per-layer figures of one input from its untraced and replayed runs."""
    spans = replayed["spans"]
    total = replayed["total_s"]
    out = {name: spans.get(name, 0.0) for name in SPAN_METRICS}
    funnel = replayed.get("funnel", {})
    for name in FUNNEL_METRICS:
        out["attack." + name] = funnel.get(name, 0)
    out["attack.keys"] = len(replayed.get("keys", []))
    guesses = funnel.get("guesses", 0)
    out["attack.survivor_ratio"] = funnel.get("verified", 0) / guesses if guesses else 0.0
    solves = funnel.get("trace_solves", 0)
    out["attack.jump_ms_per_solve"] = (spans.get("attack.jump_s", 0.0) * 1e3 / solves
                                       if solves else 0.0)
    if "oracle" in ops:
        l, m, n = params.l, params.m, params.n
        candidates = (1 << (l + m + n)) * totient((1 << m) - 1) * totient((1 << n) - 1)
        out["oracle.candidates"] = candidates
        out["oracle.ns_per_candidate"] = spans["attack.oracle_s"] * 1e9 / candidates
    else:
        out["oracle.candidates"] = 0
        out["oracle.ns_per_candidate"] = 0.0
    out["trace.total_s"] = total
    out["trace.coverage"] = sum(spans.values()) / total
    untraced_ref = sum(untraced["times"][op] / untraced["refs"][op] for op in ops)
    out["trace.overhead_frac"] = total / replayed["ref_s"] / untraced_ref - 1
    out.update(replayed["kernels"])
    return out


def check_replay(params, untraced: dict, replayed: dict):
    """The replay must reproduce the untraced run, or no numbers are reported."""
    if "digest" in untraced:
        if replayed["digest"] != untraced["digest"]:
            raise BenchError("replayed keystream differs from keystream()")
        return
    funnel = replayed["funnel"]
    guesses = 1 << (params.l + 1)
    stages = ("insufficient_bits", "complexity_exceeded", "verify_rejected", "verified")
    if funnel["guesses"] != guesses or sum(funnel[s] for s in stages) != guesses:
        raise BenchError(f"replay funnel does not sum to 2^(l+1) = {guesses}: {dict(funnel)}")
    outcomes = ("jump_failed", "soundness_rejected", "recovered")
    if funnel["verified"] != sum(funnel[s] for s in outcomes):
        raise BenchError(f"replay funnel loses verified candidates: {dict(funnel)}")
    counters = untraced["counters"]["attack"]
    expected = {"a_states_tried": guesses // 2, "bm_runs": funnel["bm_runs"],
                "trace_solves": funnel["trace_solves"],
                "verified_candidates": funnel["verified"]}
    if counters != expected:
        raise BenchError(f"replay counters {expected} differ from run_attack's {counters}")
    if replayed["keys"] != untraced["keys"]["attack"]:
        raise BenchError("replay recovered other keys than run_attack")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    start = time.monotonic()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        declared = json.load(f)["per_layer" if args.trace else "end_to_end"]
    asgrs = import_package()
    spec = WORKLOADS[args.workload]
    params = make_params(asgrs, spec["lmn"])
    bits = spec["bits"]
    base = {"workload": args.workload, "lmn": spec["lmn"], "bits": bits,
            "w2": min(2, cpus())}
    deadline, hard_deadline = start + args.seconds, start + HARD_LIMIT_S
    groups = spec["replayed"] if args.trace else spec["workers"]

    samples = defaultdict(list)
    layers = defaultdict(list)
    attempted = failed = 0
    index = 0
    group_s = []
    while True:
        t_group = time.monotonic()
        key = sample_key(args.workload, args.seed, index)
        z = None
        if spec["input"] == "keystream":
            z = "".join(map(str, asgrs.keystream(params, to_key(asgrs, spec["lmn"], key), bits)))
        job = dict(base, key=key, z=z, kernel_seed=args.seed * 1_000_003 + index)
        generated = time.monotonic() - t_group
        results = {}
        for ops in groups:
            res = run_worker(dict(job, ops=ops), hard_deadline)
            samples["setup_s"].append(res["setup_s"] + generated)
            generated = 0.0
            results.update((op, res) for op in ops)
        if "attack_w2" in results and \
                results["attack_w2"]["keys"]["attack_w2"] != results["attack"]["keys"]["attack"]:
            results["attack_w2"]["failures"].setdefault("attack_w2", []).append(
                "keys differ from the one-worker attack's")
        attempted += len(results)
        failed += sum(bool(res["failures"].get(op)) for op, res in results.items())
        primary = results[spec["primary"]]
        samples["peak_rss_mb"].append(primary["rss_mb"])
        for role in ("primary", "secondary"):
            op = spec[role]
            if op in results:
                samples[role + "_s"].append(results[op]["times"][op])
                samples[role + "_ref"].append(results[op]["times"][op] / results[op]["refs"][op])
        if args.trace:
            ops = groups[0]
            replayed = run_worker(dict(job, ops=["replay"]), hard_deadline)
            attempted += 1
            failed += bool(replayed["failures"].get("replay"))
            check_replay(params, primary, replayed)
            for name, value in layer_metrics(params, primary, replayed, ops).items():
                layers[name].append(value)
        index += 1
        group_s.append(time.monotonic() - t_group)
        if time.monotonic() + statistics.median(group_s) > deadline:
            break

    values = layers if args.trace else samples
    missing = [m["name"] for m in declared if not values.get(m["name"])]
    if missing:
        raise BenchError(f"no samples for declared metrics {missing}")
    metrics = {m["name"]: {"value": statistics.median(values[m["name"]]), "unit": m["unit"]}
               for m in declared}
    context = {
        "python": platform.python_version(), "cpus": cpus(), "commit": commit(),
        "seed": args.seed, "workload": args.workload, "params": spec["lmn"],
        "bits": bits, "trace": args.trace, "inputs": index,
        "samples": dict(samples),
        "elapsed_s": time.monotonic() - start,
    }
    print(json.dumps(context))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
