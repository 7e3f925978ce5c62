"""Command-line driver.

Subcommands: keygen, keystream, attack, analyze, estimate, oracle,
reduce.  Exit codes: 0 on success, 1 on domain failures (validation
errors, no key recovered, oracle cap), 2 on usage errors.
"""

from __future__ import annotations

import argparse
import random
import sys

from . import formats
from .analysis import berlekamp_massey, measure_period
from .attack import AttackConfig, run_attack
from .complexity import (
    ComplexityInputs,
    attack_complexity,
    estimate_table1,
    estimate_table2,
)
from .errors import KeyValidationError
from .generator import (
    classical_asg_keystream,
    keystream,
    random_key,
    reduce_to_classical,
    validate,
)
from .oracle import brute_force_oracle


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 1


def cmd_keygen(args) -> int:
    params = formats.read_params(args.params, strict=args.strict)
    try:
        key = random_key(params, random.Random(args.seed))
    except KeyValidationError as e:
        return _fail(f"invalid params: {e}")
    violations = validate(params, key)
    if violations:
        return _fail("generated key failed validation: " + "; ".join(violations))
    formats.write_key(args.out, key)
    return 0


def cmd_keystream(args) -> int:
    if args.count < 0:
        return _fail(f"--count must not be negative, got {args.count}")
    params = formats.read_params(args.params, strict=args.strict)
    key = formats.read_key(args.key, params)
    formats.write_bits(args.out, keystream(params, key, args.count), fmt=args.format)
    return 0


def cmd_attack(args) -> int:
    params = formats.read_params(args.params, strict=args.strict)
    bits = formats.read_bits(args.infile)
    report = run_attack(AttackConfig(
        params=params,
        keystream=bits,
        max_candidates=args.max_candidates,
        worker_count=args.workers,
    ))
    formats.write_report(args.out, report)
    print(f"recovered {len(report.recovered_keys)} key(s) after trying "
          f"{report.counters.a_states_tried} control states",
          file=sys.stderr)
    return 0 if report.recovered_keys else 1


def cmd_analyze(args) -> int:
    bits = formats.read_bits(args.infile)
    fit = berlekamp_massey(bits)
    period = measure_period(bits)
    formats.write_json(args.out, {
        "length": len(bits),
        "linear_complexity": fit.linear_complexity,
        "connection_poly": f"0x{fit.connection.mask:x}",
        "period": period,
    })
    return 0


def cmd_estimate(args) -> int:
    inputs = ComplexityInputs(args.l, args.m, args.n)

    def rows(table):
        return [
            {
                "attack": row.attack_name,
                "mklr_log2": None if row.mklr_log2 is None else round(row.mklr_log2, 4),
                "complexity_log2": round(row.complexity_log2, 4),
                "flagged_inconsistent": row.flagged,
            }
            for row in table
        ]

    formats.write_json(args.out, {
        "l": args.l,
        "m": args.m,
        "n": args.n,
        "classic_asg_attacks": rows(estimate_table1(inputs)),
        "asg_rs_attacks": rows(estimate_table2(inputs)),
        "key_recovery_log2": round(attack_complexity(inputs), 4),
    })
    return 0


def cmd_oracle(args) -> int:
    params = formats.read_params(args.params, strict=args.strict)
    bits = formats.read_bits(args.infile)
    keys = brute_force_oracle(params, bits)
    formats.write_json(args.out, {"count": len(keys),
                                  "keys": [formats.key_to_dict(k) for k in keys]})
    return 0


def cmd_reduce(args) -> int:
    if args.count < 1:
        return _fail(f"--count must be at least 1, got {args.count}")
    params = formats.read_params(args.params, strict=args.strict)
    key = formats.read_key(args.key, params)
    model = reduce_to_classical(params, key)
    original = keystream(params, key, args.count)
    replayed = classical_asg_keystream(model, args.count)
    equivalent = replayed == original
    formats.write_json(args.out, {
        "beta_feedback": f"0x{model.beta_spec.feedback.mask:x}",
        "beta_state": f"0x{model.beta_state.mask:x}",
        "lambda_feedback": f"0x{model.lambda_spec.feedback.mask:x}",
        "lambda_state": f"0x{model.lambda_state.mask:x}",
        "control_base": f"0x{model.control.base.feedback.mask:x}",
        "control_state": f"0x{model.control.state.mask:x}",
        "equivalence_bits_checked": args.count,
        "equivalent": equivalent,
    })
    return 0 if equivalent else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="asgrs",
        description="ASG(r,s) keystream generation, model reduction and key recovery",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--params", required=True, help="params JSON file")
        p.add_argument("--strict", action=argparse.BooleanOptionalAction,
                       default=True, help="enforce the gcd constraints")

    p = sub.add_parser("keygen", help="sample a uniformly random valid key")
    add_common(p)
    p.add_argument("--out", required=True, help="key JSON output path")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_keygen)

    p = sub.add_parser("keystream", help="generate keystream bits")
    add_common(p)
    p.add_argument("--key", required=True)
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--format", choices=("text", "binary"), default="text")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_keystream)

    p = sub.add_parser("attack", help="run the key-recovery attack")
    add_common(p)
    p.add_argument("--in", dest="infile", required=True, help="keystream file")
    p.add_argument("--out", help="report JSON output path")
    p.add_argument("--workers", type=int, default=1,
                   help="sweep processes, at most one per usable CPU; a "
                        "sweep that fits in one chunk runs in this process")
    p.add_argument("--max-candidates", type=int, default=16)
    p.set_defaults(func=cmd_attack)

    p = sub.add_parser("analyze", help="linear complexity and period of a bitstream")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("estimate", help="evaluate the attack-cost tables")
    p.add_argument("l", type=int)
    p.add_argument("m", type=int)
    p.add_argument("n", type=int)
    p.add_argument("--out")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("oracle", help="exhaustive search for all matching keys")
    add_common(p)
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("reduce", help="reduce a key to the classical-generator model")
    add_common(p)
    p.add_argument("--key", required=True)
    p.add_argument("--count", type=int, default=1000,
                   help="bits over which to confirm keystream equivalence")
    p.add_argument("--out")
    p.set_defaults(func=cmd_reduce)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as e:
        return _fail(f"cannot open {e.filename}: {e.strerror}")
    # commands leave their domain errors to this one report
    except (ValueError, KeyError) as e:
        return _fail(str(e))


if __name__ == "__main__":
    sys.exit(main())
