"""Cryptanalysis workbench for the alternating step generator with
secret jump sizes, ASG(r,s): keystream generation, reduction to the
classical generator, algebraic key recovery, brute-force oracles and
attack-cost estimation."""

from .analysis import berlekamp_massey
from .attack import (
    AttackConfig,
    AttackCounters,
    CandidateModel,
    reconstruct_streams,
    recover_decimation,
    run_attack,
    suggested_keystream_length,
    verify_candidate,
)
from .field import field_context
from .generator import (
    AsgKey,
    AsgParams,
    classical_asg_keystream,
    keystream,
    random_key,
    reduce_to_classical,
)
from .gf2 import BitMatrix, BitVector, invert, rank
from .oracle import brute_force_oracle

__version__ = "0.1.0"
