"""Closed-form attack-cost estimates for the ASG family, in log2 units.

Two published comparison tables are evaluated: one for attacks on the
classical alternating step generator, one for attacks on the variant
with secret jump sizes.  Big-O constants are taken as 1 throughout,
which is how the reference figures at l = m = n = 64 were evidently
produced.  Three rows of the second table carry reference figures that
do not follow from their own cost formulas under any constant; those
rows are flagged rather than fudged to match.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class ComplexityInputs:
    """Register lengths plus the derived quantities the formulas use.

    Derived values are properties so they can never go stale.
    """

    l: int
    m: int
    n: int

    def __post_init__(self):
        if min(self.l, self.m, self.n) < 2:
            raise ValueError("register lengths must be at least 2")
        # the formulas work in floats, on values up to about 3(l + m + n)
        if 4 * (self.l + self.m + self.n) > sys.float_info.max:
            raise ValueError("register lengths are too large for the cost formulas")

    @property
    def total_length(self) -> int:
        """L = l + m + n."""
        return self.l + self.m + self.n

    @property
    def max_generator(self) -> int:
        """M = max(m, n)."""
        return max(self.m, self.n)

    @property
    def gamma(self) -> float:
        return 1.0 - 1.0 / (0.19 * self.m + 3.1)


@dataclass(frozen=True)
class EstimateRow:
    """One table row: attack name, keystream requirement and cost in log2.

    ``mklr_log2`` is None where the source table leaves the requirement
    blank.  ``flagged`` marks rows whose published reference figure is
    inconsistent with the row's own formula; the value reported here is
    always the formula's.
    """

    attack_name: str
    mklr_log2: float | None
    complexity_log2: float
    flagged: bool = False


def _lg(x: float) -> float:
    return math.log2(x)


# (name, mklr, complexity, reference value at l=m=n=64, flagged)
_TABLE1: list[tuple[str, Callable, Callable, float, bool]] = [
    ("Edit Distance Correlation",
     lambda c: _lg(c.m + c.n),
     lambda c: _lg(c.m + c.n) + (c.m + c.n),
     135.0, False),
    ("Clock Control Guessing",
     lambda c: _lg(c.total_length),
     lambda c: 3 * _lg(c.total_length) + c.total_length / 2,
     118.8, False),
    ("Algebraic Attack",
     lambda c: _lg(c.m + c.n),
     lambda c: _lg(c.m ** 3 + c.n ** 3) + c.l,
     83.0, False),
    ("Edit Probability Correlation",
     lambda c: _lg(c.m + c.n),
     lambda c: 2 * _lg(c.max_generator) + c.max_generator,
     76.0, False),
    ("Khazaei Reduced Complexity",
     lambda c: _lg(2 * c.m),
     lambda c: 2 * _lg(c.m) + c.gamma * c.m,
     71.8, False),
    ("Improved Edit Distance Correlation",
     lambda c: _lg(c.max_generator),
     lambda c: _lg(c.max_generator) + c.max_generator,
     70.0, False),
    ("Linear Consistency",
     None,
     lambda c: _lg(min(c.m, c.n)) + c.l,
     70.0, False),
    ("Johansson Reduced Complexity",
     lambda c: 2 * c.m / 3,
     lambda c: 2 * _lg(c.m) + 2 * c.m / 3,
     54.7, False),
    ("ASG(r,s) Algebraic Key Recovery",
     lambda c: _lg(3 * (c.m + c.n)),
     lambda c: _lg(c.m ** 2 + c.n ** 2) + c.l + 1,
     78.0, False),
]

_TABLE2: list[tuple[str, Callable, Callable, float, bool]] = [
    ("Clock Control Guessing",
     lambda c: _lg(c.total_length),
     lambda c: 3 * _lg(c.total_length) + (c.total_length + 2 * c.m + 2 * c.n - 4) / 2,
     566.0, True),
    ("Edit Distance Correlation",
     lambda c: _lg(c.m + c.n),
     lambda c: _lg(c.m + c.n) + 2 * (c.m + c.n) - 2,
     261.0, False),
    ("Algebraic Attack",
     lambda c: _lg(c.m + c.n),
     lambda c: _lg(c.m ** 3 + c.n ** 3) + c.total_length - 2,
     209.0, False),
    ("Edit Probability Correlation",
     lambda c: _lg(c.m + c.n),
     lambda c: 2 * _lg(c.max_generator) + c.max_generator + c.m + c.n - 2,
     202.0, False),
    ("Improved Edit Distance Correlation",
     lambda c: _lg(c.max_generator),
     lambda c: _lg(c.max_generator) + c.max_generator + c.m + c.n - 2,
     196.0, False),
    ("Linear Consistency",
     None,
     lambda c: _lg(min(c.m, c.n)) + 3 * c.l - 2,
     196.0, False),
    ("Khazaei Reduced Complexity",
     lambda c: _lg(2 * c.m),
     lambda c: 2 * _lg(c.m) + (c.gamma + 2) * (c.m - 2),
     167.5, True),
    ("Johansson Reduced Complexity",
     lambda c: 2 * c.m / 3,
     lambda c: 2 * _lg(c.m) + 8 * c.m / 3 - 2,
     153.5, True),
    ("ASG(r,s) Algebraic Key Recovery",
     lambda c: _lg(3 * (c.m + c.n)),
     lambda c: attack_complexity(c),
     82.0, False),
]

def _rows(table, inputs: ComplexityInputs) -> list[EstimateRow]:
    out = []
    for name, mklr, cost, _ref, flagged in table:
        out.append(EstimateRow(
            attack_name=name,
            mklr_log2=None if mklr is None else mklr(inputs),
            complexity_log2=cost(inputs),
            flagged=flagged,
        ))
    return out


def estimate_table1(inputs: ComplexityInputs) -> list[EstimateRow]:
    """Costs of the known attacks against the classical generator."""
    return _rows(_TABLE1, inputs)


def estimate_table2(inputs: ComplexityInputs) -> list[EstimateRow]:
    """Costs of the known attacks against the secret-jump variant."""
    return _rows(_TABLE2, inputs)


def reference_values_table1() -> list[float]:
    return [ref for *_x, ref, _f in _TABLE1]


def reference_values_table2() -> list[float]:
    return [ref for *_x, ref, _f in _TABLE2]


def attack_complexity(inputs: ComplexityInputs) -> float:
    """log2 of (m^2 + n^2) 2^(l+1) + m^3 2^(m-1) + n^3 2^(n-1), the
    paper's cost of its attack.

    The first term is the control-state sweep with its two stream fits.
    The second and third are the paper's jump recovery, which tries the
    admissible jump sizes of each register one at a time with an m x m
    (or n x n) trace-system solve each.  `run_attack` recovers each jump
    in time polynomial in m instead, by a root and a discrete log, so
    only its sweep is exponential; this estimate keeps the paper's
    formula.  The sum is taken in log space, so the cost does not grow
    with the register lengths.
    """
    l, m, n = inputs.l, inputs.m, inputs.n
    terms = [math.log2(m * m + n * n) + l + 1,
             math.log2(m ** 3) + m - 1,
             math.log2(n ** 3) + n - 1]
    top = max(terms)
    return top + math.log2(sum(2.0 ** (t - top) for t in terms))
