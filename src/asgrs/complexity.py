"""Closed-form attack-cost estimates for the ASG family, in log2 units.

Two published comparison tables are evaluated: one for attacks on the
classical alternating step generator, one for attacks on the variant
with secret jump sizes.  Big-O constants are taken as 1 throughout,
which is how the reference figures at l = m = n = 64 were evidently
produced.  Three rows of the second table carry reference figures that
do not follow from their own cost formulas under any constant; a row
is flagged, not fudged to match, where its formula misses its published
figure by more than 0.5 at that point.
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
    inconsistent with the row's own formula at l = m = n = 64, whatever
    the inputs; the value reported here is always the formula's.
    """

    attack_name: str
    mklr_log2: float | None
    complexity_log2: float
    flagged: bool


# (name, mklr, complexity, published value at l = m = n = 64)
_TABLE1: list[tuple[str, Callable, Callable, float]] = [
    ("Edit Distance Correlation",
     lambda c: math.log2(c.m + c.n),
     lambda c: math.log2(c.m + c.n) + (c.m + c.n),
     135.0),
    ("Clock Control Guessing",
     lambda c: math.log2(c.total_length),
     lambda c: 3 * math.log2(c.total_length) + c.total_length / 2,
     118.8),
    ("Algebraic Attack",
     lambda c: math.log2(c.m + c.n),
     lambda c: math.log2(c.m ** 3 + c.n ** 3) + c.l,
     83.0),
    ("Edit Probability Correlation",
     lambda c: math.log2(c.m + c.n),
     lambda c: 2 * math.log2(c.max_generator) + c.max_generator,
     76.0),
    ("Khazaei Reduced Complexity",
     lambda c: math.log2(2 * c.m),
     lambda c: 2 * math.log2(c.m) + c.gamma * c.m,
     71.8),
    ("Improved Edit Distance Correlation",
     lambda c: math.log2(c.max_generator),
     lambda c: math.log2(c.max_generator) + c.max_generator,
     70.0),
    ("Linear Consistency",
     None,
     lambda c: math.log2(min(c.m, c.n)) + c.l,
     70.0),
    ("Johansson Reduced Complexity",
     lambda c: 2 * c.m / 3,
     lambda c: 2 * math.log2(c.m) + 2 * c.m / 3,
     54.7),
    ("ASG(r,s) Algebraic Key Recovery",
     lambda c: math.log2(3 * (c.m + c.n)),
     lambda c: math.log2(c.m ** 2 + c.n ** 2) + c.l + 1,
     78.0),
]

_TABLE2: list[tuple[str, Callable, Callable, float]] = [
    ("Clock Control Guessing",
     lambda c: math.log2(c.total_length),
     lambda c: 3 * math.log2(c.total_length) + (c.total_length + 2 * c.m + 2 * c.n - 4) / 2,
     566.0),
    ("Edit Distance Correlation",
     lambda c: math.log2(c.m + c.n),
     lambda c: math.log2(c.m + c.n) + 2 * (c.m + c.n) - 2,
     261.0),
    ("Algebraic Attack",
     lambda c: math.log2(c.m + c.n),
     lambda c: math.log2(c.m ** 3 + c.n ** 3) + c.total_length - 2,
     209.0),
    ("Edit Probability Correlation",
     lambda c: math.log2(c.m + c.n),
     lambda c: 2 * math.log2(c.max_generator) + c.max_generator + c.m + c.n - 2,
     202.0),
    ("Improved Edit Distance Correlation",
     lambda c: math.log2(c.max_generator),
     lambda c: math.log2(c.max_generator) + c.max_generator + c.m + c.n - 2,
     196.0),
    ("Linear Consistency",
     None,
     lambda c: math.log2(min(c.m, c.n)) + 3 * c.l - 2,
     196.0),
    ("Khazaei Reduced Complexity",
     lambda c: math.log2(2 * c.m),
     lambda c: 2 * math.log2(c.m) + (c.gamma + 2) * (c.m - 2),
     167.5),
    ("Johansson Reduced Complexity",
     lambda c: 2 * c.m / 3,
     lambda c: 2 * math.log2(c.m) + 8 * c.m / 3 - 2,
     153.5),
    ("ASG(r,s) Algebraic Key Recovery",
     lambda c: math.log2(3 * (c.m + c.n)),
     lambda c: attack_complexity(c),
     82.0),
]

# where the published figures were taken
_PUBLISHED_AT = ComplexityInputs(64, 64, 64)


def _rows(table, inputs: ComplexityInputs) -> list[EstimateRow]:
    """The table's rows at `inputs`, flagged where the formula misses the
    published figure by more than 0.5 at the point it was taken."""
    return [EstimateRow(name, None if mklr is None else mklr(inputs), cost(inputs),
                        abs(cost(_PUBLISHED_AT) - published) > 0.5)
            for name, mklr, cost, published in table]


def estimate_table1(inputs: ComplexityInputs) -> list[EstimateRow]:
    """Costs of the known attacks against the classical generator."""
    return _rows(_TABLE1, inputs)


def estimate_table2(inputs: ComplexityInputs) -> list[EstimateRow]:
    """Costs of the known attacks against the secret-jump variant."""
    return _rows(_TABLE2, inputs)


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
