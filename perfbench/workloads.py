"""The three benchmark workloads and the inputs they draw from a seed.

verify-all   one ``qappell verify --scope all --max-n 12`` at the
             default order: every layer, the ROADMAP headline run.
tables-deep  ``numbers --max-n 24``, ``alpha --max-n 23`` and
             ``poly --n 24`` for each family: series division and
             generator build, large JSON rendering, no residual code.
eval-points  in-process ``fam.polynomial(n).evaluate(q0, x0)`` at
             seeded positive rational points over families built at
             order 16: the cached read path.

The seed picks the order of the CLI operations and the evaluation
points; qappell only ever sees the generated arguments.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

FAMILIES = ("bernoulli", "euler", "genocchi", "hermite")

CLI_OPS = {
    "verify-all": [("verify", "--scope", "all", "--max-n", "12")],
    "tables-deep": [op for fam in FAMILIES for op in (
        ("numbers", "--family", fam, "--max-n", "24"),
        ("alpha", "--family", fam, "--max-n", "23"),
        ("poly", "--family", fam, "--n", "24"))],
}

WORKLOADS = ("verify-all", "tables-deep", "eval-points")

EVAL_ORDER = 16
EVAL_DEGREES = range(EVAL_ORDER + 1)
EVAL_PER_DEGREE = 40       # points per (family, degree) in one pass
EVAL_CHECKS_PER_PASS = 8   # evaluations per pass checked against the oracle
_POINT_BITS = 8            # numerators and denominators have exactly 8 bits


def cli_ops(workload: str, seed: int) -> list[tuple[str, ...]]:
    """The workload's CLI operations in the seed's order."""
    ops = list(CLI_OPS[workload])
    random.Random(f"{workload}:{seed}").shuffle(ops)
    return ops


def _positive_rational(rng: random.Random) -> Fraction:
    # Reduced p/q with p, q of fixed bit length keeps the cost of an
    # evaluation independent of the seed; q = 1 is excluded because it
    # is the one positive root a q-integer factor could have.
    low, high = 1 << (_POINT_BITS - 1), (1 << _POINT_BITS) - 1
    while True:
        p, q = rng.randint(low, high), rng.randint(low, high)
        if p != q and gcd(p, q) == 1:
            return Fraction(p, q)


def eval_inputs(seed: int, pass_index: int,
                per_degree: int = EVAL_PER_DEGREE) -> list[tuple]:
    """One pass of (family, n, q0, x0): per_degree points for every
    family and degree 0..EVAL_ORDER, shuffled.  The first
    EVAL_CHECKS_PER_PASS entries are the ones checked afterwards."""
    rng = random.Random(f"eval-points:{seed}:{pass_index}")
    ops = [(fam, n, _positive_rational(rng), _positive_rational(rng))
           for fam in FAMILIES for n in EVAL_DEGREES for _ in range(per_degree)]
    rng.shuffle(ops)
    return ops


def eval_setup() -> dict:
    """Build the four families at EVAL_ORDER and fill their polynomial
    and alpha caches, as a long-lived reader of the library would."""
    from qappell import families

    fams = {}
    for name in FAMILIES:
        fam = families.make_family(families.FamilyKind(name), EVAL_ORDER)
        for n in EVAL_DEGREES:
            fam.polynomial(n)
        fam.alphas(EVAL_ORDER - 1)
        fams[name] = fam
    return fams
