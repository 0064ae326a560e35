"""Acceptance gate: one test per criterion, each printing a pass/fail
line (run with ``pytest tests/test_acceptance.py -v -s`` to see them).
All checks are exact; the stated runtime budgets are asserted too.
"""

import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from qappell.qarith import QPoly, QRat, q_binomial, q_factorial
from qappell.qseries import Series
from qappell.appell import (XPoly, verify_difference_range,
                            verify_lowering_range, verify_recurrence_range)
from qappell.families import FamilyKind, classical_limit, make_family
from qappell.hermite import (hermite_series_form, verify_cross_construction,
                             verify_hermite_difference_range,
                             verify_hermite_generator_ratio,
                             verify_hermite_recurrence_range)
from qappell import render

import helpers
import oracles

FAMILIES = (FamilyKind.BERNOULLI, FamilyKind.EULER,
            FamilyKind.GENOCCHI, FamilyKind.HERMITE)


def _derivative(p: XPoly, k: int) -> XPoly:
    """D^k p, one Jackson derivative at a time."""
    for _ in range(k):
        p = p.q_derivative()
    return p


def _qpow(k: int) -> QPoly:
    return QPoly([0] * k + [1])


@contextmanager
def criterion(number: int, description: str, budget: float | None = None):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number}: FAIL ({description})")
        raise
    elapsed = time.perf_counter() - start
    print(f"criterion {number}: PASS ({description}) [{elapsed:.2f}s]")
    if budget is not None:
        assert elapsed < budget, (
            f"criterion {number} runtime {elapsed:.2f}s exceeds {budget}s")


def test_criterion_1_hermite_table_fidelity():
    with criterion(1, "Hermite table n=0..4 exact", budget=1.0):
        q3 = QPoly((1, 1, 1))
        expected = {
            0: XPoly((1,)),
            1: XPoly((0, 1)),
            2: XPoly((-1, 0, 1)),
            3: XPoly((0, QRat(-q3), 0, QRat(1))),
            4: XPoly((QRat(q3 * _qpow(2)), 0,
                      QRat(-(QPoly((1, 0, 1)) * q3)), 0, QRat(1))),
        }
        for n, want in expected.items():
            assert hermite_series_form(n) == want, n


def test_criterion_2_general_theorems():
    with criterion(2, "a1/a2 zero residuals, 4 families, n<=12, order 24",
                   budget=60.0):
        for kind in FAMILIES:
            fam = make_family(kind, 24)
            rep = verify_recurrence_range(fam, 1, 12)
            assert rep.passed, (kind, "a1", rep.first_failure)
            rep = verify_difference_range(fam, 1, 12)
            assert rep.passed, (kind, "a2", rep.first_failure)


def test_criterion_3_hermite_theorems():
    with criterion(3, "hh1/hh2 n<=20 and generator ratio at order 20",
                   budget=30.0):
        rep = verify_hermite_recurrence_range(20)
        assert rep.passed and rep.n_range == (2, 20), ("hh1", rep.first_failure)
        rep = verify_hermite_difference_range(20)
        assert rep.passed and rep.n_range == (1, 20), ("hh2", rep.first_failure)
        assert verify_hermite_generator_ratio(20).passed


def test_criterion_4_lowering():
    with criterion(4, "lowering chains 0<=k<=n<=12, all families"):
        for kind in FAMILIES:
            fam = make_family(kind, 24)
            rep = verify_lowering_range(fam, 12)
            assert rep.passed, (kind, rep.first_failure)
            # spot-check the single-step contract directly
            d5 = _derivative(fam.polynomial(12), 5)
            assert fam.polynomial(7) == d5.scale(QRat(q_factorial(7), q_factorial(12)))


def test_criterion_5_classical_limits():
    with criterion(5, "q=1 limits against classical oracles"):
        one = Fraction(1)

        bern = oracles.numbers("bernoulli", 10, one)
        assert bern[:5] == [Fraction(1), Fraction(-1, 2), Fraction(1, 6),
                            Fraction(0), Fraction(-1, 30)]
        for n in range(11):
            coeffs = classical_limit(FamilyKind.BERNOULLI, n)
            assert (coeffs[0] if coeffs else Fraction(0)) == bern[n]
            assert coeffs == oracles.poly_coeffs("bernoulli", n, one)

        assert classical_limit(FamilyKind.EULER, 1) == [Fraction(-1, 2), one]
        for n in range(11):
            assert (classical_limit(FamilyKind.EULER, n)
                    == oracles.poly_coeffs("euler", n, one))

        geno = oracles.numbers("genocchi", 8, one)
        assert geno[:7] == [Fraction(0), Fraction(1), Fraction(-1), Fraction(0),
                            Fraction(1), Fraction(0), Fraction(-3)]
        for n in range(9):
            coeffs = classical_limit(FamilyKind.GENOCCHI, n)
            assert (coeffs[0] if coeffs else Fraction(0)) == geno[n]

        for n in range(11):
            assert classical_limit(FamilyKind.HERMITE, n) == oracles.hermite_he(n)


def test_criterion_6_cross_construction_equality():
    with criterion(6, "Hermite generating function vs explicit sum, n<=20"):
        fam = make_family(FamilyKind.HERMITE)
        for n in range(21):
            a = fam.polynomial(n)
            b = hermite_series_form(n)
            assert a == b, n
            assert (render.dumps(render.xpoly_to_json(a))
                    == render.dumps(render.xpoly_to_json(b))), n
        assert verify_cross_construction(20).passed


def test_criterion_7_descriptive_checks_complete():
    with criterion(7, "printed claims 2<=n<=10 + Euler relation n<=8, golden"):
        data = helpers.discrepancy_report(printed_max_n=10, euler_max_n=8)
        claims = [entry["claim"] for entry in data]
        assert claims == ["b1", "b2", "e1[numbers]", "e1[values]", "e2",
                          "g1", "g2", "h0-normalization", "euler-relation"]
        for entry in data:
            assert entry["status"] in ("confirmed", "refuted")
        text = render.dumps(data)
        assert text == render.dumps(helpers.discrepancy_report(
            printed_max_n=10, euler_max_n=8))
        import pathlib
        golden = pathlib.Path(__file__).parent / "golden" / "discrepancy_report.json"
        assert text.encode() == golden.read_bytes()


def test_criterion_8_arithmetic_substrate():
    with criterion(8, "q-binomial laws n<=20 and 200 division round-trips"):
        for n in range(21):
            for k in range(n + 1):
                b = q_binomial(n, k)
                assert b == q_binomial(n, n - k)
                assert b.evaluate(1) == math.comb(n, k)
        for n in range(1, 21):
            for k in range(1, n + 1):
                assert q_binomial(n, k) == (q_binomial(n - 1, k - 1)
                                            + _qpow(k) * q_binomial(n - 1, k))
                assert q_binomial(n, k) == (_qpow(n - k) * q_binomial(n - 1, k - 1)
                                            + q_binomial(n - 1, k))

        rng = random.Random(20260809)
        for _ in range(200):
            order = rng.randint(2, 6)
            a = _random_series(rng, order)
            b = _random_series(rng, order)
            if b.coefficient(0).is_zero():
                b = b + Series.one(order)
            assert (a * b) / b == a


def _random_series(rng: random.Random, order: int) -> Series:
    coeffs = []
    for _ in range(order + 1):
        num = QPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        den = rng.choice([QPoly(1), QPoly((1, 1)), QPoly((0, 1))])
        coeffs.append(QRat(num, den))
    return Series(coeffs)
