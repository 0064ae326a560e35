import sys
import threading
from fractions import Fraction
from functools import lru_cache

import pytest

from qappell.qarith import (QPoly, QRat, QRAT_Q, QRAT_ZERO,
                            q_double_factorial_even, q_factorial)
from qappell import families
from qappell.qseries import Series, eq_exponential
from qappell.appell import XPoly, _qf, _qi, _qp, difference_form
from qappell.families import (DiscrepancyReport, FamilyKind, _e1_residual,
                              classical_limit, euler_number_series, euler_numbers,
                              first_counterexample, make_family,
                              verify_printed_theorem)
from qappell.hermite import hermite_series_form

import oracles

Q2 = QPoly((1, 1))


def test_make_family_examples():
    bern = make_family(FamilyKind.BERNOULLI, 10)
    nums = bern.numbers(1)
    assert nums == (QRat(1), QRat(QPoly(-1), Q2))

    eul = make_family(FamilyKind.EULER, 10)
    assert eul.numbers(0)[0] == QRat(1)

    herm = make_family(FamilyKind.HERMITE, 10)
    assert herm.generator.coefficient(2) == QRat(QPoly(-1), Q2)
    for odd in (1, 3, 5, 7, 9):
        assert herm.generator.coefficient(odd).is_zero()


def test_make_family_order_validation():
    with pytest.raises(ValueError):
        make_family(FamilyKind.BERNOULLI, 1)


def test_make_family_is_one_family_per_kind_whatever_the_spelling():
    from qappell.families import MAX_ORDER
    for kind in FamilyKind:
        shared = make_family(kind)
        assert make_family(kind.value) is shared
        assert make_family(kind, MAX_ORDER) is shared
        assert make_family(kind.value, MAX_ORDER) is shared
        assert make_family(kind.value, 10) is make_family(kind, 10) is not shared


def _first_calls(call, threads=6):
    # Every thread makes its first call at once, switching often.
    barrier = threading.Barrier(threads)
    got = []

    def run():
        barrier.wait()
        got.append(call())

    workers = [threading.Thread(target=run) for _ in range(threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert len(got) == threads
    return got


def test_concurrent_first_calls_share_one_family(monkeypatch):
    for _ in range(20):
        for name in ("make_family", "_family", "_euler_number_family"):
            cold = lru_cache(maxsize=None)(getattr(families, name).__wrapped__)
            monkeypatch.setattr(families, name, cold)
        shared = _first_calls(lambda: families.make_family(FamilyKind.EULER))
        assert all(fam is shared[0] for fam in shared)
        _first_calls(lambda: families.euler_numbers(2))
        assert families._euler_number_family.cache_info().misses == 1


def test_make_family_matches_numeric_generator():
    q0 = Fraction(2, 5)
    for kind in FamilyKind:
        fam = make_family(kind, 8)
        numeric = oracles.generator(kind.value, 8, q0)
        assert [c.evaluate(q0) for c in fam.generator.coeffs] == numeric


def _division_generator(kind: FamilyKind, order: int) -> Series:
    """The generator as truncated Series division builds it, the reference
    for the divided-power solves."""
    if kind is FamilyKind.BERNOULLI:
        # The divisor has valuation 1, so divide one order higher.
        den = eq_exponential(order + 1) - Series.one(order + 1)
        return Series.monomial(order + 1, 1) / den
    if kind is FamilyKind.EULER:
        return Series.constant(2, order) / (eq_exponential(order) + Series.one(order))
    if kind is FamilyKind.GENOCCHI:
        return Series.monomial(order, 1, 2) / (eq_exponential(order) + Series.one(order))
    coeffs = [QRat(0)] * (order + 1)
    for m in range(order // 2 + 1):
        num = QPoly([0] * (m * (m - 1)) + [1])
        coeffs[2 * m] = QRat(-num if m % 2 else num, q_double_factorial_even(m))
    return Series(coeffs)


def _times_t(s: Series) -> Series:
    return Series((QRAT_ZERO,) + s.coeffs)


def _truncate(s: Series, order: int) -> Series:
    return Series(s.coeffs[: order + 1])


def _times_q_factorial(series: Series) -> tuple:
    return tuple(c * QRat(q_factorial(n)) for n, c in enumerate(series.coeffs))


@pytest.mark.parametrize("kind", list(FamilyKind))
def test_divided_power_solves_match_series_division(kind):
    order = 24
    gen = _division_generator(kind, order)
    fam = make_family(kind, order)
    assert fam.numbers(order) == _times_q_factorial(gen)
    # alpha quotient t D_q A(t) / A(qt), truncated where it covers alpha_23
    need = order if fam.shifted else order - 1
    quotient = (_truncate(_times_t(gen.q_derivative()), need)
                / _truncate(gen.scale_arg(QRAT_Q), need))
    assert fam.alphas(order - 1) == _times_q_factorial(quotient)
    assert fam.generator.coeffs == gen.coeffs


def test_euler_numbers_match_series_division():
    num = _times_t(eq_exponential(12))
    den = eq_exponential(13).scale_arg(2) - Series.one(13)
    assert tuple(euler_numbers(12)) == _times_q_factorial(num / den)


def test_euler_number_series_examples():
    series = euler_number_series(8)
    assert series.order == 8
    nums = euler_numbers(8)
    assert len(nums) == 9
    assert nums[0] == QRat(Fraction(1, 2))
    assert nums[0].evaluate(1) == Fraction(1, 2)
    # classical oracle for the printed generator t e^t/(e^{2t} - 1)
    e = oracles.exp_series(9, Fraction(1))
    num = oracles.ser_mul(oracles.t_series(9), e)
    den = [c * 2 ** n for n, c in enumerate(e)]
    den[0] -= 1
    quot = oracles.ser_div(num, den)
    for n in range(9):
        assert nums[n].evaluate(1) == oracles.qfact(n, Fraction(1)) * quot[n]


def test_classical_limit_bernoulli_numbers():
    expected = oracles.bernoulli_numbers_classical(10)
    # spot values stated independently of the oracle
    assert expected[:5] == [Fraction(1), Fraction(-1, 2), Fraction(1, 6),
                            Fraction(0), Fraction(-1, 30)]
    for n in range(11):
        coeffs = classical_limit(FamilyKind.BERNOULLI, n)
        constant = coeffs[0] if coeffs else Fraction(0)
        assert constant == expected[n]
        assert coeffs == oracles.poly_coeffs("bernoulli", n, Fraction(1))


def test_classical_limit_euler_polynomials():
    assert classical_limit(FamilyKind.EULER, 1) == [Fraction(-1, 2), Fraction(1)]
    for n in range(11):
        assert (classical_limit(FamilyKind.EULER, n)
                == oracles.euler_poly_classical(n))


def test_classical_limit_genocchi_numbers():
    expected = oracles.genocchi_numbers_classical(8)
    assert expected[:7] == [Fraction(0), Fraction(1), Fraction(-1), Fraction(0),
                            Fraction(1), Fraction(0), Fraction(-3)]
    for n in range(9):
        coeffs = classical_limit(FamilyKind.GENOCCHI, n)
        constant = coeffs[0] if coeffs else Fraction(0)
        assert constant == expected[n]


def test_classical_limit_hermite():
    assert classical_limit(FamilyKind.HERMITE, 4) == [Fraction(3), Fraction(0),
                                                      Fraction(-6), Fraction(0),
                                                      Fraction(1)]
    for n in range(11):
        assert classical_limit(FamilyKind.HERMITE, n) == oracles.hermite_he(n)


def test_hermite_family_agrees_with_series_form():
    fam = make_family(FamilyKind.HERMITE, 20)
    for n in range(21):
        assert fam.polynomial(n) == hermite_series_form(n)


def test_printed_theorem_validation():
    with pytest.raises(ValueError):
        verify_printed_theorem("z9", 3)
    with pytest.raises(ValueError):
        verify_printed_theorem("e1[bogus]", 3)
    rep = verify_printed_theorem("b1", 1)
    assert rep.status == "inapplicable"


def test_printed_theorem_is_descriptive_and_deterministic():
    # must complete (and agree across reruns) whatever the statuses are
    for tid in ("b1", "b2", "e2", "g1", "g2"):
        first = verify_printed_theorem(tid, 8)
        second = verify_printed_theorem(tid, 8)
        assert first == second
        assert first.status in ("confirmed", "refuted")
    for reading in ("numbers", "values"):
        rep = verify_printed_theorem(f"e1[{reading}]", 8)
        assert rep.claim_id == f"e1[{reading}]"
        assert rep.status in ("confirmed", "refuted")


def test_printed_theorem_refutations_record_counterexamples():
    for tid in ("e1[numbers]", "e1[values]", "e2"):
        rep = verify_printed_theorem(tid, 8)
        if rep.status == "refuted":
            assert rep.counterexample_n is not None
            assert rep.residual is not None and not rep.residual.is_zero()


def test_first_counterexample_stops_at_the_first_nonzero_residual():
    seen = []

    def residual(n):
        seen.append(n)
        return XPoly((n - 3,)) if n >= 3 else XPoly()

    rep = first_counterexample("c", range(1, 9), residual)
    assert rep == DiscrepancyReport("c", "refuted", 4, XPoly((1,)))
    assert seen == [1, 2, 3, 4]
    assert first_counterexample("c", range(1, 4), residual).status == "confirmed"
    assert first_counterexample("c", range(2, 2), residual).status == "inapplicable"


def test_euler_number_relation_report():
    rep = verify_printed_theorem("euler-relation", 8)
    assert isinstance(rep, DiscrepancyReport)
    assert rep.claim_id == "euler-relation"
    assert rep == verify_printed_theorem("euler-relation", 8)
    # the two sides at n = 0 are 1/2 and 1, so the claim cannot be confirmed
    assert euler_numbers(0)[0] == QRat(Fraction(1, 2))
    eul = make_family(FamilyKind.EULER, 8)
    assert eul.polynomial(0).evaluate_x(Fraction(1, 2)) == QRat(1)
    assert rep.status == "refuted" and rep.counterexample_n == 0


def test_polynomial_side_matches_classical_euler_numbers_at_q1():
    # 2^n E_n(1/2) at q = 1 equals the classical Euler numbers
    expected = oracles.euler_numbers_classical(8)
    assert expected[:5] == [Fraction(1), Fraction(0), Fraction(-1), Fraction(0),
                            Fraction(5)]
    eul = make_family(FamilyKind.EULER, 10)
    for n in range(9):
        value = eul.polynomial(n).evaluate_x(Fraction(1, 2)) * QRat(2 ** n)
        assert value.evaluate(1) == expected[n]


# The corrected Euler errata: a1 and a2 with the Euler alphas
# alpha_k = -delta_{k1} + [k]_q E_{k-1,q}(0) / 2 substituted.  The printed
# e1 and e2 stay refuted as printed; these forms hold.

def test_corrected_e1_values_reading_holds():
    # The values reading of e1 plus q^(n-1) E_{n-1,q}(x), the delta_{k1}
    # term of alpha_1 = -1/2.
    fam = make_family(FamilyKind.EULER)
    for n in range(2, 25):
        e1 = _e1_residual(fam, n, fam.numbers(n))
        assert (e1 + fam.polynomial(n - 1).scale(_qp(n - 1))).is_zero(), n


def test_corrected_e2_reads_the_euler_polynomials_at_zero():
    # e2 with E_{k-1,q}(0) = A_{k-1} in place of the printed e_{k-1,q}.
    fam = make_family(FamilyKind.EULER)
    for n in range(2, 25):
        a = fam.numbers(n)
        assert difference_form(fam, n, -_qi(n), _qp(n), [
            (1, -_qp(n - 1) / 2),
            *((k, _qp(n - k) * a[k - 1] / (_qf(k - 1) * 2)) for k in range(2, n + 1)),
        ]).is_zero(), n
