from fractions import Fraction

import pytest

from qappell.qarith import QPoly, QRat, QRAT_Q, q_integer
from qappell.appell import XPoly
from qappell.families import FamilyKind, make_family, verify_printed_theorem
from qappell.hermite import (hermite_series_form, printed_series_form,
                             recurrence_residual, verify_cross_construction,
                             verify_hermite_difference_range,
                             verify_hermite_generator_ratio,
                             verify_hermite_recurrence_range)

import oracles

Q3 = QPoly((1, 1, 1))   # [3]_q


def _qpow(k: int) -> QPoly:
    return QPoly([0] * k + [1])


def test_series_form_small_table():
    # H_0 .. H_4 as listed: coefficients are explicit q-polynomials
    assert hermite_series_form(0) == XPoly((1,))
    assert hermite_series_form(1) == XPoly((0, 1))
    assert hermite_series_form(2) == XPoly((-1, 0, 1))
    assert hermite_series_form(3) == XPoly((0, QRat(-Q3), 0, QRat(1)))
    one_plus_q2 = QPoly((1, 0, 1))
    assert hermite_series_form(4) == XPoly((QRat(Q3 * _qpow(2)), 0,
                                            QRat(-(one_plus_q2 * Q3)), 0, QRat(1)))


def test_printed_form_misses_normalization():
    # the bare sum times [n]_q! equals the polynomial; bare alone does not
    for n in range(8):
        scaled = printed_series_form(n).scale(QRat(oracle_fact(n)))
        assert scaled == hermite_series_form(n)
    rep = verify_printed_theorem("h0-normalization", 8)
    assert rep.status == "refuted" and rep.counterexample_n == 2


def oracle_fact(n):
    from qappell.qarith import q_factorial
    return q_factorial(n)


def test_recurrence_small_case_by_hand():
    # n = 2: H_2(qx) = q^2 x^2 - 1 and x q^2 H_1 - [1] q^0 H_0 agree
    fam = make_family(FamilyKind.HERMITE)
    lhs = fam.polynomial(2).scale_x(QRAT_Q)
    assert lhs == XPoly((-1, 0, QRat(_qpow(2))))
    rhs = (fam.polynomial(1).times_x().scale(QRat.q_power(2))
           - fam.polynomial(0))
    assert lhs == rhs
    assert recurrence_residual(fam, 2).is_zero()


def test_recurrence_reproduces_h4():
    rep = verify_hermite_recurrence_range(4)
    assert rep.passed and rep.n_range == (2, 4)
    assert recurrence_residual(make_family(FamilyKind.HERMITE), 4).is_zero()


def test_recurrence_range():
    rep = verify_hermite_recurrence_range(20)
    assert rep.passed and rep.n_range == (2, 20)
    assert len(rep.residuals) == 19
    with pytest.raises(ValueError):
        verify_hermite_recurrence_range(1)


def test_difference_small_and_range():
    assert verify_hermite_difference_range(1).passed
    assert verify_hermite_difference_range(2).passed
    rep = verify_hermite_difference_range(20)
    assert rep.passed and rep.n_range == (1, 20)
    with pytest.raises(ValueError):
        verify_hermite_difference_range(0)


def test_generator_ratio():
    assert verify_hermite_generator_ratio(2).passed
    rep = verify_hermite_generator_ratio(20)
    assert rep.passed and rep.first_failure is None


def test_generator_classical_limit_is_gaussian():
    # q -> 1 limit of the generator: exp(-t^2/2) = 1, 0, -1/2, 0, 1/8, ...
    gen = make_family(FamilyKind.HERMITE, 8).generator
    values = [c.evaluate(1) for c in gen.coeffs]
    assert values[:5] == [Fraction(1), Fraction(0), Fraction(-1, 2),
                          Fraction(0), Fraction(1, 8)]
    for n, v in enumerate(values):
        if n % 2:
            assert v == 0
        else:
            m = n // 2
            sign = -1 if m % 2 else 1
            assert v == Fraction(sign, 2 ** m * oracle_classical_fact(m))


def oracle_classical_fact(m):
    out = 1
    for k in range(1, m + 1):
        out *= k
    return out


def test_parity():
    for n in range(21):
        p = hermite_series_form(n)
        for k, c in enumerate(p.coeffs):
            if (k - n) % 2:
                assert c.is_zero(), (n, k)


def test_recurrence_chains_rebuild_the_table():
    # iterate the three-term recurrence from H_0, H_1 and unscale x -> x/q
    fam = make_family(FamilyKind.HERMITE)
    inv_q = QRat.q_power(-1)
    polys = [fam.polynomial(0), fam.polynomial(1)]
    for n in range(2, 5):
        scaled = (polys[n - 1].times_x().scale(QRat.q_power(n))
                  - polys[n - 2].scale(QRat(q_integer(n - 1)) * QRat.q_power(n - 2)))
        polys.append(scaled.scale_x(inv_q))
    assert polys[2] == hermite_series_form(2)
    assert polys[3] == hermite_series_form(3)
    assert polys[4] == hermite_series_form(4)


def test_cross_construction_report():
    rep = verify_cross_construction(20)
    assert rep.passed
    assert rep.n_range == (0, 20)


def test_classical_limit_matches_he():
    fam = make_family(FamilyKind.HERMITE)
    for n in range(11):
        coeffs = [c.evaluate(1) for c in fam.polynomial(n).coeffs]
        assert coeffs == oracles.hermite_he(n)


def test_hermite_alphas_match_ratio_identity():
    # the ratio D_q H / H(qt) = -t forces alpha_2 = -[2]_q and nothing else
    fam = make_family(FamilyKind.HERMITE, 12)
    al = fam.alphas(10)
    assert al[2] == QRat(-QPoly((1, 1)))
    assert all(al[k].is_zero() for k in range(11) if k != 2)
