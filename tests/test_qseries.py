import random
from fractions import Fraction

import pytest

from qappell.qarith import QPoly, QRat, QRAT_Q, q_factorial
from qappell.qseries import (CancellationError, OrderMismatchError, Series,
                             ZeroDivisorError, eq_exponential)


def _truncate(s: Series, order: int) -> Series:
    return Series(s.coeffs[: order + 1])


def test_mul_identity_and_monomials():
    s = eq_exponential(6)
    assert Series.one(6) * s == s
    t = Series.monomial(4, 1)
    assert t * t == Series.monomial(4, 2)


def test_mul_inversion_roundtrip():
    e = eq_exponential(10)
    inv = Series.one(10) / e
    assert e * inv == Series.one(10)


def test_div_examples():
    s = eq_exponential(5)
    assert s / Series.one(5) == s

    # q-Bernoulli generator: t/(e_q - 1) starts 1 - t/[2]_q + ...
    num = Series.monomial(9, 1)
    den = eq_exponential(9) - Series.one(9)
    quot = num / den
    assert quot.order == 8
    assert quot.coefficient(0) == QRat(1)
    assert quot.coefficient(1) == QRat(QPoly(-1), QPoly((1, 1)))

    assert Series.monomial(5, 2) / Series.monomial(5, 1) == Series.monomial(4, 1)


def test_div_errors():
    with pytest.raises(ZeroDivisorError):
        Series.one(4) / Series.zero(4)
    with pytest.raises(CancellationError):
        Series.one(4) / Series.monomial(4, 1)
    with pytest.raises(OrderMismatchError):
        Series.one(4) / Series.one(5)


def test_scale_arg_examples():
    s = eq_exponential(6)
    assert s.scale_arg(QRat(1)) == s
    doubled = s.scale_arg(QRat(2))
    for n in range(7):
        assert doubled.coefficient(n) == QRat(QPoly(2 ** n), q_factorial(n))
    tt = Series.monomial(3, 1) + Series.monomial(3, 2)
    scaled = tt.scale_arg(QRAT_Q)
    assert scaled.coefficient(1) == QRat(QPoly((0, 1)))
    assert scaled.coefficient(2) == QRat(QPoly((0, 0, 1)))


def test_q_derivative_examples():
    const = Series.constant(5, 4)
    assert const.q_derivative() == Series.zero(3)
    t2 = Series.monomial(4, 2)
    assert t2.q_derivative() == Series.monomial(3, 1, QPoly((1, 1)))
    e = eq_exponential(8)
    assert e.q_derivative() == _truncate(e, 7)


def test_q_derivative_requires_positive_order():
    with pytest.raises(ValueError):
        Series.one(0).q_derivative()


def test_coefficient_range():
    e = eq_exponential(4)
    assert e.coefficient(0) == QRat(1)
    assert Series.monomial(3, 1).coefficient(1) == QRat(1)
    with pytest.raises(IndexError):
        e.coefficient(5)
    with pytest.raises(IndexError):
        e.coefficient(-1)


def test_eq_exponential_against_classical():
    e = eq_exponential(10)
    fact = 1
    for n in range(11):
        if n:
            fact *= n
        assert e.coefficient(n).evaluate(1) == Fraction(1, fact)


def _random_series(rng: random.Random, order: int) -> Series:
    coeffs = []
    for _ in range(order + 1):
        num = QPoly([rng.randint(-2, 2) for _ in range(rng.randint(1, 3))])
        den = rng.choice([QPoly(1), QPoly((1, 1)), QPoly((0, 1))])
        coeffs.append(QRat(num, den))
    return Series(coeffs)


def test_division_roundtrip_randomized():
    rng = random.Random(424242)
    for _ in range(60):
        order = rng.randint(2, 6)
        a = _random_series(rng, order)
        b = _random_series(rng, order)
        if b.coefficient(0).is_zero():
            b = b + Series.one(order)
        assert (a * b) / b == a


def test_q_derivative_product_rule():
    # D_q(fg)(t) = f(qt) D_q g(t) + g(t) D_q f(t)
    rng = random.Random(31337)
    for _ in range(25):
        order = rng.randint(2, 5)
        f = _random_series(rng, order)
        g = _random_series(rng, order)
        lhs = (f * g).q_derivative()
        rhs = (_truncate(f.scale_arg(QRAT_Q), order - 1) * g.q_derivative()
               + _truncate(g, order - 1) * f.q_derivative())
        assert lhs == rhs


def test_scale_arg_roundtrip():
    rng = random.Random(8)
    for c in (QRat(2), QRat(QPoly((0, 1))), QRat(QPoly((1, 1)))):
        s = _random_series(rng, 5)
        assert s.scale_arg(c).scale_arg(c.reciprocal()) == s


def test_order_mismatch_add():
    with pytest.raises(OrderMismatchError):
        Series.one(3) + Series.one(4)


def test_division_prefix_is_truncation_invariant():
    # leading quotient coefficients do not depend on the truncation order
    num8 = Series.monomial(8, 1)
    den8 = eq_exponential(8) - Series.one(8)
    num12 = Series.monomial(12, 1)
    den12 = eq_exponential(12) - Series.one(12)
    q8 = (num8 / den8).coeffs
    q12 = (num12 / den12).coeffs
    assert q12[: len(q8)] == q8
