import math
import random
from fractions import Fraction

import pytest

from qappell.qarith import (FracAcc, P_ONE, P_ZERO, PoleError, QPoly, QRat,
                            _int_mul, q_binomial, q_double_factorial_even,
                            q_factorial, q_integer, qpoly_gcd)


def test_q_integer_examples():
    assert q_integer(0) == P_ZERO
    assert q_integer(1) == P_ONE
    assert q_integer(3) == QPoly((1, 1, 1))


def test_q_factorial_examples():
    assert q_factorial(0) == P_ONE
    assert q_factorial(2) == QPoly((1, 1))
    # product oracle: [3]! = [1][2][3] multiplied out
    assert q_factorial(3) == q_integer(1) * q_integer(2) * q_integer(3)
    assert q_factorial(3) == QPoly((1, 2, 2, 1))


def test_q_double_factorial_examples():
    assert q_double_factorial_even(0) == P_ONE
    assert q_double_factorial_even(1) == QPoly((1, 1))
    assert q_double_factorial_even(2) == q_integer(2) * q_integer(4)


def test_q_binomial_examples():
    assert q_binomial(5, 0) == P_ONE
    assert q_binomial(4, 2) == QPoly((1, 1, 2, 1, 1))
    assert q_binomial(3, 5) == P_ZERO
    assert q_binomial(3, -1) == P_ZERO


def test_q_binomial_matches_factorial_division():
    # the exact-division route must agree with the Pascal recursion
    for n in range(11):
        for k in range(n + 1):
            quotient = q_factorial(n).div_exact(q_factorial(k) * q_factorial(n - k))
            assert quotient == q_binomial(n, k), (n, k)


def test_q_binomial_symmetry():
    for n in range(21):
        for k in range(n + 1):
            assert q_binomial(n, k) == q_binomial(n, n - k)


def test_q_binomial_pascal_rules():
    for n in range(1, 21):
        for k in range(1, n + 1):
            left = q_binomial(n, k)
            assert left == q_binomial(n - 1, k - 1) + QPoly.q_power(k) * q_binomial(n - 1, k)
            assert left == QPoly.q_power(n - k) * q_binomial(n - 1, k - 1) + q_binomial(n - 1, k)


def test_q_binomial_classical_degeneration():
    for n in range(21):
        for k in range(n + 1):
            assert q_binomial(n, k).evaluate(1) == math.comb(n, k)


def test_q_binomial_coefficients_nonnegative_integers():
    for n in range(21):
        for k in range(n + 1):
            for c in q_binomial(n, k).coeffs:
                assert c.denominator == 1 and c >= 0


def test_qpoly_exact_division_raises_on_remainder():
    with pytest.raises(ArithmeticError):
        QPoly((1, 1, 1)).div_exact(QPoly((1, 1)))


def test_qpoly_mul_matches_schoolbook():
    rng = random.Random(7)
    for _ in range(50):
        a = QPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(rng.randint(0, 40))])
        b = QPoly([Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                   for _ in range(rng.randint(0, 40))])
        out = [Fraction(0)] * (len(a.coeffs) + len(b.coeffs) + 1)
        for i, ca in enumerate(a.coeffs):
            for j, cb in enumerate(b.coeffs):
                out[i + j] += ca * cb
        assert a * b == QPoly(out)


def _schoolbook(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        for j, cb in enumerate(b):
            out[i + j] += ca * cb
    return out


def test_int_mul_kronecker_matches_schoolbook():
    """Operands above the schoolbook threshold (na * nb > 256), with
    negative leading coefficients, runs of zeros and coefficient widths
    from 1 to 2000 bits mixed in one operand."""
    rng = random.Random(31)

    def operand(n: int) -> list[int]:
        v = []
        while len(v) < n:
            if rng.random() < 0.2:
                v.extend([0] * rng.randint(1, 9))
            else:
                bits = rng.choice((1, 7, 8, 9, 63, 64, 65, 300, 2000))
                v.append(rng.choice((-1, 1)) * rng.randint(1, 1 << bits))
        return v[:n]

    cases = [([-1] * 20, [-1] * 20), ([1] + [0] * 30 + [-5], [-(1 << 2000)] * 17)]
    for _ in range(60):
        a, b = operand(rng.randint(17, 70)), operand(rng.randint(17, 70))
        if rng.random() < 0.5:
            a[-1] = -abs(a[-1]) or -1
        cases.append((a, b))
    for a, b in cases:
        assert len(a) * len(b) > 256
        assert _int_mul(a, b) == _schoolbook(a, b)


def test_qrat_normalize_examples():
    assert QRat(QPoly((-1, 0, 1)), QPoly((-1, 1))) == QRat(QPoly((1, 1)))
    r = QRat(1, QPoly((1, 1)))
    assert r.num == P_ONE and r.den == QPoly((1, 1))
    assert QRat(QPoly((0, 2)), QPoly(2)) == QRat(QPoly((0, 1)))


def test_qrat_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        QRat(1, P_ZERO)
    with pytest.raises(ZeroDivisionError):
        QRat(0).reciprocal()


def test_qrat_eval_examples():
    assert QRat(q_integer(3)).evaluate(1) == 3
    assert QRat(1, QPoly((1, 1))).evaluate(1) == Fraction(1, 2)
    with pytest.raises(PoleError):
        QRat(1, QPoly((-1, 1))).evaluate(1)


def _random_qrat(rng: random.Random) -> QRat:
    num = QPoly([rng.randint(-3, 3) for _ in range(rng.randint(1, 4))])
    den = rng.choice([P_ONE, QPoly((1, 1)), QPoly((0, 1)), QPoly((1, 1, 1)),
                      QPoly((2, 0, 1)), QPoly((1, 2))])
    return QRat(num, den)


def test_qrat_field_axioms_randomized():
    rng = random.Random(20240811)
    for _ in range(60):
        a, b, c = (_random_qrat(rng) for _ in range(3))
        assert a + b == b + a
        assert (a + b) + c == a + (b + c)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a + QRat(0) == a
        assert a * QRat(1) == a
        assert a - a == QRat(0)
        if not a.is_zero():
            assert a * a.reciprocal() == QRat(1)
            assert (b / a) * a == b


def test_qrat_results_are_canonical():
    rng = random.Random(99)
    for _ in range(60):
        a, b = _random_qrat(rng), _random_qrat(rng)
        for r in (a + b, a * b, a - b):
            renorm = QRat(r.num, r.den)
            assert renorm.num == r.num and renorm.den == r.den
            assert r.den.leading() == 1
            if not r.is_zero():
                assert qpoly_gcd(r.num, r.den).degree <= 0


def test_qrat_pow_and_q_power():
    q = QRat.q_power(1)
    assert QRat.q_power(-2) == QRat(1, QPoly.q_power(2))
    assert q ** 3 == QRat.q_power(3)
    assert q ** -1 == QRat.q_power(-1)
    assert (QRat(QPoly((1, 1))) ** 2) == QRat(QPoly((1, 2, 1)))


def test_frac_acc_matches_pairwise_sum():
    rng = random.Random(5)
    for _ in range(40):
        terms = [_random_qrat(rng) for _ in range(rng.randint(1, 8))]
        acc = FracAcc()
        expected = QRat(0)
        for t in terms:
            acc.add(t)
            expected = expected + t
        assert acc.value() == expected


def test_qpoly_gcd_products():
    a = q_integer(6) * q_integer(4)
    b = q_integer(6) * q_integer(5)
    g = qpoly_gcd(a, b)
    assert a.div_exact(g) * g == a
    assert b.div_exact(g) * g == b
    # [6] and [4] share [2]; [6] and [5] are coprime apart from [6] itself
    assert g.degree >= q_integer(6).degree


def test_qpoly_str_and_qrat_str():
    assert str(QPoly((1, 2, 2, 1))) == "1 + 2*q + 2*q^2 + q^3"
    assert str(QRat(QPoly(-1), QPoly((1, 1)))) == "-1/(1 + q)"
    assert str(QRat(QPoly((0, 1)))) == "q"
    assert str(QRat(QPoly(Fraction(-1, 2)), QPoly((0, 1)))) == "(-1/2)/q"
