import math
import random
import time
from fractions import Fraction

import pytest

from qappell import qarith, qpoly
from qappell.qarith import (FracAcc, P_ONE, P_ZERO, PoleError, QPoly, QRat,
                            QRAT_ONE, q_binomial, q_double_factorial_even,
                            q_factorial, q_integer, qpoly_gcd, solve_step)
from qappell.qpoly import _int_mul, _kron_pack, _kron_unpack, _width


def _qpow(k: int) -> QPoly:
    return QPoly([0] * k + [1])


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
            assert left == q_binomial(n - 1, k - 1) + _qpow(k) * q_binomial(n - 1, k)
            assert left == _qpow(n - k) * q_binomial(n - 1, k - 1) + q_binomial(n - 1, k)


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
    """Operands of 2 to 70 coefficients, with negative leading
    coefficients, runs of zeros and coefficient widths from 1 to 2000
    bits mixed in one operand."""
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
        a, b = operand(rng.randint(2, 70)), operand(rng.randint(2, 70))
        if rng.random() < 0.5:
            a[-1] = -abs(a[-1]) or -1
        cases.append((a, b))
    for a, b in cases:
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
            assert r.den.coeffs[-1] == 1
            if not r.is_zero():
                assert qpoly_gcd(r.num, r.den).degree <= 0


def test_qrat_pow_and_q_power():
    q = QRat.q_power(1)
    assert QRat.q_power(-2) == QRat(1, _qpow(2))
    assert q * q * q == QRat.q_power(3)
    assert q.reciprocal() == QRat.q_power(-1)
    q2 = QRat(QPoly((1, 1)))
    assert q2 * q2 == QRat(QPoly((1, 2, 1)))


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


def test_solve_step_with_a_unit_pivot_is_the_divided_form():
    # A unit pivot skips the division, and the row keeps its value and
    # its canonical form.
    rng = random.Random(24)
    units = [QRAT_ONE, QRat.q_integer(1), QRat.q_factorial(1), QRat.q_binomial(3, 0)]
    for _ in range(40):
        rhs = _random_qrat(rng)
        terms = [(_random_qrat(rng), QRat.q_integer(rng.randint(0, 5)))
                 for _ in range(rng.randint(0, 4))]
        divided = sum((-a * b for a, b in terms), rhs) / QRAT_ONE
        for pivot in units:
            got = solve_step(rhs, terms, pivot)
            assert got == divided
            assert (got.num, got.den, str(got)) == (divided.num, divided.den, str(divided))


def test_kron_unpack_round_trips_at_the_slot_limit():
    """Balanced digits of w bytes hold every |c| <= 2^(8w-1) - 1, with
    either sign in any slot and a negative leading coefficient, in every
    width class: 1, 2, 4 and 8 bytes (machine words) and 3, 9, 16 and 33
    bytes (byte strings).  The slot width is the least that holds a
    bound, rounded up to 1, 2, 4 or 8 bytes below 9."""
    rng = random.Random(13)
    widths = {1: (1, 2), 2: (2, 4), 3: (4, 4), 4: (4, 8), 8: (8, 9),
              9: (9, 10), 16: (16, 17), 33: (33, 34)}
    for w, (at_top, above_top) in widths.items():
        top = (1 << (8 * w - 1)) - 1
        cases = [[top] * 5, [-top] * 5, [top, -top] * 3, [-top, top] * 3,
                 [top, 0, -top, 0, 0], [0, 0, -top], [-1, top, -top, 1],
                 [rng.randint(-top, top) for _ in range(40)] + [-top]]
        for v in cases:
            packed = _kron_pack(v, w)
            assert packed == sum(c << (8 * w * i) for i, c in enumerate(v))
            assert _kron_unpack(packed, w, len(v)) == v, (w, v)
        assert _width(top) == at_top
        assert _width(top + 1) == above_top


def _poly_add(a: list, b: list) -> list:
    n = max(len(a), len(b))
    return [x + y for x, y in zip(a + [0] * (n - len(a)), b + [0] * (n - len(b)))]


def _vec(m: dict) -> tuple:
    """The exponent map {d: e} as an exponent vector: index 0 the power
    of q, index d the exponent of Phi_d, no trailing zeros."""
    v = [0] * (max(m, default=-1) + 1)
    for d, e in m.items():
        v[d] = e
    return tuple(v)


def _check_packed_sum(terms, min_bits: int = 0) -> QRat:
    """FracAcc over terms (m, coeffs), added as Phi^m coeffs by add_raw,
    or (None, (num, den)), added as the QRat num/den, against a Fraction
    reference built here from schoolbook products of the Phi_d lists."""
    acc = FracAcc()
    ref_num, ref_den = [Fraction(0)], [Fraction(1)]
    for m, coeffs in terms:
        if m is None:
            num, den = ([Fraction(c) for c in p] for p in coeffs)
            acc.add(QRat(QPoly(num), QPoly(den)))
        else:
            acc.add_raw(_vec(m), QPoly(coeffs))
            num, den = [Fraction(c) for c in coeffs], [Fraction(1)]
            for d, e in m.items():
                for _ in range(abs(e)):
                    if e > 0:
                        num = _schoolbook(num, list(qarith._phi(d)))
                    else:
                        den = _schoolbook(den, list(qarith._phi(d)))
        ref_num = _poly_add(_schoolbook(ref_num, den), _schoolbook(num, ref_den))
        ref_den = _schoolbook(ref_den, den)
    r = acc.value()
    assert r.den.coeffs[-1] == 1
    assert qpoly_gcd(r.num, r.den) == P_ONE or (r.is_zero() and r.den == P_ONE)
    assert (QPoly(_schoolbook(list(r.num.coeffs) or [0], ref_den))
            == QPoly(_schoolbook(ref_num, list(r.den.coeffs))))
    assert max(map(abs, r.num._ints), default=0).bit_length() >= min_bits
    return r


def test_frac_acc_packed_sums_match_a_fraction_reference():
    F = Fraction
    big = [(1 << 300) + 7, -(1 << 299), 5, 1 << 257]
    # coefficients beyond 2^256, over three exponent maps
    _check_packed_sum([({2: -3, 3: 1}, big),
                       ({2: -1, 5: -2, 0: 1}, [-(1 << 280), 3, 0, 1 << 290]),
                       ({}, [1, 1 << 256])], min_bits=257)
    # a negative leading coefficient, and one from a big negative term
    r = _check_packed_sum([({2: -1}, [1, 2, -5]), ({3: -1}, [0, -7])])
    assert r.num._ints[-1] < 0
    _check_packed_sum([({6: -1}, [3, -(1 << 400)]), ({4: -2, 0: 2}, [1 << 390])],
                      min_bits=390)
    # the top coefficients cancel: 1 - q^2 + (1 + q)(3 + q) = 4 + 4q
    r = _check_packed_sum([({3: -1}, [1, 0, -1]), ({3: -1, 2: 1}, [3, 1])])
    assert r == QRat(QPoly((4, 4)), QPoly((1, 1, 1)))
    # the sum is exactly 0: Phi_2^2 / Phi_3 - (1 + q)^2 / Phi_3
    zero = [({2: 1, 3: -1}, [1, 1]), ({3: -1}, [-1, -2, -1])]
    assert _check_packed_sum(zero).is_zero()
    generic = (None, ([1, 5], [1, 2]))
    assert _check_packed_sum(zero + [generic]) == QRat(QPoly((1, 5)), QPoly((1, 2)))
    # parts over different denominators L
    _check_packed_sum([({2: -1}, [F(1, 3), F(2, 5)]),
                       ({4: -1, 0: -1}, [F(-1, 7), 1, F(1, 6)]),
                       ({}, [F(5, 9)]), ({2: -1, 3: 2}, [F(1 << 270, 11)])],
                      min_bits=270)
    # a cofactor that is only a power of q: q^-2 (1 + q) + q (3 - q)
    r = _check_packed_sum([({0: -2}, [1, 1]), ({0: 1}, [3, -1])])
    assert r == QRat(QPoly((1, 1, 0, 3, -1)), QPoly((0, 0, 1)))
    # factored terms mixed with generic ones
    _check_packed_sum([({2: -2, 0: 1}, [F(3, 2), -4]), generic,
                       ({3: -1}, [1 << 300]), (None, ([0, 1], [2, 1, 1]))],
                      min_bits=300)


def test_frac_acc_value_bookkeeping_matches_a_fraction_reference():
    """The exponent-wise minimum counts a missing Phi_d as exponent 0, a
    common positive exponent stays in the result's map, one nonzero group
    sums like many, and groups that cancel leave the generic rest."""
    generic = (None, ([2, -1], [3, 0, 1]))
    # Phi_3 is negative in two groups and absent in the third; Phi_5 is
    # negative in one; Phi_2 is positive in one and absent in the others.
    r = _check_packed_sum([({3: -2, 2: 1}, [1, 2]), ({5: -1}, [3, 0, -4]),
                           ({3: -1}, [1, -1])])
    assert r.den.degree == 2 * 2 + 4
    # Phi_2 is positive in every group: its least exponent stays a factor.
    r = _check_packed_sum([({2: 2, 3: -1}, [1, 1]), ({2: 1}, [5]),
                           ({2: 3, 0: 1}, [-1, 0, 2])])
    assert r._m == (0, 0, 1, -1)
    # one nonzero group, its Phi_2 and q cancelled, next to a group that
    # cancels by itself and a generic rest
    once = [({2: -1, 0: -1}, [0, 1, 1]), ({4: -1}, [1, 2]), ({4: -1}, [-1, -2])]
    assert _check_packed_sum(once) == QRat(1)
    _check_packed_sum(once + [generic])
    # every group cancels, with and without a generic rest
    gone = [({3: -1}, [1, 2]), ({2: 1}, [4]), ({3: -1}, [-1, -2]), ({2: 1}, [-4])]
    assert _check_packed_sum(gone).is_zero()
    assert _check_packed_sum(gone + [generic]) == QRat(QPoly((2, -1)), QPoly((3, 0, 1)))


def test_expand_matches_a_schoolbook_product_of_the_phi_lists():
    """Every exponent vector of [n]_q!, [n k]_q and [2m]_q!! for n <= 48,
    and one with a power of q."""
    keys = {(3, 0, 1, 2)}
    for n in range(49):
        keys.add(QRat.q_factorial(n)._m)
        keys.update(QRat.q_binomial(n, k)._m for k in range(n + 1))
    keys.update(QRat.q_double_factorial_even(m)._m for m in range(25))
    for key in keys:
        ref = [1]
        for d, e in enumerate(key):
            for _ in range(e):
                ref = _schoolbook(ref, list(qarith._phi(d)))
        assert list(qarith._expand(key)._ints) == ref, key


def test_qpoly_gcd_products():
    a = q_integer(6) * q_integer(4)
    b = q_integer(6) * q_integer(5)
    g = qpoly_gcd(a, b)
    assert a.div_exact(g) * g == a
    assert b.div_exact(g) * g == b
    # [6] and [4] share [2]; [6] and [5] are coprime apart from [6] itself
    assert g.degree >= q_integer(6).degree


def test_qpoly_gcd_splits_off_the_power_of_q():
    """gcd(q^a f, q^b g) = q^min(a, b) gcd(f, g) for f, g prime to q."""
    f = q_integer(6) * q_integer(4) * QPoly((3, 0, 5))
    g = q_integer(4) * q_integer(9) * QPoly((3, 0, 5))
    base = qpoly_gcd(f, g)
    assert base == q_integer(4) * q_integer(3) * QPoly((3, 0, 5))
    for a, b in ((0, 0), (0, 3), (5, 2), (7, 7), (40, 1)):
        got = qpoly_gcd(_qpow(a) * f, _qpow(b) * g)
        assert got == _qpow(min(a, b)) * base, (a, b)
    assert qpoly_gcd(_qpow(4), _qpow(9) * f) == _qpow(4)
    assert qpoly_gcd(_qpow(3) * f, P_ZERO) == _qpow(3) * f


def test_qpoly_gcd_retries_at_a_doubled_width(monkeypatch):
    """At the first width the integer gcd carries a spurious factor whose
    digits do not divide both inputs, so the heuristic gcd packs again at
    twice the width."""
    widths = []
    pack = qpoly._kron_pack

    def counted(v, w):
        widths.append(w)
        return pack(v, w)

    monkeypatch.setattr(qpoly, "_kron_pack", counted)
    for a, b, g in (([2, 1, -3, 0, 2], [-1, -1, 3, -3, 2], [1]),
                    ([-2, -2, 7, -6, 2], [-4, 10, -2, -3, 3], [2, -2, 1])):
        widths.clear()
        assert qpoly_gcd(QPoly(a), QPoly(b)) == QPoly(g)
        assert widths == [1, 1, 2, 2]


def test_qpoly_gcd_finds_a_common_factor_of_large_coefficients():
    rng = random.Random(2026)

    def poly(deg):
        return QPoly([rng.getrandbits(300) - (1 << 299) for _ in range(deg)]
                     + [rng.getrandbits(300) | 1])

    g, a, b = poly(20), poly(40), poly(39)
    primitive = g * Fraction(1, math.gcd(*(int(c) for c in g.coeffs)))
    assert qpoly_gcd(a * g, b * g) == primitive


def test_qrat_with_a_high_power_of_q_canonicalizes():
    # q^552 [1]_q [3]_q ... [47]_q / [48]_q! = q^552 / ([2]_q [4]_q ... [48]_q)
    odd = P_ONE
    for k in range(1, 48, 2):
        odd = odd * q_integer(k)
    r = QRat(_qpow(552) * odd, q_factorial(48))
    assert r.num == _qpow(552)
    assert r.den == q_double_factorial_even(24)


def test_qpoly_str_and_qrat_str():
    assert str(QPoly((1, 2, 2, 1))) == "1 + 2*q + 2*q^2 + q^3"
    assert str(QRat(QPoly(-1), QPoly((1, 1)))) == "-1/(1 + q)"
    assert str(QRat(QPoly((0, 1)))) == "q"
    assert str(QRat(QPoly(Fraction(-1, 2)), QPoly((0, 1)))) == "(-1/2)/q"


def _divisor_products(n: int) -> QPoly:
    p = P_ONE
    for d in range(1, n + 1):
        if n % d == 0:
            p = p * QPoly(qarith._phi(d))
    return p


def test_cyclotomic_table_factors_q_power_minus_one():
    # q^n - 1 = prod_{d | n} Phi_d(q), up to one past the --order limit
    for n in range(1, 202):
        assert _divisor_products(n) == _qpow(n) - 1, n
    assert qarith._phi(0) == (0, 1)
    assert qarith._phi(12) == (1, 0, -1, 0, 1)
    assert qarith._phi(105)[7] == -2  # the first coefficient outside {-1, 0, 1}


def test_factored_q_constants_expand_to_the_recursive_polynomials():
    """The exponent maps of [n]_q, [n]_q!, [n k]_q, [2m]_q!! and
    [1]_q [3]_q ... [2m-1]_q against the recursive definitions."""
    top = 48
    ints = [QPoly((1,) * n) for n in range(top + 1)]
    fact = [P_ONE]
    for n in range(1, top + 1):
        fact.append(fact[-1] * ints[n])
    pascal = [[P_ONE]]
    for n in range(1, top + 1):
        prev = pascal[-1] + [P_ZERO]
        pascal.append([P_ONE] + [prev[k - 1] + _qpow(k) * prev[k]
                                 for k in range(1, n + 1)])
    even, odd = [P_ONE], [P_ONE]
    for m in range(1, top // 2 + 1):
        even.append(even[-1] * ints[2 * m])
        odd.append(odd[-1] * ints[2 * m - 1])

    def expands_to(r: QRat, p: QPoly) -> bool:
        return r._m is not None and r.den == P_ONE and r.num == p

    for n in range(top + 1):
        assert expands_to(QRat.q_integer(n), ints[n]), n
        assert expands_to(QRat.q_factorial(n), fact[n]), n
        for k in range(n + 1):
            assert expands_to(QRat.q_binomial(n, k), pascal[n][k]), (n, k)
    for m in range(top // 2 + 1):
        assert expands_to(QRat.q_double_factorial_even(m), even[m]), m
        ratio = QRat.q_factorial(2 * m) / QRat.q_double_factorial_even(m)
        assert expands_to(ratio, odd[m]), m
    assert QRat.q_binomial(5, 6).is_zero() and QRat.q_binomial(5, -1).is_zero()
    for make in (QRat.q_integer, QRat.q_factorial, QRat.q_double_factorial_even):
        with pytest.raises(ValueError):
            make(-1)


def test_exponent_vectors_are_canonical():
    """Every factored value holds its exponents as a tuple without a
    trailing zero, so equal factors make equal FracAcc keys."""
    base = [QRat.q_power(k) for k in range(-3, 4)]
    for n in range(49):
        base += [QRat.q_integer(n), QRat.q_factorial(n)]
        base += [QRat.q_binomial(n, k) for k in range(n + 1)]
    base += [QRat.q_double_factorial_even(m) for m in range(25)]
    values = list(base)
    rng = random.Random(12)
    small = [r for r in base if r.num.degree + r.den.degree <= 40]
    for _ in range(200):
        a, b = rng.choice(base), rng.choice(base)
        values.append(a * b)
        if b:
            values += [a / b, b.reciprocal()]
        a, b = rng.choice(small), rng.choice(small)
        acc = FracAcc()
        acc.add(a)
        acc.add(-b)
        acc.add_product(a, b)
        values.append(acc.value())
    # sums that cancel to 1 and to 0
    acc = FracAcc()
    acc.add(QRat.q_factorial(5) / QRat.q_factorial(4))
    acc.add(-QRat.q_integer(5))
    acc.add(QRat.q_integer(1))
    values.append(acc.value())
    assert values[-1].is_one()
    values.append(QRat.q_integer(7) - QRat.q_binomial(7, 1))
    assert values[-1].is_zero()
    for r in values:
        assert type(r._m) is tuple and r._m[-1:] != (0,), r._m
    assert QRat.q_integer(1).is_one() and QRat.q_factorial(1).is_one()


def test_cancel_strips_more_powers_of_q_than_the_held_vector_is_long():
    """Products and sums that strip three or more powers of q from a
    numerator next to a negative Phi_d, against Fraction arithmetic at
    sample points of q."""
    F = Fraction
    points = [F(2, 3), F(-5, 2), F(7), F(1, 9)]

    def at(p, q):
        return sum(F(c) * q ** i for i, c in enumerate(p))

    # q^3 / (q^3 [2]_q), and q^-3 + (q^3 - q - 1) q^-3 / [2]_q: both 1/(1 + q)
    r = QRat(_qpow(3)) / (QRat.q_power(3) * QRat.q_integer(2))
    s = (QRat.q_power(-3)
         + QRat(QPoly((-1, -1, 0, 1))) * QRat.q_power(-3) / QRat.q_integer(2))
    for v in (r, s):
        assert v == QRat(1, QPoly((1, 1))) and v._m == (0, 0, -1)
    rng = random.Random(7)
    for _ in range(150):
        a, b = rng.randint(0, 6), rng.randint(0, 6)
        n, k = rng.randint(2, 9), rng.randint(2, 9)
        p = [rng.randint(-3, 3) for _ in range(rng.randint(1, 5))]
        if not any(p):
            p[-1] = 1
        top = QRat(_qpow(a) * QPoly(p))
        bottom = QRat.q_power(b) * QRat.q_integer(n)
        quotient = top / bottom
        total = quotient + QRat.q_power(-b) / QRat.q_integer(k)
        for q in points:
            want = q ** a * at(p, q) / (q ** b * at([1] * n, q))
            assert quotient.evaluate(q) == want, (a, b, n, p)
            assert total.evaluate(q) == want + q ** -b / at([1] * k, q), (a, b, n, k, p)


def test_factored_and_generic_values_agree():
    # [6]_q! / [4]_q! built by exponent arithmetic and by a gcd
    factored = QRat.q_factorial(6) / QRat.q_factorial(4)
    generic = QRat(q_factorial(6), q_factorial(4))
    assert factored == generic and hash(factored) == hash(generic)
    assert factored.num == q_integer(5) * q_integer(6) and factored.den == P_ONE
    # a denominator with the non-cyclotomic factor 1 + 2q stays generic
    mixed = QRat(q_integer(3), QPoly((1, 2)) * q_integer(4))
    assert mixed._m is None
    assert mixed * QRat.q_integer(4) == QRat(q_integer(3), QPoly((1, 2)))
    monic = QPoly((Fraction(1, 2), 1)) * q_integer(4)
    assert (mixed + QRat.q_integer(2).reciprocal()).den == monic


def test_pair_factors_exactly_the_cyclotomic_denominators():
    """QRat(num, den) is factored exactly when the reduced denominator is
    q^a prod Phi_d, whichever path built it: Phi_1 as q - 1 and as 2 - 2q,
    q^a times products of Phi_d with d <= 30 under a constant factor,
    over reduced and unreduced pairs, their reciprocals and a generic
    value times its non-cyclotomic factor; 1 + 3q + q^2 and 1 + 2q stay
    generic."""
    num = QPoly((1, 2))  # prime to q and to every Phi_d
    for den, lead in ((QPoly((-1, 1)), 1), (QPoly((2, -2)), -2)):
        r = QRat(num, den)
        assert r._m == (0, -1) and r.den == QPoly((-1, 1))
        assert r.num == num * Fraction(1, lead)
    rng = random.Random(30)
    for _ in range(60):
        a = rng.randint(0, 5)
        exps = {d: rng.randint(1, 2) for d in rng.sample(range(1, 31), rng.randint(1, 4))}
        den = _qpow(a)
        for d, e in exps.items():
            for _ in range(e):
                den = den * QPoly(qarith._phi(d))
        den = den * Fraction(rng.choice((-3, -1, 2, 5)), rng.randint(1, 4))
        r = QRat(num, den)
        want = (-a,) + tuple(-exps.get(d, 0) for d in range(1, max(exps) + 1))
        assert r._m == want, exps
        assert r.evaluate(Fraction(2, 7)) == num.evaluate(Fraction(2, 7)) / den.evaluate(Fraction(2, 7))
        assert r.reciprocal()._m is None and r.reciprocal().reciprocal()._m == want
        # The same value over an unreduced pair: a common q^b prod Phi_d
        # factor cancels without a gcd, and a common 2 + q + q^2 by one.
        common = _qpow(rng.randint(0, 3)) * QPoly(qarith._phi(rng.randint(1, 30)))
        for extra in (common, common * QPoly((2, 1, 1))):
            unreduced = QRat(num * extra, den * extra)
            assert unreduced == r and unreduced._m == want and unreduced._n == r._n
    assert QRat(QPoly((1, 1))).reciprocal()._m == (0, 0, -1)
    mixed = QRat(q_integer(3), QPoly((1, 2)) * q_integer(4))
    assert (mixed * QRat(QPoly((1, 2))))._m == (0, 0, -1, 0, -1)
    for den in (QPoly((1, 3, 1)), QPoly((1, 2))):
        r = QRat(1, den)
        assert r._m is None and r * den == QRat(1)


def test_pair_classifies_a_long_non_cyclotomic_denominator_quickly(monkeypatch):
    """A palindromic denominator of degree 59 that is no product of Phi_d
    is tried only against Phi_d of degree at most the degree left, builds
    no larger one, and is classified in well under a second."""
    phi, divides = qarith._phi, qarith._phi_divides
    built, tried = [], []

    def recording_phi(d):
        built.append(d)
        return phi(d)

    def recording_divides(ints, d):
        tried.append((len(ints) - 1, d))
        return divides(ints, d)

    monkeypatch.setattr(qarith, "_phi", recording_phi)
    monkeypatch.setattr(qarith, "_phi_divides", recording_divides)
    den = QPoly([1] + [3] * 58 + [1])
    start = time.perf_counter()
    r = QRat(1, den)
    elapsed = time.perf_counter() - start
    assert r._m is None and r.den == den
    assert tried and all(len(phi(d)) - 1 <= left for left, d in tried)
    assert max(len(phi(d)) - 1 for d in built) <= 59
    assert elapsed < 1.0


def test_pair_classifies_a_degree_200_non_cyclotomic_denominator_quickly():
    """1 + 3q + ... + 3q^199 + q^200 is palindromic and no product of
    Phi_d.  Only the d with phi(d) <= 255 are candidates, each tested at
    one integer point before any Phi_d is built; walking every d up to
    2 k^2 and building each candidate's Phi_d took over half a second."""
    den = QPoly([1] + [3] * 199 + [1])
    start = time.perf_counter()
    r = QRat(1, den)
    elapsed = time.perf_counter() - start
    assert r._m is None and r.den == den
    assert elapsed < 0.25


def _totient_sieve(n: int) -> list[int]:
    phi = list(range(n))
    for p in range(2, n):
        if phi[p] == p:
            for m in range(p, n, p):
                phi[m] -= phi[m] // p
    return phi


def test_candidates_and_phi_values_match_their_definitions():
    # phi(d) >= sqrt(d/2), so every d with phi(d) <= k is below 2 k^2 + 1.
    phi = _totient_sieve(2 * 64 ** 2 + 1)
    for k in range(1, 65):
        assert qarith._totients(k) == tuple(
            (d, t) for d, t in enumerate(phi) if d and t <= k), k
    for d in range(120):
        for w in (1, 2, 3, 8, 9):
            assert qarith._phi_at.__wrapped__(d, w) == _kron_pack(qarith._phi(d), w), (d, w)


def _trial_division(ints: list[int], phi: list[int]) -> dict | None:
    """The Phi_d exponents of a monic ints by exact division by every
    Phi_d whose degree fits the degree left, for d ascending."""
    found, d = {}, 1
    while len(ints) > 1 and d <= 2 * (len(ints) - 1) ** 2:
        while phi[d] < len(ints):
            try:
                ints = qpoly._int_div_exact(ints, list(qarith._phi(d)))
            except ArithmeticError:
                break
            found[d] = found.get(d, 0) - 1
        d += 1
    return found if len(ints) == 1 else None


def test_cyclotomic_verdicts_match_trial_division_by_every_candidate():
    """Products of Phi_d up to degree 48, and palindromic perturbations of
    them, get the verdict and exponents of plain trial division."""
    phi = _totient_sieve(2 * 48 ** 2 + 1)
    rng = random.Random(33)
    verdicts = set()
    for trial in range(200):
        ints = [1]
        while True:
            factor = qarith._phi(rng.choice((1, 2, 3, 5, 7, 12, 15, 21, 30, 35, 42)))
            if len(ints) + len(factor) - 2 > 48:
                break
            ints = _int_mul(ints, list(factor))
        if trial % 2 and len(ints) > 3:
            # Perturb a pair of mirrored coefficients, keeping the symmetry.
            i = rng.randrange(1, len(ints) // 2)
            sign = 1 if ints == ints[::-1] else -1
            ints[i] += 1
            ints[-1 - i] += sign
        want = _trial_division(list(ints), phi)
        got = qarith._cyclotomic(QPoly(ints))
        assert (got is None) == (want is None), ints
        if got is not None:
            assert got[0] == 0 and {d: e for d, e in enumerate(got) if d and e} == want
        verdicts.add(want is None)
    assert verdicts == {True, False}
