import random
import sys
import threading
from fractions import Fraction

import pytest

from qappell.qarith import QPoly, QRat, QRAT_Q, q_factorial, q_integer
from qappell.qseries import Series
from qappell.appell import (AppellFamily, DegreeRangeError, XPoly, _sum,
                            difference_form, difference_residual,
                            recurrence_residual, verify_difference_range,
                            verify_lowering_range, verify_recurrence_range)
from qappell import appell, families
from qappell.families import FamilyKind, make_family

import oracles

Q2 = QPoly((1, 1))          # [2]_q
Q3 = QPoly((1, 1, 1))       # [3]_q


def _qpow(k: int) -> QPoly:
    return QPoly([0] * k + [1])


def _derivative(p: XPoly, k: int) -> XPoly:
    """D^k p, one Jackson derivative at a time."""
    for _ in range(k):
        p = p.q_derivative()
    return p


def _lowering(fam: AppellFamily, n: int, k: int) -> XPoly:
    """A_{n-k}(x) - ([n-k]_q!/[n]_q!) D^k A_n(x)."""
    dk = _derivative(fam.polynomial(n), k)
    return fam.polynomial(n - k) - dk.scale(QRat(q_factorial(n - k), q_factorial(n)))


def identity_family(order=10) -> AppellFamily:
    return AppellFamily("monomial", Series.one(order))


def test_identity_family_numbers_and_polys():
    fam = identity_family()
    assert fam.numbers(4) == (QRat(1), QRat(0), QRat(0), QRat(0), QRat(0))
    assert fam.polynomial(3) == XPoly((0, 0, 0, 1))
    assert fam.alphas(5) == (QRat(0),) * 6


def test_family_numbers_examples():
    bern = make_family(FamilyKind.BERNOULLI, 12)
    nums = bern.numbers(2)
    assert nums[0] == QRat(1)
    assert nums[1] == QRat(QPoly(-1), Q2)
    assert nums[2] == QRat(_qpow(2), Q2 * Q3)

    gen = make_family(FamilyKind.GENOCCHI, 12)
    assert gen.numbers(1) == (QRat(0), QRat(1))


def test_family_numbers_order_exceeded():
    fam = identity_family(4)
    with pytest.raises(ValueError):
        fam.numbers(5)
    with pytest.raises(ValueError):
        fam.polynomial(5)


def test_appell_polynomial_examples():
    bern = make_family(FamilyKind.BERNOULLI, 12)
    assert bern.polynomial(0) == XPoly((1,))
    assert bern.polynomial(1) == XPoly((QRat(QPoly(-1), Q2), QRat(1)))


def test_q_derivative_x_examples():
    assert XPoly((7,)).q_derivative() == XPoly()
    assert XPoly((0, 0, 1)).q_derivative() == XPoly((0, QRat(Q2)))
    bern = make_family(FamilyKind.BERNOULLI, 12)
    for n in range(1, 9):
        lowered = bern.polynomial(n).q_derivative()
        assert lowered == bern.polynomial(n - 1).scale(QRat(q_integer(n)))
    d3 = bern.polynomial(5).q_derivative().q_derivative().q_derivative()
    assert d3 == bern.polynomial(2).scale(QRat(q_integer(5) * q_integer(4) * q_integer(3)))


def test_scale_x_by_q_examples():
    assert XPoly((1,)).scale_x(QRAT_Q) == XPoly((1,))
    assert XPoly((0, 0, 1)).scale_x(QRAT_Q) == XPoly((0, 0, QRat(_qpow(2))))
    p = XPoly((1, 2, 3))
    twice = p.scale_x(QRAT_Q).scale_x(QRAT_Q)
    assert [c.evaluate(1) for c in twice.coeffs] == [1, 2, 3]


def test_alpha_examples():
    bern = make_family(FamilyKind.BERNOULLI, 12)
    al = bern.alphas(2)
    assert al[0] == QRat(0)
    assert al[1] == QRat(QPoly(-1), Q2)
    assert al[2] == QRat(-_qpow(1), Q2 * Q3)

    gen = make_family(FamilyKind.GENOCCHI, 12)
    assert gen.alphas(0)[0] == QRat(1, _qpow(1))

    eul = make_family(FamilyKind.EULER, 12)
    al = eul.alphas(2)
    assert al[1] == QRat(Fraction(-1, 2))
    assert al[2] == QRat(QPoly((Fraction(-1, 4), Fraction(-1, 4))))


def test_alpha_matches_numeric_oracle():
    q0 = Fraction(1, 3)
    for kind in FamilyKind:
        fam = make_family(kind, 12)
        symbolic = [a.evaluate(q0) for a in fam.alphas(6)]
        assert symbolic == oracles.alphas(kind.value, 6, q0)


def _numeric_alphas(coeffs, upto, q0):
    """alpha_0 .. alpha_upto of t D_q A / A(qt) at q = q0, by the numeric
    oracle's series division."""
    gen = [c.evaluate(q0) for c in coeffs]
    num = [oracles.qint(m, q0) * c for m, c in enumerate(gen)]
    den = [q0 ** m * c for m, c in enumerate(gen)]
    quot = oracles.ser_div(num, den)
    return [oracles.qfact(n, q0) * c for n, c in enumerate(quot[: upto + 1])]


def test_custom_generator_alphas_match_numeric_quotient():
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")
    small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    lead = small.filter(bool)
    q_poly = st.lists(small, min_size=1, max_size=3).map(lambda cs: QRat(QPoly(cs)))

    @hyp.settings(max_examples=30, deadline=None)
    @hyp.given(valuation=st.sampled_from((0, 1)), upto=st.integers(0, 5),
               lead=lead, rest=st.lists(q_poly, min_size=6, max_size=6),
               q0=st.fractions(min_value=Fraction(1, 5), max_value=3,
                               max_denominator=5))
    def check(valuation, upto, lead, rest, q0):
        order = upto + 1
        coeffs = ([QRat(0)] * valuation + [QRat(lead)] + rest)[: order + 1]
        fam = AppellFamily("custom", Series(coeffs))
        assert fam.shifted == (valuation == 1)
        symbolic = [a.evaluate(q0) for a in fam.alphas(upto)]
        assert symbolic == _numeric_alphas(coeffs, upto, q0)

    check()


def test_shared_family_extends_as_one_thread_would():
    build = families._family.__wrapped__       # a fresh, uncached family
    order = 14
    reference = build(FamilyKind.BERNOULLI, order)
    prefixes = range(order, order - 8, -1)
    expected = {k: (reference.alphas(k - 1), reference.numbers(k),
                    reference.polynomial(k)) for k in prefixes}
    fam = build(FamilyKind.BERNOULLI, order)
    results, errors = {}, []

    def ask(k):
        try:
            results[k] = (fam.alphas(k - 1), fam.numbers(k), fam.polynomial(k))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=ask, args=(k,)) for k in prefixes]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == expected


def test_two_threads_check_each_premise_once(monkeypatch):
    # The first premise check is held until a second one starts, or for
    # at most 0.5 s: a second thread that checks the premises while the
    # first is still building them would count a degree twice.
    fam = families._family.__wrapped__(FamilyKind.EULER, 10)
    true, calls, counting, second = (appell._premises_at, [], threading.Lock(),
                                     threading.Event())

    def counted(f, m):
        with counting:
            calls.append(m)
            first = len(calls) == 1
        if first:
            second.wait(0.5)
        else:
            second.set()
        return true(f, m)

    monkeypatch.setattr(appell, "_premises_at", counted)
    results, errors = [], []

    def ask():
        try:
            results.append(recurrence_residual(fam, 6))
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=ask) for _ in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert results == [XPoly(), XPoly()]
    assert sorted(calls) == list(range(7))


def test_shifted_generator_flag_and_rejection():
    gen = make_family(FamilyKind.GENOCCHI, 8)
    assert gen.shifted
    assert not make_family(FamilyKind.EULER, 8).shifted
    with pytest.raises(ValueError):
        AppellFamily("bad", Series.monomial(6, 2))
    with pytest.raises(ValueError):
        AppellFamily("worse", Series.zero(6))


@pytest.mark.parametrize("build", [
    lambda: AppellFamily.from_numbers("zero", 5, lambda n, _: QRat(0)),
    lambda: AppellFamily.from_numbers("a2-only", 5, lambda n, _: QRat(int(n == 2))),
    lambda: AppellFamily.from_numbers("order-0", 0, lambda n, _: QRat(0)),
    lambda: AppellFamily("t^2", Series([0, 0, 1])),
    lambda: AppellFamily("order-0", Series([0])),
], ids=["zero-rule", "a2-only-rule", "zero-rule-order-0", "t-squared",
        "zero-series-order-0"])
def test_both_constructors_reject_vanishing_a0_and_a1(build):
    with pytest.raises(ValueError, match="A_0 = 0 and A_1"):
        build()


def test_shifted_generator_of_order_one_builds():
    fam = AppellFamily("t", Series([0, 1]))
    assert fam.shifted and fam.alphas(0) == (QRat.q_power(-1),)
    rule = AppellFamily.from_numbers("t", 1, lambda n, _: QRat(n))
    assert rule.shifted and rule.alphas(0) == fam.alphas(0)


def test_verify_lowering_examples():
    bern = make_family(FamilyKind.BERNOULLI, 12)
    rep = verify_lowering_range(bern, 5)
    assert rep.passed and rep.n_range == (0, 5)
    assert _lowering(bern, 4, 0).is_zero()
    assert _lowering(bern, 5, 2).is_zero()
    herm = make_family(FamilyKind.HERMITE, 12)
    rep = verify_lowering_range(herm, 6)
    assert rep.passed
    assert rep.theorem_id == "lowering"
    assert _lowering(herm, 6, 6).is_zero()
    with pytest.raises(ValueError):
        verify_lowering_range(bern, bern.order + 1)
    with pytest.raises(ValueError):
        verify_lowering_range(bern, -1)


class _ShiftedConstants(AppellFamily):
    """Bernoulli with A_1 + 1 and A_2 - 1: at n = 3 the k = 1 and k = 2
    lowering residuals are -1 and +1, so their sum cancels."""

    def polynomial(self, n):
        return super().polynomial(n) + XPoly(({1: 1, 2: -1}.get(n, 0),))


def test_lowering_records_first_nonzero_residual_per_degree():
    fam = _ShiftedConstants("perturbed", make_family(FamilyKind.BERNOULLI, 8).generator)
    rep = verify_lowering_range(fam, 4)
    assert not rep.passed and rep.first_failure == 2
    terms = {n: [_lowering(fam, n, k) for k in range(n + 1)]
             for n in range(5)}
    assert [r.is_zero() for r in terms[3]] == [True, False, False, True]
    assert terms[3][1] + terms[3][2] == XPoly()
    for n, residual in zip(range(5), rep.residuals):
        failing = [r for r in terms[n] if not r.is_zero()]
        assert residual == (failing[0] if failing else XPoly()), n


def test_verify_recurrence_examples():
    fam = identity_family()
    rep = verify_recurrence_range(fam, 1, 1)
    assert rep.passed and rep.first_failure is None
    for kind in FamilyKind:
        f = make_family(kind, 12)
        assert verify_recurrence_range(f, 1, 6).passed, kind
    with pytest.raises(ValueError):
        verify_recurrence_range(fam, 0, 0)
    with pytest.raises(ValueError):
        verify_recurrence_range(fam, fam.order, fam.order)
    with pytest.raises(DegreeRangeError):
        verify_recurrence_range(fam, 3, 2)


def test_verify_difference_examples():
    assert verify_difference_range(identity_family(), 1, 1).passed
    for kind in FamilyKind:
        f = make_family(kind, 12)
        assert verify_difference_range(f, 1, 6).passed, kind
    fam = identity_family()
    with pytest.raises(ValueError):
        verify_difference_range(fam, 0, 3)
    with pytest.raises(ValueError):
        verify_difference_range(fam, 1, fam.order)
    with pytest.raises(ValueError):
        verify_difference_range(fam, 4, 3)


def test_hermite_alpha_pattern():
    herm = make_family(FamilyKind.HERMITE, 12)
    al = herm.alphas(8)
    assert al[2] == QRat(-Q2)
    for k in (0, 1, 3, 4, 5, 6, 7, 8):
        assert al[k].is_zero(), k


def test_residual_forms_are_equivalent_for_any_alphas():
    # With the lowering identity in force, the recurrence form and the
    # difference form differ only by overall sign, whatever alphas are
    # plugged in; checked with deliberately wrong vectors, each given to
    # a fresh family as its alpha cache.
    rng = random.Random(17)
    for kind in (FamilyKind.BERNOULLI, FamilyKind.HERMITE):
        for n in (2, 4, 5):
            fam = families._family.__wrapped__(kind, 10)
            fam._alphas.extend(QRat(QPoly([rng.randint(-2, 2), rng.randint(-1, 1)]))
                               for _ in range(n + 1))
            r1 = recurrence_residual(fam, n)
            r2 = difference_residual(fam, n)
            assert not r1.is_zero()
            assert r2 == -r1


def test_spot_check_identities_at_numeric_points():
    # independent numeric evaluation of the two sides at q = 1/2
    q0 = Fraction(1, 2)
    points = (Fraction(0), Fraction(1), Fraction(-2))
    for kind in FamilyKind:
        fam = make_family(kind, 10)
        for n in range(1, 7):
            for x0 in points:
                lhs, rhs = oracles.recurrence_sides(kind.value, n, q0, x0)
                assert lhs == rhs
                sym_lhs = (fam.polynomial(n).scale_x(QRAT_Q)
                           .scale(QRat(q_integer(n))).evaluate(q0, x0))
                assert sym_lhs == lhs
                d_lhs, d_rhs = oracles.difference_sides(kind.value, n, q0, x0)
                assert d_lhs == d_rhs


def test_xpoly_basics():
    p = XPoly((1, 0, QRat(0)))
    assert p.degree == 0
    assert XPoly(()).is_zero()
    assert XPoly((0,)).is_zero()
    p = XPoly((QRat(1), QRat(2)))
    assert p.evaluate_x(Fraction(3)) == QRat(7)
    assert p.evaluate(Fraction(1), Fraction(3)) == 7
    assert (p - p).is_zero()
    assert p.times_x().coefficient(0).is_zero()


def _random_xpoly(rng: random.Random) -> XPoly:
    return XPoly([QRat(QPoly([rng.randint(-3, 3) for _ in range(rng.randint(0, 3))]),
                       rng.choice((QPoly(1), Q2, Q3, QPoly((0, 1)))))
                  for _ in range(rng.randint(0, 5))])


def _sequential_sum(terms) -> XPoly:
    total = XPoly()
    for c, p in terms:
        total = total + p.scale(c)
    return total


def test_float_points_never_enter_the_exact_kernel():
    p = XPoly([QRat(1), QRat(QPoly((0, 1)))])
    message = "expected int or Fraction, got float"
    for call in (lambda: p.evaluate(0.5, 1), lambda: p.evaluate(2, 0.1),
                 lambda: p.evaluate_x(0.1), lambda: p.evaluate_q(0.5),
                 lambda: QPoly(0.5), lambda: QRat(0.5), lambda: QRat(1, 0.5),
                 lambda: XPoly([0.5]), lambda: Series([0.5])):
        with pytest.raises(TypeError, match=message):
            call()
    with pytest.raises(TypeError, match="expected int or Fraction, got list"):
        XPoly([[1, 1]])
    for call in (lambda: [1, 1] - QRat(1), lambda: [1, 1] / QRat(2),
                 lambda: [1, 2] - QPoly((0, 1)), lambda: QPoly((0, 1)) + [2]):
        with pytest.raises(TypeError, match="unsupported operand"):
            call()
    assert p.evaluate(2, Fraction(1, 10)) == Fraction(6, 5)
    assert p.evaluate_x(3) == QRat(QPoly((1, 3)))


def test_sum_matches_sequential_scale_and_add():
    rng = random.Random(41)

    def coefficient() -> QRat:
        return rng.choice((QRat(0), QRat(rng.randint(-4, 4)),
                           QRat(QPoly((1, rng.randint(-2, 2))), Q3),
                           QRat(1, QPoly((0, 0, 1)))))

    for _ in range(40):
        terms = [(coefficient(), _random_xpoly(rng)) for _ in range(rng.randint(0, 7))]
        assert _sum(terms) == _sequential_sum(terms)
        # The same list with every term negated cancels completely.
        cancelling = terms + [(-c, p) for c, p in terms]
        rng.shuffle(cancelling)
        assert _sum(cancelling).coeffs == ()
    assert _sum([]).coeffs == ()
    assert _sum([(QRat(0), XPoly((1, 2)))]).coeffs == ()


def test_difference_form_takes_weights_above_n():
    """D^k of a degree-n polynomial vanishes for k > n, so a weight there
    is accepted and adds nothing."""
    fam = make_family(FamilyKind.HERMITE, 8)
    at_qx, at_x = QRat(Q2), QRat.q_power(1)
    base = difference_form(fam, 1, at_qx, at_x, [(0, QRat(5))])
    for k in (2, 3, 6):
        assert difference_form(fam, 1, at_qx, at_x, [(0, QRat(5)), (k, QRat(7))]) == base
    h1 = fam.polynomial(1)
    assert base == _sequential_sum([(at_qx, h1.scale_x(QRAT_Q)),
                                    (at_x, h1.q_derivative().times_x()),
                                    (QRat(5), h1)])


def test_non_cyclotomic_generator_passes_the_general_identities():
    """A generator whose coefficient denominators have the factors 1 + 2q
    and q^2 + q + 2, which no exponent map covers: its numbers take the
    generic path, mixed with the factored q-constants, and the theorems
    about every q-Appell family still hold.  The second input,
    c_0 = 1, c_n = c_{n-1}/(2 + q + q^2) + q/(3 + q^2) at order 12, takes
    the generic path at depth: its alphas reach denominator degree 44."""
    order = 7
    coeffs = [QRat(1), QRat(QPoly((0, 1)), QPoly((1, 2))),
              QRat(1, QPoly((2, 1, 1))), QRat(QPoly((3, 0, 1)), QPoly((1, 2)) * Q3)]
    coeffs += [QRat(QPoly((1, -1, k))) for k in range(order + 1 - len(coeffs))]
    deep = [QRat(1)]
    for _ in range(12):
        deep.append(deep[-1] / QPoly((2, 1, 1)) + QRat(QPoly((0, 1)), QPoly((3, 0, 1))))
    shallow, deep = (AppellFamily("non-cyclotomic", Series(cs)) for cs in (coeffs, deep))
    assert shallow.numbers(1)[1]._m is None
    assert shallow.numbers(3)[3].den.coeffs[0] == Fraction(1, 2)
    q0 = Fraction(1, 2)
    for fam in (shallow, deep):
        order = fam.order
        for report in (verify_recurrence_range(fam, 1, order - 1),
                       verify_difference_range(fam, 1, order - 1),
                       verify_lowering_range(fam, order)):
            assert report.passed, report.theorem_id
        alphas = fam.alphas(order - 1)
        assert ([a.evaluate(q0) for a in alphas]
                == _numeric_alphas(fam.generator.coeffs, order - 1, q0))
    assert max(a.den.degree for a in alphas) == 44


@pytest.mark.parametrize("valuation", (0, 1))
def test_quotient_is_series_division_in_the_divided_power_basis(valuation):
    """appell.quotient(num, den) on numbers with the factors 1 + 2q and
    2 + q, which no exponent vector covers: x_n is [n]_q! times the t^n
    coefficient of N(t)/D(t) divided as plain series.  With D_0 = 0 the
    rule solves row n + 1, where the common factor t of N and D cancels."""
    order = 6
    den = [QRat(0)] * valuation + [QRat(QPoly((j, 1, 1)), QPoly((2, 1)))
                                   for j in range(valuation, order + 1)]
    num = [QRat(0)] * valuation + [QRat(QPoly((1, -m)), QPoly((1, 2)))
                                   for m in range(valuation, order + 1)]
    rule = appell.quotient(num.__getitem__, den.__getitem__)
    xs = []
    for n in range(order - valuation + 1):
        xs.append(rule(n, xs))
    plain = [Series([c / QRat.q_factorial(j) for j, c in enumerate(cs)])
             for cs in (num, den)]
    quot = plain[0].divide(plain[1])
    assert xs == [c * QRat.q_factorial(n) for n, c in enumerate(quot.coeffs)]
    assert all(x._m is None for x in xs[1:])


def test_x_and_t_transforms_agree_coefficient_by_coefficient():
    """XPoly.scale_x and Series.scale_arg, and the two q_derivative
    methods, give the same coefficients on the same sequence, a
    non-cyclotomic coefficient and scale factor included."""
    rng = random.Random(14)
    pool = [QRat(QPoly([rng.randint(-4, 4) for _ in range(3)]), den)
            for den in (QPoly(1), Q2, Q3, QPoly((0, 1)), QPoly((1, 2)), QPoly((3, 0, 1)))]
    for _ in range(6):
        coeffs = [rng.choice(pool) for _ in range(rng.randint(2, 7))] + [pool[-1]]
        c = rng.choice(pool[3:])
        series, poly = Series(coeffs), XPoly(coeffs)
        scaled = series.scale_arg(c)
        assert scaled.coeffs == tuple(poly.scale_x(c).coefficient(k)
                                      for k in range(len(coeffs)))
        derived = series.q_derivative()
        assert derived.coeffs == tuple(poly.q_derivative().coefficient(k)
                                       for k in range(len(coeffs) - 1))
        q0 = Fraction(1, 3)
        at = [a.evaluate(q0) for a in coeffs]
        assert [a.evaluate(q0) for a in scaled.coeffs] == [
            a * c.evaluate(q0) ** k for k, a in enumerate(at)]
        assert [a.evaluate(q0) for a in derived.coeffs] == [
            a * sum(q0 ** i for i in range(k)) for k, a in enumerate(at) if k]
