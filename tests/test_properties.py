"""Property tests: the QRat canonical form under every operation that
builds one, divided-power round trips, and sympy as an optional third
oracle for gcd and cancellation.

Inputs are built from the factors the families actually produce, q^k
and cyclotomic polynomials Phi_d(q) (products of which give [n]_q), so
numerators and denominators share factors and the gcd has work to do.
"""

from fractions import Fraction

import pytest

hyp = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qappell.appell import AppellFamily, divided_power_series  # noqa: E402
from qappell.families import FamilyKind, make_family  # noqa: E402
from qappell.qarith import (FracAcc, P_ONE, QPoly, QRat,  # noqa: E402
                            q_integer, qpoly_gcd)
from qappell.qseries import Series  # noqa: E402

_FACTORS = (
    QPoly((0, 1)),           # q
    QPoly((-1, 1)),          # Phi_1
    QPoly((1, 1)),           # Phi_2
    QPoly((1, 1, 1)),        # Phi_3
    QPoly((1, 0, 1)),        # Phi_4
    QPoly((1, -1, 1)),       # Phi_6
    q_integer(4), q_integer(6),
)

_small = st.fractions(min_value=-4, max_value=4, max_denominator=3)


@st.composite
def _qpoly(draw, nonzero=False):
    """A rational constant times a product of shared factors times a
    small random polynomial."""
    lead = draw(_small.filter(bool) if nonzero else _small)
    p = QPoly(lead)
    for f in draw(st.lists(st.sampled_from(_FACTORS), max_size=4)):
        p = p * f
    rest = draw(st.lists(_small, min_size=1, max_size=3))
    if QPoly(rest) or not nonzero:
        p = p * QPoly(rest)
    return p


_qrat = st.builds(QRat, _qpoly(), _qpoly(nonzero=True))
_nonzero_qrat = _qrat.filter(bool)


def _assert_canonical(r: QRat) -> None:
    assert r.den.leading() == 1
    if r.is_zero():
        assert r.den == P_ONE
    else:
        assert qpoly_gcd(r.num, r.den) == P_ONE
    assert QRat(r.num, r.den) == r


def _same_value(r: QRat, num: QPoly, den: QPoly) -> bool:
    return r.num * den == num * r.den


@hyp.settings(max_examples=80, deadline=None)
@hyp.given(num=_qpoly(), den=_qpoly(nonzero=True))
def test_construction_is_canonical(num, den):
    r = QRat(num, den)
    _assert_canonical(r)
    assert _same_value(r, num, den)


@hyp.settings(max_examples=80, deadline=None)
@hyp.given(a=_qrat, b=_nonzero_qrat)
def test_arithmetic_results_are_canonical(a, b):
    results = (
        (a + b, a.num * b.den + b.num * a.den, a.den * b.den),
        (a * b, a.num * b.num, a.den * b.den),
        (a / b, a.num * b.den, a.den * b.num),
    )
    for r, num, den in results:
        _assert_canonical(r)
        assert _same_value(r, num, den)


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(terms=st.lists(_qrat, max_size=6))
def test_frac_acc_value_is_canonical(terms):
    acc = FracAcc()
    expected = QRat(0)
    for t in terms:
        acc.add(t)
        expected = expected + t
    r = acc.value()
    _assert_canonical(r)
    assert r == expected


@hyp.settings(max_examples=20, deadline=None)
@hyp.given(kind=st.sampled_from(list(FamilyKind)), k=st.integers(0, 10))
def test_generator_round_trip_gives_the_family_numbers(kind, k):
    fam = make_family(kind, 10)
    assert AppellFamily("x", fam.generator).numbers(k) == fam.numbers(k)


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(valuation=st.sampled_from((0, 1)),
           lead=_small.filter(bool).map(QRat),
           rest=st.lists(_qrat, min_size=1, max_size=6))
def test_ordinary_basis_round_trip(valuation, lead, rest):
    coeffs = [QRat(0)] * valuation + [lead] + rest
    fam = AppellFamily("c", Series(coeffs))
    again = divided_power_series(fam.numbers(fam.order))
    assert again.coeffs == Series(coeffs).coeffs


def _sympy_expr(sympy, q, p: QPoly):
    return sum((sympy.Rational(c.numerator, c.denominator) * q ** k
                for k, c in enumerate(p.coeffs)), sympy.Integer(0))


@hyp.settings(max_examples=25, deadline=None)
@hyp.given(a=_qrat, b=_nonzero_qrat)
def test_sympy_agrees_on_gcd_and_cancellation(a, b):
    sympy = pytest.importorskip("sympy")
    q = sympy.Symbol("q")

    def to_sympy(r: QRat):
        return _sympy_expr(sympy, q, r.num) / _sympy_expr(sympy, q, r.den)

    sa, sb = to_sympy(a), to_sympy(b)
    for ours, theirs in ((a + b, sa + sb), (a * b, sa * sb), (a / b, sa / sb)):
        num, den = (_sympy_expr(sympy, q, p) for p in (ours.num, ours.den))
        assert sympy.Poly(sympy.gcd(num, den), q).degree() <= 0
        assert sympy.cancel(num / den - theirs) == 0

    x, y = a.num * b.den, b.num * a.den
    if x and y:
        ours = qpoly_gcd(x, y)
        theirs = sympy.Poly(sympy.gcd(_sympy_expr(sympy, q, x),
                                      _sympy_expr(sympy, q, y)), q)
        monic = [Fraction(c.p, c.q) for c in reversed(theirs.monic().all_coeffs())]
        assert QPoly(monic).scale(ours.leading()) == ours
