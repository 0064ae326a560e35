"""Property tests: the QRat canonical form under every operation that
builds one, the integer-primitive QPoly and QRat against plain Fraction
reference arithmetic, divided-power round trips, and sympy as an
optional third oracle for gcd and cancellation.

Inputs are built from the factors the families actually produce, q^k
and cyclotomic polynomials Phi_d(q) (products of which give [n]_q), so
numerators and denominators share factors and the gcd has work to do.
"""

from fractions import Fraction
from math import gcd

import pytest

hyp = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")

from qappell import qarith  # noqa: E402
from qappell.appell import AppellFamily, divided_power_series  # noqa: E402
from qappell.families import FamilyKind, _shape, make_family  # noqa: E402
from qappell.qarith import (FracAcc, P_ONE, PoleError, QPoly,  # noqa: E402
                            QRat, q_integer, qpoly_gcd)
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
    assert r.den.coeffs[-1] == 1
    if r.is_zero():
        assert r.den == P_ONE
    else:
        assert qpoly_gcd(r.num, r.den) == P_ONE
    assert QRat(r.num, r.den) == r


def _assert_hash_follows_eq(value) -> None:
    """a == b implies hash(a) == hash(b) across int, Fraction, QPoly and
    QRat: value against each type that can hold it, all equal."""
    r = value if isinstance(value, QRat) else QRat(value)
    views = [r]
    if r.den.is_one():
        views.append(r.num)
        if r.num.degree < 1:
            c = r.num.coeffs[0] if r.num else Fraction(0)
            views += [c, c.numerator] if c.denominator == 1 else [c]
    for a in views:
        for b in views:
            assert a == b and hash(a) == hash(b), (a, b)


def test_hash_follows_eq_on_constants():
    for c in (0, 3, -2, Fraction(5, 3)):
        _assert_hash_follows_eq(c)
        assert len({QRat(c), QPoly(c), Fraction(c), c}) == 1
    assert 3 in {QRat(3)} and QRat(QPoly((0, 1))) in {QPoly((0, 1))}


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


# Plain Fraction reference arithmetic on ascending coefficient lists with
# no trailing zero; it shares nothing with the package's integer kernels.

def _trim(v) -> list:
    v = list(v)
    while v and not v[-1]:
        v.pop()
    return v


def _ref_add(a, b, sign=1) -> list:
    n = max(len(a), len(b))
    a, b = list(a) + [0] * (n - len(a)), list(b) + [0] * (n - len(b))
    return _trim(Fraction(x) + sign * y for x, y in zip(a, b))


def _ref_mul(a, b) -> list:
    if not a or not b:
        return []
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return _trim(out)


def _ref_divmod(a, b) -> tuple[list, list]:
    """Long division over Q by a nonzero b."""
    r = [Fraction(c) for c in a]
    quot = [Fraction(0)] * max(len(a) - len(b) + 1, 0)
    while len(r) >= len(b):
        k = len(r) - len(b)
        c = r[-1] / b[-1]
        quot[k] = c
        for i, y in enumerate(b):
            r[k + i] -= c * y
        r = _trim(r)
    return _trim(quot), r


def _ref_gcd(a, b) -> list:
    """Monic gcd by Euclid over Q (empty for gcd(0, 0))."""
    while b:
        a, b = b, _ref_divmod(a, b)[1]
    return [c / a[-1] for c in a] if a else []


def _ref_eval(a, x) -> Fraction:
    acc = Fraction(0)
    for c in reversed(a):
        acc = acc * x + c
    return acc


_REF_FACTORS = ((0, 1), (-1, 1), (1, 1), (1, 1, 1), (1, 0, 1), (1, -1, 1),
                (1, 1, 1, 1), (1, 1, 1, 1, 1, 1))
_mixed = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@st.composite
def _ref_poly(draw, nonzero=False):
    """Fraction coefficients: a rational constant times shared q^k and
    cyclotomic factors times a small polynomial of mixed denominators."""
    p = [draw(_mixed.filter(bool) if nonzero else _mixed)]
    for f in draw(st.lists(st.sampled_from(_REF_FACTORS), max_size=4)):
        p = _ref_mul(p, f)
    rest = draw(st.lists(_mixed, min_size=1, max_size=4))
    if any(rest) or not nonzero:
        p = _ref_mul(p, rest)
    return _trim(p)


def _assert_canonical_poly(p: QPoly) -> None:
    """Python ints over one positive int, no trailing zero, and no common
    factor of the integers and the denominator; the rational coefficients
    read back to the same value."""
    ints, den = p._ints, p._den
    assert all(type(c) is int for c in ints) and type(den) is int
    assert den > 0 and (not ints or ints[-1])
    assert gcd(den, *ints) == 1
    assert QPoly(p.coeffs) == p and hash(QPoly(p.coeffs)) == hash(p)
    _assert_hash_follows_eq(p)


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(a=_ref_poly(), b=_ref_poly(), q0=_mixed)
def test_qpoly_matches_fraction_reference(a, b, q0):
    pa, pb = QPoly(a), QPoly(b)
    for ours, ref in ((pa, a), (pb, b), (pa + pb, _ref_add(a, b)),
                      (pa - pb, _ref_add(a, b, -1)), (pa * pb, _ref_mul(a, b))):
        _assert_canonical_poly(ours)
        assert list(ours.coeffs) == ref
        assert ours.evaluate(q0) == _ref_eval(ref, q0)
    if b:
        quot = (pa * pb).div_exact(pb)
        _assert_canonical_poly(quot)
        assert list(quot.coeffs) == _ref_divmod(_ref_mul(a, b), b)[0] == a
        ref_quot, ref_rem = _ref_divmod(a, b)
        if ref_rem:
            with pytest.raises(ArithmeticError):
                pa.div_exact(pb)
        else:
            assert list(pa.div_exact(pb).coeffs) == ref_quot


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(common=_ref_poly(nonzero=True), x=_ref_poly(), y=_ref_poly())
def test_qpoly_gcd_matches_fraction_reference(common, x, y):
    a, b = _ref_mul(common, x), _ref_mul(common, y)
    g = qpoly_gcd(QPoly(a), QPoly(b))
    _assert_canonical_poly(g)
    if not a and not b:
        assert g.is_zero()
        return
    # primitive integer coefficients with a positive leading one
    assert g._den == 1 and gcd(*g._ints) == 1 and g._ints[-1] > 0
    assert [c / g.coeffs[-1] for c in g.coeffs] == _ref_gcd(a, b)


@hyp.settings(max_examples=80, deadline=None)
@hyp.given(num=_ref_poly(), den=_ref_poly(nonzero=True),
           num2=_ref_poly(), den2=_ref_poly(nonzero=True), q0=_mixed)
def test_qrat_matches_fraction_reference(num, den, num2, den2, q0):
    r, s = QRat(QPoly(num), QPoly(den)), QRat(QPoly(num2), QPoly(den2))
    cases = [(r, num, den), (s, num2, den2),
             (r + s, _ref_add(_ref_mul(num, den2), _ref_mul(num2, den)),
              _ref_mul(den, den2)),
             (r - s, _ref_add(_ref_mul(num, den2), _ref_mul(num2, den), -1),
              _ref_mul(den, den2)),
             (r * s, _ref_mul(num, num2), _ref_mul(den, den2))]
    if num2:
        cases.append((r / s, _ref_mul(num, den2), _ref_mul(den, num2)))
    for ours, ref_num, ref_den in cases:
        _assert_canonical_poly(ours.num)
        _assert_canonical_poly(ours.den)
        assert ours.den.coeffs[-1] == 1
        assert (_ref_mul(list(ours.num.coeffs), ref_den)
                == _ref_mul(ref_num, list(ours.den.coeffs)))
        at = _ref_eval(ref_den, q0)
        if at:
            assert ours.evaluate(q0) == _ref_eval(ref_num, q0) / at


@hyp.settings(max_examples=60, deadline=None)
@hyp.given(num=_ref_poly(nonzero=True), den=_ref_poly(nonzero=True),
           root=_mixed)
def test_pole_error_at_a_root_of_the_denominator(num, den, root):
    hyp.assume(_ref_eval(num, root))
    r = QRat(QPoly(num), QPoly(_ref_mul(den, [-root, 1])))
    with pytest.raises(PoleError):
        r.evaluate(root)


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


@st.composite
def _shapes(draw):
    """A valid shape (a, b, c, p) of c t^p / (a e_q(t) + b): a, c != 0,
    and a + b != 0 unless the factor t cancels (p = 1)."""
    a, c = (draw(st.integers(-3, 3).filter(bool)) for _ in range(2))
    p = draw(st.sampled_from((0, 1)))
    b = draw(st.integers(-3, 3).filter(lambda b: a + b or p))
    return a, b, c, p


@hyp.settings(max_examples=20, deadline=None)
@hyp.given(shape=_shapes())
@hyp.example(shape=(2, -1, 1, 1))   # Apostol type t / (2 e_q(t) - 1)
@hyp.example(shape=(1, -3, -2, 0))  # Frobenius-Euler type -2 / (e_q(t) - 3)
def test_declared_alphas_equal_the_solved_alphas(shape):
    a, b, _, p = shape
    number, alpha = _shape(*shape)
    declared = AppellFamily.from_numbers("declared", 13, number, alpha)
    solved = AppellFamily.from_numbers("solved", 13, number)
    assert declared.shifted == bool(p and a + b)
    assert declared.alphas(12) == solved.alphas(12)


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
        assert QPoly(monic) * ours.coeffs[-1] == ours


# The factored and the generic QRat paths against each other.  A value is
# built by exponent arithmetic from q^a, [k]_q, [k]_q! and [n k]_q, or by
# QRat(num, den) over a denominator with the non-cyclotomic factor 1 + 2q
# or q^2 + q + 2, or as the product of one of each; its reference is a
# plain Fraction (num, den) pair built from _ref_* lists alongside.

_NON_CYCLOTOMIC = ((1, 2), (2, 1, 1))


def _ref_q_factorial(k: int) -> list:
    out = [Fraction(1)]
    for j in range(1, k + 1):
        out = _ref_mul(out, [1] * j)
    return out


def _ref_q_constant(kind: str, n: int, k: int) -> list:
    if kind == "power":
        return [0] * n + [1]
    if kind == "integer":
        return [1] * n
    if kind == "factorial":
        return _ref_q_factorial(n)
    quot, rem = _ref_divmod(_ref_q_factorial(n),
                            _ref_mul(_ref_q_factorial(k), _ref_q_factorial(n - k)))
    assert not rem
    return quot


def _q_constant(kind: str, n: int, k: int) -> QRat:
    if kind == "power":
        return QRat.q_power(n)
    if kind == "integer":
        return QRat.q_integer(n)
    if kind == "factorial":
        return QRat.q_factorial(n)
    return QRat.q_binomial(n, k)


@st.composite
def _factored_value(draw, max_n=6):
    num = draw(_ref_poly())
    value, ref = QRat(QPoly(num)), [num, [1]]
    for _ in range(draw(st.integers(0, 3))):
        kind = draw(st.sampled_from(("power", "integer", "factorial", "binomial")))
        n = draw(st.integers(1, max_n))
        k = draw(st.integers(0, n))
        factor, ref_factor = _q_constant(kind, n, k), _ref_q_constant(kind, n, k)
        if draw(st.booleans()):
            value, ref = value * factor, [_ref_mul(ref[0], ref_factor), ref[1]]
        else:
            value, ref = value / factor, [ref[0], _ref_mul(ref[1], ref_factor)]
    assert value._m is not None
    return value, ref[0], ref[1]


@st.composite
def _generic_value(draw):
    num, den = draw(_ref_poly()), draw(_ref_poly(nonzero=True))
    factor = draw(st.sampled_from(_NON_CYCLOTOMIC))
    # Both factors are irreducible: unless factor divides num, it stays in
    # the reduced denominator and the value cannot be factored.
    hyp.assume(not num or any(_ref_divmod(num, factor)[1]))
    den = _ref_mul(den, factor)
    value = QRat(QPoly(num), QPoly(den))
    assert value.is_zero() or value._m is None
    return value, num, den


@st.composite
def _mixed_value(draw, max_n=6):
    a, num, den = draw(_factored_value(max_n))
    b, num2, den2 = draw(_generic_value())
    return a * b, _ref_mul(num, num2), _ref_mul(den, den2)


_any_value = st.one_of(_factored_value(), _generic_value(), _mixed_value())
_small_value = st.one_of(_factored_value(4), _generic_value(), _mixed_value(4))


def _generic_twin(r: QRat) -> QRat:
    """The same value held generically, as its expanded pair, even when
    its denominator is q^a prod Phi_d, so that arithmetic on it runs the
    generic path."""
    return qarith._generic(r.num, r.den)


def _check_value(ours: QRat, ref_num, ref_den, q0) -> None:
    """ours is canonical and equals ref_num / ref_den, also at q0."""
    num, den = list(ours.num.coeffs), list(ours.den.coeffs)
    assert den and den[-1] == 1
    if num:
        assert _ref_gcd(num, den) == [1]
    else:
        assert den == [1]
    assert _ref_mul(num, ref_den) == _ref_mul(ref_num, den)
    at = _ref_eval(ref_den, q0)
    if at:
        assert ours.evaluate(q0) == _ref_eval(ref_num, q0) / at
    twin = _generic_twin(ours)
    assert twin == ours and ours == twin and hash(twin) == hash(ours)
    # The form depends on the value alone: rebuilt from its pair, it
    # comes back equal, in the same form.
    rebuilt = QRat(ours.num, ours.den)
    assert rebuilt == ours and hash(rebuilt) == hash(ours)
    assert (rebuilt._m is None) == (ours._m is None)
    _assert_hash_follows_eq(ours)


@hyp.settings(max_examples=100, deadline=None)
@hyp.given(a=_any_value, b=_any_value, q0=_mixed)
def test_factored_and_generic_paths_agree(a, b, q0):
    (ra, na, da), (rb, nb, db) = a, b
    ta, tb = _generic_twin(ra), _generic_twin(rb)
    cases = [
        (ra, tb, na, da),
        (ra + rb, ta + tb, _ref_add(_ref_mul(na, db), _ref_mul(nb, da)), _ref_mul(da, db)),
        (ra - rb, ta - tb, _ref_add(_ref_mul(na, db), _ref_mul(nb, da), -1),
         _ref_mul(da, db)),
        (ra * rb, ta * tb, _ref_mul(na, nb), _ref_mul(da, db)),
    ]
    if nb:
        cases.append((ra / rb, ta / tb, _ref_mul(na, db), _ref_mul(da, nb)))
        cases.append((rb.reciprocal(), tb.reciprocal(), db, nb))
    for ours, generic, ref_num, ref_den in cases[1:]:
        _check_value(ours, ref_num, ref_den, q0)
        assert ours == generic and hash(ours) == hash(generic)
    _check_value(ra, na, da, q0)


@hyp.settings(max_examples=40, deadline=None)
@hyp.given(terms=st.lists(st.tuples(_small_value, _small_value), max_size=4),
           q0=_mixed)
def test_frac_acc_sums_agree_across_paths(terms, q0):
    """add and add_product, of positive and negated terms, over factored,
    generic and mixed terms, against the pairwise sum of generic twins
    and the Fraction reference."""
    acc = FracAcc()
    expected = QRat(0)
    ref_num, ref_den = [], [1]
    for i, ((a, na, da), (b, nb, db)) in enumerate(terms):
        sign = 1 if i % 2 else -1
        if i % 4 < 2:
            acc.add(a if sign > 0 else -a)
            expected = expected + sign * _generic_twin(a)
            tn, td = na, da
        else:
            acc.add_product(a if sign > 0 else -a, b)
            expected = expected + sign * _generic_twin(a) * _generic_twin(b)
            tn, td = _ref_mul(na, nb), _ref_mul(da, db)
        ref_num = _ref_add(_ref_mul(ref_num, td), _ref_mul(tn, ref_den), sign)
        ref_den = _ref_mul(ref_den, td)
    total = acc.value()
    _check_value(total, ref_num, ref_den, q0)
    assert total == expected and hash(total) == hash(expected)
