"""Generic q-Appell machinery.

A family is held in the q-divided-power basis of Al-Salam's q-Appell
sets: its numbers A_k = [k]_q! [t^k]A(t) of the generator A(t).  In that
basis e_q(t) is all ones, t -> qt multiplies A_k by q^k, t D_q multiplies
it by [k]_q, and a product of series is a q-binomial convolution.  So
a quotient X(t) = N(t)/D(t) is one triangular solve, row m of
X(t) D(t) = N(t) at a time (``quotient``), computed as far as it is
asked for.  The polynomials are A_n(x) = sum_k [n k]_q A_k x^(n-k).  The
alphas are the coefficients of t * D_q A(t) / A(qt), given by the
family's alpha rule or else solved as that quotient, and the two
structural identities checked here are

  recurrence:  [n]_q A_n(qx) = sum_k [n k]_q alpha_k q^(n-k) A_{n-k}(x)
                               + x [n]_q q^n A_{n-1}(x)

  difference:  sum_k (q^(n-k) alpha_k / [k]_q!) D^k A_n(x)
               + x q^n D A_n(x) - [n]_q A_n(qx) = 0

together with the lowering chain A_{n-k} = ([n-k]_q!/[n]_q!) D^k A_n.
Generators with zero constant term (the Genocchi case) are accepted: the
alpha quotient then cancels a common factor of t.

Every recurrence and difference equation checked in the package has one
of two shapes, and each residual is a list of (index, coefficient) terms
in one of them:

  recurrence_form:  at_qx A_n(qx) + at_x x A_{n-1}(x) + sum_j w_j A_j(x)
  difference_form:  at_qx A_n(qx) + at_x x D A_n(x) + sum_k w_k D^k A_n(x)

The general identities above fill them with the alphas; the Hermite
identities and the printed Bernoulli, Euler and Genocchi claims are the
same shapes with other weights.  Each x-power of a residual is summed
over a common denominator and canonicalized once.

Each residual equals the direct sum of its terms, for a wrong family as
for a right one.  One predicate, ``_derivable(fam, n)``, decides how
each is computed: it holds when, at every degree m <= n, the
q-constants of row m are true (q^m = q q^(m-1), [m]_q = [m-1]_q +
q^(m-1), [m]_q! = [m]_q [m-1]_q!, [m k]_q [k]_q! [m-k]_q! = [m]_q!,
which imply q-Pascal and the other identities used), the cached A_m is
its construction, the forms' bases are A_m(qx) and x A_{m-1}(x), and
D A_m = [m]_q A_{m-1}.  Where it holds, D^k A_n = ([n]_q!/[n-k]_q!)
A_{n-k}, so every lowering residual is zero and a difference form is a
recurrence form; the x^(n-m) coefficient of the recurrence residual is
[n m]_q q^(n-m) E_m, where E_m = [m]_q A_m - sum_k [m k]_q q^(m-k)
alpha_k A_{m-k} is the defect of the alpha equation, one sum per m, and
the difference residual is its negative.  Where it fails, each residual
is its definition summed directly, with D^k taken one q-derivative at a
time.

The shapes are linear in their coefficients.  The family keeps one
reference per degree, a1's coefficients and a1's residual, and any
recurrence form at n is lam times that residual plus the form of its
coefficient differences, few or none of them nonzero.  So a degree
costs O(n) number-level arithmetic, not O(n^2) polynomial products.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .qarith import (FracAcc, QRat, QRAT_ONE, QRAT_Q, QRAT_ZERO, _as_qrat,
                     solve_step)
from .qpoly import TEXT, Spelling, _as_fraction, join_terms
from .qseries import Series, jackson, scale_powers

# The factored q-constants: q^e, [n]_q, [n]_q! and [n k]_q.
_qp, _qi, _qf, _qb = QRat.q_power, QRat.q_integer, QRat.q_factorial, QRat.q_binomial


class XPoly:
    """Polynomial in x with QRat coefficients, ascending powers.

    Canonical form: no trailing zero coefficients; the zero polynomial is
    the empty tuple.  Identity checks reduce to ``residual.is_zero()``.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = [_as_qrat(c) for c in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        self.coeffs = tuple(cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def coefficient(self, k: int) -> QRat:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return QRAT_ZERO

    def __eq__(self, other) -> bool:
        if not isinstance(other, XPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __neg__(self) -> XPoly:
        return XPoly([-c for c in self.coeffs])

    def __add__(self, other) -> XPoly:
        if not isinstance(other, XPoly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return XPoly(out)

    def __sub__(self, other) -> XPoly:
        if not isinstance(other, XPoly):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> XPoly:
        c = _as_qrat(c)
        if c.is_zero():
            return XPoly()
        return XPoly([a * c for a in self.coeffs])

    def times_x(self) -> XPoly:
        """Multiply by x."""
        if self.is_zero():
            return self
        return XPoly((QRAT_ZERO,) + self.coeffs)

    def scale_x(self, c) -> XPoly:
        """Substitute x -> c*x: the x^k coefficient picks up c^k."""
        return XPoly(scale_powers(self.coeffs, _as_qrat(c)))

    def q_derivative(self) -> XPoly:
        """Jackson derivative in x: x^n -> [n]_q x^(n-1)."""
        return XPoly(jackson(self.coeffs))

    def evaluate_x(self, x0) -> QRat:
        """Exact value at a rational x0, with q still symbolic (Horner)."""
        x0 = _as_qrat(x0)
        acc = QRAT_ZERO
        for c in reversed(self.coeffs):
            acc = acc * x0 + c
        return acc

    def evaluate_q(self, q0) -> list[Fraction]:
        """Coefficient list at numeric q = q0 (raises PoleError at poles)."""
        return [c.evaluate(q0) for c in self.coeffs]

    def evaluate(self, q0, x0) -> Fraction:
        """Exact value at numeric (q0, x0)."""
        x0 = _as_fraction(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c.evaluate(q0)
        return acc

    def __str__(self) -> str:
        return signed_terms(self, str, TEXT)

    def __repr__(self) -> str:
        return f"XPoly({self})"


def signed_terms(p: XPoly, write, spelling: Spelling) -> str:
    """Lay out p in descending x-powers.  A coefficient whose nonzero
    numerator terms are all negative has -1 factored out; the sign goes
    into the join and ``write(magnitude)`` spells the rest, which is
    composite, bracketed before a power of x, when it is a fraction or
    a sum."""
    terms = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        nonzero = [a for a in c.num.coeffs if a]
        if nonzero:
            negative = all(a < 0 for a in nonzero)
            mag = -c if negative else c
            terms.append((k, negative, write(mag),
                          not mag.den.is_one() or len(nonzero) > 1))
    return join_terms(terms, "x", spelling)


def divided_power_series(values) -> Series:
    """The series sum A_n t^n / [n]_q! of divided-power values A_n."""
    return Series([a / _qf(n) for n, a in enumerate(values)])


class AppellFamily:
    """A q-Appell family, held in the q-divided-power basis.

    A family is its numbers A_n = [n]_q! [t^n]A(t) for n <= order.  Built
    from a generator series, they are its coefficients times [n]_q!;
    built with ``from_numbers``, they come from a rule, and the generator
    is a view made on first use.  The generator must not vanish
    identically; a zero constant term (valuation 1, the "shifted" case)
    is accepted, while a valuation of two or more is rejected because the
    alpha quotient is then undefined.

    Every per-degree value is computed on demand and kept by one rule:
    a prefix list (numbers, alphas, alpha defects) grows in order through
    ``_extend``, and a dict entry (polynomials, a1's records, the
    premises) is filled through ``_at``.  Both build under the family's
    one reentrant lock, so a step may read the family's other tables,
    and a value once built never changes.  A family may be shared
    between threads: concurrent callers get exactly the values a single
    thread would, and each value, a1's records and the premises
    included, is built once.
    """

    def __init__(self, name: str, generator: Series):
        coeffs = generator.coeffs
        self._start(name, generator.order, lambda n, _: coeffs[n] * _qf(n), None)
        self._generator = generator

    @classmethod
    def from_numbers(cls, name: str, order: int, number, alpha=None) -> AppellFamily:
        """The family whose A_n is ``number(n, prefix)``, where prefix
        holds A_0 .. A_{n-1}.  A_0 and A_1 must not both vanish.  Its
        alpha_k is ``alpha(k, A_0 .. A_k)``, or solved without a rule."""
        fam = cls.__new__(cls)
        fam._start(name, order, number, alpha)
        return fam

    def _start(self, name: str, order: int, number, alpha) -> None:
        self.name = name
        self.order = order
        self._number = number
        self._lock = threading.RLock()
        # The six per-degree tables, each value built once under the lock:
        # prefix lists grown by _extend, then dicts filled by _at.  The
        # dicts hold A_n(x), a1's record at n (see _reference) and whether
        # the premises hold at every degree up to n (see _derivable).
        self._numbers: list[QRat] = []
        self._alphas: list[QRat] = []
        self._alpha_defects: list[QRat] = []
        self._polys: dict[int, XPoly] = {}
        self._references: dict[int, tuple] = {}
        self._premises: dict[int, bool] = {}
        self._generator: Series | None = None
        # The alpha equation alpha(t) A(qt) = t D_q A(t) as (N_m, D_j).
        self._alpha_equation = (lambda m: _qi(m) * self._numbers_upto(m)[m],
                                lambda j: _qp(j) * self._numbers_upto(j)[j])
        solve = quotient(*self._alpha_equation)
        self._alpha = alpha or (lambda k, _: solve(k, self._alphas))
        head = self.numbers(1 if order > 0 else 0)
        self.shifted = head[0].is_zero()
        if self.shifted and (len(head) == 1 or head[1].is_zero()):
            raise ValueError(
                "A_0 = 0 and A_1 is zero or past the order: the generator "
                "vanishes to order >= 2 at t = 0, and the alpha quotient "
                "does not determine a power series")

    def _extend(self, table: list, upto: int, step) -> list:
        """Grow the prefix list `table` with step(i) until it holds index
        upto, in order and under the lock, and return it."""
        with self._lock:
            while len(table) <= upto:
                table.append(step(len(table)))
            return table

    def _at(self, table: dict, n: int, build):
        """table[n], filled with build(n) under the lock if it is absent."""
        with self._lock:
            if n not in table:
                table[n] = build(n)
            return table[n]

    def _numbers_upto(self, upto: int) -> list[QRat]:
        return self._extend(self._numbers, upto, lambda n: self._number(n, self._numbers))

    @property
    def generator(self) -> Series:
        """The generator series A(t), truncated at the order.

        It holds every number up to the order, so on a shared family
        (order ``families.MAX_ORDER``) it computes all of them; no command
        or check reads it.  Read it on a family built with a small order.
        """
        with self._lock:
            if self._generator is None:
                self._generator = divided_power_series(
                    self._numbers_upto(self.order))
            return self._generator

    def numbers(self, upto: int) -> tuple[QRat, ...]:
        """A_0 .. A_upto, where A_n = [n]_q! * (t^n coefficient)."""
        if upto > self.order:
            raise ValueError(f"index {upto} exceeds the generator order {self.order}")
        return tuple(self._numbers_upto(upto)[: upto + 1])

    def polynomial(self, n: int) -> XPoly:
        """A_n(x) = sum_k [n k]_q A_k x^(n-k)."""
        if not 0 <= n <= self.order:
            raise ValueError(f"degree {n} outside 0..{self.order}")
        return self._at(self._polys, n, self._construction)

    def _construction(self, n: int) -> XPoly:
        # The x^(n-k) coefficient is [n k]_q A_k.
        nums = self._numbers_upto(n)
        return XPoly([nums[k] * _qb(n, k) for k in range(n, -1, -1)])

    def alphas(self, upto: int) -> tuple[QRat, ...]:
        """alpha_0 .. alpha_upto, the divided-power coefficients of
        t * D_q A(t) / A(qt): the family's alpha rule, or else the ``quotient``
        of the alpha equation, N_m = [m]_q A_m and D_j = q^j A_j, where the
        common factor t cancels for a shifted generator (A_0 = 0)."""
        if upto > self.order - 1:
            raise ValueError(
                f"alpha index {upto} exceeds order-1 = {self.order - 1}")
        return tuple(self._extend(self._alphas, upto, lambda k: self._alpha(
            k, self._numbers_upto(k)))[: upto + 1])

    def alpha_defects(self, upto: int) -> tuple[QRat, ...]:
        """E_0 .. E_upto, E_m = [m]_q A_m - sum_k [m k]_q q^(m-k) alpha_k
        A_{m-k}: row m of the alpha equation over the alphas, all zero
        when they are its solution.  Each is one FracAcc sum."""
        alphas = self.alphas(upto)
        return tuple(self._extend(self._alpha_defects, upto, lambda m: solve_step(
            *_row(*self._alpha_equation, alphas[: m + 1], m), QRAT_ONE))[: upto + 1])


def _row(num, den, xs, m: int) -> tuple[QRat, list[tuple[QRat, QRat]]]:
    """Row m of X(t) D(t) = N(t) in the divided-power basis,
    sum_k [m k]_q x_k D_{m-k} = N_m, over the known x_k of xs: N_m and
    the nonzero ([m k]_q x_k, D_{m-k}) pairs, for ``solve_step``."""
    return _as_qrat(num(m)), [(_qb(m, k) * x, _as_qrat(d)) for k, x in enumerate(xs)
                              if x and (d := den(m - k))]


def quotient(num, den):
    """The number rule (n, prefix) -> x_n of X(t) = N(t) / D(t), given the
    divided-power numbers N_m = num(m) and D_j = den(j).  x_n is row
    m = n + v solved with pivot [m n]_q D_v, where v = 1 when D_0 = 0
    (the factor t of D(t) cancels against N(t)) and v = 0 otherwise."""
    v = 0 if den(0) else 1

    def number(n: int, prefix) -> QRat:
        return solve_step(*_row(num, den, prefix, n + v), _qb(n + v, n) * den(v))
    return number


class DegreeRangeError(ValueError):
    """A check was asked for degrees outside its theorem's domain, or for
    a range with no degree in it."""


class VerificationReport(NamedTuple):
    """Outcome of a symbolic identity check over a degree range."""

    theorem_id: str
    family: str
    n_range: tuple[int, int]
    residuals: tuple[XPoly, ...]
    passed: bool
    first_failure: int | None


def make_report(theorem_id: str, family: str, n_range: tuple[int, int],
                residual) -> VerificationReport:
    """Evaluate ``residual(n)`` for every degree n in the inclusive
    n_range.  A range with no degree in it raises: a check that examined
    nothing must not pass."""
    lo, hi = n_range
    if lo > hi:
        raise DegreeRangeError(f"{theorem_id}: empty degree range {lo}..{hi}")
    residuals = tuple(residual(n) for n in range(lo, hi + 1))
    first = next((n for n, r in zip(range(lo, hi + 1), residuals)
                  if not r.is_zero()), None)
    return VerificationReport(theorem_id, family, n_range, residuals,
                              first is None, first)


def _sum(terms) -> XPoly:
    """sum c*p over (QRat, XPoly) pairs.  Each x-power goes through one
    FracAcc, so it is canonicalized once however many terms reach it."""
    accs: list[FracAcc] = []
    for c, p in terms:
        if c.is_zero():
            continue
        accs.extend(FracAcc() for _ in range(len(p.coeffs) - len(accs)))
        for acc, a in zip(accs, p.coeffs):
            acc.add_product(c, a)
    return XPoly([acc.value() for acc in accs])


def _less(c: QRat, lam: QRat, c0: QRat) -> QRat:
    """c - lam*c0, with the product left unreduced."""
    return solve_step(c, [(lam, c0)], QRAT_ONE) if lam and c0 else c


def _basis(fam: AppellFamily, n: int, key) -> XPoly:
    """The polynomial a recurrence-form coefficient multiplies: A_n(qx)
    for "qx", x A_{n-1}(x) for "x", A_j(x) for an index j."""
    if key == "qx":
        return fam.polynomial(n).scale_x(QRAT_Q)
    if key == "x":
        return fam.polynomial(n - 1).times_x()
    return fam.polynomial(key)


def recurrence_form(fam: AppellFamily, n: int, at_qx: QRat, at_x: QRat,
                    weights) -> XPoly:
    """at_qx A_n(qx) + at_x x A_{n-1}(x) + sum w A_j(x) over the (j, w)
    pairs of `weights`: the shape of the recurrence a1 and of every
    recurrence specialized from it.

    The form is linear in its coefficients.  So against a1's record at n,
    with coefficients c0 (keyed "qx", "x" and j as in ``_basis``) and
    residual R0, it is lam R0 plus the sum of (c - lam c0) times its
    polynomial, over the coefficients where that is nonzero, with
    lam = at_qx / [n]_q; at "qx" the difference is zero.  So n >= 1, as
    in every identity checked.
    """
    coeffs = {"qx": at_qx, "x": at_x}
    for j, w in weights:
        coeffs[j] = coeffs[j] + w if j in coeffs else w
    c0, r0 = _reference(fam, n)
    lam = at_qx / c0["qx"]
    diffs = ((key, _less(coeffs.get(key, QRAT_ZERO), lam, c0.get(key, QRAT_ZERO)))
             for key in {**c0, **coeffs})
    return _sum([(lam, r0), *((c, _basis(fam, n, key)) for key, c in diffs if c)])


def _derivatives(p: XPoly, k: int) -> list[XPoly]:
    """p, D p, .., D^k p, each the q_derivative of the one before."""
    ds = [p]
    for _ in range(k):
        ds.append(ds[-1].q_derivative())
    return ds


def difference_form(fam: AppellFamily, n: int, at_qx: QRat, at_x: QRat,
                    weights) -> XPoly:
    """at_qx A_n(qx) + at_x x D A_n(x) + sum w D^k A_n(x) over the (k, w)
    pairs of `weights`: the shape of the difference equation a2 and of
    every equation specialized from it.  D^k A_n vanishes for k > n, so a
    weight there adds nothing.

    Where ``_derivable`` holds, D^k A_n = ([n]_q!/[n-k]_q!) A_{n-k} makes
    it the recurrence form with at_x [n]_q at x A_{n-1} and
    w [n]_q!/[n-k]_q! at A_{n-k}.  Elsewhere it is the direct sum of its
    terms.
    """
    weights = [(k, w) for k, w in weights if k <= n]
    if _derivable(fam, n):
        return recurrence_form(fam, n, at_qx, at_x * _qi(n), [
            (n - k, w * (_qf(n) / _qf(n - k))) for k, w in weights])
    ds = _derivatives(fam.polynomial(n), n)
    return _sum([(at_qx, ds[0].scale_x(QRAT_Q)), (at_x, ds[1].times_x()),
                 *((w, ds[k]) for k, w in weights)])


@lru_cache(maxsize=None)
def _row_holds(constants: tuple, n: int) -> bool:
    """Whether the functions in `constants` give the true q^n, [n]_q,
    [n]_q! and row n of [n k]_q, given the rows below n: by the row rules
    of the module docstring, from q^0 = 1, [0]_q = 0 and [0]_q! = 1.
    Keyed by the functions, so each set of them is checked once."""
    qp, qi, qf, qb = constants
    if n == 0:
        return qp(0) == 1 and qi(0) == 0 and qf(0) == 1 and qb(0, 0) == 1
    return (qp(n) == QRAT_Q * qp(n - 1) and qi(n) == qi(n - 1) + qp(n - 1)
            and qf(n) == qi(n) * qf(n - 1)
            and all(qb(n, k) * qf(k) * qf(n - k) == qf(n) for k in range(n + 1)))


def _derivable(fam: AppellFamily, n: int) -> bool:
    """Whether the residuals at n are derived (see the module docstring):
    at every degree m <= n, row m of the q-constants and degree m's
    premises hold.  The family keeps the answer for every degree up to n,
    found in order; no alpha is read."""
    table = fam._premises

    def build(m: int) -> bool:
        return ((m == 0 or table[m - 1]) and _row_holds((_qp, _qi, _qf, _qb), m)
                and _premises_at(fam, m))

    for m in range(n + 1):
        fam._at(table, m, build)
    return table[n]


def _premises_at(fam: AppellFamily, n: int) -> bool:
    """Degree n's own premises: the cached A_n is its construction, the
    bases at n are A_n(qx) and x A_{n-1}(x), and D A_n = [n]_q A_{n-1}."""
    p = fam.polynomial(n)
    if p != fam._construction(n) or _basis(fam, n, "qx") != XPoly(
            [c * _qp(j) for j, c in enumerate(p.coeffs)]):
        return False
    if n == 0:
        return True
    below = fam.polynomial(n - 1)
    return (_basis(fam, n, "x") == XPoly((QRAT_ZERO, *below.coeffs))
            and p.q_derivative() == below.scale(_qi(n)))


def _reference(fam: AppellFamily, n: int) -> tuple[dict, XPoly]:
    """a1's record at n: its coefficients, keyed as in ``_basis``, and its
    residual, sum_m [n m]_q q^(n-m) E_m x^(n-m) where ``_derivable``
    holds and the direct sum of its terms elsewhere.  The family keeps
    it."""
    def build(n: int) -> tuple[dict, XPoly]:
        coeffs = {"qx": _qi(n), "x": -_qi(n) * _qp(n), **{
            n - k: -a * _qb(n, k) * _qp(n - k) for k, a in enumerate(fam.alphas(n))}}
        if _derivable(fam, n):
            es = fam.alpha_defects(n)
            return coeffs, XPoly([_qb(n, j) * _qp(n - j) * es[j] for j in range(n, -1, -1)])
        return coeffs, _sum([(c, _basis(fam, n, key)) for key, c in coeffs.items() if c])

    return fam._at(fam._references, n, build)


def recurrence_residual(fam: AppellFamily, n: int) -> XPoly:
    """[n]_q A_n(qx) - sum_k [n k]_q alpha_k q^(n-k) A_{n-k}(x)
    - x [n]_q q^n A_{n-1}(x), identically zero when the recurrence holds:
    the residual of a1's record at n."""
    return _reference(fam, n)[1]


def difference_residual(fam: AppellFamily, n: int) -> XPoly:
    """sum_k (q^(n-k) alpha_k/[k]_q!) D^k A_n + x q^n D A_n - [n]_q A_n(qx):
    the negative of a1's residual where ``_derivable`` holds, the
    difference form elsewhere."""
    if _derivable(fam, n):
        return -recurrence_residual(fam, n)
    alphas = fam.alphas(n)
    return difference_form(fam, n, -_qi(n), _qp(n), (
        (k, alphas[k] * _qp(n - k) / _qf(k)) for k in range(n + 1)))


def _degree_range(theorem_id: str, fam: AppellFamily, lo: int, hi: int,
                  residual) -> VerificationReport:
    if lo < 1 or hi > fam.order - 1:
        raise DegreeRangeError(f"{theorem_id} check needs 1 <= n <= {fam.order - 1}, "
                         f"got {lo}..{hi}")
    return make_report(theorem_id, fam.name, (lo, hi), lambda n: residual(fam, n))


def verify_recurrence_range(fam: AppellFamily, lo: int, hi: int) -> VerificationReport:
    return _degree_range("a1", fam, lo, hi, recurrence_residual)


def verify_difference_range(fam: AppellFamily, lo: int, hi: int) -> VerificationReport:
    return _degree_range("a2", fam, lo, hi, difference_residual)


def verify_lowering_range(fam: AppellFamily, max_n: int) -> VerificationReport:
    """All iterated lowerings A_{n-k} - ([n-k]_q!/[n]_q!) D^k A_n for
    0 <= k <= n <= max_n, merged into one report.

    The residual recorded at degree n is its first nonzero one over k, so
    it is zero exactly when every chain length passes.  Where
    ``_derivable`` holds at n every one is zero; elsewhere each is its
    definition, with D^k A_n taken one q-derivative at a time.
    """
    if not 0 <= max_n <= fam.order:
        raise DegreeRangeError(f"lowering check needs 0 <= n <= {fam.order}")

    def first_nonzero(n: int) -> XPoly:
        if _derivable(fam, n):
            return XPoly()
        lowered = (fam.polynomial(n - k) - d.scale(_qf(n - k) / _qf(n))
                   for k, d in enumerate(_derivatives(fam.polynomial(n), n)))
        return next((r for r in lowered if not r.is_zero()), XPoly())

    return make_report("lowering", fam.name, (0, max_n), first_nonzero)
