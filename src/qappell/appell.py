"""Generic q-Appell machinery.

A family is held in the q-divided-power basis of Al-Salam's q-Appell
sets: its numbers A_k = [k]_q! [t^k]A(t) of the generator A(t).  In that
basis e_q(t) is all ones, t -> qt multiplies A_k by q^k, t D_q multiplies
it by [k]_q, and a product of series is a q-binomial convolution, so a
family's numbers and alphas are triangular solves, computed as far as
they are asked for.  The polynomials are A_n(x) = sum_k [n k]_q A_k
x^(n-k).  The alpha coefficients are those of the quotient
t * D_q A(t) / A(qt), and the two structural identities checked here are

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
for a right one.  The x^(n-m) coefficient of the recurrence residual is
[n m]_q q^(n-m) E_m, where E_m = [m]_q A_m - sum_k [m k]_q q^(m-k)
alpha_k A_{m-k} is the defect of the alpha equation, one sum per m; the
difference residual is its negative, and every lowering defect
M_{n,k} = D^k A_n - ([n]_q!/[n-k]_q!) A_{n-k} is zero.  Those residuals
are derived so where the premises hold through n: the q-constants are
true, row by row (q^n = q q^(n-1), [n]_q = [n-1]_q + q^(n-1),
[n]_q! = [n]_q [n-1]_q!, [n k]_q [k]_q! [n-k]_q! = [n]_q!, which imply
q-Pascal and the other identities used); each cached A_n is its
construction; the forms' bases are A_n(qx) and x A_{n-1}(x); and
M_{n,1} = D A_n - [n]_q A_{n-1} vanishes.  Elsewhere they are direct sums.

The shapes are linear in their coefficients.  A recurrence form at
(family, n) is lam times a reference plus the form of its coefficient
differences, few or none of them nonzero; the reference is the first
form kept at n with a nonzero A_n(qx) coefficient, the derived
recurrence residual or a direct sum.  A difference form is a recurrence
form plus the lowering defects, which follow from M_{n,1} by the
recursion M_{n,k} = [n]_q M_{n-1,k-1} + D^(k-1) M_{n,1}.  So a degree
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

    Numbers, alphas and polynomials are computed on demand: each cache
    holds a prefix that grows to the largest index asked for, never past
    the order, and a value once computed never changes.  One lock per
    family guards every extension, so a family may be shared between
    threads: concurrent callers get exactly the values a single thread
    would, and each value is computed once.
    """

    def __init__(self, name: str, generator: Series):
        coeffs = generator.coeffs
        self._start(name, generator.order, lambda n, _: coeffs[n] * _qf(n))
        self._generator = generator

    @classmethod
    def from_numbers(cls, name: str, order: int, number) -> AppellFamily:
        """The family whose A_n is ``number(n, prefix)``, where prefix
        holds A_0 .. A_{n-1}.  A_0 and A_1 must not both vanish."""
        fam = cls.__new__(cls)
        fam._start(name, order, number)
        return fam

    def _start(self, name: str, order: int, number) -> None:
        self.name = name
        self.order = order
        self._number = number
        self._lock = threading.Lock()
        self._numbers: list[QRat] = []
        self._alphas: list[QRat] = []
        self._alpha_defects: list[QRat] = []
        self._polys: dict[int, XPoly] = {}
        # Per degree n: the reference recurrence form (see recurrence_form),
        # the lowering defects M_{n,0} .. M_{n,n} (see lowering_defects)
        # and whether the family's premises hold at n (see _premises_at).
        self._references: dict[int, tuple] = {}
        self._defects: dict[int, tuple[XPoly, ...]] = {}
        self._premises: dict[int, bool] = {}
        self._generator: Series | None = None
        head = self.numbers(1 if order > 0 else 0)
        self.shifted = head[0].is_zero()
        if self.shifted and (len(head) == 1 or head[1].is_zero()):
            raise ValueError(
                "A_0 = 0 and A_1 is zero or past the order: the generator "
                "vanishes to order >= 2 at t = 0, and the alpha quotient "
                "does not determine a power series")

    def _numbers_upto(self, upto: int) -> list[QRat]:
        # The caller holds the lock.
        nums = self._numbers
        while len(nums) <= upto:
            nums.append(self._number(len(nums), nums))
        return nums

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
        with self._lock:
            return tuple(self._numbers_upto(upto)[: upto + 1])

    def polynomial(self, n: int) -> XPoly:
        """A_n(x) = sum_k [n k]_q A_k x^(n-k)."""
        if not 0 <= n <= self.order:
            raise ValueError(f"degree {n} outside 0..{self.order}")
        with self._lock:
            cached = self._polys.get(n)
            if cached is None:
                cached = self._polys[n] = self._construction(n)
            return cached

    def _construction(self, n: int) -> XPoly:
        # The caller holds the lock.  The x^(n-k) coefficient is [n k]_q A_k.
        nums = self._numbers_upto(n)
        return XPoly([nums[k] * _qb(n, k) for k in range(n, -1, -1)])

    def alphas(self, upto: int) -> tuple[QRat, ...]:
        """alpha_0 .. alpha_upto, the divided-power coefficients of
        t * D_q A(t) / A(qt).

        In the divided-power basis the quotient is the deconvolution

          sum_k [m k]_q q^(m-k) alpha_k A_{m-k} = [m]_q A_m,

        solved for alpha_n at m = n, or at m = n + 1 for a shifted
        generator (A_0 = 0), where the common factor t cancels.
        """
        if upto > self.order - 1:
            raise ValueError(
                f"alpha index {upto} exceeds order-1 = {self.order - 1}")
        with self._lock:
            al = self._alphas
            while len(al) <= upto:
                al.append(self._alpha(len(al)))
            return tuple(al[: upto + 1])

    def alpha_defects(self, upto: int) -> tuple[QRat, ...]:
        """E_0 .. E_upto, E_m = [m]_q A_m - sum_k [m k]_q q^(m-k) alpha_k
        A_{m-k}: the defects of the equation that defines the alphas,
        all zero when they are its solution.  Each is one FracAcc sum."""
        alphas = self.alphas(upto)
        with self._lock:
            es = self._alpha_defects
            while len(es) <= upto:
                m = len(es)
                es.append(solve_step(self._numbers_upto(m)[m] * _qi(m),
                                     self._terms(m, alphas[: m + 1]), QRAT_ONE))
            return tuple(es[: upto + 1])

    def _terms(self, m: int, alphas) -> list[tuple[QRat, QRat]]:
        # The caller holds the lock: the nonzero (weight alpha_k, A_{m-k})
        # pairs of the alpha equation at m, for the given alphas.
        nums = self._numbers_upto(m)
        return [(_qb(m, k) * _qp(m - k) * a, nums[m - k])
                for k, a in enumerate(alphas) if a and nums[m - k]]

    def _keep(self, table: dict, n: int, value):
        """Store value at n unless another thread stored one first, and
        return the stored value.  Values are computed outside the lock,
        which polynomial() takes; a race costs only duplicate work."""
        with self._lock:
            return table.setdefault(n, value)

    def _alpha(self, n: int) -> QRat:
        # The caller holds the lock and has alpha_0 .. alpha_{n-1}.
        m = n + 1 if self.shifted else n
        nums = self._numbers_upto(m)
        pivot = nums[m - n] * _qb(m, n) * _qp(m - n)
        return solve_step(nums[m] * _qi(m), self._terms(m, self._alphas), pivot)


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
    if not (lam and c0):
        return c
    acc = FracAcc()
    acc.add(c)
    acc.add_product(-lam, c0)
    return acc.value()


def _basis(fam: AppellFamily, n: int, key) -> XPoly:
    """The polynomial a recurrence-form coefficient multiplies: A_n(qx)
    for "qx", x A_{n-1}(x) for "x", A_j(x) for an index j."""
    if key == "qx":
        return fam.polynomial(n).scale_x(QRAT_Q)
    if key == "x":
        return fam.polynomial(n - 1).times_x()
    return fam.polynomial(key)


def _coefficients(at_qx: QRat, at_x: QRat, weights) -> dict:
    """A recurrence form's coefficients, keyed as in ``_basis``."""
    coeffs = {"qx": at_qx, "x": at_x}
    for j, w in weights:
        coeffs[j] = coeffs[j] + w if j in coeffs else w
    return coeffs


def recurrence_form(fam: AppellFamily, n: int, at_qx: QRat, at_x: QRat,
                    weights) -> XPoly:
    """at_qx A_n(qx) + at_x x A_{n-1}(x) + sum w A_j(x) over the (j, w)
    pairs of `weights`: the shape of the recurrence a1 and of every
    recurrence specialized from it.

    The form is linear in its coefficients.  So against a reference, a
    form with coefficients c0 (keyed "qx", "x" and j as in ``_basis``)
    and residual R0, it is lam R0 plus the sum of (c - lam c0) times its
    polynomial, over the coefficients where that is nonzero, with
    lam = at_qx / c0["qx"]; at "qx" the difference is zero.  Before the
    family keeps one at n, the reference is 1 A_n(qx), so the sum is the
    direct one; the first form with at_qx != 0 is kept as the reference,
    unless the derived recurrence residual was kept first.
    """
    coeffs = _coefficients(at_qx, at_x, weights)
    c0, r0 = fam._references.get(n) or ({"qx": QRAT_ONE}, _basis(fam, n, "qx"))
    lam = at_qx / c0["qx"]
    diffs = ((key, _less(coeffs.get(key, QRAT_ZERO), lam, c0.get(key, QRAT_ZERO)))
             for key in {**c0, **coeffs})
    form = _sum([(lam, r0), *((c, _basis(fam, n, key)) for key, c in diffs if c)])
    if at_qx:
        fam._keep(fam._references, n, (coeffs, form))
    return form


def lowering_defects(fam: AppellFamily, n: int) -> tuple[XPoly, ...]:
    """M_{n,k} = D^k A_n - ([n]_q!/[n-k]_q!) A_{n-k} for 0 <= k <= n, all
    zero when the lowering identity holds at n.

    For any polynomials M_{n,0} = 0, M_{n,1} = D A_n - [n]_q A_{n-1} and
    M_{n,k} = [n]_q M_{n-1,k-1} + D^(k-1) M_{n,1}, so a degree costs one
    derivative and one comparison when M_{n,1} vanishes, not n
    derivatives.  The family keeps the defects of every degree up to n.
    """
    table = fam._defects
    for m in range(n + 1):
        if m in table:
            continue
        ms = [XPoly()]
        if m:
            below, qm = table[m - 1], _qi(m)
            derivative = fam.polynomial(m).q_derivative()
            lowered = fam.polynomial(m - 1).scale(qm)
            dm = XPoly() if derivative == lowered else derivative - lowered
            ms.append(dm)
            for k in range(2, m + 1):
                if not dm.is_zero():
                    dm = dm.q_derivative()
                ms.append(_sum([(qm, below[k - 1]), (QRAT_ONE, dm)])
                          if dm.coeffs or below[k - 1].coeffs else dm)
        fam._keep(table, m, tuple(ms))
    return table[n]


def difference_form(fam: AppellFamily, n: int, at_qx: QRat, at_x: QRat,
                    weights) -> XPoly:
    """at_qx A_n(qx) + at_x x D A_n(x) + sum w D^k A_n(x) over the (k, w)
    pairs of `weights`: the shape of the difference equation a2 and of
    every equation specialized from it.

    D^k A_n = ([n]_q!/[n-k]_q!) A_{n-k} + M_{n,k} makes it the recurrence
    form with at_x [n]_q at x A_{n-1} and w [n]_q!/[n-k]_q! at A_{n-k},
    plus at_x x M_{n,1} + sum w M_{n,k} over the nonzero defects.  D^k A_n
    vanishes for k > n, so a weight there adds nothing.
    """
    weights = [(k, w) for k, w in weights if k <= n]
    form = recurrence_form(fam, n, at_qx, at_x * _qi(n), [
        (n - k, w * (_qf(n) / _qf(n - k))) for k, w in weights])
    ms = lowering_defects(fam, n)
    defects = [(w, ms[k]) for k, w in weights if not ms[k].is_zero()]
    if n and not ms[1].is_zero():
        defects.append((at_x, ms[1].times_x()))
    return form + _sum(defects) if defects else form


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
    """Whether every premise of the number-level derivation (see the
    module docstring) holds through degree n."""
    for m in range(n + 1):
        if not _row_holds((_qp, _qi, _qf, _qb), m):
            return False
        held = fam._premises.get(m)
        if held is None:
            held = fam._keep(fam._premises, m, _premises_at(fam, m))
        if not held:
            return False
    return True


def _premises_at(fam: AppellFamily, n: int) -> bool:
    """Degree n's own premises: the cached A_n is its construction, the
    bases at n are A_n(qx) and x A_{n-1}(x), and M_{n,1} = 0."""
    p = fam.polynomial(n)
    with fam._lock:
        built = fam._construction(n)
    if p != built or _basis(fam, n, "qx") != XPoly(
            [c * _qp(j) for j, c in enumerate(p.coeffs)]):
        return False
    return n == 0 or (
        _basis(fam, n, "x") == XPoly((QRAT_ZERO, *fam.polynomial(n - 1).coeffs))
        and lowering_defects(fam, n)[1].is_zero())


def _derived_residual(fam: AppellFamily, n: int) -> XPoly:
    """The recurrence residual where the premises hold through n:
    sum_m [n m]_q q^(n-m) E_m x^(n-m)."""
    es = fam.alpha_defects(n)
    return XPoly([_qb(n, m) * _qp(n - m) * es[m] for m in range(n, -1, -1)])


def recurrence_residual(fam: AppellFamily, n: int) -> XPoly:
    """[n]_q A_n(qx) - sum_k [n k]_q alpha_k q^(n-k) A_{n-k}(x)
    - x [n]_q q^n A_{n-1}(x), identically zero when the recurrence holds.
    Where the premises hold it is derived, and kept with its
    coefficients as the reference at n."""
    alphas = fam.alphas(n)
    at_qx, at_x = _qi(n), -_qi(n) * _qp(n)
    weights = ((n - k, -alphas[k] * _qb(n, k) * _qp(n - k)) for k in range(n + 1))
    if not _derivable(fam, n):
        return recurrence_form(fam, n, at_qx, at_x, weights)
    form = _derived_residual(fam, n)
    fam._keep(fam._references, n, (_coefficients(at_qx, at_x, weights), form))
    return form


def difference_residual(fam: AppellFamily, n: int) -> XPoly:
    """sum_k (q^(n-k) alpha_k/[k]_q!) D^k A_n + x q^n D A_n - [n]_q A_n(qx),
    the negative of the recurrence residual where the premises hold."""
    if _derivable(fam, n):
        return -_derived_residual(fam, n)
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
    it is zero exactly when every chain length passes.
    """
    if not 0 <= max_n <= fam.order:
        raise DegreeRangeError(f"lowering check needs 0 <= n <= {fam.order}")

    def first_nonzero(n: int) -> XPoly:
        # A_{n-k} - ([n-k]_q!/[n]_q!) D^k A_n = -([n-k]_q!/[n]_q!) M_{n,k}
        return next((m.scale(-_qf(n - k) / _qf(n))
                     for k, m in enumerate(lowering_defects(fam, n))
                     if not m.is_zero()), XPoly())

    return make_report("lowering", fam.name, (0, max_n), first_nonzero)
