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
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from fractions import Fraction

from .qarith import (FracAcc, QPoly, QRat, QRAT_ONE, QRAT_Q, QRAT_ZERO,
                     q_binomial, q_factorial, q_integer)
from .qseries import Series


def _as_qrat(c) -> QRat:
    if isinstance(c, QRat):
        return c
    return QRat(c)


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

    @classmethod
    def zero(cls) -> XPoly:
        return cls()

    @classmethod
    def monomial(cls, c, k: int) -> XPoly:
        return cls((QRAT_ZERO,) * k + (_as_qrat(c),))

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

    def times_x(self, k: int = 1) -> XPoly:
        """Multiply by x^k."""
        if self.is_zero():
            return self
        return XPoly((QRAT_ZERO,) * k + self.coeffs)

    def scale_x(self, c) -> XPoly:
        """Substitute x -> c*x: the x^k coefficient picks up c^k."""
        c = _as_qrat(c)
        out = []
        power = QRAT_ONE
        for k, a in enumerate(self.coeffs):
            out.append(a if k == 0 else a * power)
            power = power * c
        return XPoly(out)

    def q_derivative(self) -> XPoly:
        """Jackson derivative in x: x^n -> [n]_q x^(n-1)."""
        out = []
        for n in range(1, len(self.coeffs)):
            a = self.coeffs[n]
            out.append(a if a.is_zero() else a * QRat.from_poly(q_integer(n)))
        return XPoly(out)

    def q_derivatives(self, upto: int) -> list[XPoly]:
        """[p, D p, ..., D^upto p], each taken from the one before."""
        out = [self]
        for _ in range(upto):
            out.append(out[-1].q_derivative())
        return out

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
        x0 = x0 if isinstance(x0, Fraction) else Fraction(x0)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x0 + c.evaluate(q0)
        return acc

    def __str__(self) -> str:
        def term(k: int, mag: QRat, composite: bool) -> str:
            if k == 0:
                return str(mag)
            var = "x" if k == 1 else f"x^{k}"
            if mag.is_one():
                return var
            return f"({mag})*{var}" if composite else f"{mag}*{var}"
        return signed_terms(self, term)

    def __repr__(self) -> str:
        return f"XPoly({self})"


def signed_terms(p: XPoly, term) -> str:
    """Lay out p in descending x-powers.  A coefficient whose nonzero
    numerator terms are all negative has -1 factored out; the sign goes
    into the join and ``term(k, magnitude, composite)`` renders the rest,
    where composite means the magnitude needs brackets before a power
    of x."""
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        nonzero = [a for a in c.num.coeffs if a]
        if not nonzero:
            continue
        negative = all(a < 0 for a in nonzero)
        mag = -c if negative else c
        composite = not mag.den.is_one() or len(nonzero) > 1
        if parts:
            parts.append(" - " if negative else " + ")
        elif negative:
            parts.append("-")
        parts.append(term(k, mag, composite))
    return "".join(parts) or "0"


def solve_step(rhs: QRat, terms, pivot: QRat) -> QRat:
    """One row of a triangular solve: (rhs - sum of terms) / pivot.

    Each term is an unreduced (num, den) pair of QPolys; the sum goes
    through one FracAcc, so the row pays a single canonicalizing gcd.
    """
    acc = FracAcc()
    acc.add(rhs)
    for num, den in terms:
        acc.add_raw(-num, den)
    return QRat(acc.num * pivot.den, acc.den * pivot.num)


def divided_power_series(values) -> Series:
    """The series sum A_n t^n / [n]_q! of divided-power values A_n."""
    return Series([a if a.is_zero() else QRat(a.num, a.den * q_factorial(n))
                   for n, a in enumerate(values)])


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
        v = generator.valuation()
        if v is None:
            raise ValueError("generator is identically zero")
        if v > 1:
            raise ValueError(
                "generator vanishes to order >= 2 at t = 0; the alpha "
                "quotient does not determine a power series")
        coeffs = generator.coeffs
        self._start(name, generator.order, lambda n, _: (
            coeffs[n] if coeffs[n].is_zero()
            else coeffs[n] * QRat.from_poly(q_factorial(n))))
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
        self._polys: dict[int, XPoly] = {}
        self._generator: Series | None = None
        self.shifted = self.numbers(0)[0].is_zero()

    def _numbers_upto(self, upto: int) -> list[QRat]:
        # The caller holds the lock.
        nums = self._numbers
        while len(nums) <= upto:
            nums.append(self._number(len(nums), nums))
        return nums

    @property
    def generator(self) -> Series:
        """The generator series A(t), truncated at the order."""
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
                nums = self._numbers_upto(n)
                coeffs = []
                for k in range(n, -1, -1):
                    # coefficient of x^(n-k)
                    a = nums[k]
                    coeffs.append(a if a.is_zero()
                                  else a * QRat.from_poly(q_binomial(n, k)))
                cached = XPoly(coeffs)
                self._polys[n] = cached
            return cached

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

    def _alpha(self, n: int) -> QRat:
        # The caller holds the lock and has alpha_0 .. alpha_{n-1}.
        m = n + 1 if self.shifted else n
        nums = self._numbers_upto(m)
        terms = ((q_binomial(m, k) * QPoly.q_power(m - k) * a.num * nums[m - k].num,
                  a.den * nums[m - k].den)
                 for k, a in enumerate(self._alphas) if a and nums[m - k])
        pivot = nums[m - n] * QRat.from_poly(q_binomial(m, n) * QPoly.q_power(m - n))
        return solve_step(nums[m] * QRat.from_poly(q_integer(m)), terms, pivot)


class DegreeRangeError(ValueError):
    """A check was asked for degrees outside its theorem's domain, or for
    a range with no degree in it."""


@dataclass(frozen=True)
class VerificationReport:
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


def _qp(e: int) -> QRat:
    return QRat.q_power(e)


def _qb(n: int, k: int) -> QRat:
    return QRat.from_poly(q_binomial(n, k))


def _qi(n: int) -> QRat:
    return QRat.from_poly(q_integer(n))


def _qf(k: int) -> QRat:
    return QRat.from_poly(q_factorial(k))


def _sum(terms) -> XPoly:
    """sum c*p over (QRat, XPoly) pairs.  Each x-power goes through one
    FracAcc, so it pays a single canonicalizing gcd however many terms
    reach it."""
    accs: list[FracAcc] = []
    for c, p in terms:
        if c.is_zero():
            continue
        accs.extend(FracAcc() for _ in range(len(p.coeffs) - len(accs)))
        for acc, a in zip(accs, p.coeffs):
            acc.add_product(c, a)
    return XPoly([acc.value() for acc in accs])


def recurrence_form(fam: AppellFamily, n: int, at_qx: QRat, at_x: QRat,
                    weights) -> XPoly:
    """at_qx A_n(qx) + at_x x A_{n-1}(x) + sum w A_j(x) over the (j, w)
    pairs of `weights`: the shape of the recurrence a1 and of every
    recurrence specialized from it."""
    poly = fam.polynomial
    return _sum([(at_qx, poly(n).scale_x(QRAT_Q)),
                 (at_x, poly(n - 1).times_x()),
                 *((w, poly(j)) for j, w in weights)])


def difference_form(fam: AppellFamily, n: int, at_qx: QRat, at_x: QRat,
                    weights) -> XPoly:
    """at_qx A_n(qx) + at_x x D A_n(x) + sum w D^k A_n(x) over the (k, w)
    pairs of `weights`: the shape of the difference equation a2 and of
    every equation specialized from it.  Derivatives are taken up to the
    largest k asked for, which may exceed n."""
    weights = list(weights)
    derivs = fam.polynomial(n).q_derivatives(max([1, *(k for k, _ in weights)]))
    return _sum([(at_qx, derivs[0].scale_x(QRAT_Q)),
                 (at_x, derivs[1].times_x()),
                 *((w, derivs[k]) for k, w in weights)])


def recurrence_residual(fam: AppellFamily, n: int, alphas=None) -> XPoly:
    """[n]_q A_n(qx) - sum_k [n k]_q alpha_k q^(n-k) A_{n-k}(x)
    - x [n]_q q^n A_{n-1}(x), identically zero when the recurrence holds.

    An explicit `alphas` vector substitutes for the family's own; the
    residual relation between the two theorem forms holds for any vector.
    """
    if alphas is None:
        alphas = fam.alphas(n)
    return recurrence_form(fam, n, _qi(n), -_qi(n) * _qp(n), (
        (n - k, -alphas[k] * _qb(n, k) * _qp(n - k)) for k in range(n + 1)))


def difference_residual(fam: AppellFamily, n: int, alphas=None) -> XPoly:
    """sum_k (q^(n-k) alpha_k/[k]_q!) D^k A_n + x q^n D A_n - [n]_q A_n(qx)."""
    if alphas is None:
        alphas = fam.alphas(n)
    return difference_form(fam, n, -_qi(n), _qp(n), (
        (k, alphas[k] * _qp(n - k) / _qf(k)) for k in range(n + 1)))


def _lowering_term(fam: AppellFamily, n: int, k: int, dk: XPoly) -> XPoly:
    """A_{n-k} - ([n-k]_q!/[n]_q!) dk, where dk = D^k A_n."""
    return fam.polynomial(n - k) - dk.scale(QRat(q_factorial(n - k), q_factorial(n)))


def lowering_residual(fam: AppellFamily, n: int, k: int) -> XPoly:
    """A_{n-k}(x) - ([n-k]_q!/[n]_q!) D^k A_n(x)."""
    if not 0 <= k <= n <= fam.order:
        raise DegreeRangeError(f"lowering check needs 0 <= k <= n <= {fam.order}")
    return _lowering_term(fam, n, k, fam.polynomial(n).q_derivatives(k)[k])


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
    """All iterated lowerings 0 <= k <= n <= max_n, merged into one report.

    The residual recorded at degree n is its first nonzero one over k, so
    it is zero exactly when every chain length passes.
    """
    if not 0 <= max_n <= fam.order:
        raise DegreeRangeError(f"lowering check needs 0 <= n <= {fam.order}")

    def first_nonzero(n: int) -> XPoly:
        chain = fam.polynomial(n).q_derivatives(n)
        terms = (_lowering_term(fam, n, k, d) for k, d in enumerate(chain))
        return next((r for r in terms if not r.is_zero()), XPoly.zero())

    return make_report("lowering", fam.name, (0, max_n), first_nonzero)
