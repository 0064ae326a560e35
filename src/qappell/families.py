"""Concrete q-Appell families and checks of their specialized identities.

Generators:

  bernoulli   t / (e_q(t) - 1)
  euler       2 / (e_q(t) + 1)
  genocchi    2t / (e_q(t) + 1)          (shifted: zero constant term)
  hermite     sum (-1)^m q^(m(m-1)) t^(2m) / [2m]_q!!

Each family is built from its divided-power numbers A_n = [n]_q! [t^n]A(t).
The first three are c t^p / (a e_q(t) + b), declared once as (a, b, c, p):
``_shape`` gives the numbers, a :func:`qappell.appell.quotient`, and the
alphas in closed form, so a1 and a2 check one against the other.  The
Hermite numbers and alphas are closed forms, and the Euler-number
generator t e_q(t) / (e_q(2t) - 1) is a quotient.  The numbers extend on
demand, so what a family costs depends on the degrees asked for.

Every descriptive claim is one row of ``PRINTED_CLAIMS``, run by
:func:`verify_printed_theorem`: b1, b2, e1 (in two readings), e2, g1 and
g2 are lists of printed terms in :func:`qappell.appell.recurrence_form`
or :func:`qappell.appell.difference_form`, and the bare Hermite sum and
the Euler-number relation are the last two rows.  They are reported
descriptively: a refuted claim is recorded with its smallest
counterexample instead of failing, since the general identities verified
in :mod:`qappell.appell` are the ground truth.
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .qarith import QRat, QRAT_ONE, QRAT_ZERO
from .qseries import Series
from .appell import (AppellFamily, XPoly, _qb, _qf, _qi, _qp, difference_form,
                     divided_power_series, quotient, recurrence_form)


class FamilyKind(str, Enum):
    BERNOULLI = "bernoulli"
    EULER = "euler"
    GENOCCHI = "genocchi"
    HERMITE = "hermite"


def _hermite_number(n: int, _) -> QRat:
    # [2m]_q! (-1)^m q^(m(m-1)) / [2m]_q!!; odd numbers vanish.
    if n % 2:
        return QRAT_ZERO
    m = n // 2
    h = _qp(m * (m - 1)) * _qf(n) / QRat.q_double_factorial_even(m)
    return -h if m % 2 else h


def printed_series_form(n: int) -> XPoly:
    """The bare explicit sum without the [n]_q! factor, exactly as printed."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    coeffs = [QRAT_ZERO] * (n + 1)
    for k in range(n // 2 + 1):
        c = _qp(k * (k - 1)) / (QRat.q_double_factorial_even(k) * _qf(n - 2 * k))
        coeffs[n - 2 * k] = -c if k % 2 else c
    return XPoly(coeffs)


def _shape(a: int, b: int, c: int, p: int):
    """The number and alpha rules of c t^p / (a e_q(t) + b), p in {0, 1}
    (a t-power, not ``quotient``'s shift).  e_q(qt) = (1 + (q-1)t) e_q(t)
    gives alpha_k = q^(-p) (p delta_{k0} - delta_{k1} + (b/c) T_k), with
    T_k = A_k if p = 1 and T_k = [k]_q A_{k-1} (T_0 = 0) if p = 0."""
    ratio = Fraction(b, c)

    def alpha(k: int, nums) -> QRat:
        t = nums[k] if p else _qi(k) * nums[k - 1] if k else QRAT_ZERO
        return (t * ratio + (p * (k == 0) - (k == 1))) / _qp(p)

    return quotient(lambda m: c * (m == p), lambda j: a + b * (j == 0)), alpha


# Each family's (number, alpha) rules; D_q H(t) = -t H(qt) gives alpha(t) = -t^2.
_RULES = {
    FamilyKind.BERNOULLI: _shape(1, -1, 1, 1),
    FamilyKind.EULER: _shape(1, 1, 2, 0),
    FamilyKind.GENOCCHI: _shape(1, 1, 2, 1),
    FamilyKind.HERMITE: (_hermite_number, lambda k, _: -_qi(2) * (k == 2)),
}


# The order of the shared families: the largest --order, which is the
# largest index the Hermite ratio check reads (other degrees stop at 32).
MAX_ORDER = 200

# The lock every shared family is built under: an lru_cache does not
# serialize a miss, so first callers on two threads would each build one.
_BUILDING = threading.Lock()


@lru_cache(maxsize=None)
def make_family(kind: FamilyKind, order: int = MAX_ORDER) -> AppellFamily:
    """The family of `kind` whose numbers, alphas and polynomials reach
    `order`.  Without an order it is the one family of its kind that
    every command and check shares; it extends on demand, so no value
    depends on the order.  A kind given as its string value, the order
    given as MAX_ORDER, or a call racing another returns the same family.
    ``_family`` holds the families, keyed on the normalized pair and built
    under ``_BUILDING``; this cache keys on the arguments as spelled, so
    its ``cache_info()`` counts spellings and its ``cache_clear()`` drops
    no family.
    """
    if order < 2:
        raise ValueError("family order must be >= 2")
    with _BUILDING:
        return _family(FamilyKind(kind), order)


@lru_cache(maxsize=None)
def _family(kind: FamilyKind, order: int) -> AppellFamily:
    return AppellFamily.from_numbers(kind.value, order, *_RULES[kind])


def euler_number_series(order: int) -> Series:
    """The Euler-number generator t e_q(t) / (e_q(2t) - 1), as printed."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return divided_power_series(euler_numbers(order))


def euler_numbers(upto: int) -> list[QRat]:
    """e_0 .. e_upto, the divided-power coefficients of the Euler-number
    generator t e_q(t) / (e_q(2t) - 1)."""
    with _BUILDING:
        fam = _euler_number_family()
    return list(fam.numbers(upto))


@lru_cache(maxsize=None)
def _euler_number_family() -> AppellFamily:
    # t e_q(t) has the numbers [m]_q, e_q(2t) - 1 the numbers 2^j - delta_{j0}.
    return AppellFamily.from_numbers("euler-numbers", MAX_ORDER, quotient(
        _qi, lambda j: 2 ** j - (j == 0)))


def classical_limit(kind: FamilyKind, n: int) -> list[Fraction]:
    """Coefficients of the degree-n family polynomial at q = 1, ascending.

    All four families are regular at q = 1; a PoleError here would
    indicate an arithmetic bug, not bad input.
    """
    return make_family(FamilyKind(kind)).polynomial(n).evaluate_q(1)


class DiscrepancyReport(NamedTuple):
    """Descriptive status of a printed claim: confirmed means the residual
    vanished identically for every degree checked; refuted records the
    smallest failing degree and its residual."""

    claim_id: str
    status: str  # "confirmed" | "refuted" | "inapplicable"
    counterexample_n: int | None
    residual: XPoly | None


def _b1_residual(fam: AppellFamily, n: int) -> XPoly:
    b = fam.numbers(n)
    return recurrence_form(fam, n, QRAT_ONE, -_qp(n), [
        (n - 1, _qp(n - 1) / _qi(2)),
        *((k, _qb(n, k) * _qp(k - 1) * b[n - k] / _qi(n)) for k in range(n - 1))])


def _b2_residual(fam: AppellFamily, n: int) -> XPoly:
    b = fam.numbers(n)
    return difference_form(fam, n, _qi(n), -_qp(n), [
        (1, _qp(n - 1) / _qi(2)),
        *((k, _qp(n - k - 1) * b[k] / _qf(k)) for k in range(2, n + 1))])


def _e1_residual(fam: AppellFamily, n: int, v) -> XPoly:
    return recurrence_form(fam, n, QRAT_ONE, -_qp(n), (
        (k, -_qb(n - 1, k) * _qp(k) * v[n - k - 1] / 2) for k in range(n)))


def _e2_residual(fam: AppellFamily, n: int) -> XPoly:
    # D^k coefficient (1/2) q^(n-k) e_{k-1,q}/[k-1]_q! for k = 2..n,
    # interpolating the printed leading terms; see the golden report.
    e = euler_numbers(n)
    return difference_form(fam, n, -_qi(n), _qp(n), [
        (1, -_qp(n - 1) / 2),
        *((k, _qp(n - k) * e[k - 1] / (_qf(k - 1) * 2)) for k in range(2, n + 1))])


def _g1_residual(fam: AppellFamily, n: int) -> XPoly:
    g = fam.numbers(n)
    return recurrence_form(fam, n, -_qi(n), _qi(n) * _qp(n), [
        (n, _qp(n - 1)),
        (n - 1, -_qi(n) * _qp(n - 2) / 2),
        *((k, _qb(n, k) * g[n - k] * _qp(k - 1) / 2) for k in range(n - 1))])


def _g2_residual(fam: AppellFamily, n: int) -> XPoly:
    g = fam.numbers(n)
    return difference_form(fam, n, -_qi(n), _qp(n), [
        (0, _qp(n - 1)),
        (1, -_qp(n - 2) / 2),
        *((k, _qp(n - k - 1) * g[k] / (_qf(k) * 2)) for k in range(2, n + 1))])


def _euler_relation_residual(fam: AppellFamily, n: int) -> XPoly:
    # e_{n,q} - 2^n E_{n,q}(1/2), both exact in q, as a degree-0 residual.
    return XPoly((euler_numbers(n)[n]
                  - fam.polynomial(n).evaluate_x(Fraction(1, 2)) * QRat(2 ** n),))


# Every printed claim, in report order: claim id -> (verify scope,
# family, first degree, residual(fam, n)).  The e1 coefficient symbol
# carries no q subscript or argument; "numbers" reads it as e_{j,q} from
# the Euler-number generator, "values" as the polynomial value E_{j,q}(0).
PRINTED_CLAIMS = {
    "b1": ("b1", FamilyKind.BERNOULLI, 2, _b1_residual),
    "b2": ("b2", FamilyKind.BERNOULLI, 2, _b2_residual),
    "e1[numbers]": ("e1", FamilyKind.EULER, 2,
                    lambda fam, n: _e1_residual(fam, n, euler_numbers(n))),
    "e1[values]": ("e1", FamilyKind.EULER, 2,
                   lambda fam, n: _e1_residual(fam, n, fam.numbers(n))),
    "e2": ("e2", FamilyKind.EULER, 2, _e2_residual),
    "g1": ("g1", FamilyKind.GENOCCHI, 2, _g1_residual),
    "g2": ("g2", FamilyKind.GENOCCHI, 2, _g2_residual),
    "h0-normalization": ("h0", FamilyKind.HERMITE, 0,
                         lambda fam, n: printed_series_form(n) - fam.polynomial(n)),
    "euler-relation": ("euler-relation", FamilyKind.EULER, 0,
                       _euler_relation_residual),
}


def first_counterexample(claim_id: str, degrees, residual) -> DiscrepancyReport:
    """Check ``residual(n)`` over `degrees` in order and stop at the first
    nonzero one.  A range with no degree in it is inapplicable."""
    status = "inapplicable"
    for n in degrees:
        r = residual(n)
        if not r.is_zero():
            return DiscrepancyReport(claim_id, "refuted", n, r)
        status = "confirmed"
    return DiscrepancyReport(claim_id, status, None, None)


def verify_printed_theorem(claim: str, max_n: int) -> DiscrepancyReport:
    """Check one row of ``PRINTED_CLAIMS`` term by term as printed, for
    its first degree <= n <= max_n, recording the smallest counterexample.

    Descriptive only: the returned report never raises on a refuted
    claim.  With max_n below the first degree the claim is inapplicable.
    """
    if claim not in PRINTED_CLAIMS:
        raise ValueError(f"unknown printed claim {claim!r}")
    _, kind, lo, residual = PRINTED_CLAIMS[claim]
    fam = make_family(kind)
    return first_counterexample(claim, range(lo, max_n + 1),
                                lambda n: residual(fam, n))
