"""Concrete q-Appell families and checks of their specialized identities.

Generators:

  bernoulli   t / (e_q(t) - 1)
  euler       2 / (e_q(t) + 1)
  genocchi    2t / (e_q(t) + 1)          (shifted: zero constant term)
  hermite     sum (-1)^m q^(m(m-1)) t^(2m) / [2m]_q!!

Each family is built from its divided-power numbers A_n = [n]_q! [t^n]A(t).
In that basis e_q(t) -/+ 1 has the numbers 1 -/+ delta_{j0}, so each of
the first three generators, printed as N(t)/D(t), is declared as the
:func:`qappell.appell.quotient` of its N_m and D_j, and so is the
Euler-number generator t e_q(t) / (e_q(2t) - 1); the Hermite numbers
have a closed form.  The numbers extend on demand, so what a family
costs depends on the degrees asked for, not on its order.

The specialized recurrence/difference statements for the first three
families (claims b1, b2, e1, e2, g1, g2) are checked exactly as printed:
each is its list of printed terms in :func:`qappell.appell.recurrence_form`
(b1, e1, g1) or :func:`qappell.appell.difference_form` (b2, e2, g2), the
two shapes of the general identities.  They are reported descriptively:
a refuted claim is recorded with its smallest counterexample instead of
failing, since the general identities verified in :mod:`qappell.appell`
are the ground truth.
"""

from __future__ import annotations

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


# Each family's number rule: its printed generator N(t) / D(t) as the
# quotient of the divided-power numbers N_m and D_j (e_q(t) -/+ 1 has
# D_j = 1 -/+ delta_{j0}), or the Hermite closed form.
_NUMBERS = {
    FamilyKind.BERNOULLI: quotient(lambda m: int(m == 1), lambda j: 1 - (j == 0)),
    FamilyKind.EULER: quotient(lambda m: 2 * (m == 0), lambda j: 1 + (j == 0)),
    FamilyKind.GENOCCHI: quotient(lambda m: 2 * (m == 1), lambda j: 1 + (j == 0)),
    FamilyKind.HERMITE: _hermite_number,
}


# The order of the shared families: the largest --order, which is the
# largest index the Hermite ratio check reads (other degrees stop at 32).
MAX_ORDER = 200


@lru_cache(maxsize=None)
def make_family(kind: FamilyKind, order: int = MAX_ORDER) -> AppellFamily:
    """The family of `kind` whose numbers, alphas and polynomials reach
    `order`.  Without an order it is the one family of its kind that
    every command and check shares; it extends on demand, so no value
    depends on the order.  A kind given as its string value, or the
    order given as MAX_ORDER, returns the same family.  ``_family``
    holds the families, keyed on the normalized pair; this cache keys on
    the arguments as spelled, so its ``cache_info()`` counts spellings
    and its ``cache_clear()`` drops no family.
    """
    if order < 2:
        raise ValueError("family order must be >= 2")
    return _family(FamilyKind(kind), order)


@lru_cache(maxsize=None)
def _family(kind: FamilyKind, order: int) -> AppellFamily:
    return AppellFamily.from_numbers(kind.value, order, _NUMBERS[kind])


def euler_number_series(order: int) -> Series:
    """The Euler-number generator t e_q(t) / (e_q(2t) - 1), as printed."""
    if order < 1:
        raise ValueError("order must be >= 1")
    return divided_power_series(euler_numbers(order))


def euler_numbers(upto: int) -> list[QRat]:
    """e_0 .. e_upto, the divided-power coefficients of the Euler-number
    generator t e_q(t) / (e_q(2t) - 1)."""
    return list(_euler_number_family().numbers(upto))


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


# Printed claim -> (family, residual at degree n).  The e1 coefficient
# symbol carries no q subscript or argument; "numbers" reads it as e_{j,q}
# from the Euler-number generator, "values" as the polynomial value
# E_{j,q}(0).
_PRINTED_CLAIMS = {
    "b1": (FamilyKind.BERNOULLI, _b1_residual),
    "b2": (FamilyKind.BERNOULLI, _b2_residual),
    "e1[numbers]": (FamilyKind.EULER,
                    lambda fam, n: _e1_residual(fam, n, euler_numbers(n))),
    "e1[values]": (FamilyKind.EULER,
                   lambda fam, n: _e1_residual(fam, n, fam.numbers(n))),
    "e2": (FamilyKind.EULER, _e2_residual),
    "g1": (FamilyKind.GENOCCHI, _g1_residual),
    "g2": (FamilyKind.GENOCCHI, _g2_residual),
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


def verify_printed_theorem(kind: FamilyKind, theorem_id: str, max_n: int,
                           e1_reading: str = "numbers") -> DiscrepancyReport:
    """Check one specialized claim term by term as printed, for
    2 <= n <= max_n, recording the smallest counterexample.

    Descriptive only: the returned report never raises on a refuted
    claim.  With max_n below 2 the claim is inapplicable.
    """
    claim = f"e1[{e1_reading}]" if theorem_id == "e1" else theorem_id
    if claim not in _PRINTED_CLAIMS:
        raise ValueError(f"unknown printed claim {claim!r}")
    expected, residual = _PRINTED_CLAIMS[claim]
    if expected is not FamilyKind(kind):
        raise ValueError(f"theorem {theorem_id} is about the {expected.value} family")
    fam = make_family(expected)
    return first_counterexample(claim, range(2, max_n + 1),
                                lambda n: residual(fam, n))


def verify_euler_number_relation(max_n: int) -> DiscrepancyReport:
    """Check e_{n,q} = 2^n E_{n,q}(1/2) for n = 0..max_n, as printed.

    Both sides are exact rational functions of q; a refuted status
    records the difference at the smallest failing n as a degree-0
    residual.
    """
    fam = make_family(FamilyKind.EULER)
    half = Fraction(1, 2)
    return first_counterexample(
        "euler-relation", range(max_n + 1),
        lambda n: XPoly((euler_numbers(n)[n]
                         - fam.polynomial(n).evaluate_x(half) * QRat(2 ** n),)))
