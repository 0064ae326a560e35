"""The q-Hermite family: explicit series form, three-term recurrence,
second-order q-difference equation, and the generator ratio identity.

The explicit series form used here carries a normalizing factor [n]_q!
relative to the bare sum

    sum_k (-1)^k q^(k(k-1)) x^(n-2k) / ([2k]_q!! [n-2k]_q!),

which is what makes it agree with the generating-function construction
and with the small-n table H_2 = x^2 - 1, H_3 = x^3 - [3]_q x,
H_4 = x^4 - (1+q^2)[3]_q x^2 + [3]_q q^2.  The bare sum itself is kept
available as a descriptive claim ("h0-normalization") in the discrepancy
report.

Every check here reads the one shared Hermite family,
``make_family(FamilyKind.HERMITE)``.  Only the generator ratio check
takes an order, because its order is the range of t-powers it examines.
"""

from __future__ import annotations

from .qarith import QRat, QRAT_ONE, QRAT_ZERO
from .appell import (AppellFamily, VerificationReport, XPoly, _qf, _qi, _qp,
                     difference_form, make_report, recurrence_form)
from .families import (DiscrepancyReport, FamilyKind,
                       first_counterexample, make_family)


def printed_series_form(n: int) -> XPoly:
    """The bare explicit sum without the [n]_q! factor, exactly as printed."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    coeffs = [QRAT_ZERO] * (n + 1)
    for k in range(n // 2 + 1):
        c = _qp(k * (k - 1)) / (QRat.q_double_factorial_even(k) * _qf(n - 2 * k))
        coeffs[n - 2 * k] = -c if k % 2 else c
    return XPoly(coeffs)


def hermite_series_form(n: int) -> XPoly:
    """H_n(x) as the normalized explicit sum; equals the family polynomial."""
    return printed_series_form(n).scale(_qf(n))


def recurrence_residual(fam: AppellFamily, n: int) -> XPoly:
    """H_n(qx) - x q^n H_{n-1}(x) + [n-1]_q q^(n-2) H_{n-2}(x)."""
    return recurrence_form(fam, n, QRAT_ONE, -_qp(n),
                           [(n - 2, _qi(n - 1) * _qp(n - 2))])


def difference_residual(fam: AppellFamily, n: int) -> XPoly:
    """q^(n-2) D^2 H_n - x q^n D H_n + [n]_q H_n(qx)."""
    return difference_form(fam, n, _qi(n), -_qp(n), [(2, _qp(n - 2))])


def _hermite_range(theorem_id: str, lo: int, max_n: int,
                   residual) -> VerificationReport:
    fam = make_family(FamilyKind.HERMITE)
    return make_report(theorem_id, "hermite", (lo, max_n),
                       lambda n: residual(fam, n))


def verify_hermite_recurrence_range(max_n: int) -> VerificationReport:
    """The three-term recurrence (h1) for 2 <= n <= max_n."""
    return _hermite_range("h1", 2, max_n, recurrence_residual)


def verify_hermite_difference_range(max_n: int) -> VerificationReport:
    """The second-order q-difference equation (h2) for 1 <= n <= max_n."""
    return _hermite_range("h2", 1, max_n, difference_residual)


def verify_hermite_generator_ratio(order: int) -> VerificationReport:
    """Check D_q H(t) = -t * H(qt) coefficientwise to order - 1.

    In the divided-power basis the t^n coefficient of the identity reads
    H_{n+1} = -[n]_q q^(n-1) H_{n-1}.  The residual at t-power n is
    H_{n+1} + [n]_q q^(n-1) H_{n-1}, recorded as an XPoly so it fits the
    shared report type; first_failure is the smallest failing t-power.
    """
    if order < 2:
        raise ValueError("order must be >= 2")
    h = make_family(FamilyKind.HERMITE).numbers(order)

    def residual(n: int) -> XPoly:
        if n == 0:
            return XPoly((h[1],))
        back = _qi(n) * _qp(n - 1) * h[n - 1]
        return XPoly((h[n + 1] + back,))

    return make_report("hermite-ratio", "hermite", (0, order - 1), residual)


def verify_cross_construction(max_n: int) -> VerificationReport:
    """Generating-function construction vs normalized explicit sum."""
    return _hermite_range("h0-cross", 0, max_n,
                          lambda fam, n: hermite_series_form(n) - fam.polynomial(n))


def verify_printed_series_form(max_n: int) -> DiscrepancyReport:
    """Descriptive claim: the printed explicit sum without the [n]_q!
    factor against the generating-function polynomials."""
    fam = make_family(FamilyKind.HERMITE)
    return first_counterexample("h0-normalization", range(max_n + 1),
                                lambda n: printed_series_form(n) - fam.polynomial(n))
