"""The residuals that appell derives (a1 and a2 from the alpha-equation
defects, a reference recurrence form per degree, coefficient
differences and the lowering defects) equal the direct sums of their
terms, on right and wrong families alike, in any call order and across
threads; and a fault in a weight, an alpha, a derivative or a
substitution still reaches the report.

The direct forms below are the plain definitions: every term multiplied
out and summed, the derivatives taken one at a time.
"""

import sys
import threading
from contextlib import contextmanager

import pytest

from qappell import appell, families, hermite
from qappell.appell import (AppellFamily, XPoly, _qf, _qi, _qp, _sum,
                            difference_residual, lowering_defects,
                            recurrence_residual, verify_difference_range,
                            verify_lowering_range, verify_recurrence_range)
from qappell.families import FamilyKind, verify_printed_theorem
from qappell.qarith import QPoly, QRat, QRAT_Q
from qappell.qseries import Series

ORDER = 12
MAX_N = 10


def _derivative(p: XPoly, k: int) -> XPoly:
    for _ in range(k):
        p = p.q_derivative()
    return p


def direct_recurrence_form(fam, n, at_qx, at_x, weights):
    poly = fam.polynomial
    return _sum([(at_qx, poly(n).scale_x(QRAT_Q)),
                 (at_x, poly(n - 1).times_x()),
                 *((w, poly(j)) for j, w in weights)])


def direct_difference_form(fam, n, at_qx, at_x, weights):
    p = fam.polynomial(n)
    return _sum([(at_qx, p.scale_x(QRAT_Q)),
                 (at_x, _derivative(p, 1).times_x()),
                 *((w, _derivative(p, k)) for k, w in weights)])


def direct_lowering(fam, n, k):
    """A_{n-k} - ([n-k]_q!/[n]_q!) D^k A_n."""
    dk = _derivative(fam.polynomial(n), k)
    return fam.polynomial(n - k) - dk.scale(_qf(n - k) / _qf(n))


@contextmanager
def direct_forms():
    """Every module's recurrence_form and difference_form replaced by the
    direct sums, and the number-level derivation of a1 and a2 turned
    off, so the public residual functions compute the direct sums."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(appell, "_derivable", lambda fam, n: False)
        for module in (appell, families, hermite):
            mp.setattr(module, "recurrence_form", direct_recurrence_form)
            mp.setattr(module, "difference_form", direct_difference_form)
        yield


# Every recurrence- and difference-shaped residual, as (name, first
# degree, residual(fam, n)); each is defined for any family.
_HARD = [
    ("a1", 1, recurrence_residual),
    ("a2", 1, difference_residual),
    ("h1", 2, lambda fam, n: hermite.recurrence_residual(n, fam)),
    ("h2", 1, lambda fam, n: hermite.difference_residual(n, fam)),
]
_PRINTED = [(claim, 1, residual)
            for claim, (_, residual) in families._PRINTED_CLAIMS.items()]


def _perturbed(kind: FamilyKind, at: int, delta: QRat) -> AppellFamily:
    rule = families._NUMBERS[kind]
    return AppellFamily.from_numbers(
        f"{kind.value}+{at}", ORDER,
        lambda n, prefix: rule(n, prefix) + delta if n == at else rule(n, prefix))


def _series_family() -> AppellFamily:
    # Coefficient denominators 1 + 2q and q^2 + q + 2 take the generic path.
    coeffs = [QRat(1), QRat(QPoly((0, 1)), QPoly((1, 2))), QRat(1, QPoly((2, 1, 1)))]
    coeffs += [QRat(QPoly((1, -1, k))) for k in range(ORDER + 1 - len(coeffs))]
    return AppellFamily("series", Series(coeffs))


def _alpha_perturbed() -> AppellFamily:
    # alpha_3 changed after the solve: E_m != 0 for m >= 3.
    fam = families._family.__wrapped__(FamilyKind.BERNOULLI, ORDER)
    fam.alphas(ORDER - 1)
    fam._alphas[3] = fam._alphas[3] + QRAT_Q
    return fam


# Fresh families, so that each test's call order decides the references.
FAMILIES = {
    **{kind.value: (lambda kind=kind: families._family.__wrapped__(kind, ORDER))
       for kind in FamilyKind},
    "B_4+q^2": lambda: _perturbed(FamilyKind.BERNOULLI, 4, QRat.q_power(2)),
    "E_3+1": lambda: _perturbed(FamilyKind.EULER, 3, QRat(1)),
    "G_5+(1+q)/(1+q^2)": lambda: _perturbed(
        FamilyKind.GENOCCHI, 5, QRat(QPoly((1, 1)), QPoly((1, 0, 1)))),
    "H_6+q": lambda: _perturbed(FamilyKind.HERMITE, 6, QRat.q_power(1)),
    "series": _series_family,
    "alpha_3+q": _alpha_perturbed,
}


def _direct_values(fam, forms):
    with direct_forms():
        values = {(name, n): residual(fam, n)
                  for name, lo, residual in forms for n in range(lo, MAX_N + 1)}
    lowering = {(n, k): direct_lowering(fam, n, k)
                for n in range(MAX_N + 1) for k in range(n + 1)}
    return values, lowering


def _assert_lowering(fam, lowering):
    for n in range(MAX_N + 1):
        for k, m in enumerate(lowering_defects(fam, n)):
            assert m.scale(-_qf(n - k) / _qf(n)) == lowering[n, k], (n, k)
    report = verify_lowering_range(fam, MAX_N)
    for n, residual in enumerate(report.residuals):
        failing = [lowering[n, k] for k in range(n + 1) if not lowering[n, k].is_zero()]
        assert residual == (failing[0] if failing else XPoly()), n


@pytest.mark.parametrize("printed_first", [False, True],
                         ids=["hard-first", "printed-first"])
@pytest.mark.parametrize("family", list(FAMILIES))
def test_derived_residuals_equal_direct_sums(family, printed_first):
    fam = FAMILIES[family]()
    assert appell._derivable(fam, MAX_N)
    forms = _PRINTED + _HARD if printed_first else _HARD + _PRINTED
    direct, lowering = _direct_values(fam, forms)
    if not printed_first:
        _assert_lowering(fam, lowering)
    for name, lo, residual in forms:
        for n in range(lo, MAX_N + 1):
            assert residual(fam, n) == direct[name, n], (name, n)
    if printed_first:
        _assert_lowering(fam, lowering)
    assert any(not r.is_zero() for r in direct.values())


def _assert_direct_across_threads(fam):
    forms = _HARD + _PRINTED
    direct, lowering = _direct_values(fam, forms)
    got, errors = {}, []

    def ask(shift):
        try:
            for i in range(len(forms)):
                name, lo, residual = forms[(i + shift) % len(forms)]
                for n in range(MAX_N, lo - 1, -1):
                    got[name, n, shift] = residual(fam, n)
        except Exception as exc:  # reported by the assertion below
            errors.append(exc)

    threads = [threading.Thread(target=ask, args=(shift,)) for shift in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(got) == 4 * len(direct)
    assert all(r == direct[name, n] for (name, n, _), r in got.items())
    _assert_lowering(fam, lowering)


def test_derived_residuals_equal_direct_sums_across_threads():
    for family in FAMILIES:
        _assert_direct_across_threads(FAMILIES[family]())


# Faults must still reach the reports through the derivation.

def test_changed_alpha_fails_a1_and_a2_with_the_direct_residuals():
    fam = FAMILIES["alpha_3+q"]()
    reports = [verify(fam, 1, MAX_N)
               for verify in (verify_recurrence_range, verify_difference_range)]
    assert [(r.passed, r.first_failure) for r in reports] == [(False, 3)] * 2
    with direct_forms():
        assert [r.residuals for r in reports] == [
            verify(fam, 1, MAX_N).residuals
            for verify in (verify_recurrence_range, verify_difference_range)]
    assert verify_lowering_range(fam, MAX_N).passed


def test_off_by_one_q_power_in_a2_weights_fails_a2(monkeypatch):
    fam = FAMILIES["bernoulli"]()
    assert verify_recurrence_range(fam, 1, MAX_N).passed

    def shifted(fam, n):
        alphas = fam.alphas(n)
        return appell.difference_form(fam, n, -_qi(n), _qp(n), (
            (k, alphas[k] * _qp(n - k + 1) / _qf(k)) for k in range(n + 1)))

    monkeypatch.setattr(appell, "difference_residual", shifted)
    report = verify_difference_range(fam, 1, MAX_N)
    assert not report.passed
    with direct_forms():
        assert report.residuals == verify_difference_range(fam, 1, MAX_N).residuals


def test_perturbed_q_derivative_fails_lowering_and_a2(monkeypatch):
    fam = FAMILIES["euler"]()
    true_derivative = XPoly.q_derivative
    wrong = QRat(QPoly((1, 0, 1))) / _qi(2)        # [2]_q read as 1 + q^2

    def perturbed(self):
        d = list(true_derivative(self).coeffs)
        if len(d) > 1:
            d[1] = d[1] * wrong
        return XPoly(d)

    monkeypatch.setattr(XPoly, "q_derivative", perturbed)
    assert verify_recurrence_range(fam, 1, MAX_N).passed
    lowering = verify_lowering_range(fam, MAX_N)
    assert not lowering.passed and lowering.first_failure == 2
    report = verify_difference_range(fam, 1, MAX_N)
    assert not report.passed
    with direct_forms():
        assert report.residuals == verify_difference_range(fam, 1, MAX_N).residuals


def test_perturbed_scale_x_fails_a1(monkeypatch):
    fam = FAMILIES["genocchi"]()
    true_scale_x = XPoly.scale_x
    monkeypatch.setattr(XPoly, "scale_x", lambda self, c: true_scale_x(self, c).scale(c))
    report = verify_recurrence_range(fam, 1, MAX_N)
    assert not report.passed and report.first_failure == 1
    assert not verify_difference_range(fam, 1, MAX_N).passed


def test_perturbed_times_x_fails_a1(monkeypatch):
    fam = FAMILIES["hermite"]()
    true_times_x = XPoly.times_x
    monkeypatch.setattr(XPoly, "times_x", lambda self: true_times_x(self).scale_x(QRAT_Q))
    report = verify_recurrence_range(fam, 1, MAX_N)
    assert not report.passed and report.first_failure == 1
    with direct_forms():
        assert report.residuals == verify_recurrence_range(fam, 1, MAX_N).residuals


def test_changed_b1_weight_is_refuted_with_the_direct_residual(monkeypatch):
    kind = FamilyKind.BERNOULLI
    fam = families.make_family(kind)
    # The a1 forms become the references if nothing was asked before.
    assert verify_recurrence_range(fam, 1, MAX_N).passed
    assert verify_printed_theorem(kind, "b1", MAX_N).status == "confirmed"

    def changed(fam, n):
        b = fam.numbers(n)
        return appell.recurrence_form(fam, n, QRat(1), -_qp(n), [
            (n - 1, _qp(n) / _qi(2)),
            *((k, families._qb(n, k) * _qp(k - 1) * b[n - k] / _qi(n))
              for k in range(n - 1))])

    monkeypatch.setitem(families._PRINTED_CLAIMS, "b1", (kind, changed))
    report = verify_printed_theorem(kind, "b1", MAX_N)
    assert report.status == "refuted" and report.counterexample_n == 2
    with direct_forms():
        assert report.residual == changed(fam, 2)
        assert verify_printed_theorem(kind, "b1", MAX_N) == report
