"""Mutation checks: each fault below, injected into the kernel, makes at
least one hard check of ``verify --scope all`` fail, or makes the run
stop with an error.

Each run builds fresh families with the fault in place, so the shared
families stay untouched, and the kernel's value caches are emptied
before and after it, so no value computed with the fault outlives the
test and no value computed without it hides the fault.

A lost canonicalization is not among them: a value left unreduced is
still the right value, and a hard check only asks whether a residual
is zero, which the empty numerator shows in any form.

The faults that break a premise of the number-level derivation of a1,
a2 and lowering (a q-constant row, a cached polynomial) must send those
checks to the direct sums, which then fail; the guard at the end checks
that the derivation takes no direct sum while its premises hold.
"""

import pytest

from qappell import appell, families, hermite, qarith, qpoly, reports
from qappell.appell import (AppellFamily, XPoly, verify_difference_range,
                            verify_lowering_range, verify_recurrence_range)
from qappell.families import FamilyKind
from qappell.qarith import FracAcc, QRat, QRAT_Q
from qappell.reports import ALL_FAMILIES

MAX_N = 8
ORDER = 10


def _clear_value_caches():
    for value in [*vars(qarith).values(), *vars(QRat).values()]:
        value = getattr(value, "__func__", value)
        if hasattr(value, "cache_clear"):
            value.cache_clear()


@pytest.fixture
def hard_run(monkeypatch):
    """A function that runs every hard check of scope "all" on fresh
    families and returns "passed", "failed" or the exception it raised."""
    def run():
        built = {}

        def fresh(kind, order=ORDER):
            kind = FamilyKind(kind)
            if kind not in built:
                built[kind] = families._family.__wrapped__(kind, ORDER)
            return built[kind]

        for module in (families, hermite, reports):
            monkeypatch.setattr(module, "make_family", fresh)
        _clear_value_caches()
        try:
            hard = reports.hard_reports("all", MAX_N, ORDER)
        except Exception as exc:  # a run that stops with an error has caught the fault
            return exc
        return "passed" if all(r.passed for r in hard) else "failed"

    yield run
    _clear_value_caches()


def test_the_unmutated_kernel_passes(hard_run):
    assert hard_run() == "passed"


def _wrong_constant(name: str, wrong):
    """The q-constant QRat.<name> read as wrong(true, *args) wherever it
    is read: on QRat and through every module's alias of it."""
    true = getattr(QRat, name)

    def inject(monkeypatch):
        def fake(*args):
            return wrong(true, *args)

        monkeypatch.setattr(QRat, name, staticmethod(fake))
        for module in (appell, families, hermite):
            for alias, value in vars(module).items():
                if value is true:
                    monkeypatch.setattr(module, alias, fake)
    return inject


# Row 6 of [n k]_q gains q off its ends.
_wrong_binomial_row = _wrong_constant(
    "q_binomial", lambda true, n, k: true(n, k) + QRAT_Q if n == 6 and 0 < k < n else true(n, k))
# [5]_q gains q^5.
_wrong_integer_row = _wrong_constant(
    "q_integer", lambda true, n: true(n) + QRat.q_power(5) if n == 5 else true(n))
# The exponent vector of [5]_q! gains one Phi_3.
_factorial_vector_off_by_phi3 = _wrong_constant(
    "q_factorial", lambda true, n: qarith._factored(
        qarith._vadd(true(n)._m, (0, 0, 0, 1)), true(n)._n) if n == 5 else true(n))


def _changed_polynomial(monkeypatch):
    # The cached A_5 of each family gains q at x^0 once it is built,
    # where D A_5 does not see it.
    true = AppellFamily.polynomial
    changed = set()

    def polynomial(self, n):
        p = true(self, n)
        if n == 5 and id(self) not in changed:
            changed.add(id(self))
            coeffs = list(p.coeffs)
            coeffs[0] = coeffs[0] + QRAT_Q
            p = self._polys[n] = XPoly(coeffs)
        return p

    monkeypatch.setattr(AppellFamily, "polynomial", polynomial)


def _dropped_frac_acc_term(monkeypatch):
    # A term that would open a fourth group is lost.
    true = FracAcc.add_raw

    def dropping(self, m, n):
        if len(self._groups) < 3 or m in self._groups:
            true(self, m, n)

    monkeypatch.setattr(FracAcc, "add_raw", dropping)


def _width_one_byte_short(monkeypatch):
    true = qpoly._width

    def short(bound):
        return max(true(bound) - 1, 1)

    for module in (qpoly, qarith):
        monkeypatch.setattr(module, "_width", short)


def _value_returns_rest(monkeypatch):
    true = FracAcc.value
    monkeypatch.setattr(FracAcc, "value",
                        lambda self: self._rest if true(self) else true(self))


def _misfiled(table: str):
    # An entry of the family's `table` that is absent at n is built for
    # n and stored under n + 1, where a later lookup at n + 1 finds it.
    def inject(monkeypatch):
        true = AppellFamily._at

        def at(self, stored, n, build):
            if stored is getattr(self, table) and n not in stored:
                return true(self, stored, n + 1, lambda _: build(n))
            return true(self, stored, n, build)

        monkeypatch.setattr(AppellFamily, "_at", at)
    return inject


def _row_four_off_by_q(monkeypatch):
    # Row 4 of every divided-power quotient gains q on its right side, so
    # the B, E and G numbers move from index 3 (Bernoulli, whose row 4
    # gives B_3) or 4 on, and so does the alpha equation's row 4.  The
    # declared alphas no longer match the moved numbers, so a1 and a2
    # fail on every family by n = 4 (on Bernoulli at n = 3), and h1 and
    # h2 fail at n = 4 through the Hermite defect E_4.
    true = appell._row

    def row(num, den, xs, m):
        rhs, pairs = true(num, den, xs, m)
        return (rhs + QRAT_Q if m == 4 else rhs), pairs

    monkeypatch.setattr(appell, "_row", row)


def _bernoulli_4_off_by_q_squared(monkeypatch):
    # The declared Bernoulli number rule gains q^2 at n = 4; its alpha
    # rule stays the closed form, so E_4 = ([4]_q + 1/q) q^2.
    number, alpha = families._RULES[FamilyKind.BERNOULLI]

    def moved(n, prefix):
        return number(n, prefix) + QRat.q_power(2) if n == 4 else number(n, prefix)

    monkeypatch.setitem(families._RULES, FamilyKind.BERNOULLI, (moved, alpha))


FAULTS = {
    "wrong q-binomial row": _wrong_binomial_row,
    "wrong q-integer row": _wrong_integer_row,
    "q-factorial vector off by one Phi_3": _factorial_vector_off_by_phi3,
    "cached A_5 changed after it was built": _changed_polynomial,
    "dropped FracAcc term": _dropped_frac_acc_term,
    "_width one byte short": _width_one_byte_short,
    "FracAcc.value returns _rest": _value_returns_rest,
    "reference filed under n + 1": _misfiled("_references"),
    "premises filed under n + 1": _misfiled("_premises"),
    "quotient row 4 off by q": _row_four_off_by_q,
    "B_4 + q^2": _bernoulli_4_off_by_q_squared,
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_a_hard_check_or_stops_the_run(fault, hard_run, monkeypatch):
    FAULTS[fault](monkeypatch)
    assert hard_run() != "passed"


# The fast-path guard: a1, a2 and lowering run no polynomial sum
# (appell._sum, which every direct form ends in) while the premises of
# the derivation hold; when one fails they run the direct sums, and
# their reports are those of the direct sums.

_DERIVED_CHECKS = {
    "a1": lambda fam, max_n: verify_recurrence_range(fam, 1, max_n),
    "a2": lambda fam, max_n: verify_difference_range(fam, 1, max_n),
    "lowering": verify_lowering_range,
}
_PREMISE_FAULTS = ["wrong q-binomial row", "wrong q-integer row",
                   "q-factorial vector off by one Phi_3",
                   "cached A_5 changed after it was built"]


@pytest.fixture
def sums(monkeypatch):
    """The list that every appell._sum call appends its terms to."""
    calls, true = [], appell._sum

    def counted(terms):
        calls.append(terms)
        return true(terms)

    monkeypatch.setattr(appell, "_sum", counted)
    return calls


def test_shared_families_verify_without_a_direct_sum(sums):
    for kind in ALL_FAMILIES:
        fam = families.make_family(kind)
        for check in _DERIVED_CHECKS.values():
            assert check(fam, 12).passed
    assert sums == []


# The premises hold on the shared families, so no hard or descriptive
# check takes a chain of derivatives (appell._derivatives, which every
# direct difference form and lowering residual starts from).

def test_shared_families_check_everything_without_a_direct_derivative(monkeypatch):
    calls, true = [], appell._derivatives

    def counted(p, k):
        calls.append(k)
        return true(p, k)

    monkeypatch.setattr(appell, "_derivatives", counted)
    hard = reports.hard_reports("all", 12, 24)
    assert all(r.passed for r in hard)
    assert len(reports.descriptive_reports("all", 12)) == 9
    assert calls == []


@pytest.mark.parametrize("fault", _PREMISE_FAULTS)
def test_a_broken_premise_takes_the_direct_sums(fault, sums, monkeypatch):
    FAULTS[fault](monkeypatch)
    _clear_value_caches()
    try:
        fam, twin = (families._family.__wrapped__(FamilyKind.EULER, ORDER)
                     for _ in range(2))
        derived = [check(fam, MAX_N) for check in _DERIVED_CHECKS.values()]
        assert sums and not all(r.passed for r in derived)
        monkeypatch.setattr(appell, "_derivable", lambda fam, n: False)
        assert derived == [check(twin, MAX_N) for check in _DERIVED_CHECKS.values()]
    finally:
        _clear_value_caches()


def test_a_wrong_q_factorial_fails_lowering(monkeypatch):
    # The lowering A_{n-k} = ([n-k]_q!/[n]_q!) D^k A_n reads [n]_q!, so a
    # wrong [5]_q! must fail it from n = 5 on.
    FAULTS["q-factorial vector off by one Phi_3"](monkeypatch)
    _clear_value_caches()
    try:
        fam = families._family.__wrapped__(FamilyKind.EULER, ORDER)
        report = verify_lowering_range(fam, MAX_N)
        assert (report.passed, report.first_failure) == (False, 5)
    finally:
        _clear_value_caches()


# A wrong family fails a1 and a2 where its numbers leave the declared
# alphas: (theorem, family) -> first failing degree, every other pair of
# a1, a2 and lowering passing.

_WRONG_FAMILIES = {
    "B_4 + q^2": {("a1", "bernoulli"): 4, ("a2", "bernoulli"): 4},
    "quotient row 4 off by q": {
        **{(check, "bernoulli"): 3 for check in ("a1", "a2")},
        **{(check, kind): 4 for check in ("a1", "a2")
           for kind in ("euler", "genocchi", "hermite")}},
}


@pytest.mark.parametrize("fault", list(_WRONG_FAMILIES))
def test_a_wrong_family_fails_a1_and_a2(fault, monkeypatch):
    FAULTS[fault](monkeypatch)
    _clear_value_caches()
    try:
        failures = {}
        for kind in ALL_FAMILIES:
            fam = families._family.__wrapped__(kind, ORDER)
            for name, check in _DERIVED_CHECKS.items():
                report = check(fam, MAX_N)
                if not report.passed:
                    failures[name, kind.value] = report.first_failure
        assert failures == _WRONG_FAMILIES[fault]
    finally:
        _clear_value_caches()
