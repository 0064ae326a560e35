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
"""

import pytest

from qappell import appell, families, hermite, qarith, qpoly, reports
from qappell.appell import AppellFamily
from qappell.families import FamilyKind
from qappell.qarith import FracAcc, QRat, QRAT_Q

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


def _wrong_binomial_row(monkeypatch):
    # Row 6 of [n k]_q gains q off its ends, wherever a module reads it.
    true = QRat.q_binomial

    def wrong(n, k):
        return true(n, k) + QRAT_Q if n == 6 and 0 < k < n else true(n, k)

    for module in (appell, families):
        monkeypatch.setattr(module, "_qb", wrong)


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
    def inject(monkeypatch):
        true = AppellFamily._keep

        def keep(self, stored, n, value):
            if stored is getattr(self, table):
                n += 1
            return true(self, stored, n, value)

        monkeypatch.setattr(AppellFamily, "_keep", keep)
    return inject


FAULTS = {
    "wrong q-binomial row": _wrong_binomial_row,
    "dropped FracAcc term": _dropped_frac_acc_term,
    "_width one byte short": _width_one_byte_short,
    "FracAcc.value returns _rest": _value_returns_rest,
    "reference filed under n + 1": _misfiled("_references"),
    "lowering defects filed under n + 1": _misfiled("_defects"),
}


@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_fails_a_hard_check_or_stops_the_run(fault, hard_run, monkeypatch):
    FAULTS[fault](monkeypatch)
    assert hard_run() != "passed"
