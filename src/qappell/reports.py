"""Suite runners: hard symbolic checks (which gate the exit code) and
descriptive printed-claim checks (which never do).

Hard checks: the general recurrence (a1) and difference equation (a2)
for all four families, the lowering chains, the Hermite three-term
recurrence (h1), difference equation (h2), generator ratio, and the
cross-construction equality of the two Hermite builds.

Descriptive checks: the specialized theorems exactly as printed (b1, b2,
e1 in both symbol readings, e2, g1, g2), the explicit-sum normalization
claim, and the Euler number relation.  Their outcomes are recorded in a
deterministic discrepancy report.
"""

from __future__ import annotations

from . import hermite
from .appell import (DegreeRangeError, VerificationReport,
                     verify_difference_range, verify_lowering_range,
                     verify_recurrence_range)
from .families import (DiscrepancyReport, FamilyKind, make_family,
                       verify_euler_number_relation, verify_printed_theorem)
from .render import xpoly_to_json

ALL_FAMILIES = tuple(FamilyKind)


def _families():
    return [make_family(kind) for kind in ALL_FAMILIES]


def _printed(kind: FamilyKind, theorem_id: str, *e1_reading: str):
    return lambda max_n, *_: [
        verify_printed_theorem(kind, theorem_id, max_n, *e1_reading)]


# Every check, in report order: (scope, first degree, run).  A hard
# check has the smallest degree it examines and gates the exit code; a
# descriptive check has None.  run(max_n, order) returns its reports;
# only the generator ratio check reads the order.
_CHECKS = (
    ("a1", 1, lambda max_n, *_: [
        verify_recurrence_range(fam, 1, max_n) for fam in _families()]),
    ("a2", 1, lambda max_n, *_: [
        verify_difference_range(fam, 1, max_n) for fam in _families()]),
    ("lowering", 0, lambda max_n, *_: [
        verify_lowering_range(fam, max_n) for fam in _families()]),
    ("h1", 2, lambda max_n, *_: [hermite.verify_hermite_recurrence_range(max_n)]),
    ("h2", 1, lambda max_n, *_: [hermite.verify_hermite_difference_range(max_n)]),
    ("h0", 0, lambda max_n, order: [
        hermite.verify_cross_construction(max_n),
        hermite.verify_hermite_generator_ratio(order)]),
    ("b1", None, _printed(FamilyKind.BERNOULLI, "b1")),
    ("b2", None, _printed(FamilyKind.BERNOULLI, "b2")),
    ("e1", None, _printed(FamilyKind.EULER, "e1", "numbers")),
    ("e1", None, _printed(FamilyKind.EULER, "e1", "values")),
    ("e2", None, _printed(FamilyKind.EULER, "e2")),
    ("g1", None, _printed(FamilyKind.GENOCCHI, "g1")),
    ("g2", None, _printed(FamilyKind.GENOCCHI, "g2")),
    ("h0", None, lambda max_n, *_: [hermite.verify_printed_series_form(max_n)]),
    ("euler-relation", None, lambda max_n, *_: [verify_euler_number_relation(max_n)]),
)

SCOPES = ("all",) + tuple(dict.fromkeys(scope for scope, _, _ in _CHECKS))


def _selected(hard: bool, scope: str):
    return [(check_scope, lo, run) for check_scope, lo, run in _CHECKS
            if (lo is not None) is hard and scope in ("all", check_scope)]


def _run(hard: bool, scope: str, max_n: int, order: int | None) -> list:
    return [report for _, _, run in _selected(hard, scope)
            for report in run(max_n, order)]


def hard_reports(scope: str, max_n: int, order: int) -> list[VerificationReport]:
    """The hard reports of a scope.  Every selected check's degree range
    is checked first, so an empty one raises before any family is built."""
    for check_scope, lo, _ in _selected(True, scope):
        if lo > max_n:
            raise DegreeRangeError(f"{check_scope}: empty degree range {lo}..{max_n}")
    return _run(True, scope, max_n, order)


def descriptive_reports(scope: str, max_n: int) -> list[DiscrepancyReport]:
    return _run(False, scope, max_n, None)


def verification_to_json(report: VerificationReport) -> dict:
    return {
        "theorem": report.theorem_id,
        "family": report.family,
        "max_n": report.n_range[1],
        "passed": report.passed,
        "first_failure": report.first_failure,
    }


def discrepancy_to_json(report: DiscrepancyReport) -> dict:
    return {
        "claim": report.claim_id,
        "status": report.status,
        "counterexample_n": report.counterexample_n,
        "residual": None if report.residual is None
                    else xpoly_to_json(report.residual),
    }


def run_scope(scope: str, max_n: int, order: int) -> dict:
    """Run one verification scope; the payload is JSON-ready and the
    ``passed`` flag reflects hard checks only."""
    hard = hard_reports(scope, max_n, order)
    descriptive = descriptive_reports(scope, max_n)
    return {
        "scope": scope,
        "max_n": max_n,
        "order": order,
        "passed": all(r.passed for r in hard),
        "hard": [verification_to_json(r) for r in hard],
        "descriptive": [discrepancy_to_json(r) for r in descriptive],
    }
