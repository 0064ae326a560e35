"""Test-side counterparts of the package's JSON output: parsers that
read emitted values back, for round-trip checks, and the canonical
discrepancy report that ``tests/golden/discrepancy_report.json`` holds.
"""

from fractions import Fraction

from qappell.appell import XPoly
from qappell.qarith import QPoly, QRat
from qappell.reports import descriptive_reports, discrepancy_to_json


def qpoly_from_json(data) -> QPoly:
    return QPoly([Fraction(s) for s in data])


def qrat_from_json(data) -> QRat:
    return QRat(qpoly_from_json(data["num"]), qpoly_from_json(data["den"]))


def xpoly_from_json(data) -> XPoly:
    p = XPoly([qrat_from_json(c) for c in data["coeffs"]])
    if p.degree != data["n"]:
        raise ValueError(f"XPoly JSON gives n = {data['n']}, but its "
                         f"coefficients have degree {p.degree}")
    return p


def discrepancy_report(max_n: int = 10) -> list[dict]:
    """The canonical descriptive report (the golden file content)."""
    reports = descriptive_reports("all", max_n)
    return [discrepancy_to_json(r) for r in reports]
