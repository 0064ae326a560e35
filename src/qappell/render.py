"""Serialization of kernel values: JSON (with parsers for round-trips),
CSV tables, and LaTeX.

JSON schemas
------------
Rationals serialize as strings "p/q" (decimal digits, optional leading
minus, "/q" omitted when the denominator is 1), so no consumer can lose
precision.

  QRat   {"num": ["p/q", ...], "den": ["p/q", ...]}   index = q-power
  XPoly  {"n": int, "coeffs": [QRat, ...]}            ascending x-power,
                                                      n = degree (-1: zero)

CSV tables use the header ``n,value``.  LaTeX emits one displayed
equation per row; q-polynomials are rendered in ascending powers, while
x-polynomials follow the conventional descending layout.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .qarith import QPoly, QRat
from .qpoly import LATEX
from .appell import XPoly, signed_terms


def qpoly_to_json(p: QPoly) -> list[str]:
    return [str(c) for c in p.coeffs]


def qpoly_from_json(data) -> QPoly:
    return QPoly([Fraction(s) for s in data])


def qrat_to_json(r: QRat) -> dict:
    return {"num": qpoly_to_json(r.num), "den": qpoly_to_json(r.den)}


def qrat_from_json(data) -> QRat:
    return QRat(qpoly_from_json(data["num"]), qpoly_from_json(data["den"]))


def xpoly_to_json(p: XPoly) -> dict:
    return {"n": p.degree, "coeffs": [qrat_to_json(c) for c in p.coeffs]}


def xpoly_from_json(data) -> XPoly:
    p = XPoly([qrat_from_json(c) for c in data["coeffs"]])
    if p.degree != data["n"]:
        raise ValueError(f"XPoly JSON gives n = {data['n']}, but its "
                         f"coefficients have degree {p.degree}")
    return p


def dumps(obj) -> str:
    """Canonical JSON emission: 2-space indent, insertion key order,
    trailing newline.  Deterministic for the dict shapes built here."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"


# ---------------------------------------------------------------------------
# CSV


def csv_table(rows) -> str:
    """Rows of (n, value-string) under the standard header."""
    lines = ["n,value"]
    for n, value in rows:
        lines.append(f"{n},{value}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# LaTeX


def fraction_latex(c: Fraction) -> str:
    if c.denominator == 1:
        return str(c.numerator)
    sign = "-" if c < 0 else ""
    return f"{sign}\\frac{{{abs(c.numerator)}}}{{{c.denominator}}}"


def qpoly_latex(p: QPoly) -> str:
    return p.layout(fraction_latex, LATEX)


def qrat_latex(r: QRat) -> str:
    if r.den.is_one():
        return qpoly_latex(r.num)
    return f"\\frac{{{qpoly_latex(r.num)}}}{{{qpoly_latex(r.den)}}}"


def xpoly_latex(p: XPoly) -> str:
    """Descending x-powers with explicit q-polynomial coefficients."""
    return signed_terms(p, qrat_latex, LATEX)


def latex_equations(rows) -> str:
    """One displayed equation per (lhs, rhs-string) row."""
    return "".join(f"\\[ {lhs} = {rhs} \\]\n" for lhs, rhs in rows)
