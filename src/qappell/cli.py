"""Command-line front end.

Subcommands: ``numbers`` (family number tables), ``poly`` (a family
polynomial, optionally evaluated at exact rational q and/or x),
``alpha`` (the recurrence coefficients), and ``verify`` (the identity
suites).  Exit codes: 0 ok, 1 hard-check failure, 2 bad arguments,
3 pole while evaluating.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from . import render, reports
from .appell import DegreeRangeError
from .families import FamilyKind, make_family
from .qarith import PoleError

_FAMILY_SYMBOLS = {"bernoulli": "B", "euler": "E", "genocchi": "G", "hermite": "H"}
_NUMBER_SYMBOLS = {"bernoulli": "b", "euler": "e", "genocchi": "g", "hermite": "h"}


def _rational(text: str) -> Fraction:
    # Fraction("1/0") raises ZeroDivisionError, which argparse would not
    # turn into a usage error.
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"invalid Fraction value: {text!r}") from None


def _common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--order", type=int, default=24,
                        help="series truncation order (default 24)")
    parser.add_argument("--format", choices=("json", "csv", "latex"),
                        default="json", help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qappell",
        description="Exact q-calculus tables and identity verification "
                    "for the q-Appell polynomial families.")
    sub = parser.add_subparsers(dest="command", required=True)
    families = [k.value for k in FamilyKind]

    p = sub.add_parser("numbers", help="table of family numbers A_n(0)")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--max-n", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_numbers)

    p = sub.add_parser("poly", help="a family polynomial A_n(x)")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--at-q", type=_rational, default=None, metavar="P/Q",
                   help="evaluate coefficients at an exact rational q")
    p.add_argument("--at-x", type=_rational, default=None, metavar="P/Q",
                   help="evaluate at an exact rational x")
    _common_flags(p)
    p.set_defaults(func=cmd_poly)

    p = sub.add_parser("alpha", help="recurrence coefficients alpha_n")
    p.add_argument("--family", choices=families, required=True)
    p.add_argument("--max-n", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_alpha)

    p = sub.add_parser("verify", help="run identity suites (JSON report)")
    p.add_argument("--scope", choices=reports.SCOPES, default="all")
    p.add_argument("--max-n", type=int, required=True)
    _common_flags(p)
    p.set_defaults(func=cmd_verify)

    return parser


def _family_for(args, min_order: int):
    order = max(args.order, min_order, 2)
    return make_family(FamilyKind(args.family), order)


def cmd_numbers(args) -> int:
    if args.max_n < 0:
        raise _usage_error("--max-n must be >= 0")
    fam = _family_for(args, args.max_n)
    values = fam.numbers(args.max_n)
    if args.format == "json":
        payload = {"family": args.family, "max_n": args.max_n,
                   "numbers": [render.qrat_to_json(v) for v in values]}
        sys.stdout.write(render.dumps(payload))
    elif args.format == "csv":
        sys.stdout.write(render.csv_table(
            (n, str(v)) for n, v in enumerate(values)))
    else:
        sym = _NUMBER_SYMBOLS[args.family]
        sys.stdout.write(render.latex_equations(
            (f"{sym}_{{{n},q}}", render.qrat_latex(v))
            for n, v in enumerate(values)))
    return 0


def cmd_poly(args) -> int:
    if args.n < 0:
        raise _usage_error("--n must be >= 0")
    fam = _family_for(args, args.n)
    poly = fam.polynomial(args.n)
    sym = _FAMILY_SYMBOLS[args.family]
    name = f"{sym}_{{{args.n},q}}"

    if args.at_q is not None and args.at_x is not None:
        value = poly.evaluate(args.at_q, args.at_x)
        if args.format == "json":
            payload = {"family": args.family, "n": args.n,
                       "at_q": render.fraction_to_str(args.at_q),
                       "at_x": render.fraction_to_str(args.at_x),
                       "value": render.fraction_to_str(value)}
            sys.stdout.write(render.dumps(payload))
        elif args.format == "csv":
            sys.stdout.write(render.csv_table([(args.n, render.fraction_to_str(value))]))
        else:
            sys.stdout.write(render.latex_equations(
                [(f"{name}({args.at_x})", render.fraction_latex(value))]))
        return 0

    if args.at_q is not None:
        coeffs = poly.evaluate_q(args.at_q)
        if args.format == "json":
            payload = {"family": args.family, "n": args.n,
                       "at_q": render.fraction_to_str(args.at_q),
                       "coeffs": [render.fraction_to_str(c) for c in coeffs]}
            sys.stdout.write(render.dumps(payload))
        elif args.format == "csv":
            sys.stdout.write(render.csv_table(
                (k, render.fraction_to_str(c)) for k, c in enumerate(coeffs)))
        else:
            body = _classical_latex(coeffs)
            sys.stdout.write(render.latex_equations([(f"{name}(x)", body)]))
        return 0

    if args.at_x is not None:
        value = poly.evaluate_x(args.at_x)
        if args.format == "json":
            payload = {"family": args.family, "n": args.n,
                       "at_x": render.fraction_to_str(args.at_x),
                       "value": render.qrat_to_json(value)}
            sys.stdout.write(render.dumps(payload))
        elif args.format == "csv":
            sys.stdout.write(render.csv_table([(args.n, str(value))]))
        else:
            sys.stdout.write(render.latex_equations(
                [(f"{name}({args.at_x})", render.qrat_latex(value))]))
        return 0

    if args.format == "json":
        payload = {"family": args.family, "n": args.n,
                   "poly": render.xpoly_to_json(poly)}
        sys.stdout.write(render.dumps(payload))
    elif args.format == "csv":
        coeffs = [poly.coefficient(k) for k in range(max(poly.degree, 0) + 1)]
        sys.stdout.write(render.csv_table(
            (k, str(c)) for k, c in enumerate(coeffs)))
    else:
        sys.stdout.write(render.latex_equations(
            [(f"{name}(x)", render.xpoly_latex(poly))]))
    return 0


def _classical_latex(coeffs) -> str:
    from .qarith import QPoly, QRat
    from .appell import XPoly
    return render.xpoly_latex(XPoly([QRat(QPoly(c)) for c in coeffs]))


def cmd_alpha(args) -> int:
    if args.max_n < 0:
        raise _usage_error("--max-n must be >= 0")
    fam = _family_for(args, args.max_n + 1)
    values = fam.alphas(args.max_n)
    if args.format == "json":
        payload = {"family": args.family, "max_n": args.max_n,
                   "alpha": [render.qrat_to_json(v) for v in values]}
        sys.stdout.write(render.dumps(payload))
    elif args.format == "csv":
        sys.stdout.write(render.csv_table(
            (n, str(v)) for n, v in enumerate(values)))
    else:
        sys.stdout.write(render.latex_equations(
            (f"\\alpha_{{{n}}}", render.qrat_latex(v))
            for n, v in enumerate(values)))
    return 0


def cmd_verify(args) -> int:
    if args.max_n < 1:
        raise _usage_error("--max-n must be >= 1")
    order = max(args.order, args.max_n + 1, 2)
    try:
        payload = reports.run_scope(args.scope, args.max_n, order)
    except DegreeRangeError as exc:
        raise _usage_error(str(exc)) from None
    sys.stdout.write(render.dumps(payload))
    return 0 if payload["passed"] else 1


def _usage_error(message: str) -> SystemExit:
    print(f"error: {message}", file=sys.stderr)
    return SystemExit(2)


def _attach_point_values(argv: list[str]) -> list[str]:
    """Write ``--at-x -2/7`` as ``--at-x=-2/7``.  argparse takes a token
    that starts with '-' for an option unless it looks like a decimal
    number, so a negative fraction after a point flag needs the '=' form;
    a token that starts with '-' and a digit is never an option here."""
    out: list[str] = []
    for token in argv:
        if (out and out[-1] in ("--at-q", "--at-x") and token[:1] == "-"
                and token[1:2].isdigit()):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_point_values(
        sys.argv[1:] if argv is None else list(argv)))
    try:
        return args.func(args)
    except PoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
