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
from .appell import DegreeRangeError, XPoly
from .families import MAX_ORDER, FamilyKind, make_family
from .qarith import PoleError

# The largest degree --max-n and --n may ask for (--order is capped at
# families.MAX_ORDER); _LIMITS below says what a run at the limits costs.
MAX_N = 32

_LIMITS = f"""\
limits: --order <= {MAX_ORDER}; --max-n, --n <= {MAX_N}.  Wall time of one run
(median of 5 runs, 11 for verify, Python 3.11, 2-vCPU x86-64 VM):
  numbers, alpha, poly at n <= 24, any family       <= 0.25 s
  alpha --family bernoulli --max-n 31                0.58 s
  verify --scope all --max-n 12 | 16 | 20 | 24       0.15 s | 0.18 s | 0.26 s | 0.44 s
  verify --scope all --max-n 32                      1.7 s
  verify --scope h0 --max-n 4 --order 140 | 200      0.08 s | 0.08 s
"""

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
                        help="range of the Hermite generator-ratio check in verify, "
                             "raised to --max-n + 1 and echoed as \"order\"; the "
                             "other subcommands only range-check it "
                             f"(default 24, at most {MAX_ORDER})")
    parser.add_argument("--format", choices=("json", "csv", "latex"),
                        default="json", help="output format (default json)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qappell",
        description="Exact q-calculus tables and identity verification "
                    "for the q-Appell polynomial families.",
        epilog=_LIMITS, formatter_class=argparse.RawDescriptionHelpFormatter)
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


def _check_range(flag: str, value: int, lo: int, hi: int) -> None:
    if value < lo:
        raise _usage_error(f"{flag} must be >= {lo}")
    if value > hi:
        raise _usage_error(f"{flag} must be <= {hi}")


def _write(args, payload: dict, rows, equations) -> int:
    """Write the payload as JSON, the rows() as CSV or the equations()
    as LaTeX; only the chosen format's thunk runs."""
    if args.format == "json":
        sys.stdout.write(render.dumps(payload))
    elif args.format == "csv":
        sys.stdout.write(render.csv_table(rows()))
    else:
        sys.stdout.write(render.latex_equations(equations()))
    return 0


def _write_table(args, key: str, values, latex_name) -> int:
    payload = {"family": args.family, "max_n": args.max_n,
               key: [render.qrat_to_json(v) for v in values]}
    return _write(args, payload, lambda: ((n, str(v)) for n, v in enumerate(values)),
                  lambda: ((latex_name(n), render.qrat_latex(v))
                           for n, v in enumerate(values)))


def cmd_numbers(args) -> int:
    _check_range("--max-n", args.max_n, 0, MAX_N)
    values = make_family(FamilyKind(args.family)).numbers(args.max_n)
    sym = _NUMBER_SYMBOLS[args.family]
    return _write_table(args, "numbers", values, lambda n: f"{sym}_{{{n},q}}")


def cmd_poly(args) -> int:
    _check_range("--n", args.n, 0, MAX_N)
    poly = make_family(FamilyKind(args.family)).polynomial(args.n)
    payload = {"family": args.family, "n": args.n}
    for key, point in (("at_q", args.at_q), ("at_x", args.at_x)):
        if point is not None:
            payload[key] = str(point)
    lhs = f"{_FAMILY_SYMBOLS[args.family]}_{{{args.n},q}}"
    lhs += "(x)" if args.at_x is None else f"({args.at_x})"
    if args.at_q is not None and args.at_x is not None:
        value = poly.evaluate(args.at_q, args.at_x)
        payload["value"] = str(value)
        return _write(args, payload, lambda: [(args.n, payload["value"])],
                      lambda: [(lhs, render.fraction_latex(value))])
    if args.at_q is not None:
        coeffs = poly.evaluate_q(args.at_q)
        payload["coeffs"] = [str(c) for c in coeffs]
        return _write(args, payload, lambda: enumerate(payload["coeffs"]),
                      lambda: [(lhs, render.xpoly_latex(XPoly(coeffs)))])
    if args.at_x is not None:
        value = poly.evaluate_x(args.at_x)
        payload["value"] = render.qrat_to_json(value)
        return _write(args, payload, lambda: [(args.n, str(value))],
                      lambda: [(lhs, render.qrat_latex(value))])
    payload["poly"] = render.xpoly_to_json(poly)
    return _write(args, payload, lambda: (
        (k, str(poly.coefficient(k))) for k in range(max(poly.degree, 0) + 1)),
        lambda: [(lhs, render.xpoly_latex(poly))])


def cmd_alpha(args) -> int:
    _check_range("--max-n", args.max_n, 0, MAX_N)
    values = make_family(FamilyKind(args.family)).alphas(args.max_n)
    return _write_table(args, "alpha", values, lambda n: f"\\alpha_{{{n}}}")


def cmd_verify(args) -> int:
    _check_range("--max-n", args.max_n, 1, MAX_N)
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
    if args.order > MAX_ORDER:
        raise _usage_error(f"--order must be <= {MAX_ORDER}")
    try:
        return args.func(args)
    except PoleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
