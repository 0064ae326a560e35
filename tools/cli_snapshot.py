"""Byte-identity snapshot of the command line.

  python3 tools/cli_snapshot.py tests/golden/cli_snapshot.json

Runs every invocation of ``INVOCATIONS`` in one process through
``qappell.cli.main`` and writes, per invocation, the sha256 of its
stdout, stderr and exit code to the golden file.  Each ``verify``
invocation starts from cold families, as it would in a new process.
``tests/test_cli_snapshot.py`` compares the same digests against it.  A
change that must not alter any output records the golden on the parent
tree, before editing ``src/``, and runs that test on the change.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from qappell.families import FamilyKind  # noqa: E402
from qappell.reports import SCOPES  # noqa: E402

# The families and verify scopes come from the package, so a new one
# enters the snapshot, and its golden, as soon as it exists.
FAMILIES = tuple(kind.value for kind in FamilyKind)
FORMATS = ("json", "csv", "latex")


def _tables(numbers: int, alpha: int, poly: int) -> list[list[str]]:
    return [argv + ["--format", fmt]
            for family in FAMILIES for fmt in FORMATS
            for argv in (["numbers", "--family", family, "--max-n", str(numbers)],
                         ["alpha", "--family", family, "--max-n", str(alpha)],
                         ["poly", "--family", family, "--n", str(poly)])]


def _points() -> list[list[str]]:
    points = (["--n", "7", "--at-q", "1/3"], ["--n", "7", "--at-x", "-2/7"],
              ["--n", "7", "--at-q", "1/3", "--at-x", "-2/7"],
              ["--n", "5", "--at-q", "1"])
    return [["poly", "--family", family, *point, "--format", fmt]
            for family in FAMILIES for fmt in FORMATS for point in points]


def _poles() -> list[list[str]]:
    return [["poly", "--family", family, "--n", "6", "--at-q", q]
            for family in FAMILIES for q in ("-1", "0")]


def _verify() -> list[list[str]]:
    runs = [["verify", "--scope", scope, "--max-n", str(n)]
            for scope in SCOPES for n in (1, 2, 5, 12)]
    return runs + [["verify", "--scope", "all", "--max-n", "16"],
                   ["verify", "--scope", "h0", "--max-n", "4", "--order", "140"]]


USAGE_ERRORS = [["verify", "--scope", "all", "--max-n", "33"],
                ["numbers", "--family", "euler", "--max-n", "3", "--order", "201"],
                ["poly", "--family", "euler", "--n", "3", "--at-q", "1/0"]]

INVOCATIONS = (_tables(24, 23, 24) + _points() + _tables(32, 31, 32) + _poles()
               + _verify() + USAGE_ERRORS)


def run(argv: list[str]) -> tuple[str, str, int]:
    """stdout, stderr and exit code of ``qappell.cli.main(argv)``."""
    from qappell import families
    from qappell.cli import main
    if argv[0] == "verify":
        families.make_family.cache_clear()
        families._family.cache_clear()
        families._euler_number_family.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


def digest(argv: list[str]) -> str:
    """sha256 of the JSON list [stdout, stderr, exit code] of one run."""
    return hashlib.sha256(json.dumps(run(argv)).encode()).hexdigest()


def snapshot() -> dict[str, str]:
    """The digest of every invocation, keyed on its space-joined argv."""
    return {" ".join(argv): digest(argv) for argv in INVOCATIONS}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/cli_snapshot.py")
    parser.add_argument("golden", type=Path, help="file the digests are written to")
    args = parser.parse_args(argv)
    current = snapshot()
    args.golden.write_text(json.dumps(current, indent=1) + "\n")
    print(f"{len(current)} invocations recorded")
    return 0


if __name__ == "__main__":
    sys.exit(main())
