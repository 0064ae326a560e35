"""Correctness gate: every operation the benchmark runs is checked, and
each one that fails counts against the run's ``failed`` total.

CLI operations are compared by value against references recorded from
the tree this benchmark was added to (``refs/cli_refs.json.gz``, written
by ``record_refs.py``).  The comparison walks the reference: every key and
list entry it holds must be present and equal in the output, while keys
the output adds are ignored, so a later schema addition does not count as
a failure.  For ``verify`` that covers exit 0, ``passed: true`` and each
descriptive ``status`` / ``counterexample_n`` (and residual).

A nonzero exit, a traceback, a ``PoleError`` or a timeout fails the
operation whatever its output.

Evaluations are checked against the independent numeric oracle
``tests/oracles.py`` (``poly_coeffs`` + ``poly_eval``), after timing.
"""

from __future__ import annotations

import gzip
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFS = HERE / "refs" / "cli_refs.json.gz"


def op_key(argv) -> str:
    return " ".join(argv)


def load_refs() -> dict:
    """op key -> {"exit": int, "output": parsed JSON}."""
    with gzip.open(REFS, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def matches(ref, out) -> bool:
    """Value equality that ignores dict keys the reference lacks."""
    if isinstance(ref, dict):
        return (isinstance(out, dict)
                and all(k in out and matches(v, out[k]) for k, v in ref.items()))
    if isinstance(ref, list):
        return (isinstance(out, list) and len(ref) == len(out)
                and all(matches(a, b) for a, b in zip(ref, out)))
    return type(ref) is type(out) and ref == out


def check_cli(argv, returncode: int, stdout: str, stderr: str,
              refs: dict) -> str | None:
    """None if the operation is correct, else the reason it failed."""
    if "Traceback" in stderr or "PoleError" in stderr:
        return "traceback or PoleError on stderr"
    ref = refs.get(op_key(argv))
    if ref is None:
        return "no reference recorded for this operation"
    if returncode != ref["exit"]:
        return f"exit {returncode}, reference {ref['exit']}"
    try:
        output = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not JSON"
    if not matches(ref["output"], output):
        return "output differs from the reference"
    return None


def _oracles():
    sys.path.insert(0, str(ROOT / "tests"))
    try:
        import oracles
    finally:
        sys.path.pop(0)
    return oracles


def check_evaluations(samples) -> list[str]:
    """samples: (family, n, q0, x0, value).  Returns one message per
    value that disagrees with the numeric oracle."""
    oracles = _oracles()
    failures = []
    for fam, n, q0, x0, value in samples:
        want = oracles.poly_eval(oracles.poly_coeffs(fam, n, q0), x0)
        if value != want:
            failures.append(f"{fam} n={n} q={q0} x={x0}: {value} != {want}")
    return failures
