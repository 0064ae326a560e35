"""The benchmark's children bind qappell names directly; this runs the
one child that no perfbench test runs, so a rename or deletion in the
package that breaks it fails here.  It also runs the workloads in-process
to pin what they never reach."""

import json
import os
import subprocess
import sys
from pathlib import Path

from qappell import cli, families, qarith
from qappell.families import FamilyKind, make_family

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import workloads  # noqa: E402


def test_sizes_child_reports_every_family():
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "child.py"), "sizes"],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    sizes = json.loads(proc.stdout)
    for kind in FamilyKind:
        for size in ("max_den_deg", "max_coeff_bits"):
            assert isinstance(sizes[f"families.{kind.value}.{size}"], int)


def test_no_workload_reaches_the_generic_form(capsys, monkeypatch):
    """verify-all, the tables-deep operations and an eval-points sample,
    run in-process from cold family caches, create no generic value and
    make no _pair call whose denominator is not c q^w."""
    seen = []
    pair, generic = qarith._pair, qarith._generic

    def recording_pair(num, den):
        if any(den._ints[:-1]):
            seen.append(("_pair", str(den)))
        return pair(num, den)

    def recording_generic(num, den):
        seen.append(("_generic", str(den)))
        return generic(num, den)

    monkeypatch.setattr(qarith, "_pair", recording_pair)
    monkeypatch.setattr(qarith, "_generic", recording_generic)
    make_family.cache_clear()
    families._family.cache_clear()
    for workload in ("verify-all", "tables-deep"):
        for op in workloads.CLI_OPS[workload]:
            assert cli.main(list(op)) == 0, op
    capsys.readouterr()
    fams = workloads.eval_setup()
    for fam, n, q0, x0 in workloads.eval_inputs(0, 0, per_degree=1):
        fams[fam].polynomial(n).evaluate(q0, x0)
    assert seen == []
