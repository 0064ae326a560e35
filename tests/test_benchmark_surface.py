"""The benchmark's children bind qappell names directly; this runs the
one child that no perfbench test runs, so a rename or deletion in the
package that breaks it fails here."""

import json
import os
import subprocess
import sys
from pathlib import Path

from qappell.families import FamilyKind

ROOT = Path(__file__).resolve().parent.parent


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
