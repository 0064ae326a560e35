"""Every command-line output stays byte-identical to the committed
golden: ``tools/cli_snapshot.py`` holds the invocations and records
``tests/golden/cli_snapshot.json``; this runs them in-process and
compares the sha256 of each one's stdout, stderr and exit code."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "cli_snapshot.json"


def _load_tool():
    spec = importlib.util.spec_from_file_location(
        "cli_snapshot", ROOT / "tools" / "cli_snapshot.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_invocation_matches_the_golden_bytes():
    tool = _load_tool()
    golden = json.loads(GOLDEN.read_text())
    current = tool.snapshot()
    assert len(current) == len(tool.INVOCATIONS) >= 160
    assert current.keys() == golden.keys()
    assert sorted(key for key in golden if golden[key] != current[key]) == []
