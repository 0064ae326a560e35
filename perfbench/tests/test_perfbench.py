"""Tests of the benchmark itself: seeded inputs, the correctness gate,
metric names, repeatable traced call counts, and refusal to run outside
a qappell checkout.

  python3 -m pytest perfbench/tests -q
"""

import json
import re
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gate  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
SMALL_OP = ("numbers", "--family", "hermite", "--max-n", "4")


def test_same_seed_same_inputs_other_seed_other_points():
    for workload in workloads.CLI_OPS:
        assert workloads.cli_ops(workload, 7) == workloads.cli_ops(workload, 7)
        assert sorted(workloads.cli_ops(workload, 7)) == sorted(workloads.CLI_OPS[workload])
    assert workloads.cli_ops("tables-deep", 7) != workloads.cli_ops("tables-deep", 8)
    first = workloads.eval_inputs(7, 0)
    assert first == workloads.eval_inputs(7, 0)
    assert len(first) == 4 * len(workloads.EVAL_DEGREES) * workloads.EVAL_PER_DEGREE
    other = workloads.eval_inputs(8, 0)
    assert [op[2:] for op in first] != [op[2:] for op in other]
    assert first != workloads.eval_inputs(7, 1)
    assert all(q0 > 0 and q0 != 1 and x0 > 0 for _f, _n, q0, x0 in first)


@pytest.fixture
def small_op_reference():
    """A reference for SMALL_OP recorded from the current tree."""
    proc = subprocess.run([sys.executable, "-m", "qappell", *SMALL_OP],
                          env=run.Run({}).env, cwd=ROOT, capture_output=True,
                          text=True, check=True)
    return {"exit": 0, "output": json.loads(proc.stdout)}


def test_wrong_reference_gives_nonzero_error_rate(small_op_reference):
    key = gate.op_key(SMALL_OP)
    good = run.Run({key: small_op_reference})
    good.cli_op(SMALL_OP)
    assert (good.attempted, good.failures) == (1, [])

    wrong = json.loads(json.dumps(small_op_reference))
    wrong["output"]["numbers"][2]["num"][0] = "12345"
    bad = run.Run({key: wrong})
    bad.cli_op(SMALL_OP)
    assert bad.attempted == 1 and len(bad.failures) / bad.attempted > 0


def test_gate_ignores_added_keys_only():
    ref = {"passed": True, "hard": [{"first_failure": None}]}
    assert gate.matches(ref, {"passed": True, "hard": [{"first_failure": None,
                                                        "stats": {}}], "new": 1})
    assert not gate.matches(ref, {"passed": 1, "hard": [{"first_failure": None}]})
    assert not gate.matches(ref, {"passed": True, "hard": []})
    assert not gate.matches(ref, {"hard": [{"first_failure": None}]})


def test_evaluation_oracle_rejects_a_wrong_value():
    q0, x0 = Fraction(3, 7), Fraction(5, 2)
    # Hermite H_2(x) = x^2 - 1 for every q.
    assert gate.check_evaluations([("hermite", 2, q0, x0, x0 * x0 - 1)]) == []
    assert len(gate.check_evaluations([("hermite", 2, q0, x0, x0 * x0)])) == 1


def test_metric_names_match_benchmark_json():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in doc["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in doc["per_layer"]}
    assert end_to_end == run.END_TO_END_UNITS
    assert per_layer == spans.metric_units()
    assert [m["better"] for m in doc["per_layer"]] == [
        spans.metric_better(n) for n in per_layer]
    for name in [*end_to_end, *per_layer]:
        assert NAME.fullmatch(name), name
    emitted = spans.layer_metrics({}, {}, {}, 0.0)
    assert list(emitted) == list(per_layer)


def _traced_calls(args):
    env = run.Run({}).child(args, "traced child")
    assert env is not None
    return {name: stat[0] for name, stat in env["trace"]["spans"].items()}


@pytest.mark.parametrize("args", [
    ["cli", "--trace", "verify", "--scope", "h1", "--max-n", "4", "--order", "6"],
    ["eval", "--trace", "--seed", "3", "--per-degree", "1"],
])
def test_two_traced_runs_give_identical_call_counts(args):
    first = _traced_calls(args)
    assert sum(first.values()) > 0
    assert _traced_calls(args) == first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-all",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
