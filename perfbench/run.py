"""qappell benchmark runner (stdlib only).

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; qappell is imported from
``src/`` and nothing is installed.  One closed-loop client runs one
operation at a time.  Each CLI operation is its own
``python -m qappell ...`` process, so interpreter start, import and
generator build are paid as a user pays them.

``--trace 0`` measures the end-to-end metrics for S seconds (at least
one full pass of the workload's operations).  ``--trace 1`` runs the
operations once untraced and once traced, each in fresh child
processes, and reports the per-layer metrics.  The last stdout line is
one JSON object: correct, attempted, failed, metrics.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gate
import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_REPEATS = {"cli": 7, "eval": 3}
RUN_DEADLINE_S = 170.0     # stop starting work past this point of the run

END_TO_END_UNITS = {
    "wall_s": "s",
    "op_p50_ms": "ms",
    "op_p99_ms": "ms",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "success_rate": "ratio",
}


class Run:
    """Child-process plumbing and the running failure tally of one run."""

    def __init__(self, refs: dict | None):
        self.refs = refs
        self.started = time.perf_counter()
        self.attempted = 0
        self.failures: list[str] = []
        self.env = dict(os.environ)
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        self.env["PYTHONPATH"] = os.pathsep.join(p for p in path if p)

    def time_left(self) -> float:
        return RUN_DEADLINE_S - (time.perf_counter() - self.started)

    def spawn(self, argv: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
        """Run a child to completion; (wall seconds, result or None on timeout)."""
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, env=self.env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=max(self.time_left(), 1.0))
        except subprocess.TimeoutExpired:
            return time.perf_counter() - start, None
        return time.perf_counter() - start, proc

    def record(self, what: str, reason: str | None) -> None:
        self.attempted += 1
        if reason is not None:
            self.failures.append(f"{what}: {reason}")

    def cli_op(self, op) -> float:
        """One untraced ``python -m qappell`` operation; its wall time."""
        wall, proc = self.spawn([sys.executable, "-m", "qappell", *op])
        if proc is None:
            self.record(gate.op_key(op), "timeout")
        else:
            self.record(gate.op_key(op), gate.check_cli(
                op, proc.returncode, proc.stdout, proc.stderr, self.refs))
        return wall

    def child(self, args: list[str], what: str) -> dict | None:
        """A ``child.py`` envelope, or None (and a failure) if it broke."""
        _wall, proc = self.spawn([sys.executable, str(HERE / "child.py"), *args])
        if proc is None:
            self.record(what, "timeout")
            return None
        if proc.returncode != 0:
            self.record(what, f"child exit {proc.returncode}: {proc.stderr[-500:]}")
            return None
        return json.loads(proc.stdout.splitlines()[-1])

    def setup_times(self, argv: list[str], repeats: int) -> list[float]:
        times = []
        for _ in range(repeats):
            wall, proc = self.spawn(argv)
            if proc is None or proc.returncode != 0:
                raise RuntimeError(f"set-up failed: {' '.join(argv)}")
            times.append(wall)
        return times


def _peak_rss_mib(in_process: bool) -> float:
    """Largest RSS of any child, and of this process when it ran the
    workload itself."""
    kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    if in_process:
        kib = max(kib, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    return kib / 1024


def _percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * pct // 100))
    return ordered[int(rank) - 1]


def timed_cli(run: Run, workload: str, seed: int, seconds: float) -> dict:
    setup = run.setup_times([sys.executable, "-c", "import qappell"],
                            SETUP_REPEATS["cli"])
    ops = workloads.cli_ops(workload, seed)
    samples: dict[tuple, list[float]] = {op: [] for op in ops}
    start = time.perf_counter()
    done = 0
    while done < len(ops) or time.perf_counter() - start < seconds:
        if done >= len(ops) and run.time_left() <= 0:
            break
        op = ops[done % len(ops)]
        samples[op].append(run.cli_op(op))
        done += 1
    # The operation list's time is the sum of each operation's median,
    # so operations that happened to run twice do not weigh more.
    per_op = [statistics.median(s) for s in samples.values()]
    return {
        "wall_s": sum(per_op),
        "op_p50_ms": statistics.median(per_op) * 1e3,
        "op_p99_ms": _percentile(per_op, 99) * 1e3,
        "setup_s": statistics.median(setup),
    }


def timed_eval(run: Run, seed: int, seconds: float) -> dict:
    setup = run.setup_times([sys.executable, str(HERE / "child.py"), "eval-setup"],
                            SETUP_REPEATS["eval"])
    sys.path.insert(0, str(SRC))
    fams = workloads.eval_setup()
    latencies: list[float] = []
    pass_walls: list[float] = []
    checked = []
    clock = time.perf_counter
    start = clock()
    while not pass_walls or (clock() - start < seconds and run.time_left() > 0):
        ops = workloads.eval_inputs(seed, len(pass_walls))
        pass_start = clock()
        for i, (fam, n, q0, x0) in enumerate(ops):
            t0 = clock()
            try:
                value = fams[fam].polynomial(n).evaluate(q0, x0)
            except Exception as exc:  # every failed evaluation is counted
                latencies.append(clock() - t0)
                run.record(f"{fam} n={n} q={q0} x={x0}", repr(exc))
                continue
            latencies.append(clock() - t0)
            run.attempted += 1
            if i < workloads.EVAL_CHECKS_PER_PASS:
                checked.append((fam, n, q0, x0, value))
        pass_walls.append(clock() - pass_start)
    run.failures.extend(gate.check_evaluations(checked))
    return {
        "wall_s": statistics.median(pass_walls),
        "op_p50_ms": statistics.median(latencies) * 1e3,
        "op_p99_ms": _percentile(latencies, 99) * 1e3,
        "setup_s": statistics.median(setup),
    }


def traced(run: Run, workload: str, seed: int) -> dict:
    """Untraced then traced pass, each operation in its own child."""
    if workload == "eval-points":
        jobs = [(None, ["eval", "--seed", str(seed)])]
    else:
        jobs = [(op, ["cli", *op]) for op in workloads.cli_ops(workload, seed)]
    walls = {False: 0.0, True: 0.0}
    reports = []
    for trace in (False, True):
        for op, args in jobs:
            if trace:
                args = [args[0], "--trace", *args[1:]]
            what = "eval-points pass" if op is None else gate.op_key(op)
            env = run.child(args, what)
            if env is None:
                continue
            walls[trace] += env["wall_s"]
            if trace:
                reports.append(env["trace"])
            if op is None:
                run.attempted += env["attempted"]
                run.failures.extend(env["failures"])
            else:
                run.record(what, gate.check_cli(op, env["exit"], env["stdout"],
                                                "", run.refs))
    merged_spans, counts, sizes = spans.merge_reports(reports)
    sizes.update(run.child(["sizes"], "family sizes") or {})
    return spans.layer_metrics(merged_spans, counts, sizes,
                               walls[True] - walls[False])


def _check_tree() -> str | None:
    for need in (SRC / "qappell" / "__init__.py", ROOT / "tests" / "oracles.py",
                 gate.REFS):
        if not need.is_file():
            return f"missing {need}; run from the root of a qappell checkout"
    return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    problem = _check_tree()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2

    in_process = args.workload == "eval-points"
    run = Run({} if in_process else gate.load_refs())
    if args.trace:
        values = traced(run, args.workload, args.seed)
        units = spans.metric_units()
    else:
        if in_process:
            values = timed_eval(run, args.seed, args.seconds)
        else:
            values = timed_cli(run, args.workload, args.seed, args.seconds)
        values["peak_rss_mb"] = _peak_rss_mib(in_process)
        values["success_rate"] = 1 - len(run.failures) / max(run.attempted, 1)
        units = END_TO_END_UNITS

    failed = len(run.failures)
    for reason in run.failures[:20]:
        print(f"FAILED {reason}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{run.attempted} operations, error_rate = {failed}/{run.attempted}")
    metrics = {}
    for name, unit in units.items():
        print(f"  {name} = {values[name]} {unit}")
        metrics[name] = {"value": values[name], "unit": unit}
    print(json.dumps({"correct": failed == 0, "attempted": run.attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
