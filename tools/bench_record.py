"""Record a parent-versus-change benchmark comparison as one JSON file.

  python3 tools/bench_record.py --parent DIR --out BENCH_N.json

DIR is the root of a source checkout of the parent commit (a
``git archive`` of it will do); the change is this checkout.  For every
workload in ``BENCHMARK.json`` the script runs
``perfbench/run.py --trace 0`` for the benchmark's ``run_seconds`` once
per seed (101 to 110, ten pairs) in each tree, alternating which tree
runs first, and keeps the final JSON line of every run.  It then runs
verify-all at ``--trace 1`` five times per tree (seeds 101 to 105,
alternating in the same way), since per-layer self times swing more than
2x between runs of one tree; it keeps every traced run and writes each
side's per-metric median.  A ``depth`` block, which no gate reads,
times ``python -m qappell verify --scope all --max-n M`` for M in 20,
24 and 32 as fresh processes, five alternating pairs per tree, and records
every wall time, each side's median and the change's wins.  The file
also records the
seeds, the pair count, ``platform.platform()`` and ``sys.version``, the
line count of ``src/**/*.py`` in each tree (``src_lines``), and per
end-to-end metric the median and quartiles of each side, the number
of pairs the change won, and ``unresolved``: true when the parent's
interquartile spread exceeds the metric's ``BENCHMARK.json`` bound times
the parent median and not every change run reads better than every
parent run, so the runs cannot tell a move within the bound from noise.
Standard library only; run it on an otherwise idle machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TRACE_WORKLOAD = "verify-all"
PAIRS = 10
TRACE_PAIRS = 5
FIRST_SEED = 101
DEPTH_MAX_N = (20, 24, 32)
DEPTH_PAIRS = 5


def run_bench(tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One ``perfbench/run.py`` run in `tree`: its final JSON line."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True,
                          check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def src_lines(tree: Path) -> int:
    """Lines of ``src/**/*.py`` in `tree`, counted as ``wc -l`` does."""
    return sum(p.read_text().count("\n") for p in tree.glob("src/**/*.py"))


def unresolved(parent: list[float], change: list[float], lower: bool,
               bound: float) -> bool:
    """Whether the parent's runs spread wider than the bound allows and
    the change's runs do not all read better than every parent run."""
    q1, _, q3 = statistics.quantiles(parent, n=4)
    if q3 - q1 <= bound * abs(statistics.median(parent)):
        return False
    if lower:
        return not max(change) < min(parent)
    return not min(change) > max(parent)


def summarize(pairs: list[dict], better: dict[str, str],
              bounds: dict[str, float]) -> dict:
    """Median and quartiles per side, the change's wins and whether the
    metric is unresolved, per metric, and each side's attempted counts
    in pair order."""
    out = {}
    for name, metric in pairs[0]["parent"]["metrics"].items():
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                 for side in ("parent", "change")}
        lower = better[name] == "lower"
        wins = sum((c < p) if lower else (c > p)
                   for p, c in zip(sides["parent"], sides["change"]))
        entry = {"unit": metric["unit"], "better": better[name],
                 "change_wins": wins, "pairs": len(pairs),
                 "unresolved": unresolved(sides["parent"], sides["change"],
                                          lower, bounds[name])}
        for side, values in sides.items():
            q1, _, q3 = statistics.quantiles(values, n=4)
            entry[side] = {"median": statistics.median(values),
                           "q1": q1, "q3": q3}
        out[name] = entry
    out["attempted"] = {side: [p[side]["attempted"] for p in pairs]
                        for side in ("parent", "change")}
    return out


def alternate(trees: dict[str, Path], workload: str, seeds: list[int],
              seconds: float, trace: int) -> list[dict]:
    """One run per tree and seed, parent first on even pair indices and
    change first on odd: one dict per pair."""
    pairs = []
    for i, seed in enumerate(seeds):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": sides[0]}
        for side in sides:
            start = time.perf_counter()
            pair[side] = run_bench(trees[side], workload, seed, seconds, trace)
            print(f"{workload} trace {trace} seed {seed} {side}: "
                  f"{time.perf_counter() - start:.0f} s", file=sys.stderr)
        pairs.append(pair)
    return pairs


def cli_wall(tree: Path, argv: list[str]) -> float:
    """Wall time of one ``python -m qappell`` process run in `tree`, with
    qappell imported from the tree's ``src/``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-m", "qappell", *argv], cwd=tree, env=env,
                   capture_output=True, check=True)
    return time.perf_counter() - start


def depth(trees: dict[str, Path]) -> dict:
    """Fresh-process wall times of verify-all at each depth, per tree in
    alternating order, with each side's median and the change's wins."""
    out = {}
    for max_n in DEPTH_MAX_N:
        argv = ["verify", "--scope", "all", "--max-n", str(max_n)]
        walls = {"parent": [], "change": []}
        for i in range(DEPTH_PAIRS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                walls[side].append(cli_wall(trees[side], argv))
        print(f"depth max-n {max_n}: done", file=sys.stderr)
        out[" ".join(argv)] = {
            "unit": "s", "pairs": DEPTH_PAIRS, "runs": walls,
            "median": {side: statistics.median(v) for side, v in walls.items()},
            "change_wins": sum(c < p for p, c in zip(walls["parent"], walls["change"]))}
    return out


def trace_medians(pairs: list[dict]) -> dict:
    """Each side's median per traced metric over the pairs."""
    return {side: {name: statistics.median(p[side]["metrics"][name]["value"]
                                           for p in pairs)
                   for name in pairs[0][side]["metrics"]}
            for side in ("parent", "change")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="tools/bench_record.py")
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    trees = {"parent": args.parent.resolve(), "change": ROOT}
    seeds = list(range(FIRST_SEED, FIRST_SEED + PAIRS))

    result = {
        "platform": platform.platform(),
        "python": sys.version,
        "command": "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {seconds} --trace 0|1",
        "pairs": PAIRS,
        "seeds": seeds,
        "trace_pairs": TRACE_PAIRS,
        "order": "parent first on even pair indices, change first on odd",
        "src_lines": {side: src_lines(tree) for side, tree in trees.items()},
        "workloads": {},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        pairs = alternate(trees, workload, seeds, seconds, 0)
        result["workloads"][workload] = {"runs": pairs,
                                         "summary": summarize(pairs, better, bounds)}
    traces = alternate(trees, TRACE_WORKLOAD, seeds[:TRACE_PAIRS], seconds, 1)
    result["workloads"][TRACE_WORKLOAD]["trace"] = {
        "runs": traces, "median": trace_medians(traces)}
    result["depth"] = depth(trees)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
