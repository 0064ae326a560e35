"""Child-process entry points of the benchmark.  Each run starts from a
fresh interpreter, so qappell's caches start cold as they do for a user.

  child.py cli [--trace] ARG...          one qappell CLI operation
  child.py eval [--trace] --seed N [--per-degree K]
                                         eval-points set-up plus one pass
  child.py eval-setup                    eval-points set-up only
  child.py sizes                         family size metrics at order 24

``cli`` and ``eval`` print one JSON envelope line: the timed body's
``wall_s``, the exit code and captured stdout (``cli``) or the oracle
failures (``eval``), and with ``--trace`` the recorder's report.  qappell
must be importable (the parent puts ``src`` on PYTHONPATH).
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import sys
import time

import gate
import workloads


def _import_qappell() -> None:
    # Every module the traced work reaches, so all bindings get wrapped.
    import qappell  # noqa: F401
    import qappell.cli  # noqa: F401


def _start(trace: bool):
    if not trace:
        return None
    from spans import Recorder

    recorder = Recorder()
    recorder.install()
    return recorder


def run_cli(argv: list[str], trace: bool) -> dict:
    _import_qappell()
    from qappell import cli

    recorder = _start(trace)
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    wall = time.perf_counter() - start
    env = {"wall_s": wall, "exit": code, "stdout": out.getvalue()}
    if recorder is not None:
        recorder.uninstall()
        env["trace"] = recorder.report()
    return env


def run_eval(seed: int, trace: bool, per_degree: int) -> dict:
    _import_qappell()
    recorder = _start(trace)
    start = time.perf_counter()
    fams = workloads.eval_setup()
    ops = workloads.eval_inputs(seed, 0, per_degree)
    values = [fams[fam].polynomial(n).evaluate(q0, x0) for fam, n, q0, x0 in ops]
    wall = time.perf_counter() - start
    env = {"wall_s": wall, "attempted": len(ops)}
    if recorder is not None:
        recorder.uninstall()
        env["trace"] = recorder.report()
    checked = [(*op, v) for op, v in
               zip(ops[:workloads.EVAL_CHECKS_PER_PASS], values)]
    env["failures"] = gate.check_evaluations(checked)
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("cli")
    p.add_argument("--trace", action="store_true")
    p.add_argument("args", nargs=argparse.REMAINDER)
    p = sub.add_parser("eval")
    p.add_argument("--trace", action="store_true")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--per-degree", type=int, default=workloads.EVAL_PER_DEGREE)
    sub.add_parser("eval-setup")
    sub.add_parser("sizes")
    args = parser.parse_args(argv)

    if args.mode == "eval-setup":
        workloads.eval_setup()
        return 0
    if args.mode == "sizes":
        from sizes import family_sizes

        env = family_sizes()
    elif args.mode == "cli":
        env = run_cli(args.args, args.trace)
    else:
        env = run_eval(args.seed, args.trace, args.per_degree)
    sys.stdout.write(json.dumps(env) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
