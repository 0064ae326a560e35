"""Record the reference outputs the correctness gate compares against.

  python3 perfbench/record_refs.py

Runs every CLI operation of the verify-all and tables-deep workloads
once, from the checkout's ``src/``, and writes their exit codes and
parsed JSON outputs to ``refs/cli_refs.json.gz``.  The committed file was
recorded from the tree this benchmark was added to; re-record only when
a change is meant to alter an output.
"""

from __future__ import annotations

import gzip
import json
import os
import subprocess
import sys

from gate import REFS, ROOT, op_key
from workloads import CLI_OPS


def main() -> int:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    refs = {}
    for ops in CLI_OPS.values():
        for op in ops:
            proc = subprocess.run([sys.executable, "-m", "qappell", *op], env=env,
                                  cwd=ROOT, capture_output=True, text=True,
                                  check=False)
            if proc.stderr:
                print(f"{op_key(op)}: stderr: {proc.stderr}", file=sys.stderr)
                return 1
            refs[op_key(op)] = {"exit": proc.returncode,
                                "output": json.loads(proc.stdout)}
            print(f"recorded {op_key(op)} (exit {proc.returncode})")
    data = json.dumps(refs, sort_keys=True, separators=(",", ":")).encode()
    REFS.parent.mkdir(exist_ok=True)
    REFS.write_bytes(gzip.compress(data, compresslevel=9, mtime=0))
    return 0


if __name__ == "__main__":
    sys.exit(main())
