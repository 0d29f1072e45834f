"""Benchmark of relay_bounds: one workload per run, one JSON line of results.

    python3 perfbench/run.py --workload dmc-bounds --seed 1 --seconds 20 --trace 0

Run it from the root of a source tree; the program is imported from its
src/ directory, never from an installed copy, and the command fails without
printing a result where src/relay_bounds is missing.  All processes get one
BLAS thread.  With --trace 0 the last line of stdout holds the end-to-end
metrics, with --trace 1 the per-layer metrics; results and spans are also
written to perfbench/out/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("dmc-bounds", "gaussian-curves", "verify-suites", "cli-oneshot")
RUN_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def worker_cmd(args) -> list[str]:
    return [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--out-dir", str(OUT)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "relay_bounds" / "__init__.py").is_file():
        print(f"error: no relay_bounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    env = child_env()

    done = subprocess.run(worker_cmd(args), env=env, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: worker exited with {done.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
