"""Benchmark of the toeplitzlda package: one workload, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload fit-paper --seed 1 --seconds 20 --trace 0

The workload runs in one worker subprocess (``worker.py``) with
``OPENBLAS_NUM_THREADS=1`` and the checkout's ``src`` on ``PYTHONPATH``;
only one worker runs at a time.  The last line on stdout is a JSON object
``{"correct", "attempted", "failed", "metrics"}`` holding the
``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or its
``per_layer`` metrics (``--trace 1``).  The line before it is the worker's
``info`` object: environment, sample counts and quartiles.  Scratch files
go to ``.perfbench/`` in the checkout; a traced run leaves its spans there.

Exits with 2, printing no result, when the checkout holds no package source,
and with 1 when the worker fails or its result does not match
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# The whole run, workers included, must end within 180 s.
DEADLINE_S = 175.0


def fail(message: str, code: int) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    start = time.monotonic()
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail(f"{spec_path.name} not found next to {HERE.name}/", 2)
    spec = json.loads(spec_path.read_text(encoding="utf-8"))

    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "toeplitzlda" / "__init__.py").is_file():
        return fail("no package source at src/toeplitzlda; run from a checkout of the repository", 2)

    env = dict(os.environ)
    env.update(OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
            timeout=DEADLINE_S - (time.monotonic() - start),
        )
    except subprocess.TimeoutExpired:
        return fail(f"worker did not finish within {DEADLINE_S:.0f} s", 1)
    if proc.returncode != 0:
        return fail(f"worker exited with code {proc.returncode}", 1)

    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return fail("worker printed no result", 1)
    expected = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    got = {n: m.get("unit") for n, m in result.get("metrics", {}).items()}
    if set(result) != {"correct", "attempted", "failed", "metrics"} or got != expected:
        return fail("worker result does not match BENCHMARK.json", 1)
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
