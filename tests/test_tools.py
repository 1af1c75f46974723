"""The scripts under ``tools/``."""

import os
import subprocess
import sys
from pathlib import Path

import toeplitzlda

ROOT = Path(__file__).resolve().parent.parent
SRC = Path(toeplitzlda.__file__).resolve().parent.parent


def test_ab_fit_runs_one_round_with_this_checkout_on_both_sides():
    done = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "ab_fit.py"), str(SRC), str(SRC),
         "--workload", "sweep-cli", "--rounds", "1"],
        env=dict(os.environ, OPENBLAS_NUM_THREADS="1"),
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    head, *rows = done.stdout.splitlines()
    assert head.startswith("sweep-cli (8 x 20, N_e = 96) toeplitz, 1 alternating rounds")
    sides = [row.split() for row in rows]
    assert [side[0] for side in sides] == ["parent", "change"]
    for side in sides:
        q1, median, q3 = map(float, side[1:4])
        assert 0.0 < q1 == median == q3  # one round: one time per side
    assert sum(int(side[-1]) for side in sides) <= 1
