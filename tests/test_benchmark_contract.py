"""The per-layer rows of BENCHMARK.json name functions the package defines,
an untraced perfbench run is correct and reports the end-to-end metrics, and
a traced one is correct and reports the per-layer metrics.

perfbench traces every public function defined in a package module, plus
the constructors of ``BlockCov`` and ``BlockToeplitzCov``, and a traced run
fails unless its per-layer metrics are exactly the ones BENCHMARK.json
lists.  A listed name that no longer resolves therefore breaks ``--trace 1``.
"""

import importlib
import json
import subprocess
import sys
import types
from pathlib import Path

from toeplitzlda import blockmat

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
CONSTRUCTORS = {"blockmat.BlockCov": blockmat.BlockCov,
                "blockmat.BlockToeplitzCov": blockmat.BlockToeplitzCov}


def traced(name: str) -> bool:
    """Whether perfbench's tracer records spans under ``<module>.<name>``."""
    if name in CONSTRUCTORS:
        return "__post_init__" in vars(CONSTRUCTORS[name])
    module_name, _, attr = name.partition(".")
    try:
        module = importlib.import_module(f"toeplitzlda.{module_name}")
    except ImportError:
        return False
    obj = vars(module).get(attr)
    return (
        not attr.startswith("_")
        and isinstance(obj, types.FunctionType)
        and obj.__module__ == module.__name__
    )


def test_every_per_layer_name_is_a_traced_function():
    names = sorted({
        m["name"].rsplit(".", 1)[0]
        for m in SPEC["per_layer"]
        if not m["name"].startswith("trace.")
    })
    assert names
    assert [name for name in names if not traced(name)] == []


def perfbench_sweep(trace: int) -> list[str]:
    """Run the smallest workload with no timed loop; return its metric names.

    The run must exit 0 and be correct with no failed operation.  Scratch
    files go to the git-ignored .perfbench/.
    """
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep-cli",
         "--seed", "1", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=180,
    )
    assert proc.returncode == 0
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    return sorted(result["metrics"])


def test_perfbench_sweep_run_is_correct():
    # It runs perfbench's reference check, which reuses the dense estimate
    # it hands to dense_solve.
    assert perfbench_sweep(trace=0) == sorted(m["name"] for m in SPEC["end_to_end"])


def test_perfbench_traced_sweep_run_is_correct():
    # A traced run is correct only if its outputs equal an untraced pass's
    # and every wrapper is restored, and it reports exactly the listed
    # per-layer metrics.
    assert perfbench_sweep(trace=1) == sorted(m["name"] for m in SPEC["per_layer"])
