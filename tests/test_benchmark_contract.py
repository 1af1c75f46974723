"""The per-layer rows of BENCHMARK.json name functions the package defines.

perfbench traces every public function defined in a package module, plus
the constructors of ``BlockCov`` and ``BlockToeplitzCov``, and a traced run
fails unless its per-layer metrics are exactly the ones BENCHMARK.json
lists.  A listed name that no longer resolves therefore breaks ``--trace 1``.
"""

import importlib
import json
import types
from pathlib import Path

from toeplitzlda import blockmat

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
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
