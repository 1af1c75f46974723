"""Every public function and class of the package earns its place.

Each one that a module of ``src/toeplitzlda`` defines at its top level is
used by package code (the re-exports of ``__init__`` aside), is named by a
per-layer row of BENCHMARK.json, or is on ``KEEP`` with its reason.  The
byte budgets of the passes that work in bounded pieces live in one module.
"""

import ast
import json
from pathlib import Path

import toeplitzlda

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(toeplitzlda.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

#: Public names that nothing in the package calls, kept on purpose.
KEEP = {
    "blockmat.free_parameter_count": "C9 counts the free parameters with it",
    "covest.estimate_covariance": "the tests' oracle of a fit's estimate",
    "synth.true_covariance": "the tests' oracle of the generating covariance",
}


def public_definitions() -> set[str]:
    """``<module>.<name>`` of every public top-level function and class."""
    return {
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def names_used() -> set[str]:
    """Every name the package modules read, as a name, an attribute or an import."""
    used = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    return used


def benchmark_rows() -> set[str]:
    """``<module>.<name>`` of every per-layer row of BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {row["name"].rsplit(".", 1)[0] for row in spec["per_layer"]}


def test_every_public_definition_earns_its_place():
    used, rows = names_used(), benchmark_rows()
    idle = sorted(
        name for name in public_definitions()
        if name.split(".")[1] not in used and name not in rows and name not in KEEP
    )
    assert idle == []


def test_every_kept_name_is_public_and_otherwise_idle():
    # A kept name that the package or the benchmark comes to use leaves KEEP.
    used, rows = names_used(), benchmark_rows()
    assert set(KEEP) <= public_definitions()
    assert [name for name in KEEP if name.split(".")[1] in used or name in rows] == []


def test_blockmat_is_the_one_home_of_the_byte_budgets():
    # Every module reads a budget as ``blockmat.<name>`` at call time, so a
    # test that patches one reaches every pass that works in pieces.
    homes = sorted(
        f"{path.stem}.{target.id}"
        for path in PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign))
        for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
        if isinstance(target, ast.Name) and target.id.endswith("_BYTES")
    )
    assert homes and {name.split(".")[0] for name in homes} == {"blockmat"}, homes
