"""Every public function and class of the package earns its place.

Each one that a module of ``src/toeplitzlda`` defines at its top level is
used by package code, is named by a per-layer row of BENCHMARK.json, or is on
``KEEP`` with its reason; so is every public method, property and field of
such a class, which package code must read as an attribute.  Each has one
import path, its module: ``__init__`` binds only ``__version__``, no module
imports a package name that it does not use, and every module imports
alone.  The byte budgets of the passes that work in bounded pieces live in
one module, and one function freezes and sets the fields of every record.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toeplitzlda

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path(toeplitzlda.__file__).resolve().parent
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")

#: Public names and class members that nothing in the package reads, kept on purpose.
KEEP = {
    "blockmat.free_parameter_count": "C9 counts the free parameters with it",
    "covest.estimate_covariance": "the tests' oracle of a fit's estimate",
    "synth.true_covariance": "the tests' oracle of the generating covariance",
    "bench.BenchRow.error": "a failed cell's message; ROADMAP Direction 6 writes it out",
    "btsolve.SolveReport.method": "names a solve's route, for the tests and Direction 6",
    "covest.ShrinkageResult.nu": "callers of estimate_covariance and the tests read it",
}


def public_definitions() -> set[str]:
    """``<module>.<name>`` of every public top-level function and class."""
    return {
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def member_names(cls: ast.ClassDef):
    """The name of every method, property and annotated field of ``cls``."""
    for item in cls.body:
        if isinstance(item, ast.FunctionDef):
            yield item.name
        elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
            yield item.target.id


def public_members() -> set[str]:
    """``<module>.<class>.<name>`` of every public method, property and field
    of every public top-level class."""
    return {
        f"{path.stem}.{node.name}.{name}"
        for path in MODULES
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and not node.name.startswith("_")
        for name in member_names(node)
        if not name.startswith("_")
    }


def attributes_read() -> set[str]:
    """Every name the package modules read as an attribute."""
    return {
        node.attr
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
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


def test_every_public_member_is_read_by_the_package():
    read = attributes_read()
    idle = sorted(
        name for name in public_members()
        if name.rsplit(".", 1)[1] not in read and name not in KEEP
    )
    assert idle == []


def test_every_kept_name_is_public_and_otherwise_idle():
    # A kept name that the package or the benchmark comes to use leaves KEEP.
    used, rows, read = names_used(), benchmark_rows(), attributes_read()
    assert set(KEEP) <= public_definitions() | public_members()
    in_use = [
        name for name in KEEP
        if name.count(".") == 1 and (name.split(".")[1] in used or name in rows)
        or name.count(".") == 2 and name.rsplit(".", 1)[1] in read
    ]
    assert in_use == []


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


def freezes_or_sets(node) -> bool:
    """Whether ``node`` names ``__setattr__`` or calls ``setflags`` with ``write=False``."""
    if isinstance(node, ast.Attribute):
        return node.attr == "__setattr__"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) \
            and node.func.attr == "setflags":
        write = node.args[:1] + [k.value for k in node.keywords if k.arg == "write"]
        return any(isinstance(w, ast.Constant) and w.value is False for w in write)
    return False


def owners(node, qualname: str):
    """The qualified name of the innermost definition around each node below
    ``node`` that :func:`freezes_or_sets`."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from owners(child, f"{qualname}.{child.name}")
        else:
            if freezes_or_sets(child):
                yield qualname
            yield from owners(child, qualname)


def test_blockmat_own_alone_freezes_and_sets_fields():
    # Every record, whether its constructor checked and copied its fields or
    # the package built them, makes its arrays read-only and sets its fields
    # through one function.
    found = [
        owner
        for path in sorted(PACKAGE.glob("*.py"))
        for owner in owners(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    ]
    assert found and set(found) == {"blockmat._own"}, found


def test_the_package_binds_only_its_version():
    bound = set()
    for node in ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in node.names)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound.update(target.id for target in targets if isinstance(target, ast.Name))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
    assert bound == {"__version__"}


def test_no_module_imports_a_package_name_it_does_not_use():
    # An unused import of a package name is only a second path to that name.
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            f"{path.stem}: {alias.asname or alias.name}"
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level > 0
            for alias in node.names
            if (alias.asname or alias.name) not in loaded
        ]
    assert unused == []


def defaulted_parameters(node, qualname: str, in_class: bool = False):
    """``(qualified name, name, parameter, position)`` of every parameter
    with a default of a private function or method below ``node``.
    ``position`` is its index among the arguments a call passes (a method's
    ``self`` is not passed), or None when it is keyword-only."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            yield from defaulted_parameters(child, f"{qualname}.{child.name}", True)
        elif isinstance(child, ast.FunctionDef):
            name = f"{qualname}.{child.name}"
            if child.name.startswith("_") and not child.name.endswith("__"):
                args = child.args
                positional = args.posonlyargs + args.args
                for index in range(len(positional) - len(args.defaults), len(positional)):
                    yield name, child.name, positional[index].arg, index - in_class
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        yield name, child.name, arg.arg, None
            yield from defaulted_parameters(child, name)
        else:
            yield from defaulted_parameters(child, qualname, in_class)


def passes(call: ast.Call, parameter: str, position: int | None) -> bool:
    """Whether ``call`` may pass ``parameter``, by name or at ``position``."""
    if any(isinstance(a, ast.Starred) for a in call.args) or any(
        k.arg is None or k.arg == parameter for k in call.keywords
    ):
        return True
    return position is not None and position < len(call.args)


def test_every_private_default_is_set_by_some_call():
    # A default that no call in the package overrides is a constant behind a
    # switch that nobody throws: it belongs in the function's body.
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(PACKAGE.glob("*.py"))}
    calls = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
    unset = [
        f"{qualname}({parameter})"
        for module, tree in trees.items()
        for qualname, name, parameter, position in defaulted_parameters(tree, module)
        if not any(passes(call, parameter, position) for call in calls.get(name, []))
    ]
    assert unset == []


@pytest.mark.parametrize("module", [path.stem for path in MODULES])
def test_every_module_imports_alone_in_a_fresh_interpreter(module):
    env = {**os.environ, "PYTHONPATH": str(PACKAGE.parent)}
    done = subprocess.run(
        [sys.executable, "-c", f"import toeplitzlda.{module}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
