from __future__ import annotations

import ast
import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import affine_singular

# What the README quick start and perfbench/run.py take from the top-level
# package; the command line and the demos import from the submodules.
TOP_LEVEL = [
    "DeterminantSpec", "build_algebra", "classify_sp6", "determinant_vector",
    "lowering_factor_check", "verify_singular", "verify_weyl_vanishing",
    "verify_zhu_generator", "weyl_dim",
]


def test_top_level_names_resolve():
    assert sorted(affine_singular.__all__) == TOP_LEVEL
    for name in TOP_LEVEL:
        assert callable(getattr(affine_singular, name)), name

SUBMODULES = [
    "cache", "category_o", "cli", "determinants", "liealg", "linalg", "report", "scalars",
    "serialize", "spec", "vacuum", "weights", "weyl", "zhu",
]


def test_submodule_list_is_complete():
    package = Path(affine_singular.__file__).parent
    assert sorted(p.stem for p in package.glob("*.py") if p.stem != "__init__") == SUBMODULES


def test_import_loads_no_submodule():
    src = str(Path(affine_singular.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + os.environ.get("PYTHONPATH", ""))
    code = ("import sys, affine_singular\n"
            "print(sorted(m for m in sys.modules if m.startswith('affine_singular')))\n")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "['affine_singular']"


def test_star_import_binds_every_name():
    namespace = {}
    exec("from affine_singular import *", namespace)
    for name in TOP_LEVEL:
        assert namespace[name] is getattr(affine_singular, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodules_resolve_as_attributes(name):
    module = getattr(affine_singular, name)
    assert isinstance(module, types.ModuleType)
    assert module.__name__ == "affine_singular." + name


def test_unknown_names_raise_attribute_error():
    for name in ("no_such_name", "__no_such_dunder__"):
        with pytest.raises(AttributeError, match=name):
            getattr(affine_singular, name)
    assert not hasattr(affine_singular, "Liealg")


# module-level imports kept for other modules to import from here
RE_EXPORTS = {
    "scalars": {"parse_rational", "format_rational"},
    "determinants": {"DeterminantSpec"},
}


def test_every_module_level_import_is_used():
    package = Path(affine_singular.__file__).parent
    unused = {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported.update((a.asname or a.name).split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(a.asname or a.name for a in node.names)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        left = imported - used - RE_EXPORTS.get(path.stem, set())
        if left:
            unused[path.stem] = sorted(left)
    assert unused == {}


def test_only_the_value_cores_define_equality():
    # FrozenValue is the one immutable value type and TermMap the one linear
    # combination; every other class compares by identity or inherits
    package = Path(affine_singular.__file__).parent
    defining = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        names = {item.name}
                    elif isinstance(item, ast.Assign):
                        names = {t.id for t in item.targets if isinstance(t, ast.Name)}
                    else:
                        continue
                    if names & {"__eq__", "__hash__"}:
                        defining.add(node.name)
    assert defining == {"FrozenValue", "TermMap"}


def test_the_library_defines_no_vacuum_kernel():
    # every determinant check decides x(1) on the cofactor matrices, so the
    # differential operator on entry polynomials lives in tests/oracles.py
    # as their oracle, and no library module defines or names it
    package = Path(affine_singular.__file__).parent
    named = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "name", None) or getattr(node, "id", None) or getattr(node, "attr", None)
            if name in ("_differential_ints", "differential_ints"):
                named.add(path.stem)
    assert named == set()


def test_every_name_the_benchmark_tracer_hooks_resolves(monkeypatch):
    # perfbench/tracer.py wraps library functions by attribute name, so a
    # dropped or renamed name fails here with an AttributeError naming it;
    # leaving the tracer puts every original back
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracer")
    modules = {name: dict(vars(module)) for name, module in sys.modules.items()
               if name.startswith("affine_singular")}
    with tracer.installed(tracer.Tracer()):
        pass
    assert {name: dict(vars(sys.modules[name])) for name in modules} == modules
