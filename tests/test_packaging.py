"""Packaging metadata points only at code that exists, and no code is
defined that nothing names."""

import ast
import importlib
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import pytest

import eigenwalk

tomllib = pytest.importorskip("tomllib")  # Python >= 3.11

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_console_scripts_import():
    meta = tomllib.loads(PYPROJECT.read_text())
    for name, target in meta["project"].get("scripts", {}).items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), f"console script {name} -> {target}"


def test_exports_resolve():
    """Every name in the package's and each submodule's __all__ exists, so
    a deletion cannot leave a stale export behind."""
    modules = [eigenwalk] + [
        importlib.import_module(f"eigenwalk.{m.name}")
        for m in pkgutil.iter_modules(eigenwalk.__path__)]
    for mod in modules:
        for name in getattr(mod, "__all__", ()):
            assert hasattr(mod, name), f"{mod.__name__}.__all__: {name}"
    assert sum(hasattr(m, "__all__") for m in modules) >= 3


def test_import_leaves_scipy_spatial_unloaded():
    """set_distance imports scipy.spatial when first called; loading it
    with the package costs about 55 ms of every `import eigenwalk`.  The
    connectivity check and the walker's clearance table import
    scipy.ndimage the same way."""
    probe = ("import sys, eigenwalk; "
             "print('scipy.spatial' in sys.modules, "
             "'scipy.ndimage' in sys.modules)")
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join(p for p in sys.path if p))
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "False False"


def test_no_dead_definitions():
    """Every module-level function and class, and every method that is not
    a dunder, of the package and of tests/oracles.py is named somewhere
    else under src/, tests/ or bench/: a definition nothing calls fails
    here instead of waiting for a survey."""
    root = PYPROJECT.parent
    files = [*sorted((root / "src" / "eigenwalk").glob("*.py")),
             root / "tests" / "oracles.py"]
    text = "\n".join(p.read_text() for d in ("src", "tests", "bench")
                     for p in sorted((root / d).rglob("*.py")))
    defs = ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef
    names = []
    for path in files:
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, defs):
                names.append(node.name)
            if isinstance(node, ast.ClassDef):
                names += [sub.name for sub in node.body
                          if isinstance(sub, defs)
                          and not (sub.name.startswith("__")
                                   and sub.name.endswith("__"))]
    dead = sorted(name for name in set(names)
                  if len(re.findall(rf"\b{re.escape(name)}\b", text))
                  <= names.count(name))
    assert not dead, f"defined but named nowhere else: {dead}"


def test_only_three_error_classes():
    """The package defines no exception class but DomainError,
    SpectralError and BrownianError, the errors a caller catches to turn
    a refusal of a built object into a record (see the package
    docstring).  A class counts as an exception when a base is a built-in
    exception or another such class of the package."""
    import builtins

    bases = {}  # class name -> the last dotted part of each base
    for path in sorted((PYPROJECT.parent / "src" / "eigenwalk").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [ast.unparse(b).rsplit(".", 1)[-1]
                                    for b in node.bases]

    def is_error(name, seen=()):
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return name not in seen and any(is_error(base, (*seen, name))
                                        for base in bases.get(name, ()))

    errors = {name for name in bases if is_error(name)}
    assert errors == {"DomainError", "SpectralError", "BrownianError"}
