"""Packaging metadata points only at code that exists."""

import importlib
import os
import pkgutil
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
