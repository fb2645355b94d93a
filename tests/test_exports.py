"""Package surface: every exported name resolves, and every name the
benchmark's tracer wraps exists."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import glassdyn

MODULES = ["glassdyn"] + [f"glassdyn.{info.name}"
                          for info in pkgutil.iter_modules(glassdyn.__path__)]
BENCH = Path(__file__).resolve().parent.parent / "bench"


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ lists undefined names {missing}"


def test_traced_names_resolve():
    # bench/tracing.py wraps package functions and methods by name, so a
    # renamed or deleted one fails its install; in a fresh interpreter, as
    # the install patches the package for good
    src = str(Path(glassdyn.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = (f"import sys; sys.path.insert(0, {str(BENCH)!r}); import tracing; "
            "tracing.install(tracing.Tracer())")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
