"""Each module of ``repro.serve`` and ``repro.workload`` imports on its own.

An import cycle can hide behind import order: a module that fails when
imported first in a fresh interpreter still works whenever some caller
happened to import its partner before it.  Each case here starts a new
interpreter whose first statement imports one module.
"""

from __future__ import annotations

import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.serve
import repro.workload

SRC = str(Path(repro.__file__).resolve().parents[1])


def _modules(package) -> list:
    prefix = package.__name__ + "."
    return [package.__name__] + sorted(
        info.name for info in pkgutil.iter_modules(package.__path__, prefix)
    )


@pytest.mark.parametrize("module",
                         _modules(repro.serve) + _modules(repro.workload))
def test_module_imports_first_in_fresh_interpreter(module):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    done = subprocess.run([sys.executable, "-c", f"import {module}"],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert done.returncode == 0, done.stderr
