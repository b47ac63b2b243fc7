"""The lazy package namespace: names load on first use, and the closed forms load no numpy."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hardycone

SRC = str(Path(hardycone.__file__).resolve().parents[1])


def fresh_modules(code: str) -> list[str]:
    """The top-level packages a fresh interpreter has loaded after running code."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\nimport sys; print(' '.join(sorted(sys.modules)))"],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return sorted({name.split(".")[0] for name in done.stdout.split()})


@pytest.mark.parametrize("code", [
    "import hardycone",
    "from hardycone import HardyParams, ConeSpec, closed_form_constant, bc_for_cone\n"
    "params, cone = HardyParams(3, 1, 2.0, 0.0, 0.0), ConeSpec.complement_sigma0()\n"
    "assert closed_form_constant(params, cone).value == 2.25 and bc_for_cone(params, cone).bc2 == 'dirichlet'",
])
def test_closed_forms_load_no_numpy(code):
    loaded = fresh_modules(code)
    assert "hardycone" in loaded and "numpy" not in loaded


def test_bare_import_reaches_submodules():
    loaded = fresh_modules("import hardycone\nassert hardycone.spherical.solve_M is hardycone.solve_M")
    assert "numpy" in loaded


def test_dir_lists_every_public_name():
    assert set(hardycone.__all__) <= set(dir(hardycone))


def test_star_import_binds_the_submodule_objects():
    namespace = {}
    exec("from hardycone import *", namespace)
    assert set(hardycone.__all__) <= set(namespace)
    for name in hardycone.__all__:
        module = importlib.import_module(f"hardycone.{hardycone._EXPORTS[name]}")
        assert namespace[name] is getattr(module, name), name


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        hardycone.no_such_name
    with pytest.raises(ImportError):
        exec("from hardycone import no_such_name", {})
