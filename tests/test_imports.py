"""Every symdyn module imports on its own, in a fresh interpreter.

``import symdyn.<module>`` runs the package ``__init__`` first, which
imports every module in one fixed order.  To import a module on its own,
the child interpreter registers a bare ``symdyn`` package (no
``__init__``) and imports the module through it, so only that module's own
imports run, in the order it asks for them.
"""

import os
import pkgutil
import subprocess
import sys

import pytest

import symdyn

PACKAGE_DIR = symdyn.__path__[0]
MODULES = sorted(m.name for m in pkgutil.iter_modules([PACKAGE_DIR]))

_BARE = """\
import importlib, sys, types
pkg = types.ModuleType("symdyn")
pkg.__path__ = [sys.argv[1]]
sys.modules["symdyn"] = pkg
importlib.import_module("symdyn." + sys.argv[2])
"""


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.dirname(PACKAGE_DIR)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_every_module_is_listed():
    assert {"analysis", "cantor", "cli", "oracle", "pi2", "space",
            "systems", "verify"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_on_its_own(name):
    proc = _run("-c", _BARE, PACKAGE_DIR, name)
    assert proc.returncode == 0, proc.stderr


def test_package_imports():
    proc = _run("-c", "import symdyn; print(symdyn.__version__)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == symdyn.__version__
