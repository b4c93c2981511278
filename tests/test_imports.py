"""Every symdyn module imports on its own, in a fresh interpreter, and
imports only at module level; ``pi2`` does not pull in ``systems``.

``import symdyn.<module>`` runs the package ``__init__`` first, which
imports every module in one fixed order.  To import a module on its own,
the child interpreter registers a bare ``symdyn`` package (no
``__init__``) and imports the module through it, so only that module's own
imports run, in the order it asks for them.  The last tests pin the
per-system facts each ``SystemId`` member carries.
"""

import ast
import os
import pkgutil
import subprocess
import sys

import pytest

import symdyn
from symdyn.space import ALPHA_01, ALPHA_01S
from symdyn.systems import EraseKind, SystemId

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


def test_pi2_does_not_import_systems():
    proc = _run("-c", _BARE + "print('symdyn.systems' in sys.modules)\n",
                PACKAGE_DIR, "pi2")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


@pytest.mark.parametrize("name", MODULES)
def test_no_import_inside_a_function(name):
    with open(os.path.join(PACKAGE_DIR, name + ".py")) as fh:
        tree = ast.parse(fh.read())
    inner = [(fn.name, node.lineno)
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert inner == []


# (alphabet, erase kind, product, gate_first, second_inserts) per system
_ROWS = {
    "shift": (ALPHA_01, None, False, False, False),
    "pi1": (ALPHA_01, EraseKind.PHI, False, False, False),
    "sigma2": (ALPHA_01, EraseKind.PHI_PRIME, False, False, False),
    "pi2": (ALPHA_01S, None, False, False, False),
    "wild_t_prime": (ALPHA_01S, None, True, True, False),
    "wild_t_second": (ALPHA_01S, None, True, False, True),
}


@pytest.mark.parametrize("value", sorted(_ROWS))
def test_system_rows(value):
    sid = SystemId(value)
    assert sid.value == value
    assert (sid.alphabet, sid.erase, sid.product, sid.gate_first,
            sid.second_inserts) == _ROWS[value]
    assert sid.alphabet is _ROWS[value][0]
    assert {s.value for s in SystemId} == set(_ROWS)
