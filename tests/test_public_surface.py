"""Every name the ``symdyn`` package exports has a caller.

A public name that ``symdyn/__init__`` exports, other than a module, must
be read as an AST ``Name`` or ``Attribute`` somewhere: in the package,
outside ``__init__`` and outside its own definition, in ``demos/`` or in
``perfbench/``, whose ``spans.py`` also names its targets as strings
(``PREDICATES`` and the attribute names of ``SPANS``).  An export nothing
calls is either deleted or listed in ``ENTRY_POINTS`` with the reason a
library user needs it.
"""

import ast
import inspect
import os

import symdyn
from test_table_layout import PACKAGE_DIR, walk

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

ENTRY_POINTS = {
    # the configuration round trip, which the CLI does not offer
    "config_to_json", "config_from_json",
    # the erasure map in the limit on a finite word; its tests pin
    # block_fate word by word
    "erase_map_prefix",
}


def exports():
    return {name for name, value in vars(symdyn).items()
            if not name.startswith("_") and not inspect.ismodule(value)}


def _read(node):
    """The name a ``Name`` or ``Attribute`` node reads, else None."""
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        return node.id
    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        return node.attr
    return None


def callers():
    """Every name read in the package (outside ``__init__`` and outside
    the top-level definition of the same name), the demos and perfbench,
    with the string constants of ``perfbench/spans.py``."""
    names = {_read(node) for module, owner, node in walk(PACKAGE_DIR)
             if module != "__init__" and _read(node) != owner}
    for part in ("demos", "perfbench"):
        for module, _, node in walk(os.path.join(ROOT, part)):
            names.add(_read(node))
            if (part, module) == ("perfbench", "spans") and isinstance(
                    node, ast.Constant) and isinstance(node.value, str):
                names.add(node.value)
    return names


def test_every_export_has_a_caller():
    assert sorted(exports() - callers() - ENTRY_POINTS) == []


def test_the_entry_points_are_uncalled_exports():
    assert ENTRY_POINTS <= exports()
    assert ENTRY_POINTS & callers() == set()
