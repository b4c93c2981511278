"""Where the library reads its oracle tables.

Each system family reads its table through one rule object: the
block-erasure systems through ``systems._Rule`` (``_TableRule`` on a
programmed table), the zone systems through ``pi2.ZoneRule``.  Only
``oracle`` itself reads a table's raw ``entries``; the table predicates
the rules are built from are read nowhere else, apart from
``verify.check_hierarchy``, which checks the predicates against the
oracle independently of the rules.  A command checks no table itself:
the one ``programmed`` read in ``cli`` is the ``--budget`` rule of
``meets``.
"""

import ast
import os
from collections import defaultdict

import symdyn

PACKAGE_DIR = symdyn.__path__[0]

RULE_READS = {"all_below_time", "is_total", "listed_machines",
              "default_halts"}
RULE_OWNERS = {("systems", "_Rule"), ("systems", "_TableRule"),
               ("pi2", "ZoneRule"), ("verify", "check_hierarchy")}


def attribute_reads(names):
    """{attribute: {(module, top-level class or function)}} for the reads
    of ``names`` in every module of the package."""
    found = defaultdict(set)
    for fname in sorted(os.listdir(PACKAGE_DIR)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(PACKAGE_DIR, fname)) as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if isinstance(node, ast.Attribute) and node.attr in names:
                    found[node.attr].add((fname[:-3], owner))
    return found


def test_only_the_oracle_reads_raw_entries():
    assert {m for m, _ in attribute_reads({"entries"})["entries"]} == {
        "oracle"}


def test_table_predicates_are_read_only_by_the_rules():
    reads = attribute_reads(RULE_READS)
    outside = {(attr, *where) for attr, places in reads.items()
               for where in places
               if where[0] != "oracle" and where not in RULE_OWNERS}
    assert outside == set()
    assert ("pi2", "ZoneRule") in reads["all_below_time"]


def test_the_cli_reads_the_table_kind_only_for_budget():
    reads = attribute_reads({"programmed"})["programmed"]
    assert {where for where in reads if where[0] == "cli"} == {
        ("cli", "cmd_meets")}
