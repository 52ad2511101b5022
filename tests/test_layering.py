"""The checking side stays independent of the structure it checks.

graph.py, checker.py and history.py read snapshots, histories and traces
only. If they imported the node, template or harness code, a bug there could
hide itself by being shared with its own check. core.py, which holds the
domain types and the routing rule, is the one module both sides use.

In the other direction, the template (core.py, nodes.py, lsm.py, df.py)
imports nothing that drives or checks it: not the checker, the stress
harness, the bundled scenarios or the command line. It may use graph.py and
history.py for its snapshots and its upsert log, and graph.py to check the
shape of the node graph it is given.
"""

from __future__ import annotations

import ast
from pathlib import Path

import multicopy

PACKAGE = Path(multicopy.__file__).parent
CHECKING_SIDE = ("graph", "checker", "history")
STRUCTURE_SIDE = {"nodes", "lsm", "df", "harness"}
TEMPLATE = ("core", "nodes", "lsm", "df")
TEMPLATE_USERS = {"checker", "harness", "fixtures", "cli"}


def package_imports(source: str) -> set[str]:
    """Names of the multicopy modules that source imports, in any form."""
    found: set[str] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            dotted = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ("multicopy." if node.level else "") + (node.module or "")
            # The imported names count too: "from . import df" names a module.
            dotted = [f"{base}.{a.name}" for a in node.names]
        else:
            continue
        for name in dotted:
            parts = [p for p in name.split(".") if p]
            if parts[0] == "multicopy" and len(parts) > 1:
                found.add(parts[1])
    return found


def test_package_imports_sees_every_import_form():
    source = (
        "import multicopy.nodes\n"
        "from multicopy.lsm import LsmStructure\n"
        "from multicopy import df\n"
        "from .harness import run_stress\n"
        "from . import core\n"
        "import json\n"
    )
    assert package_imports(source) == {"nodes", "lsm", "df", "harness", "core"}


def test_checking_side_imports_nothing_from_the_structure():
    for module in CHECKING_SIDE:
        imported = package_imports((PACKAGE / f"{module}.py").read_text())
        assert "core" in imported, module
        assert not imported & STRUCTURE_SIDE, (module, sorted(imported & STRUCTURE_SIDE))


def test_template_imports_nothing_that_drives_or_checks_it():
    for module in TEMPLATE:
        imported = package_imports((PACKAGE / f"{module}.py").read_text())
        assert not imported & TEMPLATE_USERS, (module, sorted(imported & TEMPLATE_USERS))


def test_the_snapshot_walk_never_tells_route_the_keyspace_size():
    # Told the size, route takes a whole-keyspace edge to own every key
    # unprobed. The checker's walk must probe every key on its own.
    calls = [
        node
        for node in ast.walk(ast.parse((PACKAGE / "graph.py").read_text()))
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "route"
    ]
    assert calls
    for call in calls:
        assert len(call.args) <= 3 and not call.keywords, ast.unparse(call)
