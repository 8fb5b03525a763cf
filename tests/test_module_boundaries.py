"""No module of the package reads another module's private names.

A private name (one leading underscore, dunders exempt) belongs to its
module; a sibling that needs it reads a public name instead.  The check
parses every module with `ast` and flags `from .x import _y` and `x._y`,
where `x` is a sibling module bound by `from . import x`.

The cyclic placement's layout, its block sizes included, is stated once in
`replication`: no other module names the block sizes.
"""

import ast
from pathlib import Path

import cloudalloc

PACKAGE = Path(cloudalloc.__file__).parent
SIBLINGS = frozenset(path.stem for path in PACKAGE.glob("*.py"))
BLOCK_SIZES = frozenset({"OWNER_MACHINES_PER_BLOCK", "USER_MACHINES_PER_BLOCK"})


def is_private(name: str) -> bool:
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def private_reads(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imports = [node for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    modules = {  # local name -> the sibling module it is bound to
        alias.asname or alias.name: alias.name
        for node in imports
        if node.level == 1 and node.module is None
        for alias in node.names
        if alias.name in SIBLINGS
    }
    hits = [
        f"{path.name}:{node.lineno} {node.module}.{alias.name}"
        for node in imports
        if node.level == 1 and node.module in SIBLINGS
        for alias in node.names
        if is_private(alias.name)
    ]
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id in modules
            and is_private(node.attr)
        ):
            hits.append(f"{path.name}:{node.lineno} {modules[node.value.id]}.{node.attr}")
    return hits


def test_no_module_reads_a_sibling_private_name():
    assert {"cli", "dynamics", "model", "report", "replication"} <= SIBLINGS
    hits = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in private_reads(path)]
    assert hits == []


def test_check_flags_both_forms(tmp_path):
    module = tmp_path / "probe.py"
    module.write_text(
        "from . import dynamics as dyn, model\n"
        "from .replication import _check, build_placement, __all__\n"
        "dyn._step(model.__name__, model._private, dynamics._unbound)\n"
    )
    assert sorted(private_reads(module)) == [
        "probe.py:2 replication._check",
        "probe.py:3 dynamics._step",
        "probe.py:3 model._private",
    ]


def names(path: Path) -> set[str]:
    """Every name a module uses, imports or reads as an attribute."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.alias):
            found.add(node.name)
    return found


def test_only_replication_names_the_block_sizes(tmp_path):
    hits = {
        path.name: sorted(found)
        for path in sorted(PACKAGE.glob("*.py"))
        if path.stem != "replication" and (found := names(path) & BLOCK_SIZES)
    }
    assert hits == {}
    module = tmp_path / "probe.py"
    module.write_text(
        "from .replication import OWNER_MACHINES_PER_BLOCK as owner\n"
        "from . import replication\n"
        "size = replication.USER_MACHINES_PER_BLOCK\n"
    )
    assert names(module) & BLOCK_SIZES == BLOCK_SIZES
