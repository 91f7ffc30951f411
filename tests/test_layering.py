"""No module of the library reaches into another module's private names.

A module may import a sibling module, `_linalg` included, and use its
public names, but not a sibling's underscore name: neither
`from .m import _x` nor `m._x` after `from . import m`.  What two modules
share has a public name, as the document readers of `lattice` do.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "linserlab"
MODULES = {path.stem for path in SRC.glob("*.py")}


def _private(name):
    return name.startswith("_") and not name.endswith("__")


def _sibling(node):
    """The sibling module an `ImportFrom` names, None for the package
    itself or another package."""
    if node.level == 1:
        return node.module
    if node.level == 0 and (node.module or "").startswith("linserlab."):
        return node.module.split(".", 1)[1]
    return None


def private_reaches(source):
    """(line, "m._x") for each underscore name of a sibling module m that
    `source` imports or reads."""
    tree = ast.parse(source)
    found, bound = [], {}  # bound: local name -> sibling module
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _sibling(node)
        for alias in node.names:
            if module in MODULES and _private(alias.name):
                found.append((node.lineno, f"{module}.{alias.name}"))
            elif module is None and alias.name in MODULES and (
                    node.level == 1 or node.module == "linserlab"):
                bound[alias.asname or alias.name] = alias.name
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound and _private(node.attr)):
            found.append((node.lineno, f"{bound[node.value.id]}.{node.attr}"))
    return sorted(found)


def test_the_scan_sees_private_reaches():
    src = ("from . import __version__\n"
           "from . import _linalg, dumnicki as d\n"
           "from .lattice import cross, _index\n"
           "from linserlab.toric import _cross\n"
           "x = d._json_int(1) + d.FORMAT\n"
           "y = _linalg.rank_exact([[1]]) + _linalg._residues([[1]], 2)\n"
           "z = other._private + d.__name__\n")
    assert private_reaches(src) == [
        (3, "lattice._index"), (4, "toric._cross"), (5, "dumnicki._json_int"),
        (6, "_linalg._residues")]


def test_no_module_reads_a_private_name_of_another():
    assert MODULES >= {"_linalg", "cli", "dumnicki", "lattice"}
    found = [f"{path.name}:{line}: {what}"
             for path in sorted(SRC.glob("*.py"))
             for line, what in private_reaches(path.read_text())]
    assert found == []
