"""The library's layering and its public surface, read from its source.

A module may import a sibling module, `_linalg` included, and use its
public names, but not a sibling's underscore name: neither
`from .m import _x` nor `m._x` after `from . import m`.  What two modules
share has a public name, as the document readers of `lattice` do.

Every top-level name of the library has a user: the library reads it
outside its own definition, README.md names it in backticks, or a file of
`perfbench/` or `scripts/` mentions it (the tracer's WRAP list names
functions by string).  `cli` is exempt, since `main` reaches its `run_*`
functions through `globals()`.  And no module imports a name it never
reads.
"""

import ast
import re
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "linserlab"
ROOT = SRC.parents[1]
MODULES = {path.stem for path in SRC.glob("*.py")}
WORD = re.compile(r"[A-Za-z_]\w*")


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


def sibling_reads(tree, modules=MODULES):
    """(line, m, name) for each name of a sibling module m that `tree`
    imports by name, or reads as `m.name` after `from . import m`.  A
    `from . import x` of an x that is no module reads x of `__init__`."""
    found, bound = [], {}  # bound: local name -> sibling module
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        module = _sibling(node)
        for alias in node.names:
            if module in modules:
                found.append((node.lineno, module, alias.name))
            elif module is None and (node.level == 1
                                     or node.module == "linserlab"):
                if alias.name in modules:
                    bound[alias.asname or alias.name] = alias.name
                else:
                    found.append((node.lineno, "__init__", alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in bound):
            found.append((node.lineno, bound[node.value.id], node.attr))
    return found


def private_reaches(source):
    """(line, "m._x") for each underscore name of a sibling module m that
    `source` imports or reads."""
    return sorted((line, f"{m}.{name}")
                  for line, m, name in sibling_reads(ast.parse(source))
                  if _private(name))


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


def _loads(node):
    return {sub.id for sub in ast.walk(node)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}


def _defined(tree):
    """(name, statement) for each top-level def, class or assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        yield sub.id, node


def unused_names(sources, readme, outside):
    """"m.name" for each top-level name of a module in `sources` (module
    stem -> source) that the rest of its module and the other modules never
    read, that `readme` never names in backticks and that the text
    `outside` never mentions."""
    trees = {m: ast.parse(text) for m, text in sources.items()}
    elsewhere = {(m, name) for reader, tree in trees.items()
                 for _, m, name in sibling_reads(tree, set(trees))
                 if m != reader}
    words = set(WORD.findall(outside)) | {
        word for span in re.findall(r"`([^`\n]+)`", readme)
        for word in WORD.findall(span)}
    found = []
    for m, tree in trees.items():
        if m == "cli":
            continue
        loads = [(stmt, _loads(stmt)) for stmt in tree.body]
        for name, stmt in _defined(tree):
            if not ((m, name) in elsewhere or name in words
                    or any(name in read for other, read in loads
                           if other is not stmt)):
                found.append(f"{m}.{name}")
    return sorted(found)


def test_the_scan_sees_unused_names():
    sources = {
        "__init__": "__version__ = '1'\nSTALE = 2\n",
        "a": ("from . import __version__\n"
              "def used(): return helper()\n"
              "def helper(): return 1\n"
              "def recursive(n): return recursive(n - 1)\n"
              "def documented(): pass\n"
              "def wrapped(): pass\n"
              "LIMIT = 3\n"
              "class Report: pass\n"),
        "b": ("from . import a\n"
              "from .a import LIMIT\n"
              "x = a.used() + LIMIT\n"
              "def dead(): return a.Report\n"),
        "cli": "def run_x(): pass\n",
    }
    readme = "Call `documented(3)`; wrapped and dead are not in backticks.\n"
    outside = 'WRAP = {"a": ("wrapped",)}\n'
    assert unused_names(sources, readme, outside) == [
        "__init__.STALE", "a.recursive", "b.dead", "b.x"]


def test_every_top_level_name_is_used():
    sources = {path.stem: path.read_text() for path in SRC.glob("*.py")}
    outside = "".join(path.read_text()
                      for folder in ("perfbench", "scripts")
                      for path in sorted((ROOT / folder).glob("*.py")))
    readme = (ROOT / "README.md").read_text()
    assert unused_names(sources, readme, outside) == []


def unread_imports(source):
    """(line, name) for each name that an import of `source` binds and the
    module never reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"):
            for alias in node.names:
                bound.setdefault(alias.asname or alias.name.split(".")[0],
                                 node.lineno)
    read = _loads(tree)
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_the_scan_sees_unread_imports():
    src = ("from __future__ import annotations\n"
           "import json, os.path\n"
           "import numpy as np\n"
           "from math import gcd, isqrt\n"
           "try:\n"
           "    from _sha256 import sha256\n"
           "except ImportError:\n"
           "    from hashlib import sha256\n"
           "def f(x):\n"
           "    import sys\n"
           "    return np.asarray(x), gcd(1, 2), os.sep\n")
    assert unread_imports(src) == [
        (2, "json"), (4, "isqrt"), (6, "sha256"), (10, "sys")]


def test_no_module_imports_a_name_it_never_reads():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in unread_imports(path.read_text())]
    assert found == []
