"""No floating point in the library source.

Every proof path computes over Z, Q or GF(p), so `src/linserlab` holds no
float literal and calls no `float`, `sqrt`, `log` or `exp` (as a name or
as an attribute, e.g. `math.sqrt` or `np.log`).  `isqrt` and the like are
exact and allowed.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "linserlab"
BANNED_CALLS = {"float", "sqrt", "log", "exp"}


def float_uses(source):
    """(line, what) for each float literal and banned call in `source`."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Constant)
                and isinstance(node.value, (float, complex))):
            yield node.lineno, repr(node.value)
        elif isinstance(node, ast.Call):
            f = node.func
            name = (f.id if isinstance(f, ast.Name)
                    else f.attr if isinstance(f, ast.Attribute) else None)
            if name in BANNED_CALLS:
                yield node.lineno, f"{name}()"


def test_the_scan_sees_floats():
    src = ("x = 0.5\ny = 1e3 + 2j\nfloat(x)\nmath.sqrt(2)\nnp.log(a)\n"
           "exp(1)\nisqrt(4)\nFraction(1, 2)\n# 1.5 in a comment\ns = '2.5'\n")
    lines = sorted(line for line, _ in float_uses(src))
    assert lines == [1, 2, 2, 3, 4, 5, 6]


def test_library_has_no_floating_point():
    files = sorted(SRC.glob("*.py"))
    assert files
    found = [f"{path.name}:{line}: {what}" for path in files
             for line, what in float_uses(path.read_text())]
    assert found == []
