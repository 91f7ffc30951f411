"""No floating point in the library source.

Every proof path computes over Z, Q or GF(p), so `src/linserlab` holds no
float literal and calls no `float`, `sqrt`, `log` or `exp` (as a name or
as an attribute, e.g. `math.sqrt` or `np.log`).  `isqrt` and the like are
exact and allowed.  Nor is a float truncated where the library takes
an integer.
"""

import ast
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from linserlab import fatpoints, surfaces, symbolic

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


# The integer fields of the constructors (and `contains`), each built with
# the value v in one place; `operator.index` takes ints, bools and numpy
# integers, and refuses any other value rather than truncate it.
INTEGER_SITES = {
    "PlaneDivisorClass": lambda v: fatpoints.PlaneDivisorClass(
        5, (v, 1)).mults,
    "PlaneDivisorClass.d": lambda v: fatpoints.PlaneDivisorClass(
        v, (2, 1)).self_intersection(),
    "FatPointSystem.d": lambda v: fatpoints.FatPointSystem(
        v, ((1, 0, 0),), (1,)).d,
    "FatPointSystem.mults": lambda v: fatpoints.FatPointSystem(
        3, ((1, 0, 0), (0, 1, 0)), (v, 2)).mults,
    "MonomialIdeal": lambda v: symbolic.ideal([(v, 1)]).gens,
    "contains": lambda v: symbolic.contains(symbolic.ideal([(1, 1)]), (v, 1)),
    "PrimeSupport": lambda v: symbolic.PrimeSupport((v, 0)).variables,
    "NSLattice": lambda v: surfaces.NSLattice(
        ("A", "B"), ((v, 1), (1, 0)), (0, 0)).gram,
    "DivClass": lambda v: surfaces.DivClass((v, 1)).coeffs,
}


@pytest.mark.parametrize("site", INTEGER_SITES)
def test_integer_fields_refuse_what_is_not_an_integer(site):
    build = INTEGER_SITES[site]
    assert build(np.int64(2)) == build(2)
    assert build(True) == build(1)
    for value in (2.5, np.float64(2.0), Fraction(3, 2), Fraction(2), "2"):
        with pytest.raises(TypeError):
            build(value)
