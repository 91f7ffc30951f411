"""The verifier and the CLI are total: any JSON value gets an answer.

`verify_certificate_json` returns (bool, detail) and never raises, and
`linserlab verify` on any JSON file keeps the exit-code contract: a code in
{0, 1, 2, 3} and one JSON document on stdout.  Values are drawn at random,
and spliced into a valid certificate at a random place, with and without
a fresh digest, so that they also reach the checks past the decoder.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from linserlab.cli import main
from linserlab.dumnicki import (_digest, certificate_to_json, prove_empty,
                                verify_certificate_json)
from linserlab.lattice import CutFunctional, triangle_set

KEYS = ("problem", "points", "mults", "cuts", "pieces", "mult", "evidence",
        "type", "direction", "assignment", "value", "rank", "rows", "digest",
        "line_assignment", "nonzero_determinant", "full_rank")

SCALARS = (st.none() | st.booleans() | st.integers(-2**80, 2**80)
           | st.floats(allow_nan=True, allow_infinity=True)
           | st.sampled_from([float("inf"), float("-inf"), float("nan")])
           | st.sampled_from(KEYS) | st.text(max_size=6))

JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS)
                                     | st.text(max_size=4),
                                     inner, max_size=4)),
    max_leaves=20)


def _valid_doc():
    # two cuts leave one point of the lines' support per simple point
    D = triangle_set(1)
    half = Fraction(1, 2)
    cuts = (CutFunctional(1, 0, -half), CutFunctional(0, 1, -half))
    return certificate_to_json(D, (1, 1, 1), prove_empty(D, (1, 1, 1), cuts))


VALID = _valid_doc()


def _paths(x, path=()):
    yield path
    items = (x.items() if isinstance(x, dict)
             else enumerate(x) if isinstance(x, list) else ())
    for k, v in items:
        yield from _paths(v, path + (k,))


@st.composite
def spliced(draw):
    doc = copy.deepcopy(VALID)
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    slot = doc
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = draw(SCALARS | JSON)
    if draw(st.booleans()):
        doc["digest"] = _digest({k: doc[k] for k in ("problem", "cuts",
                                                     "pieces")})
    return doc


DOCUMENTS = JSON | spliced()


def test_the_spliced_document_starts_valid():
    assert verify_certificate_json(copy.deepcopy(VALID)) == (True, None)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_verifier_answers_every_value(doc):
    ok, detail = verify_certificate_json(doc)
    assert isinstance(ok, bool)
    assert (detail is None) if ok else isinstance(detail["reason"], str)


@settings(max_examples=100, deadline=None)
@given(DOCUMENTS)
def test_verify_command_keeps_the_exit_code_contract(doc):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["verify", path])
    assert code in (0, 1, 2, 3)
    rep = json.loads(out.getvalue())
    assert rep["command"] == "verify"
