"""The verifier and the CLI are total: any JSON value gets an answer.

`verify_certificate_json` returns (bool, detail) and never raises, and
`linserlab verify` on any JSON file keeps the exit-code contract: a code in
{0, 1, 2, 3} and one JSON document on stdout.  Values are drawn at random,
and spliced into a valid certificate at a random place, with and without
a fresh digest, so that they also reach the checks past the decoder.

The other subcommands that read a file (`cohomology --system`,
`empty --problem`, `toric fan`, `toric subdivide`, `ot --arrangement`,
`symbolic --ideal`) keep the same contract on values spliced into a valid
input.  Their integers are drawn small: a degree of 2**80 is a well-formed
request for a huge computation, and this checks the readers, not resource
limits.
"""

import contextlib
import copy
import io
import json
import os
import tempfile
import time
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from linserlab.cli import main
from linserlab.dumnicki import (_digest, certificate_to_json, prove_empty,
                                verify_certificate_json)
from linserlab.lattice import CutFunctional, triangle_set

KEYS = ("format", "problem", "points", "mults", "cuts", "pieces", "mult",
        "evidence", "type", "direction", "assignment", "rank", "rows",
        "digest", "line_assignment", "full_rank")

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


def _splice(draw, doc, values):
    """Replace the value at a random place below the root of doc."""
    path = draw(st.sampled_from(list(_paths(doc))[1:]))
    slot = doc
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = draw(values)


@st.composite
def spliced(draw):
    doc = copy.deepcopy(VALID)
    _splice(draw, doc, SCALARS | JSON)
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


N = 10**12


@pytest.mark.parametrize("points, m", [
    (((-1, 0), (-1, 1), (0, 0)), 10**6),
    (((N, N), (N, N + 1), (N + 1, N)), N),
])
def test_verifier_answers_huge_jet_orders_in_bounded_time(points, m):
    """A full_rank piece that selects the last three jets of a staircase
    of multiplicity 10^6 or 10^12, whose falling factorials once ran to
    order m: the library and `linserlab verify` on the file each answer
    well inside a generous wall-clock bound."""
    jets = comb(m + 1, 2)
    pts = [list(p) for p in points]
    doc = {"format": 2, "problem": {"points": pts, "mults": [m]},
           "cuts": [], "pieces": [{"points": pts, "mult": m, "evidence": {
               "type": "full_rank", "rank": 3,
               "rows": [jets - 3, jets - 2, jets - 1]}}]}
    doc["digest"] = _digest({k: doc[k] for k in ("problem", "cuts",
                                                 "pieces")})
    start = time.perf_counter()
    ok, detail = verify_certificate_json(copy.deepcopy(doc))
    assert time.perf_counter() - start < 5
    assert not ok and isinstance(detail["reason"], str)
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(["verify", path])
        assert time.perf_counter() - start < 5
    rep = json.loads(out.getvalue())
    assert (code, rep["verified"]) == (2, False)


SMALL = (st.none() | st.booleans() | st.integers(-3, 9)
         | st.floats(allow_nan=True, allow_infinity=True)
         | st.text(max_size=4))

SMALL_JSON = st.recursive(
    SMALL, lambda inner: (st.lists(inner, max_size=4)
                          | st.dictionaries(st.text(max_size=6), inner,
                                            max_size=3)),
    max_leaves=12)

# (argv before the input path, argv after it, a valid input)
READERS = (
    (["cohomology", "--system"], [],
     {"degree": 2, "mults": [2, 1],
      "points": [[[0, 1], [0, 1], [1, 1]], [[1, 1], [0, 1], [1, 1]]]}),
    (["empty", "--problem"], ["--budget", "20"],
     {"degree": 1, "mults": [1, 1, 1]}),
    (["empty", "--problem"], ["--budget", "20"],
     {"points": [[0, 0], [1, 0], [0, 1]], "mults": [1, 1, 1],
      "cuts": [[[1, 1], [0, 1], [-1, 2]], [[0, 1], [1, 1], [-1, 2]]]}),
    (["toric", "fan", "--input"], [],
     {"vertices": [[0, 0], [2, 0], [0, 1]]}),
    (["toric", "fan", "--input"], [],
     {"chain": [[0, 0], [1, -1], [2, -1], [3, 0]], "ray": [0, 1]}),
    (["ot", "counts", "--arrangement"], [],
     {"lines": [[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 1]]}),
    (["symbolic", "suite", "--ideal"], [],
     {"vars": ["x", "y", "z"], "gens": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}),
    (["symbolic", "power", "--ideal"], ["--m", "2"],
     {"vars": ["x", "y", "z"], "gens": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}),
    (["symbolic", "multiplier", "--ideal"], ["--t", "5/2"],
     {"vars": ["x", "y", "z"], "gens": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}),
    (["toric", "subdivide", "--input"], [],
     {"heights": [[[0, 0], 0, 1], [[2, 0], 0, 1], [[0, 2], 0, 1],
                  [[1, 1], 1, 2]]}),
)


@st.composite
def reader_inputs(draw):
    head, tail, valid = draw(st.sampled_from(READERS))
    if not draw(st.booleans()):
        return head, tail, draw(SMALL_JSON)
    doc = copy.deepcopy(valid)
    _splice(draw, doc, SMALL_JSON)
    return head, tail, doc


def test_the_reader_inputs_start_valid(tmp_path):
    for head, tail, doc in READERS:
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(head + [str(path)] + tail
                        + ["--certificate", str(tmp_path / "cert.json")]
                        * (head[0] == "empty"))
        assert code == 0, out.getvalue()


@settings(max_examples=200, deadline=None)
@given(reader_inputs())
def test_file_readers_keep_the_exit_code_contract(case):
    head, tail, doc = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        cert = ["--certificate", os.path.join(tmp, "cert.json")]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(head + [path] + tail + cert * (head[0] == "empty"))
    assert code in (0, 1, 2, 3)
    rep = json.loads(out.getvalue())
    assert rep["command"] == head[0]


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([doc for head, _, doc in READERS
                        if head == ["empty", "--problem"]]),
       st.integers(-2**70, -1))
def test_a_negative_search_budget_is_an_input_error(doc, budget):
    """Given cuts leave the budget unread; a search refuses it."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "doc.json")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        with contextlib.redirect_stdout(out):
            code = main(["empty", "--problem", path, "--budget", str(budget),
                         "--certificate", os.path.join(tmp, "cert.json")])
    rep = json.loads(out.getvalue())
    if "cuts" in doc:
        assert (code, rep["certified"]) == (0, True)
    else:
        assert (code, rep["error"]) == (1, "budget must be >= 0")


# (argv head, {option: values}) for the subcommands that read no file;
# their sizes stay small for the same reason as the readers' integers
_CONFIGS = st.sampled_from(["star", "collinear", "random",
                            "pencil_products", "bogus"])
OPTIONS = (
    (["cohomology"], {
        "--degree": st.integers(-3, 12),
        "--mults": st.lists(st.integers(-2, 5), max_size=6).map(
            lambda ms: ",".join(map(str, ms))),
        "--trials": st.integers(-1, 3)}),
    (["alpha"], {"--config": _CONFIGS, "--param": st.integers(-2, 5),
                 "--m": st.integers(-1, 3)}),
    (["waldschmidt"], {"--config": _CONFIGS, "--param": st.integers(-2, 5),
                       "--k": st.integers(-1, 2)}),
    (["negativity"], {
        "--config": st.sampled_from(["pg2", "pg3", "pg", "projective_plane",
                                     "general_lines", "collinear",
                                     "exceptional_only", "bogus"]),
        "--q": st.integers(-1, 5), "--s": st.integers(-1, 7),
        "--n": st.integers(-1, 7)}),
    (["ot", "counts"], {"--generic": st.integers(-2, 7),
                        "--maxdeg": st.integers(-1, 3)}),
    (["ot", "divisor"], {"--generic": st.integers(-2, 7)}),
    (["empty"], {"--family": st.sampled_from(["paper", "bogus"]),
                 "--n": st.integers(-2, 3), "--budget": st.integers(-1, 50)}),
) + tuple(
    (["surface", action], {
        opt: st.integers(-3, 9) for opt in (
            "--n", "--a1", "--a2", "--b", "--c", "--c1sq", "--c2",
            "--genus")})
    for action in ("kollar", "nef", "counterexample", "bounds"))

MALFORMED = st.sampled_from(["x", "1.5", "", "-", "2,,", "1e3", "--seed"])


@st.composite
def argument_lists(draw):
    """A subcommand with a random subset of its options and --seed, each
    drawn from its range or, one time in eight, malformed."""
    head, options = draw(st.sampled_from(OPTIONS))
    options = dict(options, **{"--seed": st.integers(-5, 5)})
    argv = list(head)
    for opt in draw(st.lists(st.sampled_from(sorted(options)), unique=True)):
        bad = draw(st.integers(0, 7)) == 0
        argv += [opt, draw(MALFORMED) if bad else str(draw(options[opt]))]
    return argv


@settings(max_examples=200, deadline=None)
@given(argument_lists())
def test_argument_lists_keep_the_exit_code_contract(argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cert = ["--certificate", os.path.join(tmp, "cert.json")]
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv + cert * (argv[0] == "empty"))
        assert time.perf_counter() - start < 5
    assert code in (0, 1, 2, 3)
    rep = json.loads(out.getvalue())
    assert rep["command"] == argv[0]
