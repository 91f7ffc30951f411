"""Exit-code contract and JSON reports of the command-line front end."""

import argparse
import contextlib
import io
import json
import os
import sys
import tempfile
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from linserlab import cli, fatpoints, surfaces
from linserlab.cli import main
from linserlab.fatpoints import normalize_proj
from linserlab.lattice import json_ints
from test_totality import argument_lists


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def test_cohomology_generic(capsys):
    code, rep = run(capsys, "cohomology", "--degree", "4",
                    "--mults", "2,2,2,2,2", "--seed", "7")
    assert code == 0
    assert (rep["h0"], rep["h1"]) == (1, 1)
    assert rep["command"] == "cohomology"
    assert rep["seed"] == 7
    assert "version" in rep


def test_cohomology_explicit_points(tmp_path, capsys):
    doc = {
        "degree": 1,
        "points": [[[0, 1], [0, 1], [1, 1]], [[1, 1], [0, 1], [1, 1]]],
        "mults": [1, 1],
    }
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, "cohomology", "--system", str(path))
    assert code == 0
    assert (rep["h0"], rep["h1"], rep["chi"]) == (1, 0, 1)


def test_cohomology_usage_error(capsys):
    code, _ = run(capsys, "cohomology", "--degree", "4")
    assert code == 1


def test_alpha_star(capsys):
    code, rep = run(capsys, "alpha", "--config", "star", "--param", "4")
    assert code == 0
    assert rep["alpha"] == 3 and rep["points"] == 6


def test_waldschmidt_star(capsys):
    code, rep = run(capsys, "waldschmidt", "--config", "star",
                    "--param", "4", "--k", "1")
    assert code == 0
    assert rep["lower"] == [4, 3] and rep["upper"] == 2
    assert rep["chudnovsky"] == {"alpha1": 3, "alpha2": 4, "bound": 2,
                                 "equality": True}


def test_empty_and_verify_round_trip(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    report = tmp_path / "report.json"
    code, _ = run(capsys, "empty", "--family", "paper", "--n", "1",
                  "--certificate", str(cert), "--output", str(report))
    assert code == 0
    rep = json.loads(report.read_text())
    assert rep["certified"] and rep["pieces"] == 10
    assert rep["digest"] == json.loads(cert.read_text())["digest"]

    code, rep = run(capsys, "verify", str(cert))
    assert code == 0 and rep["verified"]

    doc = json.loads(cert.read_text())
    doc["pieces"][3]["mult"] += 1
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc))
    code, rep = run(capsys, "verify", str(tampered))
    assert code == 2
    assert not rep["verified"] and rep["piece"] == 3


def test_verify_missing_file(capsys):
    code, _ = run(capsys, "verify", "/nonexistent/cert.json")
    assert code == 1


def test_verify_malformed_document(tmp_path, capsys):
    path = tmp_path / "junk.json"
    path.write_text(json.dumps({"format": 2, "pieces": []}))
    code, rep = run(capsys, "verify", str(path))
    assert code == 2
    assert rep["reason"] == "malformed document"


@pytest.mark.parametrize("fmt", [None, 1, 3])
def test_verify_names_an_unsupported_format(tmp_path, capsys, fmt):
    """A valid certificate without its format field (None) or with another
    version is refused by name: there is one codec and no legacy reader."""
    cert = tmp_path / "cert.json"
    code, _ = run(capsys, "empty", "--family", "paper", "--n", "1",
                  "--certificate", str(cert))
    assert code == 0
    doc = json.loads(cert.read_text())
    assert doc["format"] == 2
    if fmt is None:
        del doc["format"]
    else:
        doc["format"] = fmt
    cert.write_text(json.dumps(doc))
    code, rep = run(capsys, "verify", str(cert))
    assert code == 2
    assert rep["verified"] is False and rep["piece"] is None
    assert rep["reason"] == "unsupported certificate format"


def test_certificate_file_is_compact(tmp_path, capsys):
    cert = tmp_path / "cert.json"
    run(capsys, "empty", "--family", "paper", "--n", "1",
        "--certificate", str(cert))
    text = cert.read_text()
    assert text.count("\n") == 1 and ", " not in text and '": ' not in text


def test_verify_deeply_nested_file(tmp_path, capsys):
    """json.load raised RecursionError past the exit-code contract."""
    path = tmp_path / "deep.json"
    path.write_text("[" * 10**5 + "]" * 10**5)
    code, rep = run(capsys, "verify", str(path))
    assert code == 1
    assert rep["command"] == "verify" and "recursion" in rep["error"]


@pytest.mark.parametrize("value", [float("inf"), 1.5, True, 1.0, "1"])
def test_verify_non_integer_multiplicity(tmp_path, capsys, value):
    """Python's json reads Infinity, where int() overflowed (exit 1);
    1.5 and true were read as 1."""
    from linserlab.dumnicki import (_digest, certificate_to_json,
                                    paper_family, prove_empty)

    D, mults, cuts = paper_family(1)
    doc = certificate_to_json(D, mults, prove_empty(D, mults, cuts))
    doc["problem"]["mults"][0] = value
    doc["digest"] = _digest({k: doc[k] for k in ("problem", "cuts",
                                                 "pieces")})
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, "verify", str(path))
    assert code == 2
    assert rep["verified"] is False and rep["reason"] == "malformed document"


@pytest.mark.parametrize("points, cuts, evidence", [
    ([[0], [1]], [[[1, 1], [0, 1], [-1, 2]]],
     {"type": "line_assignment", "direction": "vertical",
      "assignment": [[0, 1]]}),
    ([[0, 0, 0]], [], {"type": "full_rank", "rank": 1, "rows": [0]}),
])
def test_verify_rejects_points_that_are_not_pairs(tmp_path, capsys, points,
                                                  cuts, evidence):
    """One coordinate made the partition raise IndexError, three made the
    jets raise ValueError (exit 1); both are malformed documents."""
    from linserlab.dumnicki import _digest

    doc = {"problem": {"points": points, "mults": [1] * len(points)},
           "cuts": cuts,
           "pieces": [{"points": [p], "mult": 1, "evidence": evidence}
                      for p in points]}
    doc["digest"] = _digest(doc)
    doc["format"] = 2
    path = tmp_path / "not_pairs.json"
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, "verify", str(path))
    assert code == 2
    assert rep["verified"] is False and rep["reason"] == "malformed document"


def test_verify_negative_multiplicity_is_a_counterexample(tmp_path, capsys):
    """An empty piece with mult -1 and rank evidence, re-digested: the
    verifier answers instead of raising."""
    from linserlab.dumnicki import (EmptinessCertificate, FullRank, Piece,
                                    certificate_to_json, fact3_certificate)
    from linserlab.lattice import CutFunctional, triangle_set

    D = triangle_set(1)
    cert = EmptinessCertificate((CutFunctional(1, 0, Fraction(-5, 2)),), (
        Piece(frozenset(), -1, FullRank(0, ())),
        Piece(D, 2, fact3_certificate(D, 2, "horizontal"))))
    path = tmp_path / "negative.json"
    path.write_text(json.dumps(certificate_to_json(D, (-1, 2), cert)))
    code, rep = run(capsys, "verify", str(path))
    assert code == 2
    assert rep["verified"] is False and rep["piece"] == 0
    assert rep["reason"] == "negative multiplicity"


def test_empty_counter_witness(tmp_path, capsys):
    # one simple point cannot empty the conics: expected dimension > 0
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({"degree": 2, "mults": [1]}))
    code, rep = run(capsys, "empty", "--problem", str(prob))
    assert code == 2
    assert not rep["certified"] and rep["expected_dimension"] == 5


def test_empty_prints_witness_of_nonempty_piece(tmp_path, capsys):
    # x + y < 1/2 cuts off the origin; the five other monomials of degree
    # <= 2 cannot be emptied by the three jets of one double point
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({"degree": 2, "mults": [1, 2],
                                "cuts": [[[-1, 1], [-1, 1], [1, 2]]]}))
    code, rep = run(capsys, "empty", "--problem", str(prob))
    assert code == 2
    assert not rep["certified"] and rep["piece"] == 1
    assert rep["reason"] == "piece larger than the jet count"
    assert rep["witness"] == {
        "kind": "section",
        "support": [[0, 1], [0, 2], [1, 0], [1, 1], [2, 0]],
        "coeffs": [1, -1, -1, 1, 0]}


def test_empty_singular_square_piece_gives_a_dual_witness(tmp_path,
                                                         capsys):
    # three diagonal monomials: the jets (0, 1) and (1, 0) agree on them
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({"points": [[0, 0], [1, 1], [2, 2]],
                                "mults": [2], "cuts": []}))
    code, rep = run(capsys, "empty", "--problem", str(prob))
    assert code == 2
    assert not rep["certified"] and rep["piece"] == 0
    assert rep["reason"] == "rank below piece size"
    assert rep["witness"] == {"kind": "dual",
                              "support": [[0, 0], [0, 1], [1, 0]],
                              "coeffs": [0, -1, 1]}


def test_empty_undecided_on_zero_budget(tmp_path, capsys):
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({"degree": 1, "mults": [1, 1, 1]}))
    code, rep = run(capsys, "empty", "--problem", str(prob), "--budget", "0")
    assert code == 3
    assert rep["reason"] == "no cut list found within budget"


@pytest.mark.parametrize("doc", [
    {"degree": 1, "mults": [1, 1, 1]}, {"degree": 2, "mults": [1]}])
def test_empty_refuses_a_negative_budget(tmp_path, capsys, doc):
    # an input error, not an undecided search, whatever the system
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(doc))
    code, rep = run(capsys, "empty", "--problem", str(prob), "--budget", "-5")
    assert code == 1
    assert rep["command"] == "empty"
    assert rep["error"] == "budget must be >= 0"


def test_empty_names_an_exhausted_search(tmp_path, capsys):
    # (4; 2^5) is the double conic: no cut list exists, and the search
    # runs out of candidates after 2,507 of its 4,000 attempts
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({"degree": 4, "mults": [2] * 5}))
    code, rep = run(capsys, "empty", "--problem", str(prob))
    assert code == 3
    assert rep["reason"] == "no cut list found: every candidate cut failed"
    code, rep = run(capsys, "empty", "--problem", str(prob),
                    "--budget", "2000")
    assert code == 3
    assert rep["reason"] == "no cut list found within budget"


@pytest.mark.parametrize("doc", [
    {"points": [], "mults": []}, {"degree": 2, "mults": []}])
def test_empty_without_multiplicities_is_a_usage_error(tmp_path, capsys,
                                                      doc):
    # every cut list leaves at least one piece, so no list of zero
    # multiplicities can match it, whether D is empty or not
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(doc))
    code, rep = run(capsys, "empty", "--problem", str(prob))
    assert code == 1
    assert rep["command"] == "empty"
    assert rep["error"] == "need exactly one multiplicity per piece"


@pytest.mark.parametrize("doc", [
    {"degree": 0, "mults": [0]}, {"degree": 2, "mults": [-1]},
    {"points": [], "mults": [0]},
    {"degree": 2, "mults": [0], "cuts": []}])
def test_empty_refuses_a_multiplicity_below_one(tmp_path, capsys, doc):
    # whether or not the search would reach a piece, and with given cuts
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(doc))
    code, rep = run(capsys, "empty", "--problem", str(prob))
    assert code == 1
    assert rep["command"] == "empty"
    assert rep["error"] == "multiplicity must be >= 1"


def _frozen_system_points(doc):
    """The points of a --system document as `_system_from_json` read them
    before, through Fractions: the oracle of its integer path."""
    return tuple(normalize_proj([Fraction(*json_ints(c, 2)) for c in p])
                 for p in doc["points"])


_pair_entries = st.one_of(st.integers(-9, 9), st.integers(-2**70, 2**70))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.tuples(_pair_entries, _pair_entries.filter(
    bool)).map(list), min_size=3, max_size=3), min_size=1, max_size=4))
def test_system_points_are_the_frozen_fractions(points):
    assume(all(any(num for num, _ in p) for p in points))
    doc = {"degree": 3, "mults": [1] * len(points), "points": points}
    want = _frozen_system_points(doc)
    assume(len(set(want)) == len(want))
    assert cli._system_from_json(doc).points == want


@pytest.mark.parametrize("pairs", [
    [[1, 0], [0, 1], [1, 1]], [[1, 2], [3, 4], [0, 0]]])
def test_system_with_a_zero_denominator_is_a_usage_error(tmp_path, capsys,
                                                          pairs):
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"degree": 1, "mults": [1],
                                "points": [pairs]}))
    code, rep = run(capsys, "cohomology", "--system", str(path))
    assert code == 1
    assert rep["command"] == "cohomology"
    assert "zero denominator" in rep["error"]


FLOAT_INPUTS = [
    (["cohomology", "--system"],
     {"degree": 1, "mults": [1, 1],
      "points": [[[1.5, 1], [0, 1], [1, 1]], [[1, 1], [0, 1], [1, 1]]]}),
    (["cohomology", "--system"],
     {"degree": 1.0, "mults": [1], "points": [[[1, 1], [0, 1], [1, 1]]]}),
    (["cohomology", "--system"],
     {"degree": 1, "mults": [True], "points": [[[1, 1], [0, 1], [1, 1]]]}),
    (["cohomology", "--system"],
     {"degree": 1, "mults": [1], "points": [[[1, 1], [0, 1], [1]]]}),
    (["empty", "--problem"], {"degree": 4.5, "mults": [2] * 5}),
    (["empty", "--problem"], {"degree": 4, "mults": [2, 2, 2, 2, "2"]}),
    (["toric", "fan", "--input"], {"vertices": [[0, 0], [2.5, 0], [0, 1]]}),
    (["toric", "fan", "--input"],
     {"chain": [[0, 0], [1, -1], [2, -1], [3, 0]], "ray": [0, 1.0]}),
    (["toric", "fan", "--input"], {"vertices": [[0, 0], [2, 0], [0, 1, 1]]}),
    (["ot", "counts", "--arrangement"],
     {"lines": [[1, 0, 0], [0, 1, 0], [1, 1, 0.5]]}),
    (["ot", "counts", "--arrangement"],
     {"lines": [[1, 0, 0], [0, 1, 0], [1, 1]]}),
    (["symbolic", "suite", "--ideal"],
     {"vars": ["x", "y", "z"], "gens": [[1.5, 1, 0], [1, 0, 1], [0, 1, 1]]}),
    (["symbolic", "suite", "--ideal"],
     {"vars": ["x", "y", "z"], "gens": [[1, 1, 0], [1, 0, 1], [True, 1, 0]]}),
    (["toric", "subdivide", "--input"],
     {"heights": [[[0, 0], 0, 1], [[1, 0], 0, 1], [[0, 1], 0.5, 1]]}),
    (["toric", "subdivide", "--input"],
     {"heights": [[[0, 0], 0, 1], [[1.0, 0], 0, 1], [[0, 1], 1, 1]]}),
    (["toric", "subdivide", "--input"],
     {"heights": [[[0, 0], 0, 1], [[1, 0], 0, 1], [[0, 1], 1, "2"]]}),
    # true, 1.0 and "1" at an integer position of every reader
    (["cohomology", "--system"],
     {"degree": 1, "mults": ["1"], "points": [[[1, 1], [0, 1], [1, 1]]]}),
    (["empty", "--problem"], {"degree": True, "mults": [2] * 5}),
    (["empty", "--problem"], {"degree": 4, "mults": [2, 2, 2, 2, 1.0]}),
    (["empty", "--problem"], {"points": [[0, 0], [True, 1]], "mults": [1]}),
    (["empty", "--problem"],
     {"degree": 1, "mults": [1, 1, 1], "cuts": [[[1.0, 1], [0, 1], [-1, 2]]]}),
    (["toric", "fan", "--input"], {"vertices": [[0, 0], [True, 0], [0, 1]]}),
    (["toric", "fan", "--input"],
     {"chain": [[0, 0], [1, "-1"], [2, -1], [3, 0]], "ray": [0, 1]}),
    (["toric", "subdivide", "--input"],
     {"heights": [[[0, 0], 0, 1], [[1, 0], 0, True], [[0, 1], 1, 1]]}),
    (["ot", "counts", "--arrangement"],
     {"lines": [[1, 0, 0], [0, True, 0], [1, 1, 1]]}),
    (["ot", "counts", "--arrangement"],
     {"lines": [[1, 0, 0], [0, 1, 0], [1.0, 1, 1]]}),
    (["ot", "counts", "--arrangement"],
     {"lines": [[1, 0, 0], [0, 1, 0], [1, "1", 1]]}),
    (["symbolic", "suite", "--ideal"],
     {"vars": ["x", "y", "z"], "gens": [[1, 1, 0], [1.0, 0, 1], [0, 1, 1]]}),
    (["symbolic", "suite", "--ideal"],
     {"vars": ["x", "y", "z"], "gens": [[1, 1, 0], [1, 0, 1], [0, "1", 1]]}),
]


@pytest.mark.parametrize("argv, doc", FLOAT_INPUTS)
def test_file_readers_take_only_integers(tmp_path, capsys, argv, doc):
    # before, int() truncated 1.5 to 1 and read true and "2" as integers
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, *argv, str(path))
    assert code == 1
    assert rep["command"] == argv[0]
    assert "integer" in rep["error"]


def test_empty_with_explicit_cuts(tmp_path, capsys):
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({
        "degree": 1,
        "mults": [1, 1, 1],
        "cuts": [[[1, 1], [0, 1], [-1, 2]],
                 [[0, 1], [1, 1], [-1, 2]]],
    }))
    cert = tmp_path / "cert.json"
    code, rep = run(capsys, "empty", "--problem", str(prob),
                    "--certificate", str(cert))
    assert code == 0 and rep["certified"] and rep["pieces"] == 3


@pytest.mark.parametrize("coefficient, message", [
    ([1, 0], "zero denominator"), ([1], "not enough values")])
def test_empty_rejects_malformed_cut(tmp_path, capsys, coefficient, message):
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({
        "degree": 1,
        "mults": [1, 1, 1],
        "cuts": [[coefficient, [0, 1], [1, 2]]],
    }))
    code, rep = run(capsys, "empty", "--problem", str(prob))
    assert code == 1
    assert rep["command"] == "empty" and message in rep["error"]


@pytest.mark.parametrize("points", [[[0], [1], [2]], [[0, 0, 0], [1, 0, 0]]])
def test_empty_rejects_points_that_are_not_pairs(tmp_path, capsys, points):
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({
        "points": points, "mults": [1, 1],
        "cuts": [[[1, 1], [0, 1], [-1, 2]]]}))
    code, rep = run(capsys, "empty", "--problem", str(prob))
    assert code == 1
    assert rep["command"] == "empty"
    assert "is not a pair of integers" in rep["error"]


def test_arithmetic_error_gives_json_envelope(tmp_path, capsys):
    doc = {"degree": 1, "points": [[[0, 1], [1, 0], [1, 1]]], "mults": [1]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, "cohomology", "--system", str(path))
    assert code == 1
    assert rep["command"] == "cohomology" and "error" in rep


@pytest.mark.parametrize("exc, message", [
    (MemoryError(), "out of memory"),
    (MemoryError("Unable to allocate 8 GiB"), "Unable to allocate 8 GiB"),
])
def test_memory_error_gives_json_envelope(monkeypatch, capsys, exc,
                                          message):
    def exhausted(args):
        raise exc

    monkeypatch.setattr(cli, "run_cohomology", exhausted)
    code, rep = run(capsys, "cohomology", "--degree", "4", "--mults", "2")
    assert code == 1
    assert rep["command"] == "cohomology" and rep["error"] == message


def test_toric_fan_chain(tmp_path, capsys):
    path = tmp_path / "poly.json"
    path.write_text(json.dumps(
        {"chain": [[0, 0], [1, -1], [2, -1], [3, 0]], "ray": [0, 1]}))
    code, rep = run(capsys, "toric", "fan", "--input", str(path))
    assert code == 0
    assert rep["cones"] == [[[1, 0], [1, 1]], [[1, 1], [0, 1]],
                            [[0, 1], [-1, 1]], [[-1, 1], [-1, 0]]]


def test_toric_subdivide(tmp_path, capsys):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"heights": [
        [[0, 0], 0, 1], [[1, 0], 1, 1], [[0, 1], 1, 1], [[1, 1], 1, 1]]}))
    code, rep = run(capsys, "toric", "subdivide", "--input", str(path))
    assert code == 0
    assert len(rep["cells"]) == 2  # the tilted corner splits the square
    assert sorted(map(tuple, (h[0] for h in rep["heights"]))) == [
        (0, 0), (0, 1), (1, 0), (1, 1)]


def test_toric_subdivide_rejects_a_zero_height_denominator(tmp_path, capsys):
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"heights": [
        [[0, 0], 1, 0], [[1, 0], 0, 1], [[0, 1], 0, 1]]}))
    code, rep = run(capsys, "toric", "subdivide", "--input", str(path))
    assert code == 1
    assert rep["command"] == "toric"
    assert rep["error"] == "[num, den] [1, 0] has a zero denominator"


def test_toric_subdivide_rejects_a_repeated_point(tmp_path, capsys):
    # the last height listed for (0, 0) won, silently
    path = tmp_path / "sub.json"
    path.write_text(json.dumps({"heights": [
        [[0, 0], 0, 1], [[1, 0], 0, 1], [[0, 1], 0, 1], [[0, 0], 5, 1]]}))
    code, rep = run(capsys, "toric", "subdivide", "--input", str(path))
    assert code == 1
    assert rep["command"] == "toric"
    assert rep["error"] == "point [0, 0] is listed twice"


def test_surface_reports(capsys):
    code, rep = run(capsys, "surface", "kollar", "--n", "3")
    assert code == 0
    assert (rep["AnSq"], rep["h0_Cn"], rep["nef"]) == (2, 9, True)
    assert rep["nAn_minus_R_sq"] == -16

    code, rep = run(capsys, "surface", "nef", "--a1", "1", "--a2", "1",
                    "--b", "-1")
    assert code == 0 and rep["nef"] is False

    code, rep = run(capsys, "surface", "counterexample", "--c", "1")
    assert code == 0 and rep["n"] == 4

    code, rep = run(capsys, "surface", "bounds")
    assert code == 0 and (rep["vwbnc"], rep["wbnc"]) == (1, 2)


def test_negativity_configs(capsys):
    code, rep = run(capsys, "negativity", "--config", "pg2")
    assert code == 0
    assert (rep["c_squared"], rep["ratio"]) == (-14, -2)

    code, rep = run(capsys, "negativity", "--config", "pg2", "--q", "3")
    assert code == 0
    assert (rep["c_squared"], rep["ratio"]) == (-39, -3)

    code, rep = run(capsys, "negativity", "--config", "general_lines",
                    "--s", "4")
    assert code == 0 and rep["c_squared"] == -8

    code, rep = run(capsys, "negativity", "--config", "collinear", "--n", "4")
    assert code == 0 and rep["ratio"] == [-3, 4]

    for config in ("donut", "pg", "pgx", "projective_plane", "general_lines",
                   "collinear", "exceptional_only"):
        code, rep = run(capsys, "negativity", "--config", config)
        assert code == 1 and rep["command"] == "negativity"


@pytest.mark.parametrize("argv, params", [
    (["--config", "pg2"], {"q": 2}),
    (["--config", "pg", "--q", "5"], {"q": 5}),
    (["--config", "projective_plane", "--q", "3"], {"q": 3}),
    (["--config", "general_lines", "--s", "6", "--seed", "4"],
     {"s": 6, "seed": 4}),
    (["--config", "collinear", "--n", "5"], {"n": 5}),
    (["--config", "exceptional_only", "--n", "3"], {"n": 3})])
def test_negativity_matches_the_pairwise_expansion(capsys, argv, params):
    # the CLI reports the closed form only; the pairwise sum is the oracle
    code, rep = run(capsys, "negativity", *argv)
    assert code == 0
    kind = "projective_plane" if "q" in params else argv[1]
    cfg = surfaces.build_incidence(kind, params)
    assert rep["config"] == kind
    assert (rep["points"], rep["lines"]) == (len(cfg.points), len(cfg.lines))
    assert rep["c_squared"] == surfaces.c_squared_bruteforce(cfg)


def test_symbolic_commands(tmp_path, capsys):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(
        {"vars": ["x", "y", "z"],
         "gens": [[1, 1, 0], [1, 0, 1], [0, 1, 1]]}))

    code, rep = run(capsys, "symbolic", "suite", "--ideal", str(path),
                    "--r", "2")
    assert code == 0
    assert rep["els"] and rep["harbourne"]
    assert rep["chain"] == {"left": True, "middle": True, "right": True}

    code, rep = run(capsys, "symbolic", "multiplier", "--ideal", str(path),
                    "--t", "2")
    assert code == 0 and rep["stabilized"]
    assert rep["multiplier"]["gens"] == [[0, 1, 1], [1, 0, 1], [1, 1, 0]]

    code, rep = run(capsys, "symbolic", "power", "--ideal", str(path),
                    "--m", "2")
    assert code == 0
    assert [1, 1, 1] in rep["power"]["gens"]

    code, rep = run(capsys, "symbolic", "power", "--ideal", str(path),
                    "--m", "2", "--ordinary")
    assert code == 0
    assert [1, 1, 1] not in rep["power"]["gens"]


def test_symbolic_suite_in_four_variables(tmp_path, capsys):
    """The 4-cycle ideal: the containments and the ELS chain are both
    answered, since the asymptotic multiplier ideals need no Newton
    region."""
    path = tmp_path / "c4.json"
    path.write_text(json.dumps(
        {"vars": ["a", "b", "c", "d"],
         "gens": [[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1], [1, 0, 0, 1]]}))
    code, rep = run(capsys, "symbolic", "suite", "--ideal", str(path),
                    "--r", "1")
    assert code == 0
    assert rep["els"] and rep["harbourne"]
    assert rep["chain"] == {"left": True, "middle": True, "right": True}
    assert "chain_unavailable" not in rep


@pytest.mark.parametrize("variables", [
    "xy", {"a": 1, "b": 2}, [1, 2], [[1], [2]], ["x", "x"]])
def test_symbolic_vars_must_be_distinct_strings(tmp_path, capsys, variables):
    # before, each was read as some ring: a string or a dict by its
    # letters or keys, numbers and lists as they were, "x" twice as two
    # variables named x
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"vars": variables, "gens": [[1, 1]]}))
    code, rep = run(capsys, "symbolic", "power", "--ideal", str(path),
                    "--m", "2")
    assert code == 1
    assert rep["command"] == "symbolic"
    assert "vars" in rep["error"]


@pytest.mark.parametrize("gens", [5, [1, 1], "xy", {"a": [1, 1]},
                                  [[1, 1], 2]])
def test_symbolic_gens_must_be_a_list_of_lists(tmp_path, capsys, gens):
    # before, 5 exited 1 with the bare "'int' object is not iterable"
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "gens": gens}))
    code, rep = run(capsys, "symbolic", "power", "--ideal", str(path),
                    "--m", "2")
    assert code == 1
    assert rep["command"] == "symbolic"
    assert "gens" in rep["error"]


def test_symbolic_multiplier_names_a_zero_denominator(tmp_path, capsys):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"vars": ["x", "y"], "gens": [[1, 1]]}))
    code, rep = run(capsys, "symbolic", "multiplier", "--ideal", str(path),
                    "--t", "1/0")
    assert code == 1
    assert rep["error"] == "t '1/0' has a zero denominator"


@pytest.mark.parametrize("gens, r", [
    ([[1, 1, 0, 0, 0], [0, 1, 1, 0, 0], [0, 0, 1, 1, 0], [0, 0, 0, 1, 1],
      [1, 0, 0, 0, 1]], 1),
    ([[1, 1, 0, 0], [0, 1, 1, 0], [0, 0, 1, 1]], 2),
    ([[1, 1, 1, 0], [0, 1, 1, 1], [1, 0, 1, 1]], 2)])
def test_symbolic_suite_beyond_three_variables(tmp_path, capsys, gens, r):
    """The 5-cycle at r = 1, the 4-path and three faces of a tetrahedron
    at r = 2: every containment and the whole ELS chain hold."""
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"vars": list("abcde"[:len(gens[0])]),
                                "gens": gens}))
    code, rep = run(capsys, "symbolic", "suite", "--ideal", str(path),
                    "--r", str(r))
    assert code == 0
    assert all(rep[k] for k in ("els", "harbourne", "hh1", "hh2", "hh3",
                                "hh4"))
    assert rep["chain"] == {"left": True, "middle": True, "right": True}


def test_ot_commands(tmp_path, capsys):
    code, rep = run(capsys, "ot", "counts", "--m8")
    assert code == 0
    assert rep["circuits"] == {"size3": 7, "size4": 35}
    assert rep["min_gens_by_degree"] == {"1": 0, "2": 7, "3": 1}
    assert rep["linear_syzygies"] == 1

    code, rep = run(capsys, "ot", "divisor", "--generic", "5")
    assert code == 0
    assert rep["line_pairings"] == [0, 0, 0, 0, 0]

    code, _ = run(capsys, "ot", "divisor", "--m8")
    assert code == 1  # non-generic arrangement without a supplied class

    arr = tmp_path / "arr.json"
    arr.write_text(json.dumps(
        {"lines": [[1, 0, 0], [0, 1, 0], [1, 1, 0]]}))
    code, rep = run(capsys, "ot", "counts", "--arrangement", str(arr))
    assert code == 0 and rep["circuits"] == {"size3": 1, "size4": 0}


@pytest.mark.parametrize("action", ["counts", "divisor"])
@pytest.mark.parametrize("lines", ["0", "-3"])
def test_ot_names_the_line_count(capsys, action, lines):
    # --generic 0 once read as a missing option
    code, rep = run(capsys, "ot", action, "--generic", lines)
    assert code == 1
    assert rep["error"] == "need at least 2 lines"


def test_output_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "kollar.json"
    code, printed = run(capsys, "surface", "kollar", "--n", "2",
                        "--output", str(out))
    assert code == 0 and printed is None
    assert json.loads(out.read_text())["h0_Cn"] == 4


def test_usage_errors(capsys):
    for argv, command, message in (
            ([], None, "required"),
            (["frobnicate"], None, "invalid choice"),
            (["toric", "fan"], "toric", "--input")):  # missing --input
        code, rep = run(capsys, *argv)
        assert code == 1
        assert rep["command"] == command and message in rep["error"]
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


def _frozen_main(argv):
    """`main` as it was: the top-level parser parses all of argv, and its
    subcommand action parses the rest again.  The oracle of the one-parse
    dispatch."""
    parser = cli.build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except cli._UsageError as exc:
        prog, message = exc.args
        command = prog.split()[1] if " " in prog else None
        return cli._error(argparse.Namespace(cmd=command), prog, message)
    try:
        return getattr(cli, f"run_{args.cmd}")(args)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError,
            json.JSONDecodeError, RecursionError) as exc:
        return cli._error(args, parser.prog, str(exc))
    except MemoryError as exc:
        return cli._error(args, parser.prog, str(exc) or "out of memory")


def _captured(fn, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = fn(list(argv))
    return code, out.getvalue(), err.getvalue()


def _same_as_the_full_parse(argv):
    # (exit code, stdout, stderr) byte for byte, with `empty`'s certificate
    # written to one scratch path for both
    with tempfile.TemporaryDirectory() as tmp:
        if argv[:1] == ["empty"]:
            argv = argv + ["--certificate", os.path.join(tmp, "cert.json")]
        assert _captured(main, argv) == _captured(_frozen_main, argv)


@settings(max_examples=100, deadline=None)
@given(argument_lists())
def test_main_matches_the_full_parse_on_argument_lists(argv):
    _same_as_the_full_parse(argv)


@pytest.mark.parametrize("argv", [
    ["cohomology", "--bogus"], ["surface", "nef", "--a1", "1", "--bogus"],
    ["cohomology", "--degree", "2", "--mults", "1", "stray"],
    ["toric", "fan", "--input", "x.json", "extra", "--more"],
    ["cohomology", "--", "--degree", "2"], ["--", "cohomology"],
    ["surface", "nef", "--"], ["cohomology", "-h"], ["cohomology", "--he"],
    ["ot", "counts", "--help"], ["frobnicate"], ["frobnicate", "--bogus"],
    ["cohom"], [], ["--help"], ["-h"], ["--bogus", "cohomology"], ["toric"],
    ["cohomology", "--degree"], ["surface", "nef", "--a1=x"],
    ["surface", "nef", "--a1=2", "--seed", "4"], ["cohomology", "cohomology"],
])
def test_main_matches_the_full_parse_on_edge_cases(argv):
    _same_as_the_full_parse(argv)


def test_leftover_tokens_are_the_top_level_error():
    code, out, err = _captured(main, ["cohomology", "--bogus"])
    assert code == 1
    assert err == "linserlab: error: unrecognized arguments: --bogus\n"
    assert json.loads(out)["command"] is None


@pytest.mark.parametrize("argv, code", [
    (["surface", "nef", "--a1", "1", "--a2", "1", "--b", "1"], 0),
    (["cohomology", "--bogus"], 1)])
def test_the_console_script_parses_once(monkeypatch, capsys, argv, code):
    # the `linserlab` script calls main() with no argv: sys.argv[1:] takes
    # the same one-parse path, and the top-level parser reads none of it
    def full_parse(*args, **kwargs):
        raise AssertionError("the top-level parser parsed a command line")

    monkeypatch.setattr(sys, "argv", ["linserlab"] + argv)
    parser = cli.build_parser()
    monkeypatch.setattr(parser, "parse_args", full_parse)
    monkeypatch.setattr(parser, "parse_known_args", full_parse)
    assert main() == code
    assert json.loads(capsys.readouterr().out)["command"] == (
        "surface" if code == 0 else None)


def test_fixed_line_system_normalizes_each_point_once(tmp_path, capsys,
                                                      monkeypatch):
    # (9; 6, 5, 1, 1): the line through the first two points is fixed
    # twice, and the residual (7; 4, 3, 1, 1) keeps all four points, three
    # of them at the vertices.  The system normalizes the input points,
    # the residual its points, and the frame the one moved point.
    pts = fatpoints.make_config("random", {"r": 4}, seed=11).points
    path = tmp_path / "system.json"
    path.write_text(json.dumps({"degree": 9, "mults": [6, 5, 1, 1],
                                "points": [[[3 * x, 3] for x in pt]
                                           for pt in pts]}))
    calls, normalize = [], fatpoints.normalize_proj
    monkeypatch.setattr(fatpoints, "normalize_proj", lambda *args: (
        calls.append(args) or normalize(*args)))
    code, rep = run(capsys, "cohomology", "--system", str(path))
    assert (code, rep["h0"]) == (0, 18)
    assert len(calls) <= 4 + 4 + 1
