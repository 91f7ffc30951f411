"""Exit-code contract and JSON reports of the command-line front end."""

import json

import pytest

from linserlab.cli import main


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
    path.write_text(json.dumps({"pieces": []}))
    code, rep = run(capsys, "verify", str(path))
    assert code == 2
    assert rep["reason"] == "malformed document"


def test_empty_counter_witness(tmp_path, capsys):
    # one simple point cannot empty the conics: expected dimension > 0
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({"degree": 2, "mults": [1]}))
    code, rep = run(capsys, "empty", "--problem", str(prob))
    assert code == 2
    assert not rep["certified"] and rep["expected_dimension"] == 5


def test_empty_undecided_on_zero_budget(tmp_path, capsys):
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps({"degree": 1, "mults": [1, 1, 1]}))
    code, rep = run(capsys, "empty", "--problem", str(prob), "--budget", "0")
    assert code == 3
    assert rep["reason"] == "no cut list found within budget"


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


def test_arithmetic_error_gives_json_envelope(tmp_path, capsys):
    doc = {"degree": 1, "points": [[[0, 1], [1, 0], [1, 1]]], "mults": [1]}
    path = tmp_path / "system.json"
    path.write_text(json.dumps(doc))
    code, rep = run(capsys, "cohomology", "--system", str(path))
    assert code == 1
    assert rep["command"] == "cohomology" and "error" in rep


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

    code, _ = run(capsys, "negativity", "--config", "donut")
    assert code == 1


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


def test_output_flag_writes_file(tmp_path, capsys):
    out = tmp_path / "kollar.json"
    code, printed = run(capsys, "surface", "kollar", "--n", "2",
                        "--output", str(out))
    assert code == 0 and printed is None
    assert json.loads(out.read_text())["h0_Cn"] == 4


def test_usage_errors(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1
    assert main(["toric", "fan"]) == 1  # missing --input
    capsys.readouterr()
