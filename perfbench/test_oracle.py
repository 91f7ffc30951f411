"""The benchmark's answer checks reject tampered answers.

    python3 -m pytest perfbench/test_oracle.py
"""

import json
from argparse import Namespace

import pytest

import workloads
from oracle import (Mismatch, cli_document, expect_cohomology,
                    expect_empty_answer, expect_witness, fixed_line_h0)
from run import PINNED, Runner, load_library

LIB = load_library()


def run_ops(gen, pinned=None, lib=LIB):
    runner = Runner(lib, pinned or {})
    return runner.run(gen)


def test_contract_rejects_bad_exit_codes_and_output():
    assert cli_document(0, '{"h0": 1}') == {"h0": 1}
    for rc, out in ((4, "{}"), (None, "{}"), (0, "h0 = 1"), (0, "[1]"),
                    (0, '{"a": 1}\n{"b": 2}')):
        with pytest.raises(Mismatch):
            cli_document(rc, out)


def test_closed_forms():
    # values computed by the library at general points
    assert fixed_line_h0(8, (5, 5, 1, 1, 1)) == 13
    assert fixed_line_h0(10, (6, 6, 1, 1, 1)) == 22
    assert fixed_line_h0(12, (8, 6, 1, 1)) == 33
    doc = {"degree": 4, "mults": [2] * 5, "h0": 1, "h1": 1, "chi": 0}
    expect_cohomology(doc, 4, (2,) * 5, 1)
    with pytest.raises(Mismatch):
        expect_cohomology(dict(doc, h0=2, h1=2), 4, (2,) * 5, 1)


def test_witness_check():
    # x - y vanishes at (1, 1): a section for the support {(1,0), (0,1)}
    good = {"witness": {"kind": "section", "support": [[0, 1], [1, 0]],
                        "coeffs": [-1, 1]}}
    expect_witness(good, [(0, 1), (1, 0)], 1)
    bad = {"witness": dict(good["witness"], coeffs=[1, 1])}
    with pytest.raises(Mismatch):
        expect_witness(bad, [(0, 1), (1, 0)], 1)
    with pytest.raises(Mismatch):
        expect_empty_answer(2, {"certified": False}, [(0, 1), (1, 0)], (1,))


class FakeCli:
    """A CLI that prints a fixed report, standing in for a wrong answer."""

    def __init__(self, doc, rc=0):
        self.doc, self.rc = doc, rc

    def main(self, argv):
        print(json.dumps(self.doc))
        return self.rc


def test_tampered_pinned_answer_fails():
    op = workloads._cli("alpha.scan", ["alpha"], pin="alpha star 5 m=2",
                        extract=lambda rc, doc: doc["alpha"])
    pinned = {"alpha star 5 m=2": 5}
    for doc, failed in (({"alpha": 5}, False), ({"alpha": 4}, True)):
        lib = Namespace(cli=FakeCli(doc))
        (out,) = run_ops((o for o in [op]), pinned, lib)
        assert out.failed is failed


def test_tampered_certificate_fails(tmp_path):
    work = workloads.Work(str(tmp_path))
    gen = workloads._paper_ops(work, 1)
    empty = next(gen)
    out = Runner(LIB, {}).run_op(empty)
    assert not out.failed
    cert = tmp_path / "paper-1.cert.json"
    doc = json.loads(cert.read_text())
    doc["pieces"][0]["mult"] += 1
    cert.write_text(json.dumps(doc))
    verify = gen.send(out)
    assert Runner(LIB, {}).run_op(verify).failed


def test_certificate_for_another_problem_fails(tmp_path):
    # Dropping the corner (0, 0) from the problem and from the piece that
    # holds it leaves a valid certificate for an easier problem, re-digested.
    work = workloads.Work(str(tmp_path))
    gen = workloads._paper_ops(work, 1)
    out = Runner(LIB, {}).run_op(next(gen))
    cert = tmp_path / "paper-1.cert.json"
    doc = json.loads(cert.read_text())
    doc["problem"]["points"].remove([0, 0])
    next(p for p in doc["pieces"] if [0, 0] in p["points"])[
        "points"].remove([0, 0])
    doc["digest"] = LIB.dumnicki._digest(
        {k: doc[k] for k in ("problem", "cuts", "pieces")})
    assert LIB.dumnicki.verify_certificate_json(doc) == (True, None)
    cert.write_text(json.dumps(doc))
    verified = Runner(LIB, {}).run_op(gen.send(out))
    assert verified.failed and verified.doc["verified"] is True
    assert "another problem" in verified.reason


def test_wrong_exit_code_fails():
    op = workloads._cli("cohomology.nonspecial", ["cohomology"],
                        check=lambda rc, doc: expect_cohomology(
                            doc, 4, (2,) * 5, 1))
    doc = {"degree": 4, "mults": [2] * 5, "h0": 1, "h1": 1, "chi": 0}
    (out,) = run_ops((o for o in [op]), lib=Namespace(cli=FakeCli(doc, rc=7)))
    assert out.failed and "exit code" in out.reason


def test_algebra_round_passes_its_oracle(tmp_path):
    work = workloads.Work(str(tmp_path))
    rng = workloads.round_rng("algebra", 0, 0)
    outs = run_ops(workloads.algebra_round(LIB, rng, work, 0),
                   json.loads(PINNED.read_text()))
    assert outs and not [o.reason for o in outs if o.failed]
