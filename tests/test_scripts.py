"""Smoke runs of the experiment scripts: each exits 0 on a small input."""

import json
import os
import pathlib
import subprocess
import sys
from math import comb

import pytest

from linserlab._linalg import CERT_PRIMES, RANK_PRIME

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _run(script, argv, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / script),
                           *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    return proc.stdout


@pytest.mark.parametrize("script, args", [
    ("emit_certificates.py", ["--n-max", "2", "--outdir", "{tmp}"]),
    ("collinear_quartic.py", ["--seeds", "1"]),
    ("negativity_survey.py", ["--max-lines", "5", "--max-collinear", "5"]),
])
def test_script_runs(script, args, tmp_path):
    _run(script, [a.format(tmp=tmp_path) for a in args], tmp_path)


SYSTEM_STAGES = ("parse", "peel", "frame", "jets", "rank", "products",
                 "main")


def test_time_rank_prints_both_primes(tmp_path):
    doc = json.loads(_run("time_rank.py", ["--degrees", "16", "--repeat", "1"],
                          tmp_path))
    rows = doc["rows"]
    assert [row["prime"] for row in rows] == [CERT_PRIMES[0], RANK_PRIME]
    for row in rows:
        assert row["shape"] == [145, 153] and row["rank"] == 145
        assert 0 < row["best_s"] <= row["median_s"]
        # three points of multiplicity 5 at the vertices kill 3 * 15
        # columns, and with them 45 rows and 45 of the rank
        assert row["reduced_shape"] == [100, 108] and row["killed"] == 45
        assert row["killed"] + row["reduced_rank"] == row["rank"]
        assert 0 < row["reduced_best_s"] <= row["reduced_median_s"]
    generic = doc["generic_rows"]
    assert [(row["d"], row["h0"]) for row in generic] == [(16, 8)]
    assert 0 < generic[0]["best_s"] <= generic[0]["median_s"]
    # square pieces: the determinant, and the rank evidence that proves
    # and verifies such a piece in a certificate
    det = doc["det_rows"]
    assert [row["shape"] for row in det] == [[45, 45], [78, 78], [120, 120]]
    for row in det:
        assert row["piece_evidence"] == "FullRank"
        assert 0 < row["best_s"] <= row["median_s"]
        assert 0 < row["piece_best_s"] <= row["piece_median_s"]
    # the kernel proof on the double-conic ladder, whose rank drops by one
    kernel = doc["kernel_rows"]
    assert [(row["d"], row["mults"]) for row in kernel] == [
        (4 * n, [2 * n] * 5) for n in (1, 2, 3, 4)]
    assert [row["shape"] for row in kernel] == [[15, 15], [50, 45],
                                                [105, 91], [180, 153]]
    assert [row["rank"] for row in kernel] == [14, 44, 90, 152]
    for row in kernel:
        assert 0 < row["best_s"] <= row["median_s"]
    # the Bezout peel: two fixed lines, the double conics split to (0; -),
    # and the pencil ladder (3n; n^9), which no peel touches and whose h0
    # the products of the pencil's cubics prove
    peeled = doc["cohomology_rows"]
    assert [(row["d"], row["residual"], row["h0"]) for row in peeled] == [
        (13, [11, [6, 5, 1, 1, 1]], 39), (15, [12, [6, 6, 1, 1, 1, 1]], 45),
        (4, [0, []], 1), (8, [0, []], 1), (12, [0, []], 1),
        (6, [6, [2] * 9], 3)] + [
            (3 * n, [3 * n, [n] * 9], n + 1) for n in (3, 4, 5)]
    assert [row["path"] for row in peeled] == (
        ["rank"] * 2 + ["peel"] * 3 + ["products"] * 4)
    for row in peeled:
        assert 0 < row["best_s"] <= row["median_s"]
    # the kernel that the products path lifts on every pencil rung: the
    # two cubics of the pencil, L/g = (3; 1^9) on the 6 x 7 reduced matrix
    sections = doc["section_rows"]
    assert [(row["d"], row["mults"], row["small"]) for row in sections] == [
        (3 * n, [n] * 9, [3, [1] * 9]) for n in (2, 3, 4, 5)]
    for row in sections:
        assert row["shape"] == [6, 7] and row["sections"] == 2
        assert 0 < row["best_s"] <= row["median_s"]
    # arrangements: the circuits, the graded pieces and their exact ranks
    arr = doc["arrangement_rows"]
    assert [(row["arrangement"], row["seed"]) for row in arr] == [
        (s, seed) for s in (5, 6, 7, 8) for seed in (0, 1, 2)] + [("m8", None)]
    for row in arr:
        for name in ("circuits", "graded_counts", "singular_points"):
            assert 0 < row[f"{name}_best_s"] <= row[f"{name}_median_s"]
        for rank in row["ranks"]:
            # only a lift of its own takes time; a shared rank took none
            assert (rank["lift_s"] > 0) == (rank["proof"] == "lift"
                                            and not rank["shared"])
    # generic: all C(s, 4) 4-sets are circuits, and every piece (k, 0) is
    # dim I_k with no elimination; M8: seven triples and 35 4-sets, one
    # linear syzygy, whose rows are the piece (3, 1): one short of dim I_3
    for row in arr[:-1]:
        assert row["circuits"] == comb(row["lines"], 4)
        assert row["ranks"] == []
    assert arr[-1]["circuits"] == 42
    assert [(r["kind"], r["shape"], r["rank"], r["proof"], r["shared"])
            for r in arr[-1]["ranks"]] == [
        ("piece", [56, 120], 55, "lift", False),
        ("syzygy", [56, 120], 55, "lift", True)]
    # the stages of one cohomology --system call: the fixed line is full
    # rank after the peel, the pencil rung takes the products, and the
    # peel leaves the double conic no point
    systems = doc["system_rows"]
    assert [(row["system"], row["d"], row["mults"], row["residual"],
             row["h0"]) for row in systems] == [
        ("fixed_line", 13, [8, 7, 1, 1, 1], [11, [6, 5, 1, 1, 1]], 39),
        ("pencil", 9, [3] * 9, [9, [3] * 9], 4),
        ("double_conic", 8, [4] * 5, [0, []], 1)]
    reached = {"fixed_line": SYSTEM_STAGES[:5] + ("main",),
               "pencil": SYSTEM_STAGES,
               "double_conic": ("parse", "peel", "main")}
    for row in systems:
        assert set(row) == {"system", "d", "mults", "residual", "h0"} | {
            f"{stage}_{stat}_s" for stage in SYSTEM_STAGES
            for stat in ("best", "median")}
        for stage in SYSTEM_STAGES:
            best, median = row[f"{stage}_best_s"], row[f"{stage}_median_s"]
            if stage in reached[row["system"]]:
                assert 0 < best <= median
            else:
                assert best is None and median is None
