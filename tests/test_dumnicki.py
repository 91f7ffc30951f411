"""Emptiness prover: interpolation matrices, cuts, certificates, search."""

import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import accumulate
from math import comb, gcd

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from linserlab import dumnicki
from linserlab.dumnicki import (
    EmptinessCertificate,
    Failure,
    FullRank,
    InterpolationProblem,
    LineAssignment,
    Piece,
    certificate_from_json,
    certificate_to_json,
    check_line_assignment,
    fact3_certificate,
    generic_dim,
    interp_matrix,
    paper_family,
    prove_empty,
    reduce_partition,
    search_cuts,
    verify_certificate,
    verify_certificate_json,
)
from linserlab.fatpoints import generic_cohomology
from linserlab.lattice import (
    CutFunctional,
    triangle_set,
    triangle_staircase,
)


def test_interp_matrix_matches_symbolic_derivatives():
    D = triangle_set(3)
    E = triangle_staircase(2)
    mat = interp_matrix(InterpolationProblem(D, E))
    x, y = sympy.symbols("x y")
    for i, (al, be) in enumerate(sorted(E)):
        for j, (a, b) in enumerate(sorted(D)):
            val = sympy.diff(x**a * y**b, x, al, y, be).subs({x: 1, y: 1})
            assert mat[i][j] == val


def test_interp_matrix_on_negative_support():
    # Laurent monomials at (1, 1): falling factorials of negative exponents
    D = {(-2, 3), (-1, -1), (0, 0), (0, 2), (3, -2)}
    assert interp_matrix(InterpolationProblem(D, triangle_staircase(3))) == [
        [1, 1, 1, 1, 1],
        [3, -1, 0, 2, -2],
        [6, 2, 0, 2, 6],
        [-2, -1, 0, 0, 3],
        [-6, 1, 0, 0, -6],
        [6, 2, 0, 0, 6],
    ]


def test_generic_dim_square_regular():
    # a conic cannot acquire a triple point
    prob = InterpolationProblem(triangle_set(2), triangle_staircase(3))
    rep = generic_dim(prob)
    assert rep.empty and rep.dim == -1 and rep.witness is None


def test_generic_dim_square_singular_dual_witness():
    prob = InterpolationProblem({(0, 0), (1, 0), (2, 0)}, triangle_staircase(2))
    rep = generic_dim(prob)
    assert not rep.empty
    assert rep.dim == 0
    assert rep.witness.kind == "dual"


def test_generic_dim_section_witness():
    prob = InterpolationProblem(triangle_set(2), triangle_staircase(2))
    rep = generic_dim(prob)
    assert rep.dim == 6 - 1 - 3
    assert rep.witness.kind == "section"
    assert any(c != 0 for c in rep.witness.coeffs)


def test_fact3_assignment():
    D = {(0, 0), (1, 0), (2, 0), (0, 1), (1, 1)}
    la = fact3_certificate(D, 3, "horizontal")
    assert la == LineAssignment("horizontal", ((1, 2), (0, 3)))
    assert check_line_assignment(D, 3, la)
    # capacity shifted off a loaded line must fail the recheck
    bad = LineAssignment("horizontal", ((1, 3), (0, 2)))
    assert not check_line_assignment(D, 3, bad)


def test_fact3_rejects_overloaded_lines():
    column = {(0, j) for j in range(4)}
    assert fact3_certificate(column, 3, "vertical") is None
    assert fact3_certificate(column, 3, "horizontal") is None
    with pytest.raises(ValueError):
        fact3_certificate(column, 0, "vertical")
    with pytest.raises(ValueError):
        fact3_certificate(column, 2, "diagonal")


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_fact3_implies_nonsingular(m, data):
    # a full line assignment certifies the square interpolation determinant
    size = comb(m + 1, 2)
    grid = [(i, j) for i in range(4) for j in range(4)]
    D = frozenset(data.draw(st.permutations(grid))[:size])
    for direction in ("horizontal", "vertical"):
        la = fact3_certificate(D, m, direction)
        if la is None:
            continue
        rep = generic_dim(InterpolationProblem(D, triangle_staircase(m)))
        assert rep.empty


def halfinteger_cuts():
    nonzero = st.tuples(
        st.integers(min_value=-3, max_value=3),
        st.integers(min_value=-3, max_value=3),
    ).filter(lambda ab: ab != (0, 0))
    return st.builds(
        lambda ab, c: CutFunctional(ab[0], ab[1], Fraction(2 * c + 1, 2)),
        nonzero,
        st.integers(min_value=-12, max_value=12),
    )


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=8),
    cuts=st.lists(halfinteger_cuts(), min_size=0, max_size=4),
)
def test_reduce_partition_is_a_partition(d, cuts):
    D = triangle_set(d)
    pieces = reduce_partition(D, cuts)
    assert len(pieces) == len(cuts) + 1
    seen = set()
    for piece in pieces:
        assert not (piece & seen)
        seen |= piece
    assert seen == D
    for piece, cut in zip(pieces, cuts):
        assert all(cut.value(p) > 0 for p in piece)


def test_prove_empty_requires_matching_lengths():
    D, mults, cuts = paper_family(1)
    with pytest.raises(ValueError):
        prove_empty(D, mults[:-1], cuts)


def test_prove_empty_failure_carries_witness():
    cut = CutFunctional(-1, -1, Fraction(1, 2))  # isolates (0,0) side? no: x+y < 1/2
    pieces = reduce_partition(triangle_set(2), [cut])
    assert pieces[0] == frozenset({(0, 0)})
    result = prove_empty(triangle_set(2), (1, 2), [cut])
    assert isinstance(result, Failure)
    assert result.piece_index == 1
    assert result.witness is not None and result.witness.kind == "section"


def test_search_computes_no_witness(monkeypatch):
    """Failed attempts only need the reason; the witness is left to the
    failure that prove_empty reports."""
    calls = []
    real = dumnicki.generic_dim

    def spy(prob):
        calls.append(prob)
        return real(prob)

    monkeypatch.setattr(dumnicki, "generic_dim", spy)
    cuts = search_cuts(triangle_set(5), (2,) * 7, 4000)
    assert calls == []
    # the cut list found before witnesses were dropped from the search
    h = Fraction(1, 2)
    assert [c.as_triple() for c in cuts] == [
        (-3, -2, 7 * h), (-2, -1, 7 * h), (-3, -1, 11 * h), (-3, 1, 7 * h),
        (-3, -2, 19 * h), (-3, -1, 23 * h)]


@pytest.mark.parametrize("n", [1, 2])
def test_paper_family_certificates(n):
    D, mults, cuts = paper_family(n)
    assert len(D) == comb(13 * n + 2, 2)
    assert mults == (5 * n,) + (4 * n,) * 9
    cert = prove_empty(D, mults, cuts)
    assert isinstance(cert, EmptinessCertificate)
    assert len(cert.pieces) == 10
    ok, detail = verify_certificate(D, mults, cert)
    assert ok and detail is None
    assert sum(len(p.points) for p in cert.pieces) == len(D)


def test_cross_check_h0_vanishes():
    rep = generic_cohomology(13, (5,) + (4,) * 9, seed=11)
    assert rep.h0 == 0 and rep.h1 == 0 and rep.chi == 0


def test_certificate_json_round_trip():
    D, mults, cuts = paper_family(1)
    cert = prove_empty(D, mults, cuts)
    doc = certificate_to_json(D, mults, cert)
    blob = json.dumps(doc)
    D2, mults2, cert2 = certificate_from_json(json.loads(blob))
    assert D2 == D and mults2 == mults and cert2 == cert
    ok, detail = verify_certificate_json(json.loads(blob))
    assert ok and detail is None


def paper_doc():
    D, mults, cuts = paper_family(1)
    cert = prove_empty(D, mults, cuts)
    return certificate_to_json(D, mults, cert)


def test_verify_rejects_multiplicity_edit():
    doc = paper_doc()
    doc["problem"]["mults"][0] -= 1
    ok, detail = verify_certificate_json(doc)
    assert not ok
    assert detail["piece"] == 0


def test_verify_rejects_moved_point():
    doc = paper_doc()
    doc["pieces"][3]["points"][0] = [99, 99]
    ok, detail = verify_certificate_json(doc)
    assert not ok
    assert detail["piece"] == 3
    assert detail["reason"] == "piece content mismatch"


@pytest.mark.parametrize("path, value", [
    (("problem", "points", 0), [99, 99]),
    (("problem", "points", 7), [-1, 0]),
    (("cuts", 0, 2), [11, 2]),
    (("cuts", 8, 0), [2, 1]),
])
def test_verify_rejects_moved_cut_or_problem_point(path, value):
    """The pieces are recomputed from the problem and the cuts, so moving
    either is caught by the mathematics, also under a fresh digest."""
    doc = paper_doc()
    slot = doc
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = value
    ok, detail = verify_certificate_json(_redigest(doc))
    assert not ok and detail["reason"] != "digest mismatch"


def test_verify_rejects_digest_edit():
    doc = paper_doc()
    doc["digest"] = ("0" if doc["digest"][0] != "0" else "1") + doc["digest"][1:]
    ok, detail = verify_certificate_json(doc)
    assert not ok
    assert detail["reason"] == "digest mismatch"


def test_broken_piece_reported_before_digest():
    doc = paper_doc()
    doc["pieces"][5]["evidence"] = {"type": "line_assignment",
                                    "direction": "horizontal",
                                    "assignment": [[0, 1]]}
    ok, detail = verify_certificate_json(doc)
    assert not ok
    assert detail["piece"] == 5


def _redigest(doc):
    payload = {k: doc[k] for k in ("problem", "cuts", "pieces")}
    doc["digest"] = dumnicki._digest(payload)
    return doc


def test_verify_rejects_garbage():
    zero_denominator = paper_doc()
    zero_denominator["cuts"][0][2] = [1, 0]
    for doc in ({"format": 2, "pieces": []}, [], "",
                _redigest(zero_denominator)):
        ok, detail = verify_certificate_json(doc)
        assert not ok
        assert detail["reason"] == "malformed document"


JETS = comb(10**5 + 1, 2)


def _huge_mult_doc(evidence, points=((0, 0), (0, 1), (0, 2)), m=10**5):
    pts = [list(p) for p in points]
    return _redigest({
        "format": 2,
        "problem": {"points": pts, "mults": [m]},
        "cuts": [],
        "pieces": [{"points": pts, "mult": m, "evidence": evidence}]})


@pytest.mark.parametrize("evidence, reason", [
    ({"type": "full_rank", "rank": JETS, "rows": [0, 1, 2]},
     "rank evidence malformed"),
    ({"type": "full_rank", "rank": 3, "rows": [0, 1, JETS]},
     "row index out of range"),
    ({"type": "full_rank", "rank": 3, "rows": [JETS - 3, JETS - 2, JETS - 1]},
     "selected rows singular"),
    ({"type": "line_assignment", "direction": "horizontal",
      "assignment": [[0, 1]]}, "line assignment invalid"),
    ({"type": "full_rank", "rank": 3, "rows": [0, 1, 2]}, None),
])
def test_verify_checks_sizes_before_building_jets(evidence, reason):
    """mult = 10^5 has JETS, about 5 * 10^9, jets; only the selected rows
    of the jet matrix may be built.  The last three rows are the jets
    (m - 2, 0), (m - 2, 1) and (m - 1, 0), which vanish at every point
    with x = 0."""
    start = time.perf_counter()
    ok, detail = verify_certificate_json(_huge_mult_doc(evidence))
    assert time.perf_counter() - start < 5
    assert ok == (reason is None)
    assert (detail and detail["reason"]) == reason


N = 10**12


@pytest.mark.parametrize("points", [
    ((N, N), (N, N + 1), (N + 1, N)),
    ((0, 0), (N, 1), (1, N)),
])
def test_verify_pieces_with_hostile_coordinates(points):
    """Jets (0, 0), (0, 1), (1, 0) at exponents near 10^12: rows 0, 1, 3
    of the m = 3 staircase, and all of the m = 2 one.  A table sized by
    the exponents instead of the distinct ones would not fit in memory."""
    cols = sorted(points)
    det = sympy.Matrix([[1] * 3, [b for _, b in cols],
                        [a for a, _ in cols]]).det()
    assert det != 0
    for m, evidence in ((3, {"type": "full_rank", "rank": 3,
                             "rows": [0, 1, 3]}),
                        (2, {"type": "full_rank", "rank": 3,
                             "rows": [0, 1, 2]})):
        start = time.perf_counter()
        ok, detail = verify_certificate_json(
            _huge_mult_doc(evidence, points, m))
        assert time.perf_counter() - start < 5
        assert (ok, detail) == (True, None)


def test_verify_jets_of_order_past_the_exponents():
    """Jets of order about 2 * 10^12 vanish on exponents near 10^12; the
    falling factorials must see that without counting up to it."""
    m = 2 * N
    jets = comb(m + 1, 2)
    points = ((N, N), (N, N + 1), (N + 1, N))
    evidence = {"type": "full_rank", "rank": 3,
                "rows": [jets - 3, jets - 2, jets - 1]}
    start = time.perf_counter()
    ok, detail = verify_certificate_json(_huge_mult_doc(evidence, points, m))
    assert time.perf_counter() - start < 5
    assert not ok and detail["reason"] == "selected rows singular"


@pytest.mark.parametrize("points, m", [
    (((-1, 0), (-1, 1), (0, 0)), 10**6),
    (((N, N), (N, N + 1), (N + 1, N)), N),
])
def test_verify_rejects_jets_of_order_past_the_piece(points, m):
    """The last three jets of the staircase, (m - 2, 0), (m - 2, 1) and
    (m - 1, 0), do not vanish on these points; their falling factorials
    would run to order m.  No order ideal of three jets holds them."""
    jets = comb(m + 1, 2)
    evidence = {"type": "full_rank", "rank": 3,
                "rows": [jets - 3, jets - 2, jets - 1]}
    start = time.perf_counter()
    ok, detail = verify_certificate_json(_huge_mult_doc(evidence, points, m))
    assert time.perf_counter() - start < 5
    assert not ok
    assert detail == {"piece": 0, "reason": "jet order not below piece size"}


def test_prover_selects_order_ideals():
    """The greedy lex row selection of a full_rank piece is an order ideal
    of the staircase, so it never meets the verifier's jet-order bound."""
    rng = random.Random(7)
    grid = [(x, y) for x in range(7) for y in range(7)]
    seen = 0
    for _ in range(60):
        m = rng.randint(3, 5)
        size = rng.randint(3, comb(m + 1, 2) - 1)
        points = frozenset(rng.sample(grid, size))
        ev = dumnicki._certify_piece(points, m)
        if not isinstance(ev, FullRank):
            continue
        seen += 1
        jets = {dumnicki._staircase_jet(m, i) for i in ev.rows}
        assert all((al - 1, be) in jets for al, be in jets if al)
        assert all((al, be - 1) in jets for al, be in jets if be)
        cert = EmptinessCertificate((), (Piece(points, m, ev),))
        assert verify_certificate(points, (m,), cert) == (True, None)
    assert seen >= 10


def _pair_doc(points, evidence, cuts=()):
    pts = [list(p) for p in points]
    return _redigest({
        "format": 2,
        "problem": {"points": pts, "mults": [1] * (len(cuts) + 1)},
        "cuts": [list(c) for c in cuts],
        "pieces": [{"points": pts[:1], "mult": 1, "evidence": evidence}]
        + [{"points": pts[1:], "mult": 1, "evidence": evidence}] * len(cuts)})


NOT_PAIRS = [
    # one coordinate and one cut: the partition read p[1]
    _pair_doc([[2], [0], [1]], {"type": "line_assignment",
                                "direction": "vertical",
                                "assignment": [[0, 1]]},
              cuts=[[[1, 1], [0, 1], [-3, 2]]]),
    # three coordinates: the jets read two
    _pair_doc([[0, 0, 0]], {"type": "full_rank", "rank": 1, "rows": [0]}),
]


@pytest.mark.parametrize("doc", NOT_PAIRS)
def test_verify_requires_integer_pairs(doc):
    assert verify_certificate_json(doc) == (
        False, {"piece": None, "reason": "malformed document"})


def test_points_from_json():
    assert dumnicki.points_from_json([[1, 2], (3, -4)]) == {(1, 2), (3, -4)}
    for bad in ([1, 2], [[1]], [[1, 2, 3]], [[1.0, 2]], [["1", 2]],
                [[True, 2]], [{"x": 1, "y": 2}]):
        with pytest.raises(ValueError):
            dumnicki.points_from_json(bad)


# SHA-256 of the canonical JSON of certificate_to_json(paper_family(n)) for
# n = 1..10, re-recorded when the document gained "format": 2; the cuts,
# pieces and evidence are those recorded while cuts still carried Fraction
# coefficients.
PAPER_SHA256 = {
    1: "3c79b1234a8530ecf6696fc70f99ec98b3a1b2048b7e5bf9d0757dddc42e56f3",
    2: "d52b81235ada2c785db71d3b577952bfae58bf7468bf54e42a99cb40ca0c8246",
    3: "32a894329a885efc4de17e615367ee1943d9eba30aeb23863c87b9cce92ca56b",
    4: "3ebb9eef7c45f4d89702f1e65412a0527c2353b3987f050adeee9f304e8bb62d",
    5: "11f0d8c5738b0027e421eade14a6b159dfeaf92a03fc0fe02c53e39b1acedf44",
    6: "0e389bc2370f94a0a1afa51d52d0e0c743c816de133e0668327512bef42329e9",
    7: "5f0b462d591e2a7daf6700344a96b74b6fe74e7b653398be8c0245525c3632ce",
    8: "8044e3853f9fa833fabecbcec55175d102bdeea3ad06c0e777c134bd1b369ab9",
    9: "a062c3a87f8285b5b4d7e11e234cbc1634478e9cc3b8bf5e0bd75713f249146e",
    10: "d79c79536c18c225dbe86a458c12953278f3eab85adaf0972fbec3504093b092",
}


def test_paper_certificates_are_pinned():
    for n, want in PAPER_SHA256.items():
        D, mults, cuts = paper_family(n)
        doc = certificate_to_json(D, mults, prove_empty(D, mults, cuts))
        blob = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode()).hexdigest() == want, n


def _negative_mult_doc():
    D = triangle_set(1)
    cut = CutFunctional(1, 0, Fraction(-5, 2))  # x >= 3: nothing
    rest = fact3_certificate(D, 2, "horizontal")
    cert = EmptinessCertificate((cut,), (
        Piece(frozenset(), -1, FullRank(0, ())),
        Piece(D, 2, rest)))
    return certificate_to_json(D, (-1, 2), cert)


def _one_point_doc(evidence):
    return _redigest({"format": 2,
                      "problem": {"points": [[0, 0]], "mults": [1]},
                      "cuts": [], "pieces": [{"points": [[0, 0]], "mult": 1,
                                              "evidence": evidence}]})


def full_rank_doc():
    return _one_point_doc({"type": "full_rank", "rank": 1, "rows": [0]})


# (document, path to one integer in it)
INTEGER_SLOTS = [
    (paper_doc, ("problem", "mults", 0)),
    (paper_doc, ("pieces", 0, "mult")),
    (paper_doc, ("cuts", 0, 2, 0)),
    (paper_doc, ("cuts", 0, 2, 1)),
    (paper_doc, ("pieces", 0, "evidence", "assignment", 0, 0)),
    (paper_doc, ("pieces", 0, "evidence", "assignment", 0, 1)),
    (full_rank_doc, ("format",)),
    (full_rank_doc, ("pieces", 0, "evidence", "rank")),
    (full_rank_doc, ("pieces", 0, "evidence", "rows", 0)),
    (paper_doc, ("problem", "points", 0, 0)),
    (paper_doc, ("pieces", 0, "points", 0, 1)),
]


@pytest.mark.parametrize("make, path", INTEGER_SLOTS, ids=[
    make.__name__ + ":" + "/".join(map(str, path))
    for make, path in INTEGER_SLOTS])
@pytest.mark.parametrize("value", [float("inf"), 1.0, 1.5, True, "1"])
def test_verify_reads_integers_strictly(make, path, value):
    """`int()` overflowed on Infinity and read 1.0, 1.5, True and "1" as
    1; a certificate integer must be a JSON int."""
    doc = make()
    assert verify_certificate_json(doc) == (True, None)
    slot = doc
    for key in path[:-1]:
        slot = slot[key]
    slot[path[-1]] = value
    assert verify_certificate_json(_redigest(doc)) == (
        False, {"piece": None, "reason": "malformed document"})


def test_verify_survives_deep_nesting():
    deep = []
    for _ in range(10**5):
        deep = [deep]
    doc = paper_doc()
    doc["problem"]["points"] = deep
    assert verify_certificate_json(doc) == (
        False, {"piece": None, "reason": "malformed document"})


def test_verify_rejects_negative_multiplicity():
    ok, detail = verify_certificate_json(_negative_mult_doc())
    assert not ok
    assert detail == {"piece": 0, "reason": "negative multiplicity"}


def test_determinant_and_full_rank_evidence():
    """Paper pieces are square: the determinant is nonzero exactly when
    `independent_rows` selects every row, and that selection certifies
    the piece."""
    from linserlab._linalg import det_exact, independent_rows

    D, mults, cuts = paper_family(1)
    cert = prove_empty(D, mults, cuts)
    target = cert.pieces[0]
    E = triangle_staircase(target.mult)
    assert len(target.points) == len(E)
    mat = interp_matrix(InterpolationProblem(target.points, E))
    assert det_exact(mat) != 0
    assert independent_rows(mat) == list(range(len(E)))

    def swap(ev):
        pieces = (Piece(target.points, target.mult, ev),) + cert.pieces[1:]
        return verify_certificate(D, mults,
                                  EmptinessCertificate(cert.cuts, pieces))

    assert swap(FullRank(len(E), tuple(range(len(E))))) == (True, None)
    ok, detail = swap(FullRank(len(E), (0,) * len(E)))
    assert not ok and detail["reason"] == "duplicate rows"
    ok, detail = swap(FullRank(len(E), tuple(range(1, len(E) + 1))))
    assert not ok and detail["reason"] == "row index out of range"
    ok, detail = swap(FullRank(len(E) - 1, tuple(range(len(E) - 1))))
    assert not ok and detail["reason"] == "rank evidence malformed"


def test_square_pieces_are_proved_by_rank():
    """Random square pieces that no line assignment certifies: a
    nonsingular one gets every row 0..n-1 and verifies, a singular one
    fails as a rank deficit; the determinant decides which."""
    from linserlab._linalg import det_exact

    rng = random.Random(3)
    kinds = set()
    for _ in range(40):
        m = rng.randint(2, 5)
        n = comb(m + 1, 2)
        points = set()
        while len(points) < n:
            points.add((rng.randrange(m + 2), rng.randrange(m + 2)))
        points = frozenset(points)
        if any(fact3_certificate(points, m, d)
               for d in ("horizontal", "vertical")):
            continue
        E = triangle_staircase(m)
        nonsingular = det_exact(
            interp_matrix(InterpolationProblem(points, E))) != 0
        ev = dumnicki._certify_piece(points, m)
        kinds.add(nonsingular)
        if nonsingular:
            assert ev == FullRank(n, tuple(range(n)))
            cert = EmptinessCertificate((), (Piece(points, m, ev),))
            assert verify_certificate(points, (m,), cert) == (True, None)
        else:
            assert ev == "rank below piece size"
    assert kinds == {True, False}


def test_singular_square_piece_carries_a_dual_witness():
    # the jets (0, 1) and (1, 0) agree on the diagonal
    points = frozenset({(0, 0), (1, 1), (2, 2)})
    result = prove_empty(points, (2,), ())
    assert isinstance(result, Failure)
    assert (result.piece_index, result.reason) == (0, "rank below piece size")
    w = result.witness
    assert w.kind == "dual" and any(w.coeffs)
    mat = interp_matrix(InterpolationProblem(points, triangle_staircase(2)))
    assert w.support == tuple(sorted(triangle_staircase(2)))
    assert all(sum(c * row[j] for c, row in zip(w.coeffs, mat)) == 0
               for j in range(len(points)))


@pytest.mark.parametrize("fmt, reason", [
    (None, "unsupported certificate format"),
    (1, "unsupported certificate format"),
    (3, "unsupported certificate format"),
    (2.0, "malformed document"),
    (True, "malformed document"),
    ("2", "malformed document"),
])
def test_verify_names_an_unsupported_format(fmt, reason):
    """None stands for a document without the field; there is no reader
    for any other version, and the version is a strict JSON int."""
    doc = paper_doc()
    if fmt is None:
        del doc["format"]
    else:
        doc["format"] = fmt
    assert verify_certificate_json(doc) == (
        False, {"piece": None, "reason": reason})


def _frozen_candidate_cuts(D, target):
    """The search's candidates as they were built before the sorted walk:
    every threshold of every slope, each followed by a Fraction partition
    of D, kept if its positive part holds 1 to target points."""
    slopes = [(a, b) for a in range(-3, 4) for b in range(-3, 4)
              if gcd(a, b) == 1]
    out = []
    for (a, b) in slopes:
        vals = sorted({a * x + b * y for (x, y) in D})
        for lo, hi in zip(vals, vals[1:]):
            c = -Fraction(lo + hi, 2)
            plus = frozenset(p for p in D if a * p[0] + b * p[1] + c > 0)
            if 0 < len(plus) <= target:
                out.append((CutFunctional(a, b, c), plus))
    return out


def _frozen_sorted_candidates(D, target):
    """The frozen candidates in the order the search tried them when each
    was a (CutFunctional, part) pair: larger parts first, then by the
    cut's `as_triple()` Fractions."""
    return sorted(_frozen_candidate_cuts(D, target),
                  key=lambda t: (target - len(t[1]), t[0].as_triple()))


@settings(max_examples=80, deadline=None)
@given(st.sets(st.tuples(st.integers(-4, 8), st.integers(-4, 8)),
               max_size=25),
       st.integers(0, 12))
def test_candidate_cuts_match_frozen_generator(D, target):
    D = frozenset(D)
    got = [(CutFunctional(a, b, Fraction(c2, 2)),
            frozenset(ranked[:target - short]))
           for (short, a, b, c2), ranked
           in dumnicki._candidate_cuts(D, target)]
    assert got == _frozen_sorted_candidates(D, target)


def _frozen_search_cuts(D, mults, budget):
    """`search_cuts` as it was before its integer candidates and its memo
    of piece verdicts: Fraction cuts tried in `as_triple()` order, a fresh
    piece check on every attempt, and a negative budget read as 0.  The
    oracle of the search's answers."""
    attempts = [max(0, budget)]
    seen = set()

    def attempt(points, m):
        attempts[0] -= 1
        return not isinstance(dumnicki._certify_piece(points, m), str)

    def dfs(residual, idx):
        if attempts[0] <= 0 or (residual, idx) in seen:
            return None
        seen.add((residual, idx))
        if sum(comb(m + 1, 2) for m in mults[idx:]) < len(residual):
            return None
        if idx == len(mults) - 1:
            return [] if attempt(residual, mults[idx]) else None
        target = comb(mults[idx] + 1, 2)
        for cut, plus in _frozen_sorted_candidates(residual, target):
            if attempts[0] <= 0:
                return None
            if not attempt(plus, mults[idx]):
                continue
            rest = dfs(residual - plus, idx + 1)
            if rest is not None:
                return [cut] + rest
        return None

    got = dfs(frozenset(D), 0)
    if got is not None:
        return tuple(got)
    if attempts[0] <= 0:
        raise dumnicki.BudgetSpent(f"no cut list found within {budget} "
                                   "attempts")
    return None


def _search_outcome(search, D, mults, budget):
    try:
        return search(D, mults, budget)
    except dumnicki.BudgetSpent as exc:
        return str(exc)


@st.composite
def small_searches(draw):
    """A triangle of degree 1 to 5, translated, with up to four points
    thinned out; multiplicities in 1..3, cut short once their jets could
    cover it, where the search has the most to do; and a budget."""
    tri = sorted(triangle_set(draw(st.integers(1, 5))))
    dx, dy = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
    drop = draw(st.sets(st.sampled_from(tri), max_size=4))
    D = frozenset((x + dx, y + dy) for (x, y) in tri if (x, y) not in drop)
    mults = draw(st.lists(st.integers(1, 3), min_size=1, max_size=12))
    jets = accumulate(comb(m + 1, 2) for m in mults)
    end = next((i for i, j in enumerate(jets, 1) if j >= len(D)), len(mults))
    return D, tuple(mults[:end]), draw(st.sampled_from([0, 5, 50, 400, 4000]))


@settings(max_examples=100, deadline=None)
@given(small_searches())
@example((triangle_set(4), (2,) * 5, 400))  # spent on pieces met before
def test_search_gives_the_frozen_answer(case):
    """The same cut list, None, or spent budget as the frozen search: the
    integer candidates keep the order, and a remembered verdict still
    costs one attempt."""
    D, mults, budget = case
    assert (_search_outcome(search_cuts, D, mults, budget)
            == _search_outcome(_frozen_search_cuts, D, mults, budget))


def _count_search_work(monkeypatch):
    """Spy on the piece checks and the cuts built during a search."""
    checks, built = [], []
    certify, cut = dumnicki._certify_piece, dumnicki.CutFunctional

    def certify_spy(points, m):
        checks.append((points, m))
        return certify(points, m)

    def cut_spy(*args):
        built.append(args)
        return cut(*args)

    monkeypatch.setattr(dumnicki, "_certify_piece", certify_spy)
    monkeypatch.setattr(dumnicki, "CutFunctional", cut_spy)
    return checks, built


def test_search_checks_each_piece_once(monkeypatch):
    # the 2,507 attempts of the double conic (4; 2^5) meet 93 pieces
    checks, built = _count_search_work(monkeypatch)
    assert search_cuts(triangle_set(4), (2,) * 5, budget=4000) is None
    assert (len(checks), len(set(checks)), built) == (93, 93, [])


def test_search_builds_only_the_cuts_it_returns(monkeypatch):
    checks, built = _count_search_work(monkeypatch)
    cuts = search_cuts(triangle_set(5), (2,) * 7, budget=4000)
    assert (len(checks), len(built), len(cuts)) == (9, 6, 6)


def test_search_prunes_undersized_systems():
    # 12 jet conditions cannot absorb the 15 quartic monomials
    assert search_cuts(triangle_set(4), (3, 2, 2), budget=10_000) is None


def test_search_tells_exhaustion_from_a_spent_budget():
    # the double conic (4; 2^5) has no cut list; its 2,507 candidates
    # fail within a budget of 4000, and a smaller budget is spent first
    D = triangle_set(4)
    assert search_cuts(D, (2,) * 5, budget=4000) is None
    with pytest.raises(dumnicki.BudgetSpent):
        search_cuts(D, (2,) * 5, budget=2000)
    with pytest.raises(dumnicki.BudgetSpent):
        search_cuts(triangle_set(1), (1, 1, 1), budget=0)
    with pytest.raises(ValueError, match="budget must be >= 0"):
        search_cuts(triangle_set(1), (1, 1, 1), budget=-5)


def test_search_recovers_nine_cut_family():
    D, mults, _ = paper_family(1)
    cuts = search_cuts(D, mults, budget=4000)
    assert cuts is not None
    cert = prove_empty(D, mults, cuts)
    assert isinstance(cert, EmptinessCertificate)
    assert verify_certificate(D, mults, cert)[0]
