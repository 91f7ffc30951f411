"""Emptiness prover for monomial linear series with one fat point per piece.

A set D of lattice points spans a linear series on the affine plane.  A fat
point of multiplicity m imposes the jet conditions indexed by a staircase E.
The series is empty iff the falling-factorial interpolation matrix has full
column rank; cutting D into pieces by lines that miss its lattice points
reduces emptiness of L(D; m_1..m_r) to one-point emptiness per piece.
Certificates carry enough evidence to re-verify every step from scratch.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt
from typing import Dict, List, Optional, Sequence, Tuple, Union

try:  # as in the random module: hashlib loads OpenSSL, ~3.5 MB resident
    from _sha256 import sha256
except ImportError:  # not built, or renamed (Python >= 3.12)
    from hashlib import sha256

from . import _linalg
from .lattice import (CutFunctional, halfplane_partition, jet_conditions,
                      json_fraction, json_int, json_ints, triangle_set,
                      triangle_staircase)


# ---------------------------------------------------------------------------
# interpolation matrices and generic dimension


@dataclass(frozen=True)
class InterpolationProblem:
    D: frozenset
    E: frozenset

    def __post_init__(self):
        object.__setattr__(self, "D", frozenset(self.D))
        object.__setattr__(self, "E", frozenset(self.E))


def interp_matrix(prob: InterpolationProblem) -> List[List[int]]:
    """Rows (alpha, beta) in E, columns (a, b) in D, both lex sorted.

    Entry = value of d^alpha_x d^beta_y x^a y^b at (1, 1), a Python int:
    `lattice.jet_conditions` at (1:1:1).  Nonsingularity certifies that a
    generic fat point imposes independent conditions on the monomial span
    of D.
    """
    cols = [(a, b, 0) for a, b in sorted(prob.D)]
    return jet_conditions(cols, [((1, 1, 1), sorted(prob.E))]).tolist()


def _staircase_jet(m: int, i: int) -> Tuple[int, int]:
    """The i-th jet of triangle_staircase(m) in lex order.

    Jet (alpha, beta) comes after the m - k jets with first entry k, for
    every k < alpha: alpha m - alpha (alpha - 1) / 2 of them.
    """
    def before(al):
        return al * m - al * (al - 1) // 2

    al = (2 * m + 1 - isqrt((2 * m + 1) ** 2 - 8 * i)) // 2
    while before(al) > i:
        al -= 1
    while before(al + 1) <= i:
        al += 1
    return al, i - before(al)


@dataclass(frozen=True)
class Witness:
    """Either a nonzero section (coefficients on D) annihilated by all jet
    conditions, or a dual polynomial (coefficients on E in the
    falling-factorial basis) vanishing on all of D."""

    kind: str  # "section" | "dual"
    support: Tuple[Tuple[int, int], ...]
    coeffs: Tuple[Fraction, ...]


@dataclass(frozen=True)
class GenericDimReport:
    dim: int  # projective dimension, -1 when empty
    empty: bool
    witness: Optional[Witness]


def generic_dim(prob: InterpolationProblem) -> GenericDimReport:
    """Projective dimension of the series cut out by the jets of E on D.

    dim = |D| - 1 - rank.  Nonempty reports carry a section witness from the
    column kernel; a square singular problem also admits a dual polynomial
    from the row kernel, returned instead and checked to vanish on D.
    """
    mat = interp_matrix(prob)
    ker = _linalg.nullspace(mat, ncols=len(prob.D))
    if not ker:
        return GenericDimReport(dim=-1, empty=True, witness=None)
    if len(prob.D) == len(prob.E):  # checked below as w M = 0
        mat = [list(col) for col in zip(*mat)]
        w = Witness("dual", tuple(sorted(prob.E)),
                    tuple(_linalg.nullspace(mat)[0]))
    else:  # checked below as M v = 0
        w = Witness("section", tuple(sorted(prob.D)), tuple(ker[0]))
    assert any(w.coeffs) and all(
        sum(e * c for e, c in zip(row, w.coeffs)) == 0 for row in mat)
    return GenericDimReport(dim=len(ker) - 1, empty=False, witness=w)


# ---------------------------------------------------------------------------
# Fact 3: parallel-line certificates


@dataclass(frozen=True)
class LineAssignment:
    """Lines labelled 1..m in one axis direction; the line labelled k may
    carry at most k points of the piece."""

    direction: str  # "horizontal" | "vertical"
    assignment: Tuple[Tuple[int, int], ...]  # (line coordinate, label)


def fact3_certificate(D, m: int, direction: str) -> Optional[LineAssignment]:
    """Greedy assignment of axis-parallel lines to labels, if one exists.

    Grouping D by the line coordinate gives counts c_1 <= ... <= c_t; an
    assignment exists iff t <= m and c_i <= m - t + i, in which case the
    largest count takes label m, the next m-1, and so on.
    """
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    if direction not in ("horizontal", "vertical"):
        raise ValueError("direction must be horizontal or vertical")
    coord = 1 if direction == "horizontal" else 0
    counts: Dict[int, int] = {}
    for p in D:
        counts[p[coord]] = counts.get(p[coord], 0) + 1
    t = len(counts)
    if t > m:
        return None
    groups = sorted(counts.items(), key=lambda kv: (kv[1], kv[0]))
    for i, (_, c) in enumerate(groups, start=1):
        if c > m - t + i:
            return None
    assignment = tuple(
        (line, m - t + i) for i, (line, _) in enumerate(groups, start=1)
    )
    return LineAssignment(direction, assignment)


def check_line_assignment(D, m: int, la: LineAssignment) -> bool:
    """Direct re-verification of the Fact 3 hypothesis, search-free."""
    if la.direction not in ("horizontal", "vertical"):
        return False
    coord = 1 if la.direction == "horizontal" else 0
    labels = [k for _, k in la.assignment]
    if len(labels) != len(set(labels)) or len(labels) > m:
        return False
    if any(not 1 <= k <= m for k in labels):
        return False
    cap = dict(la.assignment)
    if len(cap) != len(la.assignment):
        return False
    used: Dict[int, int] = {}
    for p in D:
        line = p[coord]
        if line not in cap:
            return False
        used[line] = used.get(line, 0) + 1
        if used[line] > cap[line]:
            return False
    return True


# ---------------------------------------------------------------------------
# Fact 1: reduction by cuts


def reduce_partition(D, cuts: Sequence[CutFunctional]):
    """Successive positive parts: piece j is the positive side of cut j
    within what is left, and the final piece is the remainder.  Every cut
    must be nonzero on every point it sees."""
    residual = frozenset(D)
    pieces = []
    for cut in cuts:
        plus, minus = halfplane_partition(residual, cut)
        pieces.append(plus)
        residual = minus
    pieces.append(residual)
    return pieces


# ---------------------------------------------------------------------------
# certificates


@dataclass(frozen=True)
class FullRank:
    rank: int
    rows: Tuple[int, ...]  # indices into the sorted staircase


PieceEvidence = Union[LineAssignment, FullRank]


@dataclass(frozen=True)
class Piece:
    points: frozenset
    mult: int
    evidence: PieceEvidence


@dataclass(frozen=True)
class EmptinessCertificate:
    cuts: Tuple[CutFunctional, ...]
    pieces: Tuple[Piece, ...]


@dataclass(frozen=True)
class Failure:
    piece_index: int
    reason: str
    witness: Optional[Witness] = None


def _certify_piece(points, m: int) -> Union[PieceEvidence, str]:
    """Evidence that the piece is empty for a fat point of multiplicity m.

    A Fact 3 line assignment if one exists, else the rows of the jet
    matrix that `independent_rows` selects, which prove full column rank
    when there is one per point.  A square piece needs no other evidence:
    all its rows are selected exactly when its determinant is nonzero.
    Returns the reason as a string when there is none; the search calls
    this on every attempt, so the nonemptiness witness is left to the one
    failure `prove_empty` reports.
    """
    for direction in ("horizontal", "vertical"):
        la = fact3_certificate(points, m, direction)
        if la is not None:
            return la
    E = triangle_staircase(m)
    if len(points) > len(E):
        return "piece larger than the jet count"
    sel = _linalg.independent_rows(
        interp_matrix(InterpolationProblem(frozenset(points), E)))
    if len(sel) == len(points):
        return FullRank(len(points), tuple(sel))
    return "rank below piece size"


def prove_empty(D, mults: Sequence[int],
                cuts: Sequence[CutFunctional]
                ) -> Union[EmptinessCertificate, Failure]:
    """Certify L(D; m_1..m_r) empty by cutting and one-point certificates.

    Pieces come from reduce_partition; piece i must be empty for the fat
    point m_i (Fact 3 line assignment, then a full-rank row selection).
    The first uncertifiable piece aborts with its index and, when
    available, an explicit nonemptiness witness.
    """
    pieces = reduce_partition(D, cuts)
    if len(pieces) != len(mults):
        raise ValueError("need exactly one multiplicity per piece")
    out = []
    for idx, (pts, m) in enumerate(zip(pieces, mults)):
        ev = _certify_piece(pts, m)
        if isinstance(ev, str):
            rep = generic_dim(InterpolationProblem(frozenset(pts),
                                                   triangle_staircase(m)))
            return Failure(idx, ev, rep.witness)
        out.append(Piece(frozenset(pts), m, ev))
    return EmptinessCertificate(tuple(cuts), tuple(out))


def verify_certificate(D, mults: Sequence[int],
                       cert: EmptinessCertificate):
    """Re-verify a certificate from scratch; no state from the search.

    Checks the partition, the multiplicity list, and every piece's evidence
    by direct recomputation; sizes and row indices are compared with the
    jet count before any matrix is built.  A `full_rank` selection with a
    jet of order alpha + beta >= |piece| is rejected unless its row vanishes
    on the piece (then the rows are singular).  The prover's greedy lex
    selection is an order ideal of the staircase, so with (alpha, beta) it
    holds the (alpha + 1)(beta + 1) jets below it and never meets the
    bound; the bound keeps every falling factorial shorter than the piece.
    Returns (True, None) or (False, detail) where detail carries the
    failing piece index when one exists.
    """
    try:
        pieces = reduce_partition(D, cert.cuts)
    except ValueError as exc:
        return False, {"piece": None, "reason": str(exc)}
    if len(pieces) != len(cert.pieces) or len(pieces) != len(mults):
        return False, {"piece": None, "reason": "piece count mismatch"}
    for idx, (pts, piece, m) in enumerate(zip(pieces, cert.pieces, mults)):
        if piece.mult != m:
            return False, {"piece": idx, "reason": "multiplicity mismatch"}
        if frozenset(pts) != frozenset(piece.points):
            return False, {"piece": idx, "reason": "piece content mismatch"}
        if m < 0:
            return False, {"piece": idx, "reason": "negative multiplicity"}
        ev = piece.evidence
        jets = comb(m + 1, 2)  # |triangle_staircase(m)|, unbuilt
        if isinstance(ev, LineAssignment):
            if not check_line_assignment(pts, m, ev):
                return False, {"piece": idx, "reason": "line assignment invalid"}
        elif isinstance(ev, FullRank):
            if ev.rank != len(pts) or len(ev.rows) != len(pts):
                return False, {"piece": idx, "reason": "rank evidence malformed"}
            if len(set(ev.rows)) != len(ev.rows):
                return False, {"piece": idx, "reason": "duplicate rows"}
            if any(not 0 <= i < jets for i in ev.rows):
                return False, {"piece": idx, "reason": "row index out of range"}
            sub = {_staircase_jet(m, i) for i in ev.rows}
            # falling(x, al) falling(y, be) = 0 iff 0 <= x < al or 0 <= y < be
            if any(all(0 <= x < al or 0 <= y < be for x, y in pts)
                   for al, be in sub):
                return False, {"piece": idx, "reason": "selected rows singular"}
            if any(al + be >= len(pts) for al, be in sub):
                return False, {"piece": idx,
                               "reason": "jet order not below piece size"}
            if _linalg.rank_exact(
                    interp_matrix(InterpolationProblem(pts, sub))) < len(pts):
                return False, {"piece": idx, "reason": "selected rows singular"}
        else:
            return False, {"piece": idx, "reason": "unknown evidence type"}
    return True, None


# ---------------------------------------------------------------------------
# JSON encoding with a content digest

# The document version; there is no reader for any other.  The digest
# covers the payload only: a changed format is rejected by itself.
FORMAT = 2


def _evidence_to_json(ev: PieceEvidence) -> dict:
    if isinstance(ev, LineAssignment):
        return {"type": "line_assignment", "direction": ev.direction,
                "assignment": [[c, k] for c, k in ev.assignment]}
    if isinstance(ev, FullRank):
        return {"type": "full_rank", "rank": ev.rank,
                "rows": list(ev.rows)}
    raise TypeError(f"unknown evidence {ev!r}")


def _evidence_from_json(doc: dict) -> PieceEvidence:
    t = doc["type"]
    if t == "line_assignment":
        return LineAssignment(doc["direction"], tuple(
            (json_int(c), json_int(k)) for c, k in doc["assignment"]))
    if t == "full_rank":
        return FullRank(json_int(doc["rank"]), json_ints(doc["rows"]))
    raise ValueError(f"unknown evidence type {t!r}")


def _payload(D, mults, cert: EmptinessCertificate) -> dict:
    return {
        "problem": {
            "points": [list(p) for p in sorted(D)],
            "mults": list(mults),
        },
        "cuts": [[[x.numerator, x.denominator] for x in c.as_triple()]
                 for c in cert.cuts],
        "pieces": [
            {
                "points": [list(p) for p in sorted(piece.points)],
                "mult": piece.mult,
                "evidence": _evidence_to_json(piece.evidence),
            }
            for piece in cert.pieces
        ],
    }


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return sha256(blob.encode()).hexdigest()


def certificate_to_json(D, mults, cert: EmptinessCertificate) -> dict:
    payload = _payload(D, mults, cert)
    return {"format": FORMAT, **payload, "digest": _digest(payload)}


def cut_from_json(triple) -> CutFunctional:
    """A cut [[num, den], [num, den], [num, den]] as certificates store it.

    Raises ValueError on a zero denominator, a value that is not a JSON
    int, or a wrong number of values.
    """
    a, b, c = (json_fraction(pair) for pair in triple)
    return CutFunctional(a, b, c)


def points_from_json(points, seen=None) -> frozenset:
    """Lattice points stored as [x, y] lists of two ints, as a frozenset.

    Raises ValueError on anything else: the cuts and the jets read exactly
    two coordinates.  A point already in the dict `seen` reuses its tuple,
    and new ones are added to it."""
    seen = {} if seen is None else seen
    out = []
    for p in points:
        if not (isinstance(p, (list, tuple)) and len(p) == 2
                and type(p[0]) is int and type(p[1]) is int):
            raise ValueError(f"point {p!r} is not a pair of integers")
        t = (p[0], p[1])
        out.append(seen.setdefault(t, t))
    return frozenset(out)


def certificate_from_json(doc: dict):
    """(D, mults, certificate) from a JSON document; digest not checked."""
    seen = {}  # one tuple per point, shared by D and the pieces: less memory
    D = points_from_json(doc["problem"]["points"], seen)
    mults = json_ints(doc["problem"]["mults"])
    cuts = tuple(cut_from_json(triple) for triple in doc["cuts"])
    pieces = tuple(
        Piece(points_from_json(pd["points"], seen), json_int(pd["mult"]),
              _evidence_from_json(pd["evidence"]))
        for pd in doc["pieces"]
    )
    return D, mults, EmptinessCertificate(cuts, pieces)


def verify_certificate_json(doc: dict):
    """Full verification of an emitted document.

    A document whose `format` is missing or not FORMAT is unsupported.
    Then mathematics, so a broken piece is reported by index; the content
    digest is reported last and rejects edits that happen to leave a still
    valid proof (e.g. relabelling a line assignment with slack).  It is
    computed first, before the decoded points exist alongside the
    document, which keeps the peak memory of a large certificate down.
    """
    malformed = False, {"piece": None, "reason": "malformed document"}
    if not isinstance(doc, dict):
        return malformed
    try:
        if "format" not in doc or json_int(doc["format"]) != FORMAT:
            return False, {"piece": None,
                           "reason": "unsupported certificate format"}
        digest_ok = _digest({k: doc[k] for k in ("problem", "cuts",
                                                 "pieces")}) == doc["digest"]
        D, mults, cert = certificate_from_json(doc)
    except (KeyError, TypeError, ValueError, ZeroDivisionError, IndexError,
            RecursionError):  # the digest's json.dumps of a deep document
        return malformed
    ok, detail = verify_certificate(D, mults, cert)
    if not ok:
        return False, detail
    if not digest_ok:
        return False, {"piece": None, "reason": "digest mismatch"}
    return True, None


# ---------------------------------------------------------------------------
# the nine-cut family


def paper_family(n: int):
    """Triangle of degree 13n, multiplicities (5n, 4n x9), nine cuts.

    Thresholds carry the strict side as a half-integer offset so that no
    functional vanishes on a lattice point.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    half = Fraction(1, 2)
    D = triangle_set(13 * n)
    mults = (5 * n,) + (4 * n,) * 9
    cuts = (
        CutFunctional(-1, -1, 5 * n - half),
        CutFunctional(1, 0, -9 * n - half),
        CutFunctional(0, 1, -9 * n - half),
        CutFunctional(1, -1, -5 * n - half),
        CutFunctional(-1, 1, -5 * n - half),
        CutFunctional(3, -1, -15 * n - half),
        CutFunctional(-3, 1, 3 * n - half),
        CutFunctional(2 * n + 1, -2 * n, -2 * n * n - 5 * n - half),
        CutFunctional(1, 3, -21 * n + half),
    )
    return D, mults, cuts


# ---------------------------------------------------------------------------
# cut search


_SLOPES = tuple((a, b) for a in range(-3, 4) for b in range(-3, 4)
                if gcd(a, b) == 1)


def _candidate_cuts(D, target: int):
    """(key, ranked) for the cuts ax+by+c with small primitive slopes and
    half-integer thresholds strictly between consecutive attained values,
    whose positive part holds 1 to target points of D, sorted by the plain
    integers key = (target - k, a, b, 2c): the order the search tries.

    Per slope, D is sorted by a*x + b*y once: the positive part of the
    threshold 2c = -(lo + hi) between attained values lo < hi is the top
    run ranked[:k], so the walk down stops after target points.  Callers
    build parts and cuts only for what they try and return.
    """
    out = []
    for a, b in _SLOPES:
        ranked = sorted(D, key=lambda p: a * p[0] + b * p[1], reverse=True)
        for k in range(1, min(target + 1, len(ranked))):
            (x, y), (u, v) = ranked[k - 1], ranked[k]
            hi, lo = a * x + b * y, a * u + b * v
            if hi != lo:
                out.append(((target - k, a, b, -(lo + hi)), ranked))
    out.sort()  # keys are distinct, so no list is compared
    return out


class BudgetSpent(RuntimeError):
    """The cut search used its whole budget and found no cut list."""


def search_cuts(D, mults: Sequence[int], budget: int
                ) -> Optional[Tuple[CutFunctional, ...]]:
    """Depth-first search for a cut list certified piece by piece.

    budget (>= 0) bounds the number of piece-certification attempts; a
    piece met again counts as one but keeps its first verdict.  A branch
    keeps a cut only when its positive part is certified empty for the next
    multiplicity, so any returned list yields a valid certificate.  Returns
    None when every candidate failed within the budget, and raises
    BudgetSpent when the whole budget went without an answer.  Neither
    proves the system nonempty: the candidates are only small-slope cuts.
    Empty `mults` raise ValueError: every cut list leaves a piece.  So
    does a multiplicity below 1, as in `fact3_certificate`.
    """
    if not mults:
        raise ValueError("need exactly one multiplicity per piece")
    if min(mults) < 1:
        raise ValueError("multiplicity must be >= 1")
    if budget < 0:
        raise ValueError("budget must be >= 0")
    D = frozenset(D)
    attempts = [budget]
    seen = set()
    verdicts = {}  # (points, m) -> certified

    def attempt(points, m) -> bool:  # callers check the budget first
        attempts[0] -= 1
        if (points, m) not in verdicts:
            ev = _certify_piece(points, m)
            verdicts[points, m] = not isinstance(ev, str)
        return verdicts[points, m]

    def dfs(residual, idx) -> Optional[List[CutFunctional]]:
        if attempts[0] <= 0:
            return None
        key = (residual, idx)
        if key in seen:
            return None
        seen.add(key)
        if sum(comb(m + 1, 2) for m in mults[idx:]) < len(residual):
            return None  # no partition can absorb every monomial
        if idx == len(mults) - 1:
            return [] if attempt(residual, mults[idx]) else None
        target = comb(mults[idx] + 1, 2)
        for (short, a, b, c2), ranked in _candidate_cuts(residual, target):
            if attempts[0] <= 0:
                return None
            plus = frozenset(ranked[:target - short])
            if not attempt(plus, mults[idx]):
                continue
            rest = dfs(residual - plus, idx + 1)
            if rest is not None:
                return [CutFunctional(a, b, Fraction(c2, 2))] + rest
        return None

    got = dfs(D, 0)
    if got is not None:
        return tuple(got)
    if attempts[0] <= 0:
        raise BudgetSpent(f"no cut list found within {budget} attempts")
    return None
