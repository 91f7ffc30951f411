"""Answer checks for benchmark operations.

Each check raises Mismatch with a reason when an answer is wrong.  Closed
forms are used where the mathematics gives one; every other expected answer
comes from pinned.json, recorded once from the library and keyed by inputs
whose answer does not depend on the random coordinates a seed draws.
"""

from __future__ import annotations

import json
from fractions import Fraction
from math import comb

EXIT_CODES = (0, 1, 2, 3)


class Mismatch(Exception):
    """An operation broke the exit-code contract or gave a wrong answer."""


def cli_document(rc, stdout: str) -> dict:
    """The one JSON object a CLI call must print, with an allowed exit code."""
    if rc not in EXIT_CODES:
        raise Mismatch(f"exit code {rc!r} outside {EXIT_CODES}")
    try:
        doc = json.loads(stdout)
    except ValueError:
        raise Mismatch(f"stdout is not one JSON document: {stdout[:80]!r}")
    if not isinstance(doc, dict):
        raise Mismatch("stdout JSON is not an object")
    return doc


def expect_exit(rc, allowed) -> None:
    if rc not in allowed:
        raise Mismatch(f"exit code {rc}, expected one of {tuple(allowed)}")


def expect_fields(doc: dict, **want) -> None:
    for key, value in want.items():
        if doc.get(key) != value:
            raise Mismatch(f"{key} = {doc.get(key)!r}, expected {value!r}")


def chi(d: int, mults) -> int:
    """Expected dimension count C(d+2, 2) - sum C(m+1, 2)."""
    return comb(d + 2, 2) - sum(comb(m + 1, 2) for m in mults)


def fixed_line_h0(d: int, mults) -> int:
    """h0 of L(d; m1, m2, 1^k) at general points when m1 + m2 > d.

    The line through the first two points splits off t = m1 + m2 - d
    times; the residual L(d - t; m1 - t, m2 - t, 1^k) has two fat points
    with (m1 - t) + (m2 - t) = d - t, so it is nonspecial, and general
    simple points impose independent conditions on it.
    """
    m1, m2, rest = mults[0], mults[1], mults[2:]
    assert all(m == 1 for m in rest) and m1 <= d and m2 <= d
    t = m1 + m2 - d
    return max(0, chi(d - t, (m1 - t, m2 - t) + tuple(rest)))


def expect_cohomology(doc: dict, d: int, mults, h0: int) -> None:
    c = chi(d, mults)
    expect_fields(doc, degree=d, mults=list(mults), h0=h0, h1=h0 - c, chi=c)


# ---------------------------------------------------------------------------
# certificates and nonemptiness witnesses


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


def _jets(m: int):
    return [(a, b) for a in range(m) for b in range(m - a)]


def expect_witness(doc: dict, points, m: int) -> None:
    """Check a nonemptiness witness for the single piece `points`, mult m.

    A section is a nonzero combination of the monomials x^a y^b, (a, b) in
    the piece, whose jets of order < m vanish at (1, 1); a dual witness is
    a nonzero combination of those jet functionals vanishing on every
    monomial of the piece.  Both are recomputed here from the exponents.
    """
    w = doc.get("witness")
    if not isinstance(w, dict):
        raise Mismatch("exit 2 without a witness")
    coeffs = [Fraction(*c) if isinstance(c, list) else Fraction(c)
              for c in w["coeffs"]]
    support = [tuple(p) for p in w["support"]]
    if not any(coeffs) or len(coeffs) != len(support):
        raise Mismatch("witness is zero or malformed")
    pts = sorted(set(map(tuple, points)))
    jets = _jets(m)
    if w["kind"] == "section":
        if not set(support) <= set(pts):
            raise Mismatch("section support leaves the piece")
        for al, be in jets:
            if sum(c * _falling(a, al) * _falling(b, be)
                   for c, (a, b) in zip(coeffs, support)):
                raise Mismatch("section does not vanish to order m")
    elif w["kind"] == "dual":
        if sorted(support) != sorted(jets):
            raise Mismatch("dual witness is not indexed by the jets")
        for a, b in pts:
            if sum(c * _falling(a, al) * _falling(b, be)
                   for c, (al, be) in zip(coeffs, support)):
                raise Mismatch("dual witness does not vanish on the piece")
    else:
        raise Mismatch(f"unknown witness kind {w['kind']!r}")


def expect_certificate_for(path, points, mults) -> None:
    """The certificate at `path` must be for the problem the benchmark
    asked: `verify` checks a certificate only against the problem stored
    inside it, so a wrongly parsed or wrongly built problem would pass."""
    with open(path) as fh:
        problem = json.load(fh).get("problem")
    want = {"points": [list(p) for p in sorted(set(map(tuple, points)))],
            "mults": list(mults)}
    if problem != want:
        raise Mismatch("certificate is for another problem than the one "
                       "asked")


def expect_empty_answer(rc: int, doc: dict, points, mults) -> None:
    """Exit 0 must name a certificate (checked by the verify that follows);
    exit 2 needs a positive expected dimension or a checked witness; exit 3
    is an undecided search and is counted, not failed."""
    expect_exit(rc, (0, 2, 3))
    if rc == 0:
        expect_fields(doc, certified=True, pieces=len(mults))
    elif rc == 2:
        edim = len(set(map(tuple, points))) - sum(comb(m + 1, 2)
                                                  for m in mults)
        if doc.get("expected_dimension") is not None:
            if doc["expected_dimension"] != edim or edim <= 0:
                raise Mismatch("refutation without positive expected "
                               "dimension")
        elif len(mults) == 1:
            expect_witness(doc, points, mults[0])
        else:
            raise Mismatch("multi-piece refutation carries no checkable "
                           "witness")
