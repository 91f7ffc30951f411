"""Seeded operation mixes of the four workloads.

A round is one pass over a workload's fixed list of operation templates.
Each round draws fresh inputs (points, supports, variable orders, CLI
seeds) from random.Random(workload, seed, round), chosen so that the cost
of a round stays the same from seed to seed.  Round generators receive
each outcome back, so a `verify` follows only a certificate that was
written.

The `*_baseline` generators are the ROADMAP W1-W5 reference runs and
`probe` the known-hard inputs; both run in traced runs only.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, lcm
from typing import Callable, Optional

from oracle import (Mismatch, chi, expect_certificate_for, expect_cohomology,
                    expect_empty_answer, expect_exit, expect_fields,
                    fixed_line_h0)


@dataclass
class Op:
    """One timed operation: a CLI argv, or a library call when no
    subcommand covers it.  `check` applies closed forms; `pin` names the
    pinned answer and `extract` maps the outcome to its JSON form."""

    kind: str
    argv: Optional[list] = None
    call: Optional[Callable] = None
    check: Optional[Callable] = None
    pin: Optional[str] = None
    extract: Optional[Callable] = None
    tag: str = ""


class Work:
    """Input and certificate files of one run, inside the checkout."""

    def __init__(self, root: str):
        self.root = root
        os.makedirs(root, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.root, name)

    def write(self, name: str, doc) -> str:
        path = self.path(name)
        with open(path, "w") as fh:
            json.dump(doc, fh)
        return path


def _cli(kind, argv, check=None, pin=None, extract=None, tag=""):
    return Op(kind, argv=[str(a) for a in argv], check=check, pin=pin,
              extract=extract, tag=tag)


def _mults_arg(mults) -> str:
    return ",".join(str(m) for m in mults)


# ---------------------------------------------------------------------------
# coordinates drawn by the benchmark itself


def _proj(coords):
    """Coprime integer homogeneous coordinates, first nonzero positive."""
    fr = [Fraction(c) for c in coords]
    den = lcm(*(f.denominator for f in fr))
    ints = [int(f * den) for f in fr]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    if next(x for x in ints if x) < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def random_points(rng, r):
    pts = []
    while len(pts) < r:
        p = _proj((Fraction(rng.randint(-999, 999), rng.randint(1, 9)),
                   Fraction(rng.randint(-999, 999), rng.randint(1, 9)), 1))
        if p not in pts:
            pts.append(p)
    return pts


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _det3(a, b, c):
    return sum(x * y for x, y in zip(a, _cross(b, c)))


def _system_doc(d, pts, mults):
    return {"degree": d, "mults": list(mults),
            "points": [[[c, 1] for c in p] for p in pts]}


# ---------------------------------------------------------------------------
# generic: mod-p settles the ranks; matrix building and rank_mod_p dominate

# `copies` repeats a template with fresh draws.  Several like-sized
# operations at the median and at the third quartile keep those quantiles
# inside one group instead of in the gap between two sizes.

NONSPECIAL = (  # (d, mults, trials, copies): r >= 9 and m/d < 1/3, so
    # h0 = max(0, chi)
    (13, (5,) + (4,) * 9, 2, 1),
    (16, (5,) * 9 + (4,), 2, 7),
    (19, (6,) * 10, 2, 5),
    (22, (7,) * 10, 2, 1),
    (25, (8,) * 10, 1, 1),
    (28, (9,) + (8,) * 10, 1, 1),
)
SCANS = (  # (subcommand, config, param, m or k)
    ("alpha", "star", 5, 2),
    ("alpha", "star", 6, 2),
    ("alpha", "random", 11, 3),
    ("alpha", "collinear", 7, 3),
    ("waldschmidt", "star", 5, 2),
    ("waldschmidt", "random", 9, 2),
    ("waldschmidt", "collinear", 6, 2),
)
SEMI = ((6, (2,) * 10), (7, (2,) * 12), (8, (3,) * 10))
PELL = (13, (5,) + (4,) * 9)


def _semi_json(res):
    def frac(f):
        return [f.numerator, f.denominator]
    return {"status": res.status,
            "witness": list(res.witness) if res.witness else None,
            "alpha_s": res.alpha_s, "s": res.s,
            "sandwich": [frac(f) for f in res.sandwich]
            if res.sandwich else None}


def _semi_op(lib, rng, d, mults, tag=""):
    pts = random_points(rng, len(mults))
    cls = lib.fatpoints.PlaneDivisorClass(d, mults)
    return Op("semi_effectivity", tag=tag,
              call=lambda: lib.fatpoints.semi_effectivity_status(cls, pts, 1),
              pin=f"semi {d} {_mults_arg(mults)} k=1",
              extract=lambda rc, res: _semi_json(res))


def _scan_extract(cmd):
    if cmd == "alpha":
        return lambda rc, doc: doc["alpha"]
    return lambda rc, doc: {k: doc[k] for k in ("lower", "upper",
                                                 "chudnovsky")}


def generic_round(lib, rng, work, rnd):
    ops = []
    for d, mults, trials, copies in NONSPECIAL:
        ops += [_cli(
            "cohomology.nonspecial",
            ["cohomology", "--degree", d, "--mults", _mults_arg(mults),
             "--trials", trials, "--seed", rng.randrange(10**9)],
            check=lambda rc, doc, d=d, m=mults: expect_cohomology(
                doc, d, m, max(0, chi(d, m)))) for _ in range(copies)]
    for cmd, config, param, m in SCANS:
        flag = "--m" if cmd == "alpha" else "--k"
        ops.append(_cli(
            f"{cmd}.scan",
            [cmd, "--config", config, "--param", param, flag, m,
             "--seed", rng.randrange(10**9)],
            pin=f"{cmd} {config} {param} {flag[2:]}={m}",
            extract=_scan_extract(cmd)))
    for d, mults in SEMI:
        ops.append(_semi_op(lib, rng, d, mults))
    rng.shuffle(ops)
    for op in ops:
        yield op


def generic_baseline(lib, rng, work):
    d, mults = 39, (15,) + (12,) * 9
    yield _cli("cohomology.nonspecial",
               ["cohomology", "--degree", d, "--mults", _mults_arg(mults)],
               check=lambda rc, doc: expect_cohomology(doc, d, mults, 0),
               tag="W1")
    yield _semi_op(lib, rng, *PELL, tag="W4")


# ---------------------------------------------------------------------------
# special: every rank drops, so Bareiss does the work.  Bareiss time follows
# the coordinates' size closely, so points are integers of three digits and
# the pencil is one fixed pencil under a fresh symmetry each round.

FIXED_LINE = (  # (d, mults, copies): m1 + m2 > d, so the line through
    (9, (6, 5, 1, 1), 1),  # the first two points is a fixed component
    (10, (6, 6, 1, 1, 1), 1), (11, (7, 6, 1, 1, 1), 1),
    (12, (8, 6, 1, 1, 1), 1), (13, (8, 7, 1, 1, 1), 6),
    (14, (9, 8, 1, 1, 1), 1), (15, (9, 9, 1, 1, 1, 1), 4),
    (16, (10, 9, 1, 1, 1), 1),
)
# two triples of lines, no three of the six concurrent; their nine
# intersections are the base points of a pencil of cubics
PENCIL_LINES = ((2, -1, 3), (8, 2, -7), (3, -1, 1),
                (5, 0, 1), (9, 6, 7), (3, -5, 8))
PENCIL = [_proj(_cross(a, b)) for a in PENCIL_LINES[:3]
          for b in PENCIL_LINES[3:]]


def integer_points(rng, r):
    """r affine points with three-digit integer coordinates, no three on a
    line, so the closed-form answers for general points apply."""
    pts = []
    while len(pts) < r:
        p = (rng.choice((-1, 1)) * rng.randint(100, 999),
             rng.choice((-1, 1)) * rng.randint(100, 999), 1)
        if p in pts or any(_det3(a, b, p) == 0 for i, a in enumerate(pts)
                           for b in pts[i + 1:]):
            continue
        pts.append(p)
    return pts


def symmetric_image(rng, pts):
    """The points under a random sign change and swap of x and y, in a
    random order: a projective image with entries of the same size."""
    sx, sy = rng.choice((-1, 1)), rng.choice((-1, 1))
    out = [(sx * x, sy * y, z) for x, y, z in pts]
    if rng.random() < 0.5:
        out = [(y, x, z) for x, y, z in out]
    rng.shuffle(out)
    return [_proj(p) for p in out]


def _system_op(work, kind, name, d, pts, mults, h0, tag=""):
    path = work.write(f"{name}.json", _system_doc(d, pts, mults))
    return _cli(kind, ["cohomology", "--system", path], tag=tag,
                check=lambda rc, doc: expect_cohomology(doc, d, mults, h0))


def special_round(lib, rng, work, rnd):
    ops = [_system_op(work, "cohomology.pencil", f"pencil-{rnd}-{n}", 3 * n,
                      symmetric_image(rng, PENCIL), (n,) * 9, n + 1)
           for n in (2, 3, 4)]
    for n in (1, 2, 3):
        d, mults = 4 * n, (2 * n,) * 5
        ops.append(_system_op(work, "cohomology.double_conic",
                              f"conic-{rnd}-{n}", d, integer_points(rng, 5),
                              mults, 1))
    for d, mults, copies in FIXED_LINE:
        ops += [_system_op(work, "cohomology.fixed_line",
                           f"line-{rnd}-{d}-{c}", d,
                           integer_points(rng, len(mults)), mults,
                           fixed_line_h0(d, mults)) for c in range(copies)]
    rng.shuffle(ops)
    for op in ops:
        yield op


def special_baseline(lib, rng, work):
    # W2 as the ROADMAP measured it: the pencil_products k=3 points, seed 11
    pts = lib.fatpoints.make_config("pencil_products", {"k": 3},
                                    seed=11).points
    yield _system_op(work, "cohomology.pencil", "W2", 15, pts, (5,) * 9, 6,
                     tag="W2")


# ---------------------------------------------------------------------------
# certify: Fraction cuts, the cut search, determinants, lifts, JSON codec

PAPER_N = (2, 6, 7, 15)
SEARCH = (  # (degree, mults): chi <= 0, degree <= 9; (4; 2^5) is nonempty
    (5, (2,) * 7),
    (6, (2,) * 10),
    (8, (3,) * 8),
    (4, (2,) * 5),
)
# (m, deficit): |D| = C(m+1, 2) - deficit; deficit 0 gives determinant
# evidence, a positive deficit a choice of independent rows
PIECES = ((9, 0), (9, 2), (12, 0), (12, 1), (12, 2), (12, 3))


def _triangle(d):
    return [(x, y) for x in range(d + 1) for y in range(d + 1 - x)]


def _paper(n):
    half = Fraction(1, 2)
    cuts = ((-1, -1, 5 * n - half), (1, 0, -9 * n - half),
            (0, 1, -9 * n - half), (1, -1, -5 * n - half),
            (-1, 1, -5 * n - half), (3, -1, -15 * n - half),
            (-3, 1, 3 * n - half),
            (2 * n + 1, -2 * n, -2 * n * n - 5 * n - half),
            (1, 3, -21 * n + half))
    return 13 * n, (5 * n,) + (4 * n,) * 9, cuts


def _verify_op(path, points, mults, tag=""):
    return _cli("verify", ["verify", path],
                check=lambda rc, doc: (
                    expect_exit(rc, (0,)), expect_fields(doc, verified=True),
                    expect_certificate_for(path, points, mults)),
                tag=tag)


def _paper_ops(work, n, tag=""):
    d, mults, _ = _paper(n)
    cert = work.path(f"paper-{n}.cert.json")
    out = yield _cli(
        "empty.paper",
        ["empty", "--family", "paper", "--n", n, "--certificate", cert],
        check=lambda rc, doc: (expect_exit(rc, (0,)), expect_fields(
            doc, certified=True, pieces=len(mults))), tag=tag)
    if out.rc == 0:
        yield _verify_op(cert, _triangle(d), mults, tag)


def _problem_ops(work, kind, name, points, mults, cuts=None, tag=""):
    doc = {"points": [list(p) for p in points], "mults": list(mults)}
    if cuts is not None:
        doc["cuts"] = cuts
    problem = work.write(f"{name}.json", doc)
    cert = work.path(f"{name}.cert.json")
    argv = ["empty", "--problem", problem, "--certificate", cert]
    out = yield _cli(kind, argv, tag=tag, check=lambda rc, d: (
        expect_empty_answer(rc, d, points, mults)))
    if out.rc == 0:
        yield _verify_op(cert, points, mults, tag)


def _split_chain(lib, n, tag=""):
    """The lifts of paper_family(n), one split_lift per cut; each lift's
    primary cells must equal the successive cut pieces."""
    d, _, cuts = _paper(n)
    D = frozenset(_triangle(d))
    residual, pieces = set(D), []
    for a, b, c in cuts:
        plus = {p for p in residual if a * p[0] + b * p[1] + c > 0}
        pieces.append(frozenset(plus))
        residual -= plus
    state = {"lift": None}
    for k, (a, b, c) in enumerate(cuts):
        cut = lib.lattice.CutFunctional(a, b, c)

        def call(cut=cut):
            state["lift"] = lib.toric.split_lift(D, cut, state["lift"])
            return state["lift"]

        def check(rc, lift, k=k):
            want = pieces[:k + 1]
            if list(lift.primary) != want or (
                    k == len(cuts) - 1 and lift.active != residual):
                raise Mismatch("lift cells differ from the cut pieces")

        out = yield Op("split_lift", call=call, check=check, tag=tag)
        if out.failed:
            return


def certify_round(lib, rng, work, rnd):
    """Paper family, cut search and the lifts are fixed inputs: translating
    them reorders the candidate cuts and changes the work, so the seed only
    draws the single-piece supports."""
    for n in PAPER_N:
        yield from _paper_ops(work, n)
    for d, mults in SEARCH:
        yield from _problem_ops(work, "empty.search", f"search-{rnd}-{d}",
                                _triangle(d), mults)
    for m, deficit in PIECES:
        size, box = comb(m + 1, 2) - deficit, m + 4
        pts = set()
        while len(pts) < size:
            pts.add((rng.randrange(box), rng.randrange(box)))
        yield from _problem_ops(work, "empty.piece",
                                f"piece-{rnd}-{m}-{deficit}", sorted(pts),
                                (m,), cuts=[])
    yield from _split_chain(lib, 1)


def certify_baseline(lib, rng, work):
    d, mults, _ = _paper(1)
    yield from _problem_ops(work, "empty.search", "W3", _triangle(d), mults,
                            tag="W3")
    for n in range(1, 11):
        yield from _paper_ops(work, n, tag="W5")


# ---------------------------------------------------------------------------
# algebra: symbolic powers, multiplier ideals, arrangements, incidences

IDEALS = {
    "tri": [(1, 1, 0), (1, 0, 1), (0, 1, 1)],
    "p3": [(1, 1, 0), (0, 1, 1)],
    "xy_z": [(1, 1, 0), (0, 0, 1)],
    "c4": [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)],
    "p4": [(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)],
    "t4": [(1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1)],
    "c5": [(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0),
           (0, 0, 0, 1, 1), (1, 0, 0, 0, 1)],
}
SUITES = (("tri", 1), ("tri", 2), ("p3", 3), ("xy_z", 3))
MULTIPLIERS = (("tri", "2"), ("tri", "1/2"), ("p3", "5/2"), ("xy_z", "2"))
POWERS = (  # (ideal, m, ordinary, copies)
    ("c5", 3, False, 5), ("c5", 4, False, 1), ("c4", 4, True, 1),
    ("t4", 3, False, 1), ("p4", 4, False, 1))
OT_COUNTS = ((5, 5), (6, 1), (7, 3), (8, 1))  # (lines, copies)
OT_DIVISORS = (6, 8)
PG_Q = (2, 3, 5, 7)


def _ideal_file(work, rng, name, tag):
    gens = IDEALS[name]
    n = len(gens[0])
    perm = list(range(n))
    rng.shuffle(perm)
    doc = {"vars": [f"x{i}" for i in range(n)],
           "gens": [list(g) for g in sorted(_permute(gens, perm))]}
    return work.write(f"ideal-{tag}.json", doc), perm


def _permute(gens, perm):
    out = []
    for g in gens:
        h = [0] * len(g)
        for i, e in enumerate(g):
            h[perm[i]] = e
        out.append(tuple(h))
    return out


def _canonical(gens, perm):
    """Generators mapped back to the unpermuted variable order."""
    inv = [0] * len(perm)
    for i, p in enumerate(perm):
        inv[p] = i
    return sorted(list(g) for g in _permute(gens, inv))


def _check_suite(rc, doc):
    expect_exit(rc, (0,))
    if not (doc["els"] and all(doc["chain"].values())):
        raise Mismatch("ELS containment chain does not hold")


def _suite_op(work, rng, name, r, file_tag, tag=""):
    path, _ = _ideal_file(work, rng, name, file_tag)
    return _cli("symbolic.suite",
                ["symbolic", "suite", "--ideal", path, "--r", r],
                check=_check_suite, pin=f"suite {name} r={r}", tag=tag,
                extract=lambda rc, doc: {k: doc[k] for k in (
                    "els", "harbourne", "hh1", "hh2", "hh3", "hh4", "chain")})


def algebra_round(lib, rng, work, rnd):
    ops = [_suite_op(work, rng, name, r, f"{rnd}-suite-{name}-{r}")
           for name, r in SUITES]
    for name, t in MULTIPLIERS:
        path, perm = _ideal_file(work, rng, name,
                                 f"{rnd}-mult-{name}-{t.replace('/', '_')}")
        ops.append(_cli(
            "symbolic.multiplier",
            ["symbolic", "multiplier", "--ideal", path, "--t", t],
            pin=f"multiplier {name} t={t}",
            extract=lambda rc, doc, perm=perm: [rc, _canonical(
                doc["multiplier"]["gens"], perm) if rc == 0 else None]))
    for name, m, ordinary, copies in POWERS:
        for c in range(copies):
            path, perm = _ideal_file(work, rng, name,
                                     f"{rnd}-power-{name}-{m}-{c}")
            argv = ["symbolic", "power", "--ideal", path, "--m", m]
            ops.append(_cli(
                "symbolic.power", argv + (["--ordinary"] if ordinary else []),
                pin=f"power {name} m={m}{' ordinary' if ordinary else ''}",
                extract=lambda rc, doc, perm=perm: _canonical(
                    doc["power"]["gens"], perm)))
    for s, copies in OT_COUNTS:
        ops += [_cli(
            "ot.counts", ["ot", "counts", "--generic", s,
                          "--seed", rng.randrange(10**9)],
            check=lambda rc, doc, s=s: _check_generic_counts(doc, s),
            pin=f"ot counts generic {s}",
            extract=lambda rc, doc: {k: doc[k] for k in (
                "min_gens_by_degree", "linear_syzygies")})
            for _ in range(copies)]
    ops.append(_cli("ot.counts", ["ot", "counts", "--m8"],
                    pin="ot counts m8",
                    extract=lambda rc, doc: {k: v for k, v in doc.items()
                                             if k not in ("command",
                                                          "version", "seed")}))
    for s in OT_DIVISORS:
        ops.append(_cli(
            "ot.divisor", ["ot", "divisor", "--generic", s,
                           "--seed", rng.randrange(10**9)],
            check=lambda rc, doc, s=s: expect_fields(
                doc, lines=s, degree=s - 1, mults=[1] * comb(s, 2),
                line_pairings=[0] * s, exceptional_pairings=[1] * comb(s, 2),
                nef_partial=True)))
    for q in PG_Q:
        npts = q * q + q + 1
        ops.append(_cli(
            "negativity.pg", ["negativity", "--config", "pg", "--q", q],
            check=lambda rc, doc, q=q, npts=npts: expect_fields(
                doc, config="projective_plane", points=npts, lines=npts,
                c_squared=-q * npts, ratio=-q)))
    rng.shuffle(ops)
    for op in ops:
        yield op


def _check_generic_counts(doc, s):
    expect_fields(doc, lines=s, circuits={"size3": 0, "size4": comb(s, 4)})
    sing = doc["singular_points"]
    if len(sing) != comb(s, 2) or any(t != 2 for _, t in sing):
        raise Mismatch("generic arrangement needs C(s,2) double points")


def algebra_baseline(lib, rng, work):
    yield _suite_op(work, rng, "tri", 3, "suite_r3", tag="suite_r3")


# ---------------------------------------------------------------------------
# registry


WORKLOADS = {
    "generic": (generic_round, generic_baseline),
    "special": (special_round, special_baseline),
    "certify": (certify_round, certify_baseline),
    "algebra": (algebra_round, algebra_baseline),
}

def probe(workload, work):
    """(name, argv) of the workload's known-hard input, or None.

    Probes run once per traced run in a child process and are reported
    with time and exit code, never as part of the timed mix.
    """
    if workload == "special":
        return "bareiss_16_8x5", ["cohomology", "--degree", "16",
                                  "--mults", "8,8,8,8,8"]
    if workload == "certify":
        d, mults, _ = _paper(2)
        problem = work.write("probe-paper2.json",
                             {"degree": d, "mults": list(mults)})
        return "search_paper2", [
            "empty", "--problem", problem, "--budget", "200",
            "--certificate", work.path("probe-paper2.cert.json")]
    return None


def warmup_ops(lib, work):
    """Tiny calls through the main code paths, so that the first timed
    operation does not pay for first use."""
    yield _cli("warmup", ["cohomology", "--degree", 4, "--mults", "2,2,2,2,2"],
               check=lambda rc, doc: expect_cohomology(
                   doc, 4, (2,) * 5, 1))
    yield from _paper_ops(work, 1)
    yield _cli("warmup", ["ot", "counts", "--generic", 5],
               check=lambda rc, doc: _check_generic_counts(doc, 5))


def round_rng(workload, seed, rnd):
    return random.Random(f"{workload}:{seed}:{rnd}")
