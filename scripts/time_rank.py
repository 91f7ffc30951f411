#!/usr/bin/env python3
"""Time the modular rank elimination, the kernel proof and the determinant.

For each degree the conditions matrix of a fixed nonspecial class is built
at random rational points drawn from SEED, once mod CERT_PRIMES[0] and
once mod RANK_PRIME, and `rank_profile_mod_p` eliminates a fresh copy of
it --repeat times.  Next to it the same is done for the matrix that the rank
passes read, with three points moved to the coordinate vertices
(`fatpoints._vertex_conditions`): its shape, the columns the vertices
kill, its rank and its times.  The classes are those of the benchmark's
generic workload, and d = 39 is (39; 15, 12^9), whose reduced elimination
mod RANK_PRIME is the one that ROADMAP item 8 times.  Then
`generic_cohomology` runs --repeat times on each class, as the benchmark's
W1 does on d = 39.

For m in DET_MULTS, `det_exact` runs --repeat times on the square
interpolation matrix of a fat point of multiplicity m at C(m + 1, 2)
lattice points drawn from SEED in a box of side m + 4, as the benchmark's
certify workload draws its pieces: one rank pass on [B | I] per prime,
from RANK_PRIME down, until the primes pass twice the Hadamard bound.
Next to it, --repeat times, what such a piece costs a certificate:
`_certify_piece`, then `verify_certificate` of the one-piece certificate.

For n in CONIC_STEPS, `deficient_rank` runs --repeat times on the exact
conditions matrix of the double conic (4n; (2n)^5) at five random rational
points drawn from SEED, whose rank drops by one: one elimination mod
RANK_PRIME, then the p-adic kernel lift.

`fatpoints.cohomology` runs --repeat times on each class of
PEELED_CLASSES at random rational points drawn from SEED: two fixed-line
classes and the double conics (4n; (2n)^5), n = 1..3, which the Bezout
peel splits before any matrix, and the pencil ladder (3n; n^9), n = 2..5,
at the nine base points of a cubic pencil, which no peel touches and
whose rank drops by n.  One more call, untimed, records the path
that proved h0: "peel" (no matrix), "rank" (full rank mod RANK_PRIME),
"products" (the products of the sections of L/g) or "lift" (the kernel
lift of the exact reduced matrix).

For each rung (3n; n^9) of that pencil ladder, `_linalg.nullspace` runs
--repeat times on the reduced matrix of L/g = (3; 1^9), g = n, on the
frame of L: the kernel that `fatpoints._products_bound` lifts before it
forms the products of its sections.

For each system of SYSTEMS, a fixed-line class and a double conic at
random rational points drawn from SEED and the pencil rung (9; 3^9) at the
nine base points of a cubic pencil, one `cohomology --system` call is
split into its stages, each run --repeat times: "parse" (the JSON
document to a system, `cli._system_from_json`), "peel" (`_peel`), "frame"
(the `_vertex_frame` of the residual), "jets" (its kept exponents and
reduced conditions mod RANK_PRIME on that frame, `_vertex_conditions`),
"rank" (`rank_profile_mod_p` on a fresh copy), "products"
(`_products_bound` on the same frame, when the rank is deficient) and
"main" (the whole `cli.main` on the document, stdout captured).  A
stage that the call does not reach is null: the peel leaves the double
conic no point, and the fixed line is full rank after it.

For the arrangements of ARRANGEMENTS, `arrangements.circuits`,
`graded_counts(..., 3)` on those circuits and `singular_points` run
--repeat times each.  One more `graded_counts` call, untimed, records every
elimination it makes: the pieces (k, 1) that have rows ("piece") and the
linear syzygies of the quadrics ("syzygy"), each with its shape, its
rank, its proof and the seconds of its kernel lift; a piece (k, 0) is
dim I_k by theorem and takes none.  The proof is "hilbert" (the
rank mod RANK_PRIME meets dim I_k of the Orlik-Terao Hilbert series),
"full" (short of it, at full rank mod RANK_PRIME) or "lift" (through the
kernel lift of `deficient_rank`).  The syzygy rank, which `graded_counts`
reads from the piece (3, 1) of the quadrics times the variables, is
"shared", with that piece's proof and no lift of its own; its shape is
that of a basis of the quadrics times the variables, d dim I_2 rows.

Prints one JSON document: per degree and prime the matrix shape, the rank,
and the best and median seconds, and the same of the reduced matrix with
the killed columns ("rows"), per degree h0 and the best and median seconds
of `generic_cohomology` ("generic_rows"), per m the shape, the bit length
of the determinant and the best and median seconds, and the evidence of
the piece with the best and median seconds of proving plus verifying it
("det_rows"), per
double conic the shape, the rank and the best and median seconds
("kernel_rows"), and per peeled class the residual class that the peel
reaches, h0, the proof path, and the best and median seconds
("cohomology_rows"), per pencil rung the class L/g, the shape of its
reduced matrix, the number of sections and the best and median seconds
of `nullspace` ("section_rows"), and per
arrangement its circuit count, the best and median seconds of the three
calls and its ranks ("arrangement_rows"), and per system its class, the
residual class, h0 and the best and median seconds of each stage
("system_rows").
"""

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import sys
import tempfile
import time
from math import comb

from linserlab import _linalg, arrangements, cli, dumnicki, fatpoints
from linserlab.dumnicki import InterpolationProblem, interp_matrix
from linserlab.fatpoints import (FatPointSystem, conditions_matrix,
                                 make_config, random_rational_points)
from linserlab.lattice import triangle_staircase

CLASSES = {
    16: (5,) * 9 + (4,),
    19: (6,) * 10,
    22: (7,) * 10,
    28: (9,) + (8,) * 10,
    39: (15,) + (12,) * 9,
}

SEED = 5

DET_MULTS = (9, 12, 15)

CONIC_STEPS = (1, 2, 3, 4)

PEELED_CLASSES = (  # (d, mults); None: n^9 at the nine pencil points
    (13, (8, 7, 1, 1, 1)),
    (15, (9, 9, 1, 1, 1, 1)),
    (4, (2,) * 5),
    (8, (4,) * 5),
    (12, (6,) * 5),
) + tuple((3 * n, None) for n in (2, 3, 4, 5))

SYSTEMS = (  # (name, d, mults); None: 3^9 at the nine pencil points
    ("fixed_line", 13, (8, 7, 1, 1, 1)),
    ("pencil", 9, None),
    ("double_conic", 8, (4,) * 5),
)

ARRANGEMENTS = tuple((s, seed) for s in (5, 6, 7, 8) for seed in (0, 1, 2)) + (
    ("m8", None),)


def _eliminate(residues, p, repeat):
    """The rank of the residues mod p, and the best and median seconds of
    `rank_profile_mod_p` on a fresh copy, over `repeat` runs."""
    times = []
    for _ in range(repeat):
        a = residues.copy()
        t0 = time.perf_counter()
        rank = len(_linalg.rank_profile_mod_p(a, p)[0])
        times.append(time.perf_counter() - t0)
    return rank, min(times), statistics.median(times)


def _generic_rows(degrees, repeat):
    rows = []
    for d in degrees:
        best, median, rep = _best_median(
            lambda: fatpoints.generic_cohomology(d, CLASSES[d]), repeat)
        rows.append({"d": d, "mults": list(CLASSES[d]), "h0": rep.h0,
                     "best_s": best, "median_s": median})
    return rows


def _det_rows(repeat):
    rng = random.Random(SEED)
    rows = []
    for m in DET_MULTS:
        pts = set()
        while len(pts) < comb(m + 1, 2):
            pts.add((rng.randrange(m + 4), rng.randrange(m + 4)))
        mat = interp_matrix(InterpolationProblem(pts, triangle_staircase(m)))

        def piece():
            ev = dumnicki._certify_piece(pts, m)
            cert = dumnicki.EmptinessCertificate(
                (), (dumnicki.Piece(frozenset(pts), m, ev),))
            return ev, dumnicki.verify_certificate(pts, (m,), cert)[0]

        best, median, det = _best_median(lambda: _linalg.det_exact(mat),
                                         repeat)
        piece_best, piece_median, (ev, ok) = _best_median(piece, repeat)
        assert ok == (det != 0)
        rows.append({"m": m, "shape": [len(mat), len(mat[0])],
                     "det_bits": abs(det.numerator).bit_length(),
                     "best_s": best, "median_s": median,
                     "piece_evidence": ev if isinstance(ev, str)
                     else type(ev).__name__,
                     "piece_best_s": piece_best,
                     "piece_median_s": piece_median})
    return rows


def _kernel_rows(repeat):
    pts = random_rational_points(5, random.Random(SEED))
    rows = []
    for n in CONIC_STEPS:
        d, mults = 4 * n, (2 * n,) * 5
        mat = conditions_matrix(FatPointSystem(d, pts, mults))
        best, median, rank = _best_median(
            lambda: _linalg.deficient_rank(mat, min(mat.shape)), repeat)
        rows.append({"d": d, "mults": list(mults), "shape": list(mat.shape),
                     "rank": rank, "best_s": best, "median_s": median})
    return rows


def _proof_path(system):
    """The path that proves h0 of the system in `fatpoints.cohomology`,
    read by wrapping the functions it calls: the last of "rank" (a
    reduced matrix is built by `_vertex_conditions`), "products" (the
    bound of the products of sections, on the same frame, is tried and
    suffices) and "lift" reached, else "peel"."""
    wrapped = ((fatpoints, "_vertex_conditions", "rank"),
               (fatpoints, "_products_bound", "products"),
               (_linalg, "deficient_rank", "lift"))
    saved = [getattr(module, name) for module, name, _ in wrapped]
    seen = set()

    def spy(fn, path):
        def call(*args):
            seen.add(path)
            return fn(*args)
        return call

    for (module, name, path), fn in zip(wrapped, saved):
        setattr(module, name, spy(fn, path))
    try:
        fatpoints.cohomology(system)
    finally:
        for (module, name, _), fn in zip(wrapped, saved):
            setattr(module, name, fn)
    return next((path for path in ("lift", "products", "rank")
                 if path in seen), "peel")


def _cohomology_rows(repeat):
    rows = []
    for d, mults in PEELED_CLASSES:
        if mults is None:
            pts = make_config("pencil_products", {"k": 3}, seed=SEED).points
            mults = (d // 3,) * 9
        else:
            pts = random_rational_points(len(mults), random.Random(SEED))
        system = FatPointSystem(d, pts, mults)
        residual = fatpoints._peel(system)
        best, median, rep = _best_median(
            lambda: fatpoints.cohomology(system), repeat)
        rows.append({"d": d, "mults": list(mults),
                     "residual": [residual.d, list(residual.mults)],
                     "h0": rep.h0, "path": _proof_path(system),
                     "best_s": best, "median_s": median})
    return rows


def _section_rows(repeat):
    pts = make_config("pencil_products", {"k": 3}, seed=SEED).points
    rows = []
    for d, mults in PEELED_CLASSES:
        if mults is not None:
            continue
        n = d // 3
        frame = fatpoints._vertex_frame(FatPointSystem(d, pts, (n,) * 9))
        small = fatpoints._vertex_conditions(frame, 3, (1,) * 9)[0]
        args = small.tolist(), small.shape[1]
        best, median, sections = _best_median(
            lambda: _linalg.nullspace(*args), repeat)
        rows.append({"d": d, "mults": [n] * 9, "small": [3, [1] * 9],
                     "shape": list(small.shape), "sections": len(sections),
                     "best_s": best, "median_s": median})
    return rows


def _best_median(fn, repeat):
    """The best and median seconds of `repeat` calls of fn, and what the
    last call returned."""
    times = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - t0)
    return min(times), statistics.median(times), result


def _graded_ranks(arr, circs):
    """The eliminations of one `graded_counts(arr, 3, circs)` call: each
    rank of `_ideal_rank`, read by wrapping it and the `deficient_rank` it
    calls, with its proof, and the syzygy rank that `graded_counts` reads
    from the last of them, piece (3, 1), when dim I_2 > 0."""
    ranks, lifts = [], []
    ideal_rank, deficient_rank = (arrangements._ideal_rank,
                                  arrangements.deficient_rank)

    def spy_ideal(shape, entries, bound):
        lifts.clear()
        rank = ideal_rank(shape, entries, bound)
        proof = ("hilbert" if rank == bound else "lift" if lifts
                 else "full")
        ranks.append({"kind": "piece", "shape": list(shape),
                      "rank": rank, "proof": proof, "shared": False,
                      "lift_s": sum(lifts)})
        return rank

    def spy_lift(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return deficient_rank(*args, **kwargs)
        finally:
            lifts.append(time.perf_counter() - t0)

    arrangements._ideal_rank = spy_ideal
    arrangements.deficient_rank = spy_lift
    try:
        gc = arrangements.graded_counts(arr, 3, circs)
    finally:
        arrangements._ideal_rank = ideal_rank
        arrangements.deficient_rank = deficient_rank
    b2 = sum(t - 1 for _, t in arrangements.singular_points(arr))
    quadrics = arrangements._ideal_dim(len(arr), b2, 2)
    if quadrics:
        rows = quadrics * len(arr)
        ranks.append({**ranks[-1], "kind": "syzygy",
                      "shape": [rows, comb(len(arr) + 2, 3)],
                      "rank": rows - gc.linear_syzygies, "shared": True,
                      "lift_s": 0.0})
    return ranks


def _arrangement_rows(repeat):
    rows = []
    for s, seed in ARRANGEMENTS:
        arr = (arrangements.m8_minus() if s == "m8"
               else arrangements.generic_arrangement(s, seed))
        circs = arrangements.circuits(arr, 4)
        row = {"arrangement": s, "seed": seed, "lines": len(arr),
               "circuits": len(circs)}
        for name, fn in (
                ("circuits", lambda: arrangements.circuits(arr, 4)),
                ("graded_counts",
                 lambda: arrangements.graded_counts(arr, 3, circs)),
                ("singular_points",
                 lambda: arrangements.singular_points(arr))):
            row[f"{name}_best_s"], row[f"{name}_median_s"], _ = (
                _best_median(fn, repeat))
        row["ranks"] = _graded_ranks(arr, circs)
        rows.append(row)
    return rows


def _stages(doc, path, repeat):
    """The best and median seconds of each stage of one `cohomology
    --system` call on `doc`, written at `path`, as in
    `fatpoints.cohomology`; None for a stage the call does not reach."""
    p = _linalg.RANK_PRIME
    times = {}

    def timed(stage, fn):
        best, median, result = _best_median(fn, repeat)
        times[stage] = best, median
        return result

    system = timed("parse", lambda: cli._system_from_json(doc))
    residual = timed("peel", lambda: fatpoints._peel(system))
    times.update(dict.fromkeys(("frame", "jets", "rank", "products")))
    if residual.d >= 0 and residual.mults:
        d, mults = residual.d, residual.mults
        frame = timed("frame", lambda: fatpoints._vertex_frame(residual))
        residues, kept = timed("jets", lambda: fatpoints._vertex_conditions(
            frame, d, mults, p))
        rank = len(timed("rank", lambda: _linalg.rank_profile_mod_p(
            residues.copy(), p))[0])
        if rank < min(residues.shape):
            upper = len(kept) - rank
            timed("products", lambda: fatpoints._products_bound(
                residual, upper, frame, kept))
    argv = ["cohomology", "--system", path]

    def main():
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cohomology --system exited {code}")

    timed("main", main)
    return residual, times


def _system_rows(repeat):
    rows = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, d, mults in SYSTEMS:
            if mults is None:
                pts = make_config("pencil_products", {"k": 3},
                                  seed=SEED).points
                mults = (d // 3,) * 9
            else:
                pts = random_rational_points(len(mults), random.Random(SEED))
            doc = {"degree": d, "mults": list(mults),
                   "points": [[[x, 1] for x in pt] for pt in pts]}
            path = os.path.join(tmp, f"{name}.json")
            with open(path, "w") as fh:
                json.dump(doc, fh)
            residual, times = _stages(doc, path, repeat)
            row = {"system": name, "d": d, "mults": list(mults),
                   "residual": [residual.d, list(residual.mults)],
                   "h0": fatpoints.cohomology(
                       FatPointSystem(d, pts, mults)).h0}
            for stage, best_median in times.items():
                row[f"{stage}_best_s"], row[f"{stage}_median_s"] = (
                    best_median or (None, None))
            rows.append(row)
    return rows


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--degrees", type=int, nargs="+", default=sorted(CLASSES),
                    choices=sorted(CLASSES))
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    if args.repeat < 1:
        ap.error("--repeat must be >= 1")

    rows = []
    for d in args.degrees:
        mults = CLASSES[d]
        pts = random_rational_points(len(mults), random.Random(SEED))
        system = FatPointSystem(d, pts, mults)
        for p in (_linalg.CERT_PRIMES[0], _linalg.RANK_PRIME):
            residues = conditions_matrix(system, p)
            reduced, kept = fatpoints._vertex_conditions(
                fatpoints._vertex_frame(system), d, mults, p)
            killed = comb(d + 2, 2) - len(kept)
            rank, best, median = _eliminate(residues, p, args.repeat)
            reduced_rank, reduced_best, reduced_median = _eliminate(
                reduced, p, args.repeat)
            rows.append({"d": d, "mults": list(mults),
                         "shape": list(residues.shape), "prime": p,
                         "rank": rank, "best_s": best, "median_s": median,
                         "reduced_shape": list(reduced.shape),
                         "killed": killed, "reduced_rank": reduced_rank,
                         "reduced_best_s": reduced_best,
                         "reduced_median_s": reduced_median})
    json.dump({"seed": SEED, "repeat": args.repeat, "rows": rows,
               "generic_rows": _generic_rows(args.degrees, args.repeat),
               "det_rows": _det_rows(args.repeat),
               "kernel_rows": _kernel_rows(args.repeat),
               "cohomology_rows": _cohomology_rows(args.repeat),
               "section_rows": _section_rows(args.repeat),
               "arrangement_rows": _arrangement_rows(args.repeat),
               "system_rows": _system_rows(args.repeat)},
              sys.stdout, indent=2)
    print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
