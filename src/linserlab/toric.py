"""Normal fans of lattice polygons and regular subdivisions by lifting.

Everything is exact: 2-D hulls and 3-D lower hulls run on integer
orientation predicates, lifting values are rationals, and strict convexity
of a piecewise-linear lift is checked point by point.  Iterated single-cut
lifts reproduce a cut-by-cut partition as the primary cells of a regular
subdivision, with secondary cells straddling the cuts.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import lcm
from typing import Dict, List, Optional, Tuple

from .lattice import (CutFunctional, halfplane_partition, json_fraction,
                      json_ints, primitive)


# ---------------------------------------------------------------------------
# small exact-geometry helpers


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def hull_polygon(points) -> Tuple[Tuple[int, int], ...]:
    """Convex hull vertices, CCW, collinear points dropped, canonical start.

    Collinear input returns the two extreme points; a single point returns
    itself.
    """
    pts = sorted(set(map(tuple, points)))
    if not pts:
        raise ValueError("empty point set")
    if len(pts) == 1:
        return (pts[0],)
    lower: List[Tuple[int, int]] = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: List[Tuple[int, int]] = []
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    poly = lower[:-1] + upper[:-1]
    if len(poly) < 2:  # all points equal handled above; collinear gives 2
        poly = [pts[0], pts[-1]]
    k = min(range(len(poly)), key=lambda i: poly[i])
    return tuple(poly[k:] + poly[:k])


def _inside_or_on(poly, p) -> bool:
    n = len(poly)
    if n == 1:
        return tuple(p) == poly[0]
    if n == 2:
        a, b = poly
        if _cross(a, b, p) != 0:
            return False
        return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
                and min(a[1], b[1]) <= p[1] <= max(a[1], b[1]))
    return all(_cross(poly[i], poly[(i + 1) % n], p) >= 0 for i in range(n))


# ---------------------------------------------------------------------------
# cones and normal fans


@dataclass(frozen=True)
class Cone2:
    """A rational cone in the plane given by one or two primitive rays;
    two-ray cones are strictly convex with (g1, g2) counterclockwise."""

    generators: Tuple[Tuple[int, int], ...]

    def __post_init__(self):
        gens = tuple(primitive(g) for g in self.generators)
        object.__setattr__(self, "generators", gens)
        if len(gens) not in (1, 2):
            raise ValueError("a cone has one or two generators")
        if len(gens) == 2 and _cross((0, 0), gens[0], gens[1]) <= 0:
            raise ValueError("two-generator cones must be strictly convex")


@dataclass(frozen=True)
class UnboundedPolygon:
    """conv(vertices) + cone(ray): a convex chain swept along one ray.

    Vertices are listed along the chain so that the region lies to the left
    of each edge; the two ends recede in the ray direction.
    """

    vertices: Tuple[Tuple[int, int], ...]
    ray: Tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "vertices",
                           tuple(tuple(v) for v in self.vertices))
        object.__setattr__(self, "ray", primitive(self.ray))
        vs, r = self.vertices, self.ray
        if len(vs) < 2 or len(set(vs)) != len(vs):
            raise ValueError("need at least two distinct chain vertices")
        dirs = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(vs, vs[1:])]
        neg = (-r[0], -r[1])
        walk = [neg] + dirs + [r]
        if any(_cross((0, 0), u, v) <= 0 for u, v in zip(walk, walk[1:])):
            raise ValueError("chain is not convex toward the ray")


def _angle_key(v):
    x, y = v
    half = 0 if (y > 0 or (y == 0 and x > 0)) else 1
    # the axis directions (1,0) and (-1,0) start their half-planes, and
    # -x/y grows with the angle inside each open half-plane
    return (half, y != 0, Fraction(-x, y) if y != 0 else 0)


def _vertex_cone(d1, d2) -> Cone2:
    """Dual of cone(d1, d2): all v with <v,d1> >= 0 and <v,d2> >= 0."""
    r1 = (-d1[1], d1[0])
    if r1[0] * d2[0] + r1[1] * d2[1] < 0:
        r1 = (-r1[0], -r1[1])
    r2 = (-d2[1], d2[0])
    if r2[0] * d1[0] + r2[1] * d1[1] < 0:
        r2 = (-r2[0], -r2[1])
    if _cross((0, 0), r1, r2) > 0:
        return Cone2((r1, r2))
    return Cone2((r2, r1))


def normal_fan(P) -> List[Cone2]:
    """Maximal cones of the normal fan, counterclockwise.

    The cone at a vertex q is {v : <v, p - q> >= 0 for all p in P}; edge
    rays appear as the shared boundaries of consecutive cones.  Bounded
    input may be any spanning point set (its hull is used) and yields a
    complete fan; an UnboundedPolygon yields the fan of its vertex cones.
    A two-point segment degenerates to two one-generator cones along its
    direction.
    """
    if isinstance(P, UnboundedPolygon):
        vs, r = P.vertices, P.ray
        dirs = [(b[0] - a[0], b[1] - a[1]) for a, b in zip(vs, vs[1:])]
        cones = []
        for i in range(len(vs)):
            into = r if i == 0 else (-dirs[i - 1][0], -dirs[i - 1][1])
            out = r if i == len(vs) - 1 else dirs[i]
            cones.append(_vertex_cone(primitive(into), primitive(out)))
        cones.sort(key=lambda c: _angle_key(c.generators[0]))
        return cones
    poly = hull_polygon(P)
    if len(poly) == 1:
        raise ValueError("a single point has no normal fan")
    if len(poly) == 2:
        d = primitive((poly[1][0] - poly[0][0], poly[1][1] - poly[0][1]))
        return [Cone2((d,)), Cone2(((-d[0], -d[1]),))]
    n = len(poly)
    cones = []
    for i in range(n):
        prev_v, v, next_v = poly[i - 1], poly[i], poly[(i + 1) % n]
        d1 = primitive((prev_v[0] - v[0], prev_v[1] - v[1]))
        d2 = primitive((next_v[0] - v[0], next_v[1] - v[1]))
        cones.append(_vertex_cone(d1, d2))
    cones.sort(key=lambda c: _angle_key(c.generators[0]))
    return cones


# ---------------------------------------------------------------------------
# regular subdivisions from lifted lower hulls


@dataclass(frozen=True)
class Cell:
    """One cell of a subdivision: boundary vertices (CCW), every input
    point lying on the closed cell, and the affine functional of its lift
    plane (gx, gy, g0) with value gx*x + gy*y + g0."""

    vertices: Tuple[Tuple[int, int], ...]
    points: frozenset
    functional: Tuple[Fraction, Fraction, Fraction]

    def value(self, p) -> Fraction:
        gx, gy, g0 = self.functional
        return gx * p[0] + gy * p[1] + g0


@dataclass(frozen=True)
class Subdivision:
    cells: Tuple[Cell, ...]
    heights: Tuple[Tuple[Tuple[int, int], Fraction], ...]


def _freeze_heights(heights: Dict) -> Tuple:
    return tuple(sorted((tuple(p), Fraction(h)) for p, h in heights.items()))


def _plane_through(p, q, r, h) -> Tuple[Fraction, Fraction, Fraction]:
    # z = gx*x + gy*y + g0 through three lifted points
    (x1, y1), (x2, y2), (x3, y3) = p, q, r
    det = (x2 - x1) * (y3 - y1) - (x3 - x1) * (y2 - y1)
    gx = Fraction((h[q] - h[p]) * (y3 - y1) - (h[r] - h[p]) * (y2 - y1), det)
    gy = Fraction((x2 - x1) * (h[r] - h[p]) - (x3 - x1) * (h[q] - h[p]), det)
    g0 = Fraction(h[p]) - gx * x1 - gy * y1
    return (gx, gy, g0)


def _det3(p, q, r, s, h) -> int:
    ax, ay, az = q[0] - p[0], q[1] - p[1], h[q] - h[p]
    bx, by, bz = r[0] - p[0], r[1] - p[1], h[r] - h[p]
    cx, cy, cz = s[0] - p[0], s[1] - p[1], h[s] - h[p]
    return (ax * (by * cz - bz * cy) - ay * (bx * cz - bz * cx)
            + az * (bx * cy - by * cx))


def _line_cells(pts, hmap) -> List[Cell]:
    """Lower hull of collinear lifted points: one cell per hull segment."""
    p0 = pts[0]
    d = primitive((pts[-1][0] - p0[0], pts[-1][1] - p0[1]))
    norm = d[0] * d[0] + d[1] * d[1]

    def param(p):
        return ((p[0] - p0[0]) * d[0] + (p[1] - p0[1]) * d[1]) // norm

    graph = sorted((param(p), p) for p in pts)
    chain: List[Tuple[int, Tuple[int, int]]] = []
    for t, p in graph:
        while len(chain) >= 2:
            (t1, p1), (t2, p2) = chain[-2], chain[-1]
            # keep p2 only if it lies strictly below segment p1..p
            if (hmap[p2] - hmap[p1]) * (t - t1) < (hmap[p] - hmap[p1]) * (t2 - t1):
                break
            chain.pop()
        chain.append((t, p))
    cells = []
    for (t1, p1), (t2, p2) in zip(chain, chain[1:]):
        slope = Fraction(hmap[p2] - hmap[p1], t2 - t1)
        gx = slope * Fraction(d[0], norm)
        gy = slope * Fraction(d[1], norm)
        g0 = hmap[p1] - gx * p1[0] - gy * p1[1]
        content = frozenset(p for t, p in graph if t1 <= t <= t2)
        cells.append(Cell((p1, p2), content, (gx, gy, g0)))
    return cells


def lower_hull_subdivision(points, heights) -> Subdivision:
    """Regular subdivision induced by lifting each point to its height.

    Cells are the projections of the lower-hull facets of the lifted point
    set (faces seen from below).  Planar input must contain at least two
    distinct points; collinear input degenerates to segment cells along the
    line, matching the one-dimensional lower hull.
    """
    pts = sorted(set(map(tuple, points)))
    hin = {tuple(p): Fraction(heights[p]) for p in points}
    if len(pts) < 2:
        raise ValueError("need at least two distinct points")
    scale = lcm(*(h.denominator for h in hin.values()))
    hmap = {p: int(hin[p] * scale) for p in pts}
    frozen = _freeze_heights(hin)

    poly = hull_polygon(pts)
    if len(poly) == 2:
        cells = _line_cells(pts, hin)
        return Subdivision(tuple(cells), frozen)

    # boundary edges: 1-D lower hulls along each hull edge line
    boundary_seed: List[Tuple[Tuple[int, int], Tuple[int, int]]] = []
    for i in range(len(poly)):
        a, b = poly[i], poly[(i + 1) % len(poly)]
        on_edge = [p for p in pts
                   if _cross(a, b, p) == 0 and _inside_or_on((a, b), p)]
        segs = _line_cells(on_edge, hin)
        for s in segs:
            v, w = s.vertices
            # orient along a -> b so the interior is on the left
            if ((w[0] - v[0]) * (b[0] - a[0])
                    + (w[1] - v[1]) * (b[1] - a[1])) < 0:
                v, w = w, v
            boundary_seed.append((v, w))
    boundary_pairs = {frozenset(e) for e in boundary_seed}

    facets = []
    seen_facets = set()
    done_edges = set()
    queue = list(boundary_seed)
    while queue:
        p, q = queue.pop()
        if (p, q) in done_edges:
            continue
        left = [s for s in pts if _cross(p, q, s) > 0]
        if not left:
            continue
        r = left[0]
        for s in left[1:]:
            if _det3(p, q, r, s, hmap) < 0:
                r = s
        coplanar = [s for s in pts if _det3(p, q, r, s, hmap) == 0]
        assert all(_det3(p, q, r, s, hmap) >= 0 for s in pts)
        fpoly = hull_polygon(set(coplanar) | {p, q})
        key = fpoly
        if key not in seen_facets:
            seen_facets.add(key)
            plane = _plane_through(fpoly[0], fpoly[1], fpoly[2], hmap)
            plane = tuple(g / scale for g in plane)
            content = frozenset(s for s in pts if _inside_or_on(fpoly, s))
            facets.append(Cell(fpoly, content, plane))
        n = len(fpoly)
        for i in range(n):
            v, w = fpoly[i], fpoly[(i + 1) % n]
            done_edges.add((v, w))
            if frozenset((v, w)) in boundary_pairs:
                continue
            if (w, v) not in done_edges:
                queue.append((w, v))
    cells = tuple(sorted(facets, key=lambda c: c.vertices))
    return Subdivision(cells, frozen)


# ---------------------------------------------------------------------------
# piecewise-linear lifts and strict convexity


@dataclass(frozen=True)
class PiecewiseLinearLift:
    """A convex piecewise-linear function presented by its subdivision.

    values holds F at every lattice point; active is the residual cell's
    point set during iterated splitting, and primary records each piece
    split off so far, in order.
    """

    subdivision: Subdivision
    values: Tuple[Tuple[Tuple[int, int], Fraction], ...]
    active: frozenset = frozenset()
    primary: Tuple[frozenset, ...] = ()

    def value_map(self) -> Dict[Tuple[int, int], Fraction]:
        return dict(self.values)


def induced_lift(sub: Subdivision, active=frozenset(),
                 primary=()) -> PiecewiseLinearLift:
    """Lift whose values come from the subdivision's own cell planes."""
    values: Dict[Tuple[int, int], Fraction] = {}
    for cell in sub.cells:
        for p in cell.points:
            v = cell.value(p)
            assert values.setdefault(p, v) == v, "cells disagree at a point"
    for p, _ in sub.heights:
        if p not in values:
            raise ValueError(f"no cell covers {p}")
    return PiecewiseLinearLift(sub, tuple(sorted(values.items())),
                               frozenset(active), tuple(primary))


def check_strict_convexity(sub: Subdivision, lift: PiecewiseLinearLift) -> bool:
    """True iff every cell's plane is strictly below F off the cell.

    This is the regularity condition: F agrees with each cell functional on
    the cell and strictly dominates it at every lattice point outside, which
    forces convexity across every interior edge.
    """
    vals = lift.value_map()
    domain = {p for p, _ in sub.heights}
    covered = set()
    for cell in sub.cells:
        covered |= cell.points
        for p in cell.points:
            if vals[p] != cell.value(p):
                return False
    if covered != domain:
        return False
    for cell in sub.cells:
        for p in domain - cell.points:
            if not vals[p] > cell.value(p):
                return False
    return True


# ---------------------------------------------------------------------------
# iterated single-cut lifting


def initial_lift(D) -> PiecewiseLinearLift:
    heights = {tuple(p): Fraction(0) for p in D}
    sub = lower_hull_subdivision(D, heights)
    return induced_lift(sub, active=frozenset(map(tuple, D)), primary=())


def _accepts(prior: PiecewiseLinearLift, sub: Subdivision,
             a_plus: frozenset, a_minus: frozenset) -> bool:
    """Assigned pieces must keep their dedicated cells and the active cell
    must split into the hulls of its two sides.  Secondary cells may be
    refined freely: a later bend moves their active-side boundary values."""
    new_polys = {c.vertices: c for c in sub.cells}
    active = prior.active
    for piece in prior.primary:
        poly = hull_polygon(piece)
        if len(poly) >= 3 and poly not in new_polys:
            return False
    for side in (a_plus, a_minus):
        poly = hull_polygon(side)
        if len(poly) < 3:
            continue  # degenerate piece: tracked as a set, no dedicated cell
        got = new_polys.get(poly)
        if got is None or (got.points & active) != side:
            return False
    return True


def split_lift(D, cut: CutFunctional,
               prior: Optional[PiecewiseLinearLift] = None
               ) -> PiecewiseLinearLift:
    """Refine a lift by one cut: bend the active cell along the cut line.

    The positive part of the active cell becomes a primary cell (recorded in
    .primary), the negative part stays active, and new secondary cells
    bridge the two hulls across the cut.  The bend adds max(0, lambda*cut)
    on the active points only; lambda is the largest power of 1/2 (from 1
    down) for which the lower hull keeps every other cell intact and splits
    the active cell cleanly, which exists because all prior domination
    margins are strictly positive.
    """
    lift = prior if prior is not None else initial_lift(D)
    domain = frozenset(p for p, _ in lift.subdivision.heights)
    plus, _minus = halfplane_partition(domain, cut)  # errors on a zero value
    a_plus = lift.active & plus
    a_minus = lift.active - plus
    if not a_plus:
        return lift
    if not a_minus:
        return replace(lift, active=frozenset(),
                       primary=lift.primary + (a_plus,))
    vmap = lift.value_map()
    lam = Fraction(1)
    for _ in range(64):
        vals = dict(vmap)
        for p in a_plus:
            vals[p] += lam * cut.value(p)
        sub = lower_hull_subdivision(domain, vals)
        if _accepts(lift, sub, a_plus, a_minus):
            new = induced_lift(sub, active=a_minus,
                               primary=lift.primary + (a_plus,))
            # every lattice value must sit on the hull or the bend was too big
            if new.value_map() == vals:
                assert check_strict_convexity(sub, new)
                return new
        lam /= 2
    raise ArithmeticError("no admissible bend scale found for this cut")


def primary_cells(lift: PiecewiseLinearLift) -> List[frozenset]:
    """The split-off pieces in order, plus the final residual if nonempty."""
    out = list(lift.primary)
    if lift.active:
        out.append(lift.active)
    return out


# ---------------------------------------------------------------------------
# JSON forms


def subdivision_to_json(sub: Subdivision) -> dict:
    return {
        "cells": [[list(v) for v in c.vertices] for c in sub.cells],
        "heights": [[list(p), h.numerator, h.denominator]
                    for p, h in sub.heights],
    }


def subdivision_from_json(doc: dict):
    """(points, heights) suitable for re-running lower_hull_subdivision.

    Every point must be a pair listed once, every coordinate, numerator
    and denominator a JSON int, and every denominator nonzero."""
    heights = {}
    for p, n, d in doc["heights"]:
        point = json_ints(p, 2)
        if point in heights:
            raise ValueError(f"point {list(point)} is listed twice")
        heights[point] = json_fraction([n, d])
    return list(heights), heights
