"""Exact Neron-Severi arithmetic and bounded-negativity calculators.

Covers the product-of-elliptic-curves lattice and its large-h1 divisor
classes, nef tests, blowup bookkeeping for Chern invariants, the log
Miyaoka-Yau inequality, a symbolic Seshadri-type lower bound, and
self-intersections of line unions pulled back to blowups of incidence
configurations (finite projective planes, general lines, collinear points).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, isqrt
from typing import Dict, List, Optional, Sequence, Tuple

from ._linalg import is_prime
from .fatpoints import DEFAULT_SEED, general_position_lines, normalize_proj


# ---------------------------------------------------------------------------
# lattices and pairing


@dataclass(frozen=True)
class NSLattice:
    labels: Tuple[str, ...]
    gram: Tuple[Tuple[int, ...], ...]
    canonical: Tuple[int, ...]

    def __post_init__(self):
        g = tuple(tuple(int(x) for x in row) for row in self.gram)
        object.__setattr__(self, "gram", g)
        n = len(self.labels)
        if len(g) != n or any(len(row) != n for row in g):
            raise ValueError("Gram matrix size must match the basis")
        if any(g[i][j] != g[j][i] for i in range(n) for j in range(n)):
            raise ValueError("Gram matrix must be symmetric")
        if len(self.canonical) != n:
            raise ValueError("canonical class length must match the basis")


@dataclass(frozen=True)
class DivClass:
    coeffs: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           tuple(int(c) for c in self.coeffs))


def ee_lattice() -> NSLattice:
    """Span of the two fibers and the diagonal on a self-product of an
    elliptic curve without complex multiplication; all squares vanish and
    distinct generators meet once.  The canonical class is zero."""
    return NSLattice(("F1", "F2", "Delta"),
                     ((0, 1, 1), (1, 0, 1), (1, 1, 0)),
                     (0, 0, 0))


def blowup_lattice(r: int) -> NSLattice:
    """H, E_1..E_r with H^2 = 1, E_i^2 = -1, all products zero;
    K = -3H + sum E_i."""
    labels = ("H",) + tuple(f"E{i}" for i in range(1, r + 1))
    gram = [[0] * (r + 1) for _ in range(r + 1)]
    gram[0][0] = 1
    for i in range(1, r + 1):
        gram[i][i] = -1
    return NSLattice(labels, tuple(map(tuple, gram)), (-3,) + (1,) * r)


def pair(lattice: NSLattice, a: DivClass, b: DivClass) -> int:
    n = len(lattice.labels)
    if len(a.coeffs) != n or len(b.coeffs) != n:
        raise ValueError("class length does not match the lattice rank")
    return sum(a.coeffs[i] * lattice.gram[i][j] * b.coeffs[j]
               for i in range(n) for j in range(n))


def ee_nef_test(a1: int, a2: int, b: int) -> bool:
    """Nefness of a1 F1 + a2 F2 + b Delta: nonnegative square and
    nonnegative degree against the ample F1 + F2 + Delta."""
    return a1 * a2 + a1 * b + a2 * b >= 0 and a1 + a2 + b >= 0


# ---------------------------------------------------------------------------
# the large-h1 family


@dataclass(frozen=True)
class KollarReport:
    n: int
    An: DivClass
    AnSq: int
    An_dot_F1F2: int
    nAn_minus_R_sq: int
    chi: int
    h1_lower: int
    h0_Cn: int


def kollar_report(n: int) -> KollarReport:
    """Numbers attached to A_n = n F1 + (n^2-n+1) F2 - (n-1) Delta.

    With R = F1 + F2: (n A_n - R)^2 = -2(n-1)^3, so chi of the twisted
    class is -(n-1)^3; neither the class nor its negative is effective,
    which turns -chi into a lower bound for h1.  |n A_n| itself moves and
    h0 = (n A_n)^2 / 2 = n^2.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    lat = ee_lattice()
    an = DivClass((n, n * n - n + 1, -(n - 1)))
    r_cls = DivClass((1, 1, 0))
    an_sq = pair(lat, an, an)
    assert an_sq == 2
    deg = pair(lat, an, DivClass((1, 1, 0)))
    assert deg == n * n - 2 * n + 3
    nan_r = DivClass(tuple(n * c - rc for c, rc in zip(an.coeffs,
                                                       r_cls.coeffs)))
    sq = pair(lat, nan_r, nan_r)
    assert sq == -2 * (n - 1) ** 3
    chi = sq // 2
    nan = DivClass(tuple(n * c for c in an.coeffs))
    h0 = pair(lat, nan, nan) // 2
    assert h0 == n * n
    return KollarReport(n, an, an_sq, deg, sq, chi, -chi, h0)


def counterexample_n(c: int) -> int:
    """Least n >= 2 whose h1 lower bound (n-1)^3 exceeds c * n^2."""
    n = 2
    while (n - 1) ** 3 <= c * n * n:
        n += 1
    return n


# ---------------------------------------------------------------------------
# negativity bounds and blowups


@dataclass(frozen=True)
class SurfaceInvariants:
    c1sq: int
    c2: int


def vwbnc_bound(inv: SurfaceInvariants, g: int) -> int:
    """Self-intersection bound c1^2 - 4 c2 - 4g + 4 for genus-g curves."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return inv.c1sq - 4 * inv.c2 - 4 * g + 4


def wbnc_bound(inv: SurfaceInvariants, g: int) -> int:
    """Sharper bound c1^2 - 3 c2 + 2 - 2g for genus-g curves."""
    if g < 0:
        raise ValueError("genus must be nonnegative")
    return inv.c1sq - 3 * inv.c2 + 2 - 2 * g


def blowup_step(inv: SurfaceInvariants, c_sq: int, m: int):
    """One blowup at an m-fold point of the curve: c1^2 drops by one,
    c2 rises by one, and the proper transform loses m^2."""
    if m < 1:
        raise ValueError("multiplicity must be >= 1")
    return SurfaceInvariants(inv.c1sq - 1, inv.c2 + 1), c_sq - m * m


@dataclass(frozen=True)
class LogMYReport:
    log_c1sq: int
    log_c2: int
    satisfied: bool


def log_my_check(inv: SurfaceInvariants, k_dot_c: int, c_sq: int,
                 g: int) -> LogMYReport:
    """Logarithmic Chern numbers of (X, C) and the inequality
    (K+C)^2 <= 3(e(X) - e(C)) for C smooth of genus g.

    Adjunction K.C = 2g - 2 - C^2 is enforced; bigness of K + C is the
    theorem's hypothesis and is reported, not assumed, by the flag.
    """
    if g < 0:
        raise ValueError("genus must be nonnegative")
    if k_dot_c != 2 * g - 2 - c_sq:
        raise ValueError("adjunction fails: K.C != 2g - 2 - C^2")
    log_c1sq = inv.c1sq + 2 * k_dot_c + c_sq
    log_c2 = inv.c2 + k_dot_c
    satisfied = log_c1sq <= 3 * (inv.c2 - (2 - 2 * g))
    return LogMYReport(log_c1sq, log_c2, satisfied)


# ---------------------------------------------------------------------------
# symbolic Seshadri-type lower bound


@dataclass(frozen=True)
class SqrtLowerBound:
    """The algebraic number 1/sqrt(b+1), compared exactly by squaring."""

    b: Fraction

    def __post_init__(self):
        object.__setattr__(self, "b", Fraction(self.b))
        if self.b < 0:
            raise ValueError("b must be >= 0")

    def as_pair(self):
        return (Fraction(1), self.b + 1)

    def compare(self, q) -> int:
        """Sign of 1/sqrt(b+1) - q."""
        q = Fraction(q)
        if q <= 0:
            return 1
        lhs, rhs = 1, q * q * (self.b + 1)
        return (lhs > rhs) - (lhs < rhs)

    def exact(self) -> Optional[Fraction]:
        """The value as a rational when b+1 is a perfect rational square."""
        s = self.b + 1
        rn, rd = isqrt(s.numerator), isqrt(s.denominator)
        if rn * rn == s.numerator and rd * rd == s.denominator:
            return Fraction(rd, rn)
        return None


def seshadri_lower(b) -> SqrtLowerBound:
    return SqrtLowerBound(Fraction(b))


def reducible_bound(rho: int, b: int) -> int:
    """rho * b * ceil(b/2): negativity bound on blowups with Picard number
    rho when every irreducible curve has square >= -b."""
    if rho < 1 or b < 1:
        raise ValueError("rho and b must be >= 1")
    return rho * b * ((b + 1) // 2)


# ---------------------------------------------------------------------------
# incidence configurations


@dataclass(frozen=True)
class IncidenceConfig:
    """Blown-up points, listed lines, and the 0/1 incidence matrix with one
    row per point and one column per line."""

    kind: str
    points: Tuple
    lines: Tuple
    incidence: Tuple[Tuple[int, ...], ...]


def _dot(p, l) -> int:
    return p[0] * l[0] + p[1] * l[1] + p[2] * l[2]


def _incidence_from_coords(points, lines, modulus: Optional[int] = None):
    rows = []
    for p in points:
        row = []
        for l in lines:
            d = _dot(p, l)
            row.append(1 if (d % modulus == 0 if modulus else d == 0) else 0)
        rows.append(tuple(row))
    return tuple(rows)


def build_incidence(kind: str, params: dict) -> IncidenceConfig:
    """Named configurations: general_lines, projective_plane, collinear,
    exceptional_only."""
    if kind == "general_lines":
        s = params["s"]
        if s < 2:
            raise ValueError("need at least 2 lines")
        seed = params.get("seed", DEFAULT_SEED)
        rng = random.Random((seed, "general_lines", s).__repr__())
        lines = tuple(normalize_proj(l)
                      for l in general_position_lines(s, rng))
        pts = set()
        for i in range(s):
            for j in range(i + 1, s):
                a, b = lines[i], lines[j]
                pts.add(normalize_proj((
                    a[1] * b[2] - a[2] * b[1],
                    a[2] * b[0] - a[0] * b[2],
                    a[0] * b[1] - a[1] * b[0],
                )))
        points = tuple(sorted(pts))
        return IncidenceConfig(kind, points, lines,
                               _incidence_from_coords(points, lines))
    if kind == "projective_plane":
        q = params["q"]
        if not is_prime(q):
            raise ValueError("q must be prime")
        reps = []
        for x in range(q):
            for y in range(q):
                for z in range(q):
                    if (x, y, z) == (0, 0, 0):
                        continue
                    lead = next(c for c in (x, y, z) if c)
                    if lead == 1:
                        reps.append((x, y, z))
        points = tuple(sorted(reps))
        lines = points  # the plane is self-dual
        return IncidenceConfig(kind, points, lines,
                               _incidence_from_coords(points, lines, q))
    if kind == "collinear":
        n = params["n"]
        if n < 1:
            raise ValueError("need at least one point")
        points = tuple((1, k, 0) for k in range(n))
        lines = ((0, 0, 1),)
        return IncidenceConfig(kind, points, lines,
                               _incidence_from_coords(points, lines))
    if kind == "exceptional_only":
        n = params["n"]
        if n < 1:
            raise ValueError("need at least one point")
        return IncidenceConfig(kind, tuple(range(n)), (), tuple(() for _ in range(n)))
    raise ValueError(f"unknown configuration kind {kind!r}")


def c_squared(cfg: IncidenceConfig) -> int:
    """Self-intersection of the total transform story for the configuration.

    For a union of l lines with every listed point blown up:
    C^2 = l^2 - sum_p t_p^2 with t_p the number of lines through p.  When
    every pairwise intersection of lines is among the blown-up points this
    equals l - |M| (checked).  The exceptional-only configuration takes
    C = E_1 + ... + E_n instead, so C^2 = -n.
    """
    if cfg.kind == "exceptional_only":
        return -len(cfg.points)
    l = len(cfg.lines)
    tps = [sum(row) for row in cfg.incidence]
    val = l * l - sum(t * t for t in tps)
    pairs_at_points = sum(t * (t - 1) // 2 for t in tps)
    if pairs_at_points == l * (l - 1) // 2:
        total_incidences = sum(tps)
        assert val == l - total_incidences
    return val


def c_squared_bruteforce(cfg: IncidenceConfig) -> int:
    """Independent pairwise expansion: sum of L'_i . L'_j with
    L'_i^2 = 1 - #points on L_i and L'_i . L'_j = 1 - #common points."""
    if cfg.kind == "exceptional_only":
        return -len(cfg.points)
    l = len(cfg.lines)
    total = 0
    for i in range(l):
        for j in range(l):
            common = sum(row[i] * row[j] for row in cfg.incidence)
            total += 1 - common
    return total


def ratio_report(cfg: IncidenceConfig) -> Fraction:
    """C^2 divided by the number of blown-up points, exactly."""
    if not cfg.points:
        raise ValueError("need at least one point")
    return Fraction(c_squared(cfg), len(cfg.points))


@dataclass(frozen=True)
class NodalCurveReport:
    n: int
    Csq: int
    ratio: Fraction


def rational_curve_nodes(d: int) -> NodalCurveReport:
    """Proper transform of a rational nodal plane curve of degree d with
    all n = (d-1)(d-2)/2 nodes blown up: C^2 = d^2 - 4n."""
    if d < 3:
        raise ValueError("degree must be >= 3")
    n = (d - 1) * (d - 2) // 2
    c_sq = d * d - 4 * n
    return NodalCurveReport(n, c_sq, Fraction(c_sq, n))
