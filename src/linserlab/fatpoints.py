"""Linear systems of plane curves with assigned base multiplicities.

The conditions matrix of L(d; m_1..m_r) is built from exact derivative
conditions in affine charts; cohomology numbers come from exact rank over Q
(or over a prime field when requested).  On top of that sit initial-degree
searches (alpha), Waldschmidt sandwiches, Chudnovsky equality probes, Cremona
reduction, the Pell family of square-zero classes, and semi-effectivity
classification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from typing import Optional, Sequence, Tuple

from . import _linalg

DEFAULT_SEED = 987654321


# ---------------------------------------------------------------------------
# fields and points


@dataclass(frozen=True)
class FieldSpec:
    """Coefficient field: exact rationals or a prime field GF(p)."""

    kind: str
    p: Optional[int] = None

    def __post_init__(self):
        if self.kind not in ("rationals", "prime"):
            raise ValueError(f"unknown field kind {self.kind!r}")
        if self.kind == "prime":
            if self.p is None or not 2 <= self.p < _linalg.P_LIMIT:
                raise ValueError(f"prime fields need 2 <= p < 2**31,"
                                 f" got {self.p}")
            if not _linalg.is_prime(self.p):
                raise ValueError(f"{self.p} is not prime")


QQ = FieldSpec("rationals")


def GF(p: int) -> FieldSpec:
    return FieldSpec("prime", p)


def normalize_proj(coords, fieldspec: FieldSpec = QQ) -> Tuple:
    """Canonical homogeneous coordinates.

    Over Q: coprime integers, first nonzero positive.  Over GF(p): residues
    with first nonzero coordinate scaled to 1.
    """
    if len(coords) != 3:
        raise ValueError("projective plane points have 3 coordinates")
    if fieldspec.kind == "prime":
        p = fieldspec.p
        c = tuple(int(x) % p for x in coords)
        lead = next((x for x in c if x), None)
        if lead is None:
            raise ValueError("(0:0:0) is not a projective point")
        inv = pow(lead, p - 2, p)
        return tuple((x * inv) % p for x in c)
    fracs = [Fraction(x) for x in coords]
    if all(x == 0 for x in fracs):
        raise ValueError("(0:0:0) is not a projective point")
    mult = lcm(*(x.denominator for x in fracs))
    ints = [int(x * mult) for x in fracs]
    g = gcd(*ints)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


def affine_point(u, v, fieldspec: FieldSpec = QQ) -> Tuple:
    return normalize_proj((u, v, 1), fieldspec)


# ---------------------------------------------------------------------------
# fat point systems


@dataclass(frozen=True)
class FatPointSystem:
    """L(d; m_1, ..., m_r): degree-d curves with multiplicity m_i at p_i."""

    d: int
    points: Tuple[Tuple, ...]
    mults: Tuple[int, ...]
    fieldspec: FieldSpec = QQ

    def __post_init__(self):
        if len(self.points) != len(self.mults):
            raise ValueError("one multiplicity per point")
        if any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be >= 1")
        if len(set(self.points)) != len(self.points):
            raise ValueError("points must be pairwise distinct")


@dataclass(frozen=True)
class SystemReport:
    d: int
    mults: Tuple[int, ...]
    h0: int
    h1: int
    chi: int
    expected: int
    special: bool


def monomial_exponents(d: int):
    """Degree-d exponents (i, j, k), lex sorted; the column order."""
    return [(i, j, d - i - j) for i in range(d + 1) for j in range(d + 1 - i)]


def _falling(n: int, k: int) -> int:
    out = 1
    for t in range(k):
        out *= n - t
    return out


def conditions_matrix(system: FatPointSystem):
    """Rows impose vanishing of all partials of order < m_i at p_i.

    Every point is handled in an affine chart containing it (the last
    nonzero homogeneous coordinate); rows are scaled to integers, which
    preserves rank and kernel.  Column order matches monomial_exponents(d).
    """
    d = system.d
    if d < 0:
        raise ValueError("degree must be nonnegative")
    fs = system.fieldspec
    if fs.kind == "prime":
        for m in system.mults:
            if m - 1 >= fs.p:
                raise ValueError(
                    f"multiplicity {m} needs derivatives of order >= {fs.p}"
                    f" which vanish identically over GF({fs.p})"
                )
    cols = monomial_exponents(d)
    rows = []
    for pt, m in zip(system.points, system.mults):
        x0, y0, z0 = pt
        if z0 != 0:
            chart = 2
        elif y0 != 0:
            chart = 1
        else:
            chart = 0
        for a in range(m):
            for b in range(m - a):
                row = []
                for (i, j, k) in cols:
                    if chart == 2:
                        ok = i >= a and j >= b
                        if ok:
                            e = (_falling(i, a) * _falling(j, b)
                                 * x0 ** (i - a) * y0 ** (j - b)
                                 * z0 ** (k + a + b))
                    elif chart == 1:
                        ok = i >= a and k >= b
                        if ok:
                            e = (_falling(i, a) * _falling(k, b)
                                 * x0 ** (i - a) * z0 ** (k - b)
                                 * y0 ** (j + a + b))
                    else:
                        ok = j >= a and k >= b
                        if ok:
                            e = (_falling(j, a) * _falling(k, b)
                                 * y0 ** (j - a) * z0 ** (k - b)
                                 * x0 ** (i + a + b))
                    row.append(e if ok else 0)
                if fs.kind == "prime":
                    row = [e % fs.p for e in row]
                rows.append(row)
    return rows


def cohomology(system: FatPointSystem) -> SystemReport:
    """Exact h0/h1 of the system (h2 = 0 since d >= 0)."""
    d = system.d
    if d < 0:
        raise ValueError("degree must be nonnegative")
    ncols = comb(d + 2, 2)
    rows = conditions_matrix(system)
    if not rows:
        rank = 0
    elif system.fieldspec.kind == "prime":
        rank = _linalg.rank_mod_p(rows, system.fieldspec.p)
    else:
        rank = _linalg.rank_exact(rows)
    h0 = ncols - rank
    chi = ncols - sum(m * (m + 1) // 2 for m in system.mults)
    h1 = h0 - chi
    return SystemReport(
        d=d,
        mults=tuple(system.mults),
        h0=h0,
        h1=h1,
        chi=chi,
        expected=max(0, chi),
        special=(h0 > 0 and h1 > 0),
    )


# ---------------------------------------------------------------------------
# random rational points and named configurations


def _rand_fraction(rng: random.Random) -> Fraction:
    # height stays well under 1e4
    return Fraction(rng.randint(-999, 999), rng.randint(1, 9))


def random_rational_points(r: int, rng: random.Random):
    pts = []
    seen = set()
    while len(pts) < r:
        p = affine_point(_rand_fraction(rng), _rand_fraction(rng))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return tuple(pts)


def generic_cohomology(d: int, mults: Sequence[int], seed: int = DEFAULT_SEED,
                       trials: int = 2) -> SystemReport:
    """Cohomology at seed-deterministic random rational points.

    Reports the minimum h0 over the trials: extra vanishing at a special draw
    can only raise h0, so the minimum is the best generic estimate.
    """
    rng = random.Random(seed)
    best = None
    for _ in range(max(1, trials)):
        pts = random_rational_points(len(mults), rng)
        rep = cohomology(FatPointSystem(d, pts, tuple(mults)))
        if best is None or rep.h0 < best.h0:
            best = rep
    return best


def _rand_line(rng: random.Random):
    while True:
        line = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if any(line):
            return line


def _cross(u, v):
    return (
        u[1] * v[2] - u[2] * v[1],
        u[2] * v[0] - u[0] * v[2],
        u[0] * v[1] - u[1] * v[0],
    )


def general_position_lines(k: int, rng: random.Random):
    """k lines, pairwise distinct, no three concurrent."""
    while True:
        lines = [_rand_line(rng) for _ in range(k)]
        if len({normalize_proj(l) for l in lines}) != k:
            continue
        pts = {}
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                q = _cross(lines[i], lines[j])
                if not any(q):
                    ok = False
                    break
                q = normalize_proj(q)
                if q in pts:
                    ok = False
                    break
                pts[q] = (i, j)
            if not ok:
                break
        if ok:
            return lines


@dataclass(frozen=True)
class PointConfig:
    kind: str
    points: Tuple[Tuple, ...]
    lines: Tuple[Tuple, ...] = ()
    seed: int = DEFAULT_SEED


def make_config(kind: str, params: dict, seed: int = DEFAULT_SEED) -> PointConfig:
    """Named point configurations: random, collinear, star, pencil_products."""
    rng = random.Random((seed, kind, tuple(sorted(params.items()))).__repr__())
    if kind == "random":
        r = params["r"]
        return PointConfig(kind, random_rational_points(r, rng), seed=seed)
    if kind == "collinear":
        r = params["r"]
        base = random_rational_points(2, rng)
        ts = set()
        while len(ts) < r:
            ts.add(_rand_fraction(rng))
        pts = tuple(
            normalize_proj(tuple(b + t * q for b, q in zip(base[0], base[1])))
            for t in sorted(ts)
        )
        line = normalize_proj(_cross(base[0], base[1]))
        return PointConfig(kind, pts, lines=(line,), seed=seed)
    if kind == "star":
        s = params["s"]
        if s < 2:
            raise ValueError("a star needs at least 2 lines")
        lines = general_position_lines(s, rng)
        pts = sorted(
            normalize_proj(_cross(lines[i], lines[j]))
            for i in range(s) for j in range(i + 1, s)
        )
        return PointConfig(kind, tuple(pts),
                           lines=tuple(normalize_proj(l) for l in lines),
                           seed=seed)
    if kind == "pencil_products":
        k = params["k"]
        lines = general_position_lines(2 * k, rng)
        first, second = lines[:k], lines[k:]
        pts = sorted(
            normalize_proj(_cross(a, b)) for a in first for b in second
        )
        return PointConfig(kind, tuple(pts),
                           lines=tuple(normalize_proj(l) for l in lines),
                           seed=seed)
    raise ValueError(f"unknown configuration kind {kind!r}")


# ---------------------------------------------------------------------------
# initial degree, Waldschmidt bounds, Chudnovsky


def alpha(points: Sequence[Tuple], m) -> int:
    """Least degree t with L(t; m_1, ..., m_r) nonzero at the given points.

    `m` is one multiplicity (>= 1) for every point, or one per point.
    """
    if isinstance(m, int):
        if m < 1:
            raise ValueError("multiplicity must be >= 1")
        m = (m,) * len(points)
    mults = tuple(m)
    conditions = sum(comb(k + 1, 2) for k in mults)
    t = 0
    while True:
        rep = cohomology(FatPointSystem(t, tuple(points), mults))
        if rep.h0 > 0:
            return t
        # chi > 0 forces h0 > 0, so the loop is finite
        assert comb(t + 2, 2) <= conditions
        t += 1


def waldschmidt_sandwich(points: Sequence[Tuple], k: int):
    """Exact bounds alpha(k+1)/(k+2) <= waldschmidt <= alpha(k+1)/(k+1)."""
    if k < 0:
        raise ValueError("k must be nonnegative")
    a = alpha(points, k + 1)
    return Fraction(a, k + 2), Fraction(a, k + 1)


@dataclass(frozen=True)
class ChudnovskyReport:
    alpha1: int
    alpha2: int
    bound: Fraction
    equality_witness: bool


def chudnovsky_report(points: Sequence[Tuple]) -> ChudnovskyReport:
    """Chudnovsky's lower bound (alpha+1)/2 and the alpha(2)/2 equality test."""
    a1 = alpha(points, 1)
    a2 = alpha(points, 2)
    bound = Fraction(a1 + 1, 2)
    return ChudnovskyReport(a1, a2, bound, Fraction(a2, 2) == bound)


def speciality_stability(d: int, mults: Sequence[int], points: Sequence[Tuple],
                         n_max: int):
    """(n, h0, h1) for the scaled systems n*(d; m_1..m_r) at fixed points."""
    out = []
    for n in range(1, n_max + 1):
        rep = cohomology(FatPointSystem(
            n * d, tuple(points), tuple(n * m for m in mults)))
        out.append((n, rep.h0, rep.h1))
    return out


# ---------------------------------------------------------------------------
# divisor classes, Cremona reduction, the Pell family


@dataclass(frozen=True)
class PlaneDivisorClass:
    """Class dH - sum m_i E_i on a blow-up of the plane."""

    d: int
    mults: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "mults", tuple(int(m) for m in self.mults))

    def self_intersection(self) -> int:
        return self.d ** 2 - sum(m * m for m in self.mults)

    def canonical_pairing(self) -> int:
        """Pairing with -K = 3H - sum E_i."""
        return 3 * self.d - sum(self.mults)


def _sorted_class(d: int, mults) -> PlaneDivisorClass:
    trimmed = sorted((m for m in mults), reverse=True)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    return PlaneDivisorClass(d, tuple(trimmed))


def cremona_reduce(cls: PlaneDivisorClass):
    """Repeated standard quadratic transforms on the three largest mults.

    Stops when the three largest multiplicities sum to at most d, or when
    the degree is no longer positive (no multiple of such a class is
    effective, so no further transform can help).  Both d^2 - sum m_i^2 and
    3d - sum m_i are preserved; while the loop runs d stays positive and
    strictly drops, so it terminates.  Returns (reduced, steps) where each
    step records the class produced by one transform.
    """
    cur = _sorted_class(cls.d, cls.mults)
    steps = []
    while True:
        ms = list(cur.mults) + [0, 0, 0]
        t = ms[0] + ms[1] + ms[2]
        if t <= cur.d or cur.d <= 0:
            return cur, steps
        ms[0], ms[1], ms[2] = (cur.d - ms[1] - ms[2],
                               cur.d - ms[0] - ms[2],
                               cur.d - ms[0] - ms[1])
        nxt = _sorted_class(2 * cur.d - t, ms)
        assert nxt.self_intersection() == cur.self_intersection()
        assert nxt.canonical_pairing() == cur.canonical_pairing()
        steps.append(nxt)
        cur = nxt


def pell_family(count: int):
    """Square-zero classes (d; m+1, m^9) built from u^2 - 10 b^2 = 6.

    Solutions come in two chains generated from (4, 1) and (16, 5) by
    (u, b) -> (19u + 60b, 6u + 19b).  Writing a = u - 3b, the admissible
    solutions (0 < a < b, both odd) give d = (a^2 + b^2)/2, m = (b^2 - a^2)/6
    and the identity a^2 + 6ab - b^2 = 6 forces m + 1 = ab.
    """
    if count < 0:
        raise ValueError("count must be nonnegative")
    out = []
    chains = [(4, 1), (16, 5)]
    while len(out) < count:
        # advance the chain whose b is currently smallest
        idx = 0 if chains[0][1] <= chains[1][1] else 1
        u, b = chains[idx]
        chains[idx] = (19 * u + 60 * b, 6 * u + 19 * b)
        a = u - 3 * b
        if not (0 < a < b and a % 2 == 1 and b % 2 == 1):
            continue
        assert a * a + 6 * a * b - b * b == 6
        m = (b * b - a * a) // 6
        assert m + 1 == a * b
        cls = PlaneDivisorClass((a * a + b * b) // 2, (m + 1,) + (m,) * 9)
        assert cls.self_intersection() == 0
        out.append(cls)
    return out


# ---------------------------------------------------------------------------
# semi-effectivity of scaled systems


@dataclass(frozen=True)
class SemiEffectivity:
    """Outcome of probing whether some multiple n*(d; m) is effective.

    status is one of "semi_effective", "not_semi_effective", "boundary".
    witness carries (n, h0) for the effective multiple when one is found.
    sandwich bounds lim alpha_t / t between alpha_s/(s+1) and alpha_s/s,
    where s = k + 1 and alpha_t is the initial degree of the t-fold system.
    """

    status: str
    witness: Optional[Tuple[int, int]] = None
    alpha_s: Optional[int] = None
    s: Optional[int] = None
    sandwich: Optional[Tuple[Fraction, Fraction]] = None


def semi_effectivity_status(cls: PlaneDivisorClass, points: Sequence[Tuple],
                            k: int) -> SemiEffectivity:
    """Decide effectivity of n*(d; m_1..m_r) for some n <= k, or refute it.

    The refutation route bounds lim alpha_t/t from below by alpha_s/(s+1)
    with s = k+1 (uniform symbolic-power containment with big height 2):
    if that exceeds d, no multiple of the class is ever effective.  When the
    bounds straddle d the verdict stays "boundary".
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if len(points) != len(cls.mults):
        raise ValueError("one point per multiplicity")
    d, mults = cls.d, cls.mults
    for n in range(1, k + 1):
        rep = cohomology(FatPointSystem(
            n * d, tuple(points), tuple(n * m for m in mults)))
        if rep.h0 > 0:
            return SemiEffectivity("semi_effective", witness=(n, rep.h0))
    s = k + 1
    a_s = alpha(points, tuple(s * m for m in mults))
    lo, hi = Fraction(a_s, s + 1), Fraction(a_s, s)
    if a_s <= s * d:
        rep = cohomology(FatPointSystem(
            s * d, tuple(points), tuple(s * m for m in mults)))
        assert rep.h0 > 0
        return SemiEffectivity("semi_effective", witness=(s, rep.h0),
                               alpha_s=a_s, s=s, sandwich=(lo, hi))
    if lo > d:
        return SemiEffectivity("not_semi_effective",
                               alpha_s=a_s, s=s, sandwich=(lo, hi))
    return SemiEffectivity("boundary", alpha_s=a_s, s=s, sandwich=(lo, hi))


# ---------------------------------------------------------------------------
# collinearity experiments


def collinear_constraint_experiment(d: int, mults: Sequence[int], groups,
                                    seed: int = DEFAULT_SEED):
    """Compare h0 at general points vs points forced into collinear groups.

    groups is either an int r (one group of r collinear points among the
    first r) or a sequence of group sizes; each group sits on its own random
    line, leftover points are generic.  Returns (general, constrained)
    SystemReports over the same multiplicities.
    """
    sizes = [groups] if isinstance(groups, int) else list(groups)
    if any(g < 2 for g in sizes):
        raise ValueError("collinear groups need at least 2 points")
    r = len(mults)
    if sum(sizes) > r:
        raise ValueError("groups use more points than the system has")
    rng = random.Random((seed, d, tuple(mults), tuple(sizes)).__repr__())
    pts = []
    seen = set()
    for g in sizes:
        base = random_rational_points(2, rng)
        ts = set()
        while len(ts) < g:
            ts.add(_rand_fraction(rng))
        for t in sorted(ts):
            q = normalize_proj(
                tuple(b + t * c for b, c in zip(base[0], base[1])))
            if q in seen:
                raise ValueError("degenerate draw, change the seed")
            seen.add(q)
            pts.append(q)
    while len(pts) < r:
        q = affine_point(_rand_fraction(rng), _rand_fraction(rng))
        if q not in seen:
            seen.add(q)
            pts.append(q)
    constrained = cohomology(FatPointSystem(d, tuple(pts), tuple(mults)))
    general = generic_cohomology(d, mults, seed=seed)
    return general, constrained
