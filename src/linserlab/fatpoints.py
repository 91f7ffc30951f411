"""Linear systems of plane curves with assigned base multiplicities.

The conditions matrix of L(d; m_1..m_r) holds the derivative conditions of
each point in its affine chart, built by `lattice.jet_conditions` at the
normal form that `FatPointSystem` stores (coprime integers over Q).
Cohomology numbers come from its rank, read after three points that span
the plane are moved to the coordinate vertices (`_vertex_frame`, once per
system, and `_vertex_conditions`): there a multiplicity only kills fixed
monomials, whose columns are deleted and counted.  Over
GF(p) the rank is that of the residues mod p.  Over Q the fixed lines and
conics are split off first by Bezout (a curve that meets the base points
more often than its degree allows is a component of every member), and
the rank of the residual system is read from the residues mod a prime
below 2**26, where full rank is the proof.  When that rank drops and the
class is a multiple L = g (L/g), the degree-g products of the sections of
L/g are members of L whose rank mod the prime bounds h0 from below; where
the two bounds meet, h0 is proved.  Otherwise it comes from the exact
integer matrix and its kernel certificate.  On top of that
sit initial-degree searches (alpha), Waldschmidt sandwiches,
Chudnovsky equality probes, Cremona reduction and semi-effectivity
classification.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd
from operator import index
from typing import Optional, Sequence, Tuple

import numpy as np

from . import _linalg
from .lattice import (canonical, cross, dependent_triples, dot,
                      jet_conditions)

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
    with first nonzero coordinate scaled to 1, where a/b reads a b^-1 and
    a b that p divides raises ValueError.  A coordinate is an integer or a
    Fraction; a float raises TypeError rather than be truncated.
    """
    if len(coords) != 3:
        raise ValueError("projective plane points have 3 coordinates")
    if fieldspec.kind == "prime":
        p = fieldspec.p
        c = tuple(x % p if type(x) is int else _residue(x, p)
                  for x in coords)
        lead = next((x for x in c if x), None)
        if lead is None:
            raise ValueError("(0:0:0) is not a projective point")
        inv = pow(lead, p - 2, p)
        return tuple((x * inv) % p for x in c)
    if all(type(x) is int for x in coords):  # `canonical` without Fractions
        g = gcd(*coords)
        if g == 0:
            raise ValueError("(0:0:0) is not a projective point")
        if (coords[0] or coords[1] or coords[2]) < 0:
            g = -g
        return (coords[0] // g, coords[1] // g, coords[2] // g)
    fracs = [Fraction(*_ratio(x)) for x in coords]
    if not any(fracs):
        raise ValueError("(0:0:0) is not a projective point")
    return canonical(fracs)


def _ratio(x):
    """(numerator, denominator) of an integer or Fraction coordinate."""
    try:
        return int(x.numerator), int(x.denominator)
    except AttributeError:
        raise TypeError(f"coordinate {x!r} is not an integer or a"
                        f" Fraction") from None


def _residue(x, p):
    """The coordinate x = a/b mod p, a b^-1."""
    a, b = _ratio(x)
    if b % p == 0:
        raise ValueError(f"coordinate {x!r} has no residue mod {p}")
    return a * pow(b, -1, p) % p


# ---------------------------------------------------------------------------
# fat point systems


@dataclass(frozen=True)
class FatPointSystem:
    """L(d; m_1, ..., m_r): degree-d curves with multiplicity m_i at p_i.

    The one place where points are checked: each is stored in the normal
    form of `normalize_proj`, they must be distinct in it (one point given
    at two scalings is refused), and over GF(p) every m_i - 1 < p."""

    d: int
    points: Tuple[Tuple, ...]
    mults: Tuple[int, ...]
    fieldspec: FieldSpec = QQ

    def __post_init__(self):
        object.__setattr__(self, "d", index(self.d))
        object.__setattr__(self, "mults", tuple(map(index, self.mults)))
        if len(self.points) != len(self.mults):
            raise ValueError("one multiplicity per point")
        if any(m < 1 for m in self.mults):
            raise ValueError("multiplicities must be >= 1")
        fs = self.fieldspec
        points = tuple(normalize_proj(pt, fs) for pt in self.points)
        if len(set(points)) != len(points):
            raise ValueError("points must be pairwise distinct")
        if fs.kind == "prime" and max(self.mults, default=1) > fs.p:
            raise ValueError(f"multiplicity {max(self.mults)} needs"
                             f" derivatives of order >= {fs.p}, which"
                             f" vanish identically over GF({fs.p})")
        object.__setattr__(self, "points", points)


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


def _modulus(system: FatPointSystem, p: Optional[int]):
    """The modulus that the conditions of `system` are read at: q over
    GF(q), where p must be q or None, else p (None: exact integers)."""
    if system.d < 0:
        raise ValueError("degree must be nonnegative")
    fs = system.fieldspec
    if fs.kind == "prime":
        if p not in (None, fs.p):
            raise ValueError(f"a system over GF({fs.p}) has no matrix"
                             f" mod {p}")
        return fs.p
    if p is not None and not 2 <= p < _linalg.P_LIMIT:
        raise ValueError(f"residues need 2 <= p < 2**31, got {p}")
    return p


def _jets(m: int, d: int):
    """The jets (a, b) of multiplicity m that are rows in degree d."""
    return [(a, b) for a in range(m) for b in range(m - a) if a + b <= d]


def conditions_matrix(system: FatPointSystem, p: Optional[int] = None):
    """Rows impose vanishing of all partials of order < m_i at p_i.

    The rows of each point are its jets (a, b) with a + b < m_i in
    `lattice.jet_conditions`, at the normal form the system stores
    (coprime integers over Q).  Scaling a point by c scales its block by
    c^d, so rank and kernel stay those of the given coordinates.  Rows with
    a + b > d vanish identically and are not emitted; every other row is
    nonzero over Q.  Column order matches monomial_exponents(d).

    With p the result is the int64 matrix of residues mod p, else the exact
    integer matrix (an object array).  A system over GF(q) only has its
    matrix mod q, so p is q or omitted.  The rank passes read the smaller
    matrix of `_vertex_conditions`; this one is their oracle.
    """
    p = _modulus(system, p)
    blocks = [(pt, _jets(m, system.d))
              for pt, m in zip(system.points, system.mults)]
    return jet_conditions(monomial_exponents(system.d), blocks, p)


def _independent(vecs, q: Optional[int]) -> bool:
    """Whether 1-3 vectors of Z^3 are independent over Q, or GF(q)."""
    wedge = cross(*vecs[:2]) if len(vecs) > 1 else vecs[0]
    if len(vecs) == 3:
        wedge = (dot(wedge, vecs[2]),)
    return any(x % q if q else x for x in wedge)


def _vertex_frame(system: FatPointSystem):
    """(picked, moved): the indices of the points sent to the vertices
    e_0, e_1, e_2, in that order, and (k, T q_k) in normal form for every
    other point q_k; only T q_k is normalized here, q_k already is.

    Up to three points, largest multiplicity first and independent over
    the field (mod q over GF(q)), are completed by unit vectors to a basis
    c_0, c_1, c_2; the integer adjugate T of [c_0 c_1 c_2] sends c_i to
    det e_i and, being invertible, keeps ranks and kernel dimensions.  The
    frame depends on the points and on the order of the multiplicities
    only, so it serves every degree and multiple of the system as well.
    """
    fs, mults, pts = system.fieldspec, system.mults, system.points
    picked = []
    for k in sorted(range(len(pts)), key=lambda k: -mults[k]):
        if len(picked) < 3 and _independent(
                [pts[j] for j in picked] + [pts[k]], fs.p):
            picked.append(k)
    basis = [pts[k] for k in picked]
    for e in ((1, 0, 0), (0, 1, 0), (0, 0, 1)):
        if len(basis) < 3 and _independent(basis + [e], fs.p):
            basis.append(e)
    c0, c1, c2 = basis
    adj = (cross(c1, c2), cross(c2, c0), cross(c0, c1))
    return picked, [(k, normalize_proj(tuple(dot(row, pt) for row in adj), fs))
                    for k, pt in enumerate(pts) if k not in picked]


def _kept(picked, d: int, mults):
    """The degree-d exponents that multiplicity mults[k] at the vertex
    e_i, for the i-th picked k, leaves free: e_i <= d - mults[k], in the
    lex order of `monomial_exponents`.  With the bounds b_i, e_0 runs up
    to b_0 and, for each e_0 = i, e_1 = j runs from d - i - b_2 to b_1,
    which keeps e_2 = d - i - j <= b_2."""
    bound = [d, d, d]
    for i, k in enumerate(picked):
        bound[i] = d - mults[k]
    b0, b1, b2 = bound
    return [(i, j, d - i - j) for i in range(min(b0, d) + 1)
            for j in range(max(0, d - i - b2), min(b1, d - i) + 1)]


def _vertex_conditions(frame, d: int, mults, p: Optional[int] = None):
    """(matrix, kept) with rank(conditions_matrix) = killed + rank(matrix),
    killed = C(d + 2, 2) - len(kept), in degree d on the `_vertex_frame`
    of points with multiplicities `mults`.

    At the vertex e_i, multiplicity m only says that the monomials with
    exponent e_i > d - m vanish: unit rows on the columns that `_kept`
    leaves out.  The matrix holds the moved points' jets at T q on the
    kept columns, mod p if given (q over GF(q)), else exact.  Its rows are
    the same over Q and mod p, zero rows included (a point on a line
    through two vertices), so a rank profile mod p names rows of the
    exact matrix.
    """
    picked, moved = frame
    kept = _kept(picked, d, mults)
    blocks = [(pt, _jets(mults[k], d)) for k, pt in moved]
    return jet_conditions(kept, blocks, p), kept


def _conic_through(pts, five, multi):
    """The indices of the points on the conic through the five points
    indexed by `five`, or None if one of the collinear sets `multi` of
    the points (`_peel`) holds three of those five.

    With no three collinear the conic is smooth and unique: the member of
    the pencil spanned by the line pairs L12 L34 and L13 L24 through
    p5, which lies on neither pair.
    """
    if any(len(set(line).intersection(five)) > 2 for line in multi):
        return None
    q = [pts[k] for k in five]
    l12, l34, l13, l24 = (cross(q[0], q[1]), cross(q[2], q[3]),
                          cross(q[0], q[2]), cross(q[1], q[3]))
    lam = dot(l13, q[4]) * dot(l24, q[4])
    mu = dot(l12, q[4]) * dot(l34, q[4])
    return tuple(k for k, x in enumerate(pts)
                 if lam * dot(l12, x) * dot(l34, x)
                 == mu * dot(l13, x) * dot(l24, x))


def _peel(system: FatPointSystem) -> FatPointSystem:
    """The residual system left when the fixed lines and conics of a
    system over Q are split off by Bezout; h0 is unchanged.

    A line through points whose multiplicities sum to more than d meets
    every curve of L(d) more often than d, so it is a component of each:
    L(d; m) = L . L(d - 1; m_p - 1 on the line, clamped at 0).  A smooth
    conic, the one through the five points of largest multiplicity with no
    three of them collinear, is split off the same way when the
    multiplicities on it sum to more than 2d.  The collinear sets depend
    only on the points and are found once (`lattice.dependent_triples`),
    for the lines and the conic; the loop then runs on (d, m) until
    neither curve is fixed or d < 0.  The residual keeps the points with a
    positive multiplicity; its degree may be negative (L(d) = 0).  A curve
    that is not found only leaves the work to the rank.
    """
    pts, d, m = system.points, system.d, list(system.mults)
    multi = dependent_triples(pts)
    conics = {}
    while d >= 0:
        top = sorted(range(len(m)), key=m.__getitem__, reverse=True)
        curve = next((line for line in multi
                      if sum(m[k] for k in line) > d), None)
        step = 1
        if curve is None and len(m) > 1 and m[top[0]] + m[top[1]] > d:
            curve = top[:2]  # a collinear set holding both was taken above
        if (curve is None and len(m) > 4
                and sum(m[k] for k in top[:5]) > 2 * d):
            five = tuple(sorted(top[:5]))
            if five not in conics:
                conics[five] = _conic_through(pts, five, multi)
            curve, step = conics[five], 2
            if curve is not None and sum(m[k] for k in curve) <= 2 * d:
                curve = None
        if curve is None:
            break
        d -= step
        for k in curve:
            m[k] = max(0, m[k] - 1)
    if d == system.d:
        return system
    kept = [k for k in range(len(m)) if m[k]]
    return FatPointSystem(d, tuple(pts[k] for k in kept),
                          tuple(m[k] for k in kept))


def _chi(d: int, mults) -> int:
    return comb(d + 2, 2) - sum(m * (m + 1) // 2 for m in mults)


def _section_products(sections, small_kept, kept, d: int, g: int, p: int):
    """The degree-g products of the sections mod p, one row per product
    (C(k + g - 1, g) of them for k sections) on the exponents `kept`.

    A section is an integer vector on the degree-d/g exponents
    `small_kept`.  The coefficient of x^i y^j z^(e - i - j) in degree e
    <= d sits at i (d + 1) + j of a flat array, so a product of forms is
    the convolution of their arrays: j + j' <= d never carries into i.
    Each entry of a convolution with a section sums at most
    len(small_kept) products of two residues, which the caller keeps
    inside int64.
    """
    width, deg = d + 1, d // g
    flats = np.zeros((len(sections), deg * width + deg + 1), dtype=np.int64)
    flats[:, [i * width + j for i, j, _ in small_kept]] = [
        [x % p for x in v] for v in sections]
    level = [(0, np.ones(1, dtype=np.int64))]  # (first factor, product)
    for _ in range(g):
        level = [(i, np.convolve(f, flats[i]) % p)
                 for first, f in level for i in range(first, len(flats))]
    return np.stack([f for _, f in level])[
        :, [i * width + j for i, j, _ in kept]]


def _products_bound(system: FatPointSystem, upper: int, frame, kept) -> int:
    """A proved lower bound on the kernel dimension of the reduced matrix
    of a system L over Q, from the products of the sections of L/g,
    g = gcd(d, m_1, ..., m_r).  `frame` is the `_vertex_frame` of L and
    `kept` its kept exponents in degree d, as `cohomology` built them.

    The integer kernel of the reduced matrix of L/g = (d/g; m/g), built on
    the same frame, is lifted exactly (`_linalg.nullspace`).  Its k
    sections are members of L/g, and multiplicities add under products,
    so their degree-g products are members of L; a product of kept
    exponents of L/g (e_i <= (d - m)/g) is a kept exponent of L.  The
    rank of the products mod RANK_PRIME is at most their rank over Q,
    hence at most the kernel dimension.  They are formed only when
    upper <= C(k + g - 1, g) <= the kept columns of L and their
    convolutions stay inside int64; otherwise, and when g = 1, the bound
    is 0.
    """
    g = gcd(system.d, *system.mults)
    if g == 1:
        return 0
    p = _linalg.RANK_PRIME
    small, small_kept = _vertex_conditions(
        frame, system.d // g, [m // g for m in system.mults])
    if len(small_kept) * (p - 1)**2 >= 2**63:
        return 0
    sections = _linalg.to_int_rows(
        _linalg.nullspace(small.tolist(), small.shape[1]))
    if not upper <= comb(len(sections) + g - 1, g) <= len(kept):
        return 0
    products = _section_products(sections, small_kept, kept, system.d, g, p)
    return len(_linalg.rank_profile_mod_p(products, p)[0])


def cohomology(system: FatPointSystem) -> SystemReport:
    """Exact h0/h1 of the system (h2 = 0 since d >= 0).

    Over Q the fixed lines and conics are split off first (`_peel`), which
    leaves h0 unchanged: a residual of negative degree has h0 = 0, one
    without points h0 = C(d + 2, 2).  Otherwise h0 is the kept columns
    less the rank of `_vertex_conditions` on the residual's one frame:
    mod RANK_PRIME first, where full rank is already the proof.  A
    deficient rank r leaves the kernel dimension at most cols - r.  When
    g = gcd(d, m_1, ..., m_r) > 1, `_products_bound` forms the degree-g
    products of the proved sections of L/g, whose rank mod RANK_PRIME is
    a lower bound; if it reaches cols - r, h0 is proved without the exact
    matrix of L.  Otherwise the exact reduced matrix is built, and its
    kernel certificate is lifted from the rank profile of that one
    elimination.  The move to the vertices is invertible over Q, so a
    prime that divides its determinant is only unlucky.  A system over
    GF(q) is not peeled; its rank is read mod q.  chi and speciality are
    those of the given system.
    """
    if system.d < 0:
        raise ValueError("degree must be nonnegative")
    rational = system.fieldspec.kind == "rationals"
    residual = _peel(system) if rational else system
    if residual.d < 0:
        h0 = 0
    elif not residual.mults:
        h0 = comb(residual.d + 2, 2)
    else:
        d, mults = residual.d, residual.mults
        p = residual.fieldspec.p or _linalg.RANK_PRIME
        frame = _vertex_frame(residual)
        residues, kept = _vertex_conditions(frame, d, mults, p)
        full = min(residues.shape)
        profile = _linalg.rank_profile_mod_p(residues, p)
        rank = len(profile[0])
        upper = len(kept) - rank  # the kernel dimension at most
        if (rank < full and rational
                and _products_bound(residual, upper, frame, kept) < upper):
            rank = _linalg.deficient_rank(
                _vertex_conditions(frame, d, mults)[0], full, profile)
        h0 = len(kept) - rank
    chi = _chi(system.d, system.mults)
    h1 = h0 - chi
    return SystemReport(
        d=system.d,
        mults=tuple(system.mults),
        h0=h0,
        h1=h1,
        chi=chi,
        expected=max(0, chi),
        special=(h0 > 0 and h1 > 0),
    )


# ---------------------------------------------------------------------------
# random rational points and named configurations


def _rand_pair(rng: random.Random) -> Tuple[int, int]:
    """The numerator and denominator of a random fraction; its height
    stays well under 1e4."""
    return rng.randint(-999, 999), rng.randint(1, 9)


def _rand_fraction(rng: random.Random) -> Fraction:
    return Fraction(*_rand_pair(rng))


def _rand_point(rng: random.Random) -> Tuple:
    """The affine point (a/b, c/e) in normal form, a/b and c/e drawn by
    two `_rand_pair` calls.  It is built as the integer triple
    (a e, c b, b e), so no Fraction is made, and `normalize_proj` takes
    its integer path."""
    (a, b), (c, e) = _rand_pair(rng), _rand_pair(rng)
    return normalize_proj((a * e, c * b, b * e))


def random_rational_points(r: int, rng: random.Random):
    """r distinct affine points (a/b, c/e) in normal form, with
    |a|, |c| <= 999 and 1 <= b, e <= 9 drawn in that order from rng, and a
    point seen before drawn again (`_rand_point`)."""
    pts = []
    seen = set()
    while len(pts) < r:
        p = _rand_point(rng)
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return tuple(pts)


def generic_cohomology(d: int, mults: Sequence[int], seed: int = DEFAULT_SEED,
                       trials: int = 2) -> SystemReport:
    """Cohomology at seed-deterministic random rational points.

    Reports the minimum h0 over the trials: extra vanishing at a special draw
    can only raise h0, so the minimum is the best generic estimate.  No
    draw goes below max(0, chi), so a trial that reaches it ends the loop.
    """
    rng = random.Random(seed)
    best = None
    for _ in range(max(1, trials)):
        pts = random_rational_points(len(mults), rng)
        rep = cohomology(FatPointSystem(d, pts, tuple(mults)))
        if best is None or rep.h0 < best.h0:
            best = rep
        if best.h0 == best.expected:
            break
    return best


def _collinear_points(r: int, rng: random.Random):
    """r points b + t c on the line through two random points b and c, at
    r distinct random t in increasing order, and that line."""
    b, c = random_rational_points(2, rng)
    ts = set()
    while len(ts) < r:
        ts.add(_rand_fraction(rng))
    pts = tuple(normalize_proj(tuple(x + t * y for x, y in zip(b, c)))
                for t in sorted(ts))
    return pts, normalize_proj(cross(b, c))


def _rand_line(rng: random.Random):
    while True:
        line = (rng.randint(-9, 9), rng.randint(-9, 9), rng.randint(-9, 9))
        if any(line):
            return line


def general_position_lines(k: int, rng: random.Random):
    """k lines, pairwise distinct, no three concurrent
    (`lattice.dependent_triples`)."""
    if k < 0:
        raise ValueError("the number of lines must be >= 0")
    while True:
        lines = [_rand_line(rng) for _ in range(k)]
        if (len({normalize_proj(l) for l in lines}) == k
                and not dependent_triples(lines)):
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
        pts, line = _collinear_points(r, rng)
        return PointConfig(kind, pts, lines=(line,), seed=seed)
    if kind == "star":
        s = params["s"]
        if s < 2:
            raise ValueError("a star needs at least 2 lines")
        lines = general_position_lines(s, rng)
        pts = sorted(
            normalize_proj(cross(lines[i], lines[j]))
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
            normalize_proj(cross(a, b)) for a in first for b in second
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

    If f is in L(t), then l f is in L(t+1) for every linear form l, so
    alpha is found by bisection between a degree proved empty (lo = -1 at
    first) and the chi bound, the least t with C(t+2, 2) > sum C(m_i+1, 2),
    where chi > 0 proves L(t) nonempty.  A probe at t reads the rank of
    its `_vertex_conditions` mod RANK_PRIME on the points' one frame: full
    column rank proves L(t) empty, so lo = t; a deficient rank only
    suggests L(t) nonempty, so hi = t tentatively.  The first probe is at
    hi - 1, which settles a nonspecial system with one modular rank.  When
    hi = lo + 1 below the chi bound, `cohomology` proves h0 of L(hi); if it
    is 0, lo = hi and the search resumes below the chi bound.
    """
    if isinstance(m, int):
        if m < 1:
            raise ValueError("multiplicity must be >= 1")
        m = (m,) * len(points)
    points, mults = tuple(points), tuple(m)
    conditions = sum(comb(k + 1, 2) for k in mults)
    bound = 0
    while comb(bound + 2, 2) <= conditions:
        bound += 1
    frame = _vertex_frame(FatPointSystem(bound, points, mults))
    p = _linalg.RANK_PRIME
    lo, hi, t = -1, bound, bound - 1
    while True:
        while hi - lo > 1:
            residues, kept = _vertex_conditions(frame, t, mults, p)
            if len(_linalg.rank_profile_mod_p(residues, p)[0]) == len(kept):
                lo = t
            else:
                hi = t
            t = (lo + hi) // 2
        if hi == bound or cohomology(FatPointSystem(hi, points, mults)).h0:
            return hi
        lo, hi = hi, bound
        t = (lo + hi) // 2


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
# divisor classes and Cremona reduction


@dataclass(frozen=True)
class PlaneDivisorClass:
    """Class dH - sum m_i E_i on a blow-up of the plane."""

    d: int
    mults: Tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "d", index(self.d))
        object.__setattr__(self, "mults", tuple(map(index, self.mults)))

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
    line, leftover points are generic; `FatPointSystem` refuses groups
    that share a point.  Returns (general, constrained) SystemReports over
    the same multiplicities.
    """
    sizes = [groups] if isinstance(groups, int) else list(groups)
    if any(g < 2 for g in sizes):
        raise ValueError("collinear groups need at least 2 points")
    r = len(mults)
    if sum(sizes) > r:
        raise ValueError("groups use more points than the system has")
    rng = random.Random((seed, d, tuple(mults), tuple(sizes)).__repr__())
    pts = []
    for g in sizes:
        pts += _collinear_points(g, rng)[0]
    seen = set(pts)
    while len(pts) < r:
        q = _rand_point(rng)
        if q not in seen:
            seen.add(q)
            pts.append(q)
    constrained = cohomology(FatPointSystem(d, tuple(pts), tuple(mults)))
    general = generic_cohomology(d, mults, seed=seed)
    return general, constrained
