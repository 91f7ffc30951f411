"""Lattice point sets in Z^2, staircases, and half-plane cuts.

Points are plain (x, y) int tuples.  A cut functional is kept in integer
form, three integers over one positive common denominator, so testing a
point is a sign of a*x + b*y + c in plain ints; its rational coefficients,
and the [num, den] pairs certificates store, are derived from that form.
Thresholds sit at half-integers so a cut can never vanish on a lattice
point, which the partition-based emptiness proofs rely on.

Every module reads document values through `json_int`, `json_ints` and
`json_fraction`: a float, a bool or a string where an int belongs is a
ValueError, so the verifier and every CLI reader refuse the same values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm
from typing import FrozenSet, Iterable, Tuple

import numpy as np

LatticePoint = Tuple[int, int]
MonomialSet = FrozenSet[LatticePoint]


@dataclass(frozen=True, init=False)
class CutFunctional:
    """Affine functional a*x + b*y + c used as a strict half-plane test.

    Built from rational a, b, c; stored as the integers num = (A, B, C) and
    den > 0 with (a, b, c) = (A, B, C) / den and gcd(A, B, C, den) = 1, so
    equal functionals compare and hash equal.  `value`, `as_triple` and the
    certificate codec ([num, den] per coefficient, in lowest terms) derive
    the rational coefficients from this form.
    """

    num: Tuple[int, int, int]
    den: int

    def __init__(self, a, b, c):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == 0 and b == 0:
            raise ValueError("cut needs a nonzero linear part")
        den = lcm(a.denominator, b.denominator, c.denominator)
        object.__setattr__(self, "num", tuple(
            f.numerator * (den // f.denominator) for f in (a, b, c)))
        object.__setattr__(self, "den", den)

    def value(self, p: LatticePoint) -> Fraction:
        a, b, c = self.num
        return Fraction(a * p[0] + b * p[1] + c, self.den)

    def as_triple(self) -> Tuple[Fraction, Fraction, Fraction]:
        return tuple(Fraction(v, self.den) for v in self.num)


def json_int(x) -> int:
    """An integer read from a document: a JSON int, where `int()` would
    also take a float, a bool or a string (and overflow on Infinity)."""
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def json_ints(values, dim=None) -> Tuple[int, ...]:
    """A JSON list (or a tuple) of ints, exactly `dim` of them when `dim`
    is given, as a tuple; anything else is a ValueError."""
    if not isinstance(values, (list, tuple)):
        raise ValueError(f"{values!r} is not a list of integers")
    if not {int}.issuperset(map(type, values)):  # name the first non-int
        json_int(next(x for x in values if type(x) is not int))
    if dim is not None and len(values) != dim:
        raise ValueError(f"{values!r} is not a list of {dim} integers")
    return tuple(values)


def json_fraction(pair) -> Fraction:
    """One [num, den] pair of JSON ints as a Fraction, nonzero denominator."""
    num, den = map(json_int, pair)
    if den == 0:
        raise ValueError(f"[num, den] {pair!r} has a zero denominator")
    return Fraction(num, den)


def _index(values):
    """The distinct values, sorted, and the position of each value among
    them."""
    vals = sorted(set(values))
    at = {v: i for i, v in enumerate(vals)}
    return vals, np.array([at[v] for v in values], dtype=np.intp)


def _falling_table(vals, orders, p=None):
    """falling(v, a) = v (v-1) ... (v-a+1) (mod p) for v in vals (rows)
    and a in the increasing orders (columns): one running product over
    the orders, each factor taken for all the values at once.  It is zero
    from any a > v >= 0 on, since the factor v - v is.  The columns are
    Python lists: the tables are a few dozen values by a few orders, where
    numpy's cost per call exceeds the products."""
    f, done, cols = [1] * len(vals), 0, []
    for k in orders:
        for a in range(done, k):
            f = ([x * (v - a) for x, v in zip(f, vals)] if p is None
                 else [x * (v - a) % p for x, v in zip(f, vals)])
        done = k
        cols.append(f)
    return np.array(cols, dtype=object if p is None else np.int64).reshape(
        len(orders), len(vals)).T


def jet_conditions(exps, blocks, p=None):
    """Jets of monomials at points: one column per exponent (i, j, k) of
    x^i y^j z^k, and per block, a point with integer coordinates (not all
    zero) and the list of its jets (a, b), one row each.

    The point is read in the chart of its last nonzero coordinate w; s and
    t are the other two, and the column exponents (S, T, W) follow the same
    permutation.  Row (a, b) is the partial of order a in s and b in t,
    times w^(a+b):

        falling(S, a) falling(T, b) s^(S-a) t^(T-b) w^(W+a+b),

    falling(n, a) = n (n-1) ... (n-a+1), from tables with one entry per
    exponent and order that occurs.  Negative exponents need coordinate 1.

    With p (2 <= p < 2**31): the int64 matrix of residues mod p, reduced
    after every product.  Without: the exact integer matrix (object array).
    """
    dtype = object if p is None else np.int64

    def mul(x, y):
        return x * y if p is None else x * y % p

    def powers(x, es):  # x^max(e, 0) over the increasing es
        out, last, acc = [], 0, 1
        for e in es:
            if e > last:
                acc *= x if e - last == 1 else pow(x, e - last, p)
                acc, last = acc if p is None else acc % p, e
            out.append(acc)
        return np.array(out, dtype=dtype)

    if not (len(exps) and any(jets for _, jets in blocks)):
        return np.zeros((sum(len(js) for _, js in blocks), len(exps)), dtype)
    orders, at = _index([o for _, js in blocks for jet in js for o in jet])
    # per axis: its values, the column positions, falling(v, a), v - a
    axes = [(vals, where[None, :], _falling_table(vals, orders, p),
             _index([v - a for v in vals for a in orders]))
            for vals, where in map(_index, zip(*exps))]
    out, row = [], 0
    for pt, jets in blocks:
        if any(x != 1 and ax[0][0] < 0 for x, ax in zip(pt, axes)):
            raise ValueError("negative exponents need the coordinate 1")
        w = 2 if pt[2] else 1 if pt[1] else 0
        w_orders = powers(pt[w], orders)
        block = powers(pt[w], axes[w][0])[axes[w][1]]
        # positions of the rows' a and b among the orders
        ab = at.reshape(-1, 2, 1)[row:row + len(jets)].transpose(1, 0, 2)
        row += len(jets)
        for c, k in zip(((1, 2), (0, 2), (0, 1))[w], ab):
            # falling(v, k) x^(v-k) w^k over the values v of axis c
            vals, cols, falls, (es, where) = axes[c]
            table = mul(mul(falls, powers(pt[c], es)[where].reshape(
                falls.shape)), w_orders)
            block = mul(block, table[cols, k])
        out.append(block)
    return np.concatenate(out)


def cross(u, v):
    """Cross product in Z^3: the line through two points of the plane, or
    the point on two lines."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def dot(u, v) -> int:
    """Pairing of a point and a line of the plane: zero when the point
    lies on the line."""
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def dependent_triples(vs):
    """The planes through the origin that hold three or more of the pairwise
    non-proportional integer 3-vectors `vs` (lines through points, or points
    on lines), each as the sorted tuple of its vectors' indices, in sorted
    order, in exact integers.  Each pair (i, j) on no plane found so far
    gives the normal w = v_i x v_j, and its plane holds the k > j that w
    annihilates: a plane's two smallest indices are the first pair to reach
    it, which marks all its pairs, so each plane is found once and whole.
    At most n^3 / 6 dot products for n vectors."""
    planes, marked = [], set()
    for i in range(len(vs) - 2):
        for j in range(i + 1, len(vs) - 1):
            if (i, j) in marked:
                continue
            w = cross(vs[i], vs[j])
            on = [k for k in range(j + 1, len(vs)) if dot(w, vs[k]) == 0]
            if on:
                plane = (i, j, *on)
                planes.append(plane)
                marked.update(combinations(plane, 2))
    return planes


def primitive(v) -> Tuple[int, ...]:
    """The rational vector as coprime integers in the same direction.

    Entries are ints or Fractions: the vector is scaled by the lcm of the
    denominators, then divided by the gcd of the result.
    """
    den = lcm(*(x.denominator for x in v))
    v = [int(x * den) for x in v]
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def canonical(v) -> Tuple[int, ...]:
    """`primitive(v)` with its first nonzero entry positive: one
    representative per line through the origin, as for projective points
    and linear dependencies."""
    v = primitive(v)
    return v if next(x for x in v if x) > 0 else tuple(-x for x in v)


def triangle_set(d: int) -> MonomialSet:
    """Exponents of the monomial basis of degree-<=d forms: x+y <= d."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return frozenset((x, y) for x in range(d + 1) for y in range(d + 1 - x))


def halfplane_partition(points: Iterable[LatticePoint], cut: CutFunctional):
    """Split points into (positive side, negative side) of the cut.

    The side is the sign of A*x + B*y + C over the cut's integer form, so
    no Fraction is built per point."""
    a, b, c = cut.num
    plus, minus = [], []
    to_plus, to_minus = plus.append, minus.append
    for p in points:
        x, y = p
        v = a * x + b * y + c
        if v > 0:
            to_plus(p)
        elif v < 0:
            to_minus(p)
        else:
            raise ValueError(f"cut vanishes on lattice point {p}")
    return frozenset(plus), frozenset(minus)


def triangle_staircase(m: int) -> MonomialSet:
    """Staircase of the degree filtration: all (a, b) with a + b < m."""
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    if m == 0:
        return frozenset()
    return triangle_set(m - 1)
