"""Lattice point sets in Z^2, staircases, and half-plane cuts.

Points are plain (x, y) int tuples.  Cut functionals carry rational
coefficients; thresholds sit at half-integers so a cut can never vanish on a
lattice point, which the partition-based emptiness proofs rely on.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import FrozenSet, Iterable, Tuple

LatticePoint = Tuple[int, int]
MonomialSet = FrozenSet[LatticePoint]


@dataclass(frozen=True)
class CutFunctional:
    """Affine functional a*x + b*y + c used as a strict half-plane test."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __post_init__(self):
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))
        object.__setattr__(self, "c", Fraction(self.c))
        if self.a == 0 and self.b == 0:
            raise ValueError("cut needs a nonzero linear part")

    def value(self, p: LatticePoint) -> Fraction:
        return self.a * p[0] + self.b * p[1] + self.c

    def as_triple(self):
        return (self.a, self.b, self.c)


def integer_threshold(a, b, t) -> CutFunctional:
    """Cut whose positive side is exactly {a*x + b*y >= t} on Z^2.

    Encodes the strict inequality a*x + b*y > t - eps (0 < eps < 1) without
    carrying eps around: shifting the threshold to t - 1/2 gives the same
    lattice half-plane and never vanishes on integer points.
    """
    return CutFunctional(Fraction(a), Fraction(b), Fraction(1, 2) - Fraction(t))


def falling(n: int, k: int) -> int:
    """n (n-1) ... (n-k+1): the k-th derivative of x^n at x = 1.

    Zero when 0 <= n < k, which is how jets of order k kill x^n.
    """
    if 0 <= n < k:
        return 0
    out = 1
    for t in range(k):
        out *= n - t
    return out


def cross(u, v):
    """Cross product in Z^3: the line through two points of the plane, or
    the point on two lines."""
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def primitive(v) -> Tuple[int, ...]:
    """The integer vector divided by the gcd of its entries."""
    v = tuple(int(x) for x in v)
    g = gcd(*v)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in v)


def triangle_set(d: int) -> MonomialSet:
    """Exponents of the monomial basis of degree-<=d forms: x+y <= d."""
    if d < 0:
        raise ValueError("degree must be nonnegative")
    return frozenset((x, y) for x in range(d + 1) for y in range(d + 1 - x))


def halfplane_partition(points: Iterable[LatticePoint], cut: CutFunctional):
    """Split points into (positive side, negative side) of the cut."""
    plus, minus = set(), set()
    for p in points:
        v = cut.value(p)
        if v > 0:
            plus.add(p)
        elif v < 0:
            minus.add(p)
        else:
            raise ValueError(f"cut vanishes on lattice point {p}")
    return frozenset(plus), frozenset(minus)


def is_staircase(points: MonomialSet) -> bool:
    """True when the set is closed under decrementing either coordinate."""
    pts = frozenset(points)
    for (x, y) in pts:
        if x < 0 or y < 0:
            return False
        if x and (x - 1, y) not in pts:
            return False
        if y and (x, y - 1) not in pts:
            return False
    return True


def triangle_staircase(m: int) -> MonomialSet:
    """Staircase of the degree filtration: all (a, b) with a + b < m."""
    if m < 0:
        raise ValueError("multiplicity must be nonnegative")
    if m == 0:
        return frozenset()
    return triangle_set(m - 1)


def collision_staircase(r: int, m: int) -> MonomialSet:
    """Standard monomials of (y, x^r)^m: j < m and i < r*(m - j).

    Limit scheme of m-fold points colliding along a horizontal r-jet; the
    count is r * C(m+1, 2).
    """
    if r < 1 or m < 0:
        raise ValueError("need r >= 1 and m >= 0")
    return frozenset(
        (i, j) for j in range(m) for i in range(r * (m - j))
    )
