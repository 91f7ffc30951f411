"""Line arrangements in the projective plane: singular points, matroid
circuits with exact dependencies from integer determinants, and the
low-degree graded structure of the ideal of reciprocal-coordinate
relations.  A dependency sum c_j alpha_{i_j} = 0 among k forms gives the
degree-(k-1) relation f = sum_j c_j prod_{l != j} y_{i_l}; the ideal they
generate is read from ranks of coefficient matrices, not Groebner bases.
The circuits read one table of triple determinants; the matrices are
sparse.  A rank mod RANK_PRIME that meets dim I_k, read from the Hilbert
series of the Orlik-Terao algebra, is proved by it; any other by a lift.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction
from math import comb
from operator import add
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ._linalg import RANK_PRIME, deficient_rank, rank_profile_mod_p
from .fatpoints import (DEFAULT_SEED, PlaneDivisorClass,
                        general_position_lines, normalize_proj)
from .lattice import canonical, cross, dot


@dataclass(frozen=True)
class LineArrangement:
    """Pairwise non-proportional nonzero forms a*x + b*y + c*z."""

    forms: Tuple[Tuple[int, int, int], ...]

    def __post_init__(self):
        norm = tuple(normalize_proj(tuple(f)) for f in self.forms)
        if len(set(norm)) != len(norm):
            raise ValueError("forms must be pairwise non-proportional")
        object.__setattr__(self, "forms", norm)

    def __len__(self) -> int:
        return len(self.forms)


def generic_arrangement(s: int, seed: int = DEFAULT_SEED) -> LineArrangement:
    """s random lines with no two parallel and no three concurrent."""
    if s < 2:
        raise ValueError("need at least 2 lines")
    rng = random.Random(repr((seed, "arrangement", s)))
    return LineArrangement(tuple(general_position_lines(s, rng)))


def m8_minus() -> LineArrangement:
    """Eight lines: two horizontal, two vertical, two of slope -1, one of
    slope -2, and the line at infinity.  Seven triple points; the
    reciprocal-coordinate ideal has seven quadric generators, one linear
    syzygy among them, and one extra cubic generator."""
    return LineArrangement((
        (2, 1, -5),
        (1, 1, -2),
        (1, 1, -6),
        (0, 1, -1),
        (0, 1, -3),
        (1, 0, -3),
        (1, 0, -1),
        (0, 0, 1),
    ))


def singular_points(a: LineArrangement):
    """All pairwise intersection points with their line counts t_p >= 2,
    sorted by decreasing multiplicity."""
    if len(a) < 2:
        raise ValueError("need at least 2 lines")
    by_point: Dict[Tuple[int, int, int], set] = {}
    for i, j in itertools.combinations(range(len(a)), 2):
        p = normalize_proj(cross(a.forms[i], a.forms[j]))
        by_point.setdefault(p, set()).update((i, j))
    return sorted(((p, len(ls)) for p, ls in by_point.items()),
                  key=lambda it: (-it[1], it[0]))


@dataclass(frozen=True)
class Circuit:
    """A minimal dependent set of forms with its dependency, normalized to
    coprime integers with positive leading coefficient."""

    indices: Tuple[int, ...]
    coeffs: Tuple[int, ...]


def circuits(a: LineArrangement, max_size: int) -> List[Circuit]:
    """Minimal dependent subsets of size <= max_size in `combinations`
    order, size 3 first: the triples of concurrent lines, then the 4-sets
    holding none (any four forms are dependent; no two are proportional).
    A dependency is sum_l (-1)^l det(the other three) f_l = 0 (Cramer), a
    triple taking the normal of its plane as fourth form: no prime enters
    the result.  Each triple's determinant is computed once: the exact zeros
    are the dependent triples, and a 4-set reads its minors from the table."""
    if max_size > len(a):
        raise ValueError("max_size exceeds the number of lines")
    f = a.forms
    det = {} if max_size < 3 else {
        t: dot(f[t[0]], cross(f[t[1]], f[t[2]]))
        for t in itertools.combinations(range(len(f)), 3)}
    deps = []
    for t, minor in det.items():
        if minor == 0:
            u, v, w = (f[i] for i in t)
            n = cross(u, v)
            deps.append((t, (dot(v, cross(w, n)), -dot(u, cross(w, n)),
                             dot(u, cross(v, n)))))
    if max_size >= 4:
        for q in itertools.combinations(range(len(f)), 4):
            i, j, k, l = q
            dep = (det[j, k, l], -det[i, k, l], det[i, j, l], -det[i, j, k])
            if all(dep):
                deps.append((q, dep))
    out: List[Circuit] = []
    for sub, dep in deps:
        coeffs = canonical(dep)
        for k in range(3):
            assert sum(c * f[i][k] for c, i in zip(coeffs, sub)) == 0
        out.append(Circuit(sub, coeffs))
    return out


@dataclass(frozen=True)
class OTForm:
    """A polynomial in one reciprocal variable per line, stored as sorted
    (exponent vector, integer coefficient) terms."""

    nvars: int
    terms: Tuple[Tuple[Tuple[int, ...], int], ...]

    @property
    def degree(self) -> int:
        return max(sum(e) for e, _ in self.terms)

    def evaluate(self, values: Sequence[Fraction]) -> Fraction:
        total = Fraction(0)
        for exp, c in self.terms:
            prod = Fraction(c)
            for v, e in zip(values, exp):
                prod *= Fraction(v) ** e
            total += prod
        return total


def _circuit_form(c: Circuit, nvars: int) -> OTForm:
    """The generator of a circuit: f = sum_j c_j prod_{l != j} y_{i_l}."""
    terms: Dict[Tuple[int, ...], int] = {}
    for j in range(len(c.indices)):
        exp = [0] * nvars
        for l, idx in enumerate(c.indices):
            if l != j:
                exp[idx] += 1
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + c.coeffs[j]
    items = tuple(sorted((e, v) for e, v in terms.items() if v))
    assert items
    return OTForm(nvars, items)


@dataclass(frozen=True)
class GradedCounts:
    min_gens_by_degree: Tuple[Tuple[int, int], ...]
    linear_syzygies: int


def _monomials(nvars: int, deg: int) -> List[Tuple[int, ...]]:
    out = []
    for combo in itertools.combinations_with_replacement(range(nvars), deg):
        exp = [0] * nvars
        for k in combo:
            exp[k] += 1
        out.append(tuple(exp))
    return sorted(out)


def _ideal_dim(s: int, b2: int, k: int) -> int:
    """dim I_k, k >= 1, of the relation ideal of s lines with
    b2 = sum_p (t_p - 1): C(s + k - 1, k) - dim OT_k, where OT = S/I has
    Hilbert series pi(t/(1 - t)) with pi = (1, s, b2, b2 - s + 1)."""
    pi = (1, s, b2, b2 - s + 1)
    return comb(s + k - 1, k) - sum(pi[i] * comb(k - 1, i - 1)
                                    for i in (1, 2, 3))


def _ideal_rank(shape: Tuple[int, int],
                entries: List[Tuple[int, int, int]], bound: int) -> int:
    """Exact rank of the integer matrix of `shape` whose nonzero entries are
    the (row, column, coefficient) triplets, spanning <= `bound` dimensions.

    The rank mod RANK_PRIME never exceeds the rank over Q, so when it
    meets min(bound, rows, columns) it is proved; otherwise the kernel
    lift of `deficient_rank` proves it from the same elimination, on the
    exact matrix, built only then."""
    rows, cols, coeffs = zip(*entries)
    full = min(bound, *shape)
    residues = np.zeros(shape, dtype=np.int64)
    residues[rows, cols] = [c % RANK_PRIME for c in coeffs]
    profile = rank_profile_mod_p(residues, RANK_PRIME)
    if len(profile[0]) > bound:
        raise ArithmeticError(f"rank {len(profile[0])} exceeds its bound "
                              f"{bound}")
    if len(profile[0]) == full:
        return full
    mat = np.zeros(shape, dtype=object)
    mat[rows, cols] = np.array(coeffs, dtype=object)
    return deficient_rank(mat, full, profile)


def graded_counts(a: LineArrangement, max_deg: int,
                  circs: Optional[Sequence[Circuit]] = None) -> GradedCounts:
    """Minimal generator counts per degree and the number of linear
    syzygies among the minimal quadrics, all by exact ranks.

    `circs`, when given, holds the circuits of `a` up to size max_deg + 1
    at least (as `circuits` lists them); the larger ones are ignored.  A
    coefficient list that is not a dependency of its forms gives a form
    outside the relation ideal, where the bound below fails, and it
    raises ValueError.

    dim of the degree-k piece is the rank of the sparse rows of all monomial
    shifts of the circuit forms into degree k; subtracting the rank of the
    shifts with a nonconstant monomial (the image of degree k-1 under the
    variables) counts minimal generators.  Linear syzygies are the kernel
    of (l_1,..,l_s) -> sum l_i q_i on a basis q of the quadric piece: every
    circuit form has degree >= 2, so the image is piece (3, 1), and their
    number is d dim(piece (2, 0)) - dim(piece (3, 1)).  A degree k with no
    form of its own has the same rows in (k, 0) and (k, 1), ranked once.

    Every such row lies in I_k, the degree-k piece of the relation ideal
    I, so its rank is at most dim I_k (`_ideal_dim`): by Terao's theorem
    the Hilbert series of the Orlik-Terao algebra S/I is pi(t/(1 - t)),
    pi the Poincare polynomial (H. Terao, J. Algebra 250, 2002), whose b2
    is read from `singular_points` once a piece has rows.  A rank mod
    RANK_PRIME that meets the bound is the rank over Q, with no lift.
    The circuits generate I (N. Proudfoot and D. Speyer, Beitr. Algebra
    Geom. 47, 2006), so at any but an unlucky prime every piece (k, 0)
    meets it, and so does (k, 1) unless a minimal generator has degree k.
    A rank short of the bound is proved by the kernel lift of
    `deficient_rank` from the same elimination: on M8, piece (3, 1), the
    56 shifted quadrics, one short of dim I_3 by the linear syzygy.
    """
    if not 1 <= max_deg <= 4:
        raise ValueError("max_deg must be between 1 and 4")
    d = len(a)
    if circs is None:
        circs = circuits(a, min(len(a), max_deg + 1))
    elif any(sum(x * a.forms[i][k] for x, i in zip(c.coeffs, c.indices))
             for c in circs for k in range(3)):
        raise ValueError("a circuit is not a dependency of the forms")
    gens = [_circuit_form(c, d) for c in circs
            if len(c.indices) <= max_deg + 1]
    by_degree: Dict[int, List[OTForm]] = {}
    for f in gens:
        by_degree.setdefault(f.degree, []).append(f)
    b2 = None  # from singular_points, once a piece has rows

    def bound(k: int) -> int:
        nonlocal b2
        if b2 is None:
            b2 = sum(t - 1 for _, t in singular_points(a))
        return _ideal_dim(d, b2, k)

    def piece_rank(k: int, min_shift: int) -> int:
        # one row per shifted form, shift-major, one entry per term
        index = {m: i for i, m in enumerate(_monomials(d, k))}
        entries, nrows = [], 0
        for e, forms in by_degree.items():
            if e > k or k - e < min_shift:
                continue
            for shift in _monomials(d, k - e):
                for f in forms:
                    entries += [(nrows, index[tuple(map(add, exp, shift))], c)
                                for exp, c in f.terms]
                    nrows += 1
        return (_ideal_rank((nrows, len(index)), entries, bound(k))
                if nrows else 0)

    ranks = {}
    for k in range(1, max_deg + 1):
        ranks[k, 0] = piece_rank(k, 0)
        # with no form of degree k, the shifted rows are all the rows
        ranks[k, 1] = piece_rank(k, 1) if k in by_degree else ranks[k, 0]
    counts = [(k, ranks[k, 0] - ranks[k, 1]) for k in range(1, max_deg + 1)]

    lin_syz = 0
    if 2 in by_degree:
        # every form has degree >= 2, so piece (3, 1) is each quadric times
        # each variable, which spans what a basis of the quadrics does
        if (3, 1) not in ranks:
            ranks[3, 1] = piece_rank(3, 1)
        lin_syz = ranks[2, 0] * d - ranks[3, 1]
    return GradedCounts(tuple(counts), lin_syz)


# ---------------------------------------------------------------------------
# the contracted divisor of an arrangement blowup


@dataclass(frozen=True)
class DaDivisorReport:
    divisor: PlaneDivisorClass
    line_pairings: Tuple[int, ...]
    exceptional_pairings: Tuple[int, ...]
    nef_partial: bool


def da_divisor(a: LineArrangement,
               divisor: Optional[PlaneDivisorClass] = None) -> DaDivisorReport:
    """For d generic lines: (d-1) E_0 - sum of the double points.  The
    pairing against every line proper transform is then 0 (the lines are
    contracted) and against every exceptional class it is the positive
    multiplicity.  Non-generic arrangements must supply the class."""
    sing = singular_points(a)
    if divisor is None:
        if any(t > 2 for _, t in sing):
            raise ValueError("non-generic arrangement: supply the divisor")
        divisor = PlaneDivisorClass(len(a) - 1, (1,) * len(sing))
    if len(divisor.mults) != len(sing):
        raise ValueError("multiplicity list does not match singular points")
    line_pairings = tuple(
        divisor.d - sum(m for (p, _), m in zip(sing, divisor.mults)
                        if dot(p, f) == 0) for f in a.forms)
    exc = tuple(divisor.mults)
    nef = all(v >= 0 for v in line_pairings) and all(m >= 0 for m in exc)
    return DaDivisorReport(divisor, line_pairings, exc, nef)
