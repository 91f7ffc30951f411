"""Fat-point systems: cohomology tables, initial degrees, Cremona, Pell."""

import itertools
import random
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

from linserlab import _linalg, fatpoints
from linserlab._linalg import (CERT_PRIMES, RANK_PRIME, rank_exact,
                               rank_mod_p)
from linserlab.fatpoints import (
    GF,
    FatPointSystem,
    PlaneDivisorClass,
    alpha,
    chudnovsky_report,
    cohomology,
    collinear_constraint_experiment,
    conditions_matrix,
    cremona_reduce,
    general_position_lines,
    generic_cohomology,
    make_config,
    monomial_exponents,
    normalize_proj,
    semi_effectivity_status,
    speciality_stability,
    waldschmidt_sandwich,
)
from linserlab.lattice import cross, dependent_triples, dot

SEEDS = (11, 23, 77)

# (d, mults, h0, h1) at points in general position
TABLES = [
    (4, (2, 2, 2, 2, 2), 1, 1),
    (4, (1, 2, 2, 2, 2), 2, 0),
    (6, (3, 3, 3, 3, 3), 1, 3),
    (6, (2, 3, 3, 3, 3), 2, 1),
    (3, (1,) * 9, 1, 0),
]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("d,mults,h0,h1", TABLES)
def test_generic_tables(d, mults, h0, h1, seed):
    rep = generic_cohomology(d, mults, seed=seed)
    assert (rep.h0, rep.h1) == (h0, h1)
    assert rep.chi == comb(d + 2, 2) - sum(m * (m + 1) // 2 for m in mults)
    assert rep.special == (h0 > 0 and h1 > 0)


def test_conditions_rank_matches_sympy():
    cfg = make_config("random", {"r": 5}, seed=11)
    system = FatPointSystem(4, cfg.points, (2,) * 5)
    rows = conditions_matrix(system)
    oracle = DomainMatrix.from_Matrix(sympy.Matrix(rows)).rank()
    assert cohomology(system).h0 == comb(6, 2) - oracle


def _falling(n, k):
    out = 1
    for t in range(k):
        out *= n - t
    return out


def _three_branch_conditions(system):
    """The builder as it was before the one-formula rewrite: one loop per
    entry and one branch per chart, kept as the oracle."""
    d = system.d
    fs = system.fieldspec
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


def _nonzero_rows(rows):
    # rows with a + b > d vanish identically and the builder drops them
    return [row for row in rows if any(row)]


def _point_in_a_chart(coord):
    nonzero = coord.filter(bool)
    return st.one_of(
        st.tuples(coord, coord, nonzero),
        st.tuples(coord, nonzero, st.just(0)),  # z = 0
        st.tuples(nonzero, st.just(0), st.just(0)),  # y = z = 0
    )


rational = st.fractions(min_value=-40, max_value=40, max_denominator=6)


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(min_value=0, max_value=6),
    points=st.lists(_point_in_a_chart(rational), min_size=1, max_size=4,
                    unique_by=normalize_proj),
    data=st.data(),
)
def test_builder_matches_three_branch_oracle(d, points, data):
    # multiplicities up to 8 often exceed d + 1, where rows are dropped
    mults = tuple(data.draw(st.lists(st.integers(1, 8), min_size=len(points),
                                     max_size=len(points))))
    system = FatPointSystem(d, tuple(points), mults)
    assert system.points == tuple(normalize_proj(p) for p in points)
    oracle = _nonzero_rows(_three_branch_conditions(system))
    exact = conditions_matrix(system)
    assert exact.dtype == object and exact.tolist() == oracle
    assert exact.shape[0] == sum(1 for m in mults for a in range(m)
                                 for b in range(m - a) if a + b <= d)
    # mod 7 some coordinates vanish: the chart still comes from Q
    for p in (CERT_PRIMES[0], 7):
        residues = conditions_matrix(system, p)
        assert residues.dtype == np.int64
        assert residues.tolist() == [[e % p for e in row] for row in oracle]
    # Fraction coordinates scale each block by a constant: same rank
    raw = _three_branch_conditions(SimpleNamespace(
        d=d, points=points, mults=mults, fieldspec=fatpoints.QQ))
    assert cohomology(system).h0 == comb(d + 2, 2) - rank_exact(raw)


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7, 2**31 - 1]), data=st.data())
def test_builder_mod_q_matches_three_branch_oracle(p, data):
    coord = st.one_of(st.just(0), st.integers(-50, 50))
    point = st.tuples(coord, coord, coord).filter(
        lambda c: any(x % p for x in c)).map(lambda c: normalize_proj(c, GF(p)))
    points = data.draw(st.lists(point, min_size=1, max_size=3, unique=True))
    d = data.draw(st.integers(0, 6))
    mults = tuple(data.draw(st.lists(st.integers(1, min(p, 5)),
                                     min_size=len(points),
                                     max_size=len(points))))
    system = FatPointSystem(d, tuple(points), mults, fieldspec=GF(p))
    oracle = _nonzero_rows(_three_branch_conditions(system))
    assert conditions_matrix(system).tolist() == oracle
    assert conditions_matrix(system, p).tolist() == oracle
    assert cohomology(system).h0 == comb(d + 2, 2) - rank_mod_p(oracle, p)


def test_builder_refuses_other_moduli():
    pt = ((1, 2, 3),)
    with pytest.raises(ValueError):
        conditions_matrix(FatPointSystem(3, pt, (2,), fieldspec=GF(5)), 7)
    with pytest.raises(ValueError):
        conditions_matrix(FatPointSystem(3, pt, (2,)), 2**31 + 11)


def _reduced(system, p=None):
    """(matrix, killed) of the system on its own vertex frame, mod p if
    given (mod q over GF(q)), with killed = C(d + 2, 2) - len(kept)."""
    matrix, kept = fatpoints._vertex_conditions(
        fatpoints._vertex_frame(system), system.d, system.mults,
        system.fieldspec.p if p is None else p)
    return matrix, comb(system.d + 2, 2) - len(kept)


def _spy_builds_and_primes(monkeypatch):
    """Moduli of every build of the vertex-reduced matrix of the system
    (the build of L/g inside `_products_bound` is not listed; an
    unreduced `conditions_matrix` build is recorded as ("unreduced", p)),
    primes of every rank pass and determinant residue, and (prime, shape)
    of every inversion mod p; the two rank passes inside an inversion and
    the one inside a determinant residue are not listed apart."""
    builds, primes, inverses, inside, bounding = [], [], [], [], []
    build, bound, unreduced, profile, det, inverse = (
        fatpoints._vertex_conditions, fatpoints._products_bound,
        fatpoints.conditions_matrix, _linalg.rank_profile_mod_p,
        _linalg._det_mod_p, _linalg._inverse)

    def spy_build(frame, d, mults, p=None):
        if not bounding:
            builds.append(p)
        return build(frame, d, mults, p)

    def spy_bound(*args):
        bounding.append(args)
        try:
            return bound(*args)
        finally:
            bounding.pop()

    def spy_unreduced(system, p=None):
        builds.append(("unreduced", p))
        return unreduced(system, p)

    def spy_profile(a, p):
        if not inside:
            primes.append(p)
        return profile(a, p)

    def spy_det(b, p):
        primes.append(p)
        inside.append(b)
        try:
            return det(b, p)
        finally:
            inside.pop()

    def spy_inverse(b, p):
        inverses.append((p, b.shape))
        inside.append(b)
        try:
            return inverse(b, p)
        finally:
            inside.pop()

    monkeypatch.setattr(fatpoints, "_vertex_conditions", spy_build)
    monkeypatch.setattr(fatpoints, "_products_bound", spy_bound)
    monkeypatch.setattr(fatpoints, "conditions_matrix", spy_unreduced)
    monkeypatch.setattr(_linalg, "rank_profile_mod_p", spy_profile)
    monkeypatch.setattr(_linalg, "_det_mod_p", spy_det)
    monkeypatch.setattr(_linalg, "_inverse", spy_inverse)
    return builds, primes, inverses


def test_nonspecial_system_never_builds_the_exact_matrix(monkeypatch):
    pts = make_config("random", {"r": 8}, seed=11).points
    builds, primes, inverses = _spy_builds_and_primes(monkeypatch)
    rep = cohomology(FatPointSystem(10, pts, (3,) * 8))
    assert (rep.h0, rep.h1) == (18, 0)
    assert builds == [RANK_PRIME] and primes == [RANK_PRIME]
    assert inverses == []


def _eliminated_once(monkeypatch, pts, d, mults):
    """The (h0, h1) of the system, checking that the kernel proof reuses
    the rank profile of the one elimination mod RANK_PRIME: the exact
    vertex-reduced matrix is built once, only its square pivot block is
    inverted, once, and no other prime (no determinant residue) is
    eliminated."""
    system = FatPointSystem(d, pts, mults)
    killed = _reduced(system)[1]
    builds, primes, inverses = _spy_builds_and_primes(monkeypatch)
    rep = cohomology(system)
    rank = (d + 1) * (d + 2) // 2 - rep.h0 - killed
    assert builds == [RANK_PRIME, None]
    assert primes == [RANK_PRIME]
    assert inverses == [(RANK_PRIME, (rank, rank))]
    return rep.h0, rep.h1


def test_cubic_pencil_builds_exact_matrix_once(monkeypatch):
    # the nine base points of the pencil spanned by two triples of lines:
    # each line carries 1 + 1 + 1 = d and a conic through five of them
    # carries at most 6 = 2d, so nothing is peeled and the rank of the
    # 6 x 7 reduced matrix drops to 5; g = 1, so it is lifted
    pts = make_config("pencil_products", {"k": 3}, seed=11).points
    assert _eliminated_once(monkeypatch, pts, 3, (1,) * 9) == (2, 1)


def test_multiple_pencil_is_proved_by_products(monkeypatch):
    # (6; 2^9) = 2 (3; 1^9) at the same points: the products F^2, FG, G^2
    # of the pencil's cubics prove h0 = 3, so the exact 18 x 19 reduced
    # matrix is neither built nor lifted; only the 6 x 7 one of (3; 1^9)
    pts = make_config("pencil_products", {"k": 3}, seed=11).points
    system = FatPointSystem(6, pts, (2,) * 9)
    assert _reduced(system, RANK_PRIME)[0].shape == (18, 19)
    builds, primes, inverses = _spy_builds_and_primes(monkeypatch)
    lifted, lift = [], _linalg.deficient_rank
    monkeypatch.setattr(_linalg, "deficient_rank", lambda mat, *args: (
        lifted.append(mat.shape) or lift(mat, *args)))
    rep = cohomology(system)
    assert (rep.h0, rep.h1) == (3, 2)
    assert lifted == [] and builds == [RANK_PRIME]
    # the rank passes of the 18 x 19 residues, of the 6 x 7 matrix whose
    # kernel the pencil's two cubics span, and of the three products; its
    # 5 x 5 pivot block is the only one inverted
    assert primes == [RANK_PRIME] * 3
    assert inverses == [(RANK_PRIME, (5, 5))]


@st.composite
def _pencil_points(draw):
    """The nine points where a triple of lines meets another, no three
    of the six lines concurrent: the base points of a cubic pencil."""
    line = st.tuples(*[st.integers(-9, 9)] * 3).filter(any)
    lines = draw(st.lists(line, min_size=6, max_size=6,
                          unique_by=normalize_proj))
    assume(all(dot(cross(a, b), c)
               for a, b, c in itertools.combinations(lines, 3)))
    return tuple(normalize_proj(cross(a, b))
                 for a in lines[:3] for b in lines[3:])


@settings(max_examples=20, deadline=None)
@given(_pencil_points(), st.integers(2, 5))
def test_pencil_products_prove_h0(pts, n):
    system = FatPointSystem(3 * n, pts, (n,) * 9)
    mat, killed = _reduced(system)
    upper = mat.shape[1] - len(_linalg.rank_profile_mod_p(
        _reduced(system, RANK_PRIME)[0], RANK_PRIME)[0])
    frame = fatpoints._vertex_frame(system)
    kept = fatpoints._kept(frame[0], 3 * n, (n,) * 9)
    # the products path, and the lift of the exact matrix as the oracle
    assert fatpoints._products_bound(system, upper, frame, kept) == (
        upper) == n + 1
    assert cohomology(system).h0 == n + 1
    assert mat.shape[1] - _linalg.deficient_rank(mat, min(mat.shape)) == (
        n + 1)
    # the products F^a G^(n - a), exact on the shared frame, lie on the
    # kept columns, are annihilated by the exact matrix, and are what
    # the products path reads mod RANK_PRIME
    small, small_kept = fatpoints._vertex_conditions(frame, 3, (1,) * 9)
    sections = _linalg.to_int_rows(_linalg.nullspace(small.tolist()))
    xyz = sympy.symbols("x y z")
    forms = [sympy.Poly(dict(zip(small_kept, v)), *xyz) for v in sections]
    exact = []
    for combo in itertools.combinations_with_replacement(forms, n):
        terms = sympy.prod(combo).as_dict()
        assert set(terms) <= set(kept)
        exact.append([int(terms.get(e, 0)) for e in kept])
    assert not (mat @ np.array(exact, dtype=object).T).any()
    assert fatpoints._section_products(
        sections, small_kept, kept, 3 * n, n, RANK_PRIME).tolist() == [
            [c % RANK_PRIME for c in row] for row in exact]
    # one product short, the rank of the products misses the bound and
    # the exact matrix is lifted
    products, lift, lifted = (fatpoints._section_products,
                              _linalg.deficient_rank, [])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fatpoints, "_section_products",
                   lambda *args: products(*args)[1:])
        mp.setattr(_linalg, "deficient_rank", lambda m, *args: (
            lifted.append(m.shape) or lift(m, *args)))
        assert cohomology(system).h0 == n + 1
    assert lifted == [mat.shape]


def _peeled(monkeypatch, d, mults):
    """The (h0, h1) at random points and the moduli of the matrices
    built, checking that neither the exact matrix nor a kernel proof was
    needed."""
    pts = make_config("random", {"r": len(mults)}, seed=11).points
    builds, primes, inverses = _spy_builds_and_primes(monkeypatch)
    lifts = []
    monkeypatch.setattr(_linalg, "deficient_rank",
                        lambda *args: lifts.append(args))
    rep = cohomology(FatPointSystem(d, pts, mults))
    assert lifts == [] and inverses == [] and None not in builds
    return rep.h0, rep.h1, builds


@pytest.mark.parametrize("n", [1, 2, 3])
def test_double_conic_peels_without_a_matrix(monkeypatch, n):
    # the conic through the five points is fixed 2n times: (0; 0^5)
    chi = comb(4 * n + 2, 2) - 5 * comb(2 * n + 1, 2)
    assert _peeled(monkeypatch, 4 * n, (2 * n,) * 5) == (1, 1 - chi, [])


def test_fixed_line_peels_without_exact_matrix(monkeypatch):
    # m1 + m2 > d: the line through the first two points is fixed twice,
    # and the residual (7; 4, 3, 1, 1) has full rank mod RANK_PRIME
    assert _peeled(monkeypatch, 9, (6, 5, 1, 1)) == (18, 1, [RANK_PRIME])


def test_peel_refuses_a_line_at_exactly_d():
    pts = make_config("random", {"r": 3}, seed=11).points
    at_d = FatPointSystem(4, pts[:2], (2, 2))
    assert fatpoints._peel(at_d) is at_d
    above = fatpoints._peel(FatPointSystem(4, pts[:2], (3, 2)))
    assert (above.d, above.mults) == (3, (2, 1))
    # a third point off the line keeps its multiplicity
    three = fatpoints._peel(FatPointSystem(4, pts, (3, 2, 1)))
    assert (three.d, three.mults) == (3, (2, 1, 1))


def test_conic_refuses_three_collinear_points():
    circle = [(1, 0, 1), (0, 1, 1), (-1, 0, 1), (0, -1, 1), (3, 4, 5),
              (5, 12, 13), (1, 1, 1)]
    multi = dependent_triples(circle)
    assert fatpoints._conic_through(circle, (0, 1, 2, 3, 4), multi) == (
        0, 1, 2, 3, 4, 5)
    assert fatpoints._conic_through(circle, (0, 1, 2, 5, 4), multi) == (
        0, 1, 2, 3, 4, 5)
    # (1:0:1), (0:0:1) and (-1:0:1) lie on y = 0: no smooth conic
    pts = circle[:4] + [(0, 0, 1)]
    assert fatpoints._conic_through(pts, (0, 1, 2, 3, 4),
                                    dependent_triples(pts)) is None
    system = FatPointSystem(4, tuple(pts), (2,) * 5)
    assert cohomology(system).h0 == 15 - rank_exact(
        conditions_matrix(system).tolist())


def test_the_same_point_twice_is_refused():
    # the system stores each point in normal form and refuses one
    # projective point given twice: at two scalings, or equal mod p
    system = FatPointSystem(3, ((0, 0, 2), (Fraction(1, 2), 1, -3)), (1, 1))
    assert system.points == ((0, 0, 1), (1, 2, -6))
    with pytest.raises(ValueError, match="pairwise distinct"):
        FatPointSystem(3, ((0, 0, 1), (0, 0, 2)), (2, 2))
    with pytest.raises(ValueError, match="pairwise distinct"):
        FatPointSystem(3, ((1, 2, 3), (8, 2, 10)), (1, 1), fieldspec=GF(7))
    assert FatPointSystem(3, ((1, 2, 3), (8, 2, 10)), (1, 1)).points == (
        (1, 2, 3), (4, 1, 5))


def test_point_coordinates_are_read_exactly():
    # over GF(p), a/b is a b^-1 mod p (1/2 = 4 mod 7), and a b that p
    # divides has no residue; a float is refused over Q and over GF(p)
    assert normalize_proj((Fraction(1, 2), 1, 1), GF(7)) == (1, 2, 2)
    assert normalize_proj((np.int64(3), Fraction(-2, 3), 1), GF(7)) == (
        1, 6, 5)
    system = FatPointSystem(1, ((Fraction(1, 2), 1, 1), (0, 1, 1)), (1, 1),
                            GF(7))
    assert system.points == ((1, 2, 2), (0, 1, 1))
    with pytest.raises(ValueError, match="no residue mod 7"):
        normalize_proj((Fraction(1, 7), 1, 1), GF(7))
    with pytest.raises(ValueError, match="no residue mod 7"):
        FatPointSystem(1, ((1, Fraction(2, 21), 1),), (1,), GF(7))
    for fs in (fatpoints.QQ, GF(7)):
        for pt in ((0.5, 1, 1), (1, np.float64(2.0), 3), (1, 1, 2.0)):
            with pytest.raises(TypeError):
                normalize_proj(pt, fs)
            with pytest.raises(TypeError):
                FatPointSystem(1, (pt,), (1,), fs)


def test_alpha_star_proves_by_peeling(monkeypatch):
    # the five lines of the star are fixed in L(5; 2^10): (0; 0^10)
    star = make_config("star", {"s": 5}, seed=3).points
    residual = fatpoints._peel(FatPointSystem(5, star, (2,) * 10))
    assert (residual.d, residual.mults) == (0, ())
    lifts = []
    real = _linalg.deficient_rank
    monkeypatch.setattr(_linalg, "deficient_rank",
                        lambda *args: lifts.append(args) or real(*args))
    assert alpha(star, 2) == 5 and lifts == []


def _line_points(draw, k):
    vec = st.tuples(*(st.integers(-9, 9),) * 3)
    a, b = draw(st.tuples(vec, vec).filter(lambda ab: any(cross(*ab))))
    ts = draw(st.lists(st.integers(-6, 6), min_size=k, max_size=k,
                       unique=True))
    return [tuple(x + t * y for x, y in zip(a, b)) for t in ts]


def _conic_points(draw):
    """Five points M (s^2, s, 1) on the image of a smooth conic under an
    invertible integer M."""
    vec = st.tuples(*(st.integers(-3, 3),) * 3)
    rows = draw(st.tuples(vec, vec, vec).filter(
        lambda m: dot(m[0], cross(m[1], m[2]))))
    ss = draw(st.lists(st.integers(-4, 4), min_size=5, max_size=5,
                       unique=True))
    return [tuple(dot(row, (s * s, s, 1)) for row in rows) for s in ss]


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_peel_keeps_h0_of_the_unpeeled_matrix(data):
    draw = data.draw
    mult = st.integers(1, 4)
    planted, degrees = [], [st.integers(0, 7)]
    if draw(st.booleans()):
        # at d = 2 m two conic points carry d and the five carry more than
        # 2d, so the conic comes off unless a line does first
        m = draw(st.integers(1, 3))
        planted += [(pt, m) for pt in _conic_points(draw)]
        degrees.append(st.just(2 * m))
        mult = st.integers(1, m)
    if draw(st.booleans()):
        planted += [(pt, draw(mult))
                    for pt in _line_points(draw, draw(st.integers(2, 4)))]
    coord = st.integers(-20, 20)
    planted += [(draw(st.tuples(coord, coord, coord).filter(any)),
                 draw(mult))
                for _ in range(draw(st.integers(0 if planted else 1, 2)))]
    distinct = {}
    for pt, m in planted:
        distinct.setdefault(normalize_proj(pt), (pt, m))
    pts, mults = zip(*distinct.values())
    # small degrees against multiplicities up to 4 drive some residual
    # multiplicities to 0 and some residual degrees below 0
    system = FatPointSystem(draw(st.one_of(degrees)), pts, mults)
    assert cohomology(system).h0 == comb(system.d + 2, 2) - rank_exact(
        conditions_matrix(system).tolist())


def test_prime_field_builds_residues_only(monkeypatch):
    pts = ((0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1), (1, 2, 3))
    builds, primes, inverses = _spy_builds_and_primes(monkeypatch)
    rep = cohomology(FatPointSystem(4, pts, (2,) * 5, fieldspec=GF(7)))
    assert (rep.h0, rep.h1) == (1, 1)
    assert builds == [7] and primes == [7] and inverses == []


@pytest.mark.parametrize("d, mults, trials", [
    (13, (5,) + (4,) * 9, 1),  # the first draw already has h0 = chi = 0
    (4, (2,) * 5, 2),          # the double conic stays above chi = 0
])
def test_generic_cohomology_stops_at_expected(monkeypatch, d, mults, trials):
    calls = []
    real = fatpoints.cohomology

    def spy(system):
        calls.append(system.points)
        return real(system)

    monkeypatch.setattr(fatpoints, "cohomology", spy)
    rep = generic_cohomology(d, mults, trials=2)
    assert len(calls) == trials
    assert rep.h0 == (0 if trials == 1 else 1)


def test_input_validation():
    pts = make_config("random", {"r": 2}, seed=3).points
    with pytest.raises(ValueError):
        FatPointSystem(2, pts, (1,))
    with pytest.raises(ValueError):
        FatPointSystem(2, pts, (1, 0))
    with pytest.raises(ValueError):
        FatPointSystem(2, (pts[0], pts[0]), (1, 1))
    with pytest.raises(ValueError):
        cohomology(FatPointSystem(-1, pts, (1, 1)))


def test_prime_field_multiplicity_guard():
    # order-p derivatives vanish identically in characteristic p
    # and the system refuses them at construction, so no build skips it
    pt = ((0, 0, 1),)
    with pytest.raises(ValueError, match="GF\\(2\\)"):
        FatPointSystem(4, pt, (3,), fieldspec=GF(2))
    with pytest.raises(ValueError):
        conditions_matrix(FatPointSystem(4, pt, (3,), fieldspec=GF(2)))
    with pytest.raises(ValueError):
        cohomology(FatPointSystem(4, pt + ((1, 0, 0),), (3, 1),
                                  fieldspec=GF(2)))
    rep = cohomology(FatPointSystem(2, pt, (2,), fieldspec=GF(5)))
    assert rep.h0 == 3


def test_prime_field_stays_inside_int64_elimination():
    # the largest prime below 2**31 is the biggest field rank_mod_p takes
    rep = cohomology(FatPointSystem(2, ((0, 0, 1),), (2,),
                                    fieldspec=GF(2**31 - 1)))
    assert rep.h0 == 3
    # a prime above 2**31, and a composite fooling the first twelve
    # Miller-Rabin bases, are both refused before any primality test
    for p in (2**31 + 11, 318_665_857_834_031_151_167_461):
        with pytest.raises(ValueError, match="2 <= p < 2\\*\\*31"):
            GF(p)
    with pytest.raises(ValueError, match="not prime"):
        GF(2**31 - 3)


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=0, max_value=5),
    mults=st.lists(st.integers(min_value=1, max_value=3), min_size=1, max_size=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_euler_identity(d, mults, seed):
    pts = make_config("random", {"r": len(mults)}, seed=seed).points
    rep = cohomology(FatPointSystem(d, pts, tuple(mults)))
    assert rep.h0 - rep.h1 == rep.chi
    assert rep.h1 >= 0
    assert rep.h0 >= rep.expected


@settings(max_examples=20, deadline=None)
@given(
    r=st.integers(min_value=3, max_value=6),
    d=st.integers(min_value=2, max_value=4),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_specialization_raises_h0(r, d, seed):
    mults = (1,) * r
    generic = generic_cohomology(d, mults, seed=seed)
    pts = make_config("collinear", {"r": r}, seed=seed).points
    special = cohomology(FatPointSystem(d, pts, mults))
    assert special.h0 >= generic.h0


def test_star_four_lines():
    pts = make_config("star", {"s": 4}, seed=11).points
    assert len(pts) == 6
    rep = chudnovsky_report(pts)
    assert (rep.alpha1, rep.alpha2) == (3, 4)
    assert rep.bound == Fraction(2)
    assert rep.equality_witness


def test_collinear_alpha_is_multiplicity():
    pts = make_config("collinear", {"r": 5}, seed=23).points
    for m in (1, 2, 3):
        assert alpha(pts, m) == m
    # upper sandwich bound hits the limit exactly
    lo, hi = waldschmidt_sandwich(pts, 2)
    assert hi == 1
    assert lo == Fraction(3, 4)


def test_alpha_takes_one_multiplicity_per_point():
    pts = make_config("random", {"r": 4}, seed=5).points
    assert alpha(pts, (2, 2, 2, 2)) == alpha(pts, 2)
    # no curve of degree < m has a point of multiplicity m; the lines from
    # the first point to the others reach the bound
    assert alpha(pts[:3], (2, 1, 1)) == 2
    assert alpha(pts, (3, 1, 1, 1)) == 3


def test_generic_five_points_strict():
    pts = make_config("random", {"r": 5}, seed=77).points
    rep = chudnovsky_report(pts)
    assert (rep.alpha1, rep.alpha2) == (2, 4)
    assert Fraction(rep.alpha2, 2) > rep.bound
    assert not rep.equality_witness


@settings(max_examples=20, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=5),
    m=st.integers(min_value=1, max_value=3),
    k=st.integers(min_value=0, max_value=2),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_sandwich_bounds_alpha(r, m, k, seed):
    pts = make_config("random", {"r": r}, seed=seed).points
    lo, hi = waldschmidt_sandwich(pts, k)
    assert lo <= hi
    # lower bound certifies alpha(m)/m >= lo for every m
    assert m * lo <= alpha(pts, m)


def _linear_alpha(points, m):
    """The initial degree by a linear scan of `cohomology`, frozen from
    before the bisection, as the oracle."""
    if isinstance(m, int):
        m = (m,) * len(points)
    t = 0
    while cohomology(FatPointSystem(t, tuple(points), tuple(m))).h0 == 0:
        t += 1
    return t


_CONFIGS = st.sampled_from([("random", "r", 1, 10), ("star", "s", 2, 5),
                            ("collinear", "r", 2, 7),
                            ("pencil_products", "k", 2, 2)])


@st.composite
def _alpha_cases(draw):
    kind, key, least, most = draw(_CONFIGS)
    size = draw(st.integers(least, most))
    pts = make_config(kind, {key: size},
                      seed=draw(st.integers(0, 10**6))).points
    if draw(st.booleans()):
        return pts, draw(st.integers(1, 3))
    return pts, tuple(draw(st.lists(st.integers(1, 4), min_size=len(pts),
                                    max_size=len(pts))))


@settings(max_examples=60, deadline=None)
@given(_alpha_cases())
def test_alpha_matches_the_linear_scan(case):
    pts, m = case
    assert alpha(pts, m) == _linear_alpha(pts, m)


def test_alpha_validates_its_input():
    pts = make_config("random", {"r": 3}, seed=1).points
    for m in (0, (1, 1), (1, 0, 1)):
        with pytest.raises(ValueError):
            alpha(pts, m)
    assert alpha((), 2) == 0


def _spy(monkeypatch, module, name, fake=None):
    """Record (args, answer) for each call of module.name; `fake(k,
    answer)` replaces the answer of the k-th call (from 0)."""
    calls, real = [], getattr(module, name)

    def spy(*args):
        out = real(*args)
        if fake is not None:
            out = fake(len(calls), out)
        calls.append((args, out))
        return out

    monkeypatch.setattr(module, name, spy)
    return calls


def test_alpha_of_a_nonspecial_system_costs_one_modular_rank(monkeypatch):
    # 12 general points, m = 3: 72 conditions, chi > 0 from degree 11 on
    pts = make_config("random", {"r": 12}, seed=3).points
    ranks = _spy(monkeypatch, _linalg, "rank_profile_mod_p")
    proofs = _spy(monkeypatch, _linalg, "deficient_rank")
    scans = _spy(monkeypatch, fatpoints, "cohomology")
    assert alpha(pts, 3) == 11
    assert (len(ranks), len(proofs), len(scans)) == (1, 0, 0)


def test_alpha_survives_an_unlucky_probe(monkeypatch):
    # The first probe (degree 3 of 10 general points, empty) and the rank
    # pass of `cohomology` at degree 3 read one rank short, as if
    # RANK_PRIME divided every maximal minor.  No line or conic is fixed
    # in L(3; 1^10), so the kernel lift at degree 3 then finds full rank
    # and the search resumes.
    pts = make_config("random", {"r": 10}, seed=4).points
    ranks = _spy(monkeypatch, _linalg, "rank_profile_mod_p",
                 lambda k, prof: (prof[0][:-1], prof[1][:-1]) if k in (0, 3)
                 else prof)
    proofs = _spy(monkeypatch, _linalg, "deficient_rank")
    assert alpha(pts, 1) == 4
    # the probes at 3, 1 and 2, the pass of `cohomology`, the two passes
    # that invert the short pivot block and the pass mod the prime below
    # RANK_PRIME
    assert len(ranks) == 7
    # three of the points sit at the vertices, which kill x^3, y^3, z^3
    assert [(args[1], rank) for args, rank in proofs] == [(7, 7)]


# (6; 4, 2^6) at seven general points is twice the cubic (3; 2, 1^6):
# alpha is 6, below the chi bound 7, and no line or conic is fixed
SEVEN = (4,) + (2,) * 6


def test_alpha_proves_a_special_degree(monkeypatch):
    # `cohomology` proves h0 of L(6) = 1 by the square of the nodal cubic,
    # the one section of L/2 = (3; 2, 1^6), which meets the one dimension
    # of kernel that the rank mod RANK_PRIME leaves: no lift is needed
    pts = make_config("random", {"r": 7}, seed=6).points
    scans = _spy(monkeypatch, fatpoints, "cohomology")
    bounds = _spy(monkeypatch, fatpoints, "_products_bound")
    proofs = _spy(monkeypatch, _linalg, "deficient_rank")
    assert alpha(pts, SEVEN) == 6
    assert [(args[0].d, rep.h0) for args, rep in scans] == [(6, 1)]
    assert [(args[1], bound) for args, bound in bounds] == [(1, 1)]
    assert proofs == []


def test_one_vertex_frame_per_call(monkeypatch):
    # cohomology builds the frame of the residual once, for the rank mod
    # RANK_PRIME, the products and the lift alike, and none when the peel
    # leaves no point; alpha builds one for all its probes, and `cohomology`
    # its own when alpha asks it for a proof
    pencil = make_config("pencil_products", {"k": 3}, seed=11).points
    frames = _spy(monkeypatch, fatpoints, "_vertex_frame")
    for d, pts, mults, built in [
            (10, make_config("random", {"r": 8}, seed=11).points, (3,) * 8, 1),
            (3, pencil, (1,) * 9, 1),  # the lift
            (6, pencil, (2,) * 9, 1),  # the products
            (4, make_config("random", {"r": 5}, seed=11).points, (2,) * 5,
             0)]:
        frames.clear()
        cohomology(FatPointSystem(d, pts, mults))
        assert len(frames) == built
    frames.clear()
    assert alpha(make_config("random", {"r": 12}, seed=3).points, 3) == 11
    assert len(frames) == 1
    frames.clear()
    assert alpha(make_config("random", {"r": 7}, seed=6).points, SEVEN) == 6
    assert len(frames) == 2


def test_alpha_probes_build_no_system(monkeypatch):
    # the twelve points are normalized once, by the one system alpha
    # builds, and its frame normalizes the nine moved points once
    pts = make_config("random", {"r": 12}, seed=3).points
    calls = _spy(monkeypatch, fatpoints, "normalize_proj")
    assert alpha(pts, 3) == 11
    assert len(calls) == 12 + 9


def _frozen_general_position_lines(k, rng):
    """`general_position_lines` as it was, with its own loop over the
    pairwise intersections: the oracle of the `dependent_triples` test."""
    while True:
        lines = [fatpoints._rand_line(rng) for _ in range(k)]
        if len({normalize_proj(l) for l in lines}) != k:
            continue
        pts = {}
        ok = True
        for i in range(k):
            for j in range(i + 1, k):
                q = cross(lines[i], lines[j])
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


@pytest.mark.parametrize("k", range(1, 10))
def test_general_position_lines_are_the_frozen_draws(k):
    for s in range(400):
        new, old = random.Random(s), random.Random(s)
        assert (general_position_lines(k, new)
                == _frozen_general_position_lines(k, old))
        assert new.getstate() == old.getstate()


def test_a_negative_line_count_is_refused():
    """No draw of -2 lines exists, so the draw loop must not start
    (`alpha --config pencil_products --param -1` looped forever)."""
    with pytest.raises(ValueError):
        general_position_lines(-2, random.Random(0))
    with pytest.raises(ValueError):
        make_config("pencil_products", {"k": -1})
    assert general_position_lines(0, random.Random(0)) == []


def test_alpha_special_degree_builds_no_exact_matrix(monkeypatch):
    # the exact matrix of L(6) is never built, no prime but RANK_PRIME is
    # eliminated, and the only block inverted is that of the section's
    # kernel, on the reduced 4 x 5 matrix of (3; 2, 1^6)
    pts = make_config("random", {"r": 7}, seed=6).points
    builds, primes, inverses = _spy_builds_and_primes(monkeypatch)
    assert alpha(pts, SEVEN) == 6
    assert builds == [RANK_PRIME] * len(builds)
    assert set(primes) == {RANK_PRIME}
    assert inverses == [(RANK_PRIME, (4, 4))]


def _oracle_h0(system):
    """h0 from the rank of the unreduced conditions: exact over Q, mod q
    over GF(q)."""
    fs = system.fieldspec
    rows = conditions_matrix(system).tolist()
    rank = rank_mod_p(rows, fs.p) if fs.kind == "prime" else rank_exact(rows)
    return comb(system.d + 2, 2) - rank


@st.composite
def _vertex_points(draw, r, q=None):
    """r points of Z^3 in a box of side 2..50, listed with the points that
    should be picked first.  The layouts stress the pick: the first three
    collinear, all collinear, the fourth on the line through the first two
    (which T sends onto a coordinate line), or, with q, the first three
    collinear mod q only."""
    half = draw(st.integers(1, 25))
    coord = st.integers(-half, half)
    vec = st.tuples(coord, coord, coord).filter(any)
    layout = draw(st.sampled_from(
        ["random", "top_three", "all", "vertex_line"]
        + (["mod_q"] if q else [])))
    a, b = draw(st.tuples(vec, vec).filter(lambda ab: any(cross(*ab))))
    ts = draw(st.lists(st.integers(-6, 6), min_size=r, max_size=r,
                       unique=True))
    on_line = [tuple(x + t * y for x, y in zip(a, b)) for t in ts]
    pts = [draw(vec) for _ in range(r)]
    if layout == "all":
        pts = on_line
    elif layout == "top_three":
        pts[:3] = on_line[:3]
    elif layout == "vertex_line":
        pts[:2] = [a, b][:r]
        if r > 3:
            pts[3] = on_line[0]
    elif layout == "mod_q" and r > 2:
        e = draw(vec)
        pts[:3] = [a, b, tuple(x + y + q * z for x, y, z in zip(a, b, e))]
    return pts


def _distinct(pts, fs=fatpoints.QQ):
    """Whether the points are nonzero in the field and pairwise distinct
    there as projective points."""
    if not all(any(x % fs.p if fs.p else x for x in pt) for pt in pts):
        return False
    return len({normalize_proj(pt, fs) for pt in pts}) == len(pts)


@st.composite
def _vertex_systems(draw):
    """A system over Q or GF(7), GF(11), with its largest multiplicities
    on the first points of `_vertex_points`, in a drawn order."""
    q = draw(st.sampled_from([None, None, 7, 11]))
    fs = GF(q) if q else fatpoints.QQ
    r = draw(st.integers(1, 7))
    pts = draw(_vertex_points(r, q))
    assume(_distinct(pts, fs))
    mults = sorted(draw(st.lists(st.integers(1, 6), min_size=r,
                                 max_size=r)), reverse=True)
    order = draw(st.permutations(range(r)))
    return FatPointSystem(draw(st.integers(0, 10)),
                          tuple(normalize_proj(pts[k], fs) for k in order),
                          tuple(mults[k] for k in order), fieldspec=fs)


@settings(max_examples=150, deadline=None)
@given(_vertex_systems())
def test_vertex_reduction_matches_the_unreduced_rank(system):
    """The reduced matrix has the rank of the unreduced one less the
    killed columns, its residues are the exact matrix mod p row by row,
    and cohomology agrees with the unreduced oracle."""
    h0 = _oracle_h0(system)
    rep = cohomology(system)
    assert (rep.h0, rep.h1) == (h0, h0 - rep.chi)
    if system.fieldspec.kind == "prime":
        mat, killed = _reduced(system)
        assert comb(system.d + 2, 2) - killed - rank_mod_p(
            mat.tolist(), system.fieldspec.p) == h0
        return
    mat, killed = _reduced(system)
    residues, same = _reduced(system, RANK_PRIME)
    assert same == killed and residues.shape == mat.shape
    assert residues.tolist() == (mat % RANK_PRIME).tolist()
    assert comb(system.d + 2, 2) - killed - rank_exact(mat.tolist()) == h0


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 6).flatmap(_vertex_points),
       st.data())
def test_alpha_matches_the_unreduced_oracle(pts, data):
    # multiplicities up to 4 against small probe degrees give probes with
    # m_i + m_j > t, where the vertex regions overlap
    assume(_distinct(pts))
    mults = tuple(data.draw(st.lists(st.integers(1, 4), min_size=len(pts),
                                     max_size=len(pts))))
    t = 0
    while _oracle_h0(FatPointSystem(t, tuple(pts), mults)) == 0:
        t += 1
    assert alpha(pts, mults) == t


def test_pencil_speciality_is_stable():
    cfg = make_config("pencil_products", {"k": 3}, seed=11)
    assert len(cfg.points) == 9
    rows = speciality_stability(3, (1,) * 9, cfg.points, 3)
    assert rows == [(1, 2, 1), (2, 3, 2), (3, 4, 3)]


def test_divisor_class_pairings():
    cls = PlaneDivisorClass(4, (2, 2, 2, 2, 2))
    assert cls.self_intersection() == 16 - 20
    assert cls.canonical_pairing() == 12 - 10


def test_cremona_reduce_quintic_six_nodes():
    reduced, steps = cremona_reduce(PlaneDivisorClass(5, (2,) * 6))
    assert reduced == PlaneDivisorClass(1, ())
    assert [s.d for s in steps] == [4, 2, 1]
    assert all(s.self_intersection() == 1 for s in steps)
    assert all(s.canonical_pairing() == 3 for s in steps)


def test_cremona_reduce_fixed_point():
    cls = PlaneDivisorClass(13, (5,) + (4,) * 9)
    reduced, steps = cremona_reduce(cls)
    assert steps == []
    assert reduced == cls


@settings(max_examples=50, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=30),
    mults=st.lists(st.integers(min_value=0, max_value=12), min_size=3, max_size=8),
)
def test_cremona_preserves_intersection_numbers(d, mults):
    cls = PlaneDivisorClass(d, tuple(mults))
    reduced, steps = cremona_reduce(cls)
    assert reduced.self_intersection() == cls.self_intersection()
    assert reduced.canonical_pairing() == cls.canonical_pairing()
    ms = sorted(reduced.mults, reverse=True) + [0, 0, 0]
    assert ms[0] + ms[1] + ms[2] <= reduced.d or reduced.d <= 0
    degrees = [cls.d] + [s.d for s in steps]
    assert all(a > b for a, b in zip(degrees, degrees[1:]))


def test_semi_effectivity_cubic_through_nine():
    pts = make_config("random", {"r": 9}, seed=11).points
    out = semi_effectivity_status(PlaneDivisorClass(3, (1,) * 9), pts, k=1)
    assert out.status == "semi_effective"
    assert out.witness == (1, 1)


def test_semi_effectivity_line_through_three():
    pts = make_config("random", {"r": 3}, seed=23).points
    cls = PlaneDivisorClass(1, (1, 1, 1))
    first = semi_effectivity_status(cls, pts, k=1)
    assert first.status == "boundary"
    assert first.sandwich == (Fraction(1), Fraction(3, 2))
    second = semi_effectivity_status(cls, pts, k=2)
    assert second.status == "not_semi_effective"
    assert second.alpha_s == 5 and second.s == 3
    assert second.sandwich[0] == Fraction(5, 4)


def test_semi_effectivity_pell_boundary():
    pts = make_config("random", {"r": 10}, seed=11).points
    cls = PlaneDivisorClass(13, (5,) + (4,) * 9)
    out = semi_effectivity_status(cls, pts, k=1)
    assert out.status == "boundary"
    assert out.alpha_s == 27 and out.s == 2
    assert out.sandwich == (Fraction(9), Fraction(27, 2))


def test_collinear_groups_free_a_quartic():
    general, constrained = collinear_constraint_experiment(
        4, (1,) * 16, [4, 4, 4, 4], seed=11)
    assert general.h0 == 0
    assert constrained.h0 == 1
    with pytest.raises(ValueError):
        collinear_constraint_experiment(4, (1,) * 16, [1, 4], seed=11)
    with pytest.raises(ValueError):
        collinear_constraint_experiment(2, (1,) * 3, [2, 2], seed=11)


def _frozen_kept(picked, d, mults):
    """`_kept` as it was, a filter of every degree-d exponent: the oracle
    of its closed-form ranges."""
    return [e for e in monomial_exponents(d)
            if all(e[i] <= d - mults[k] for i, k in enumerate(picked))]


@st.composite
def kept_cases(draw):
    """(picked, d, mults): up to three picked points of up to five, with
    multiplicities up to d + 2."""
    d = draw(st.integers(0, 30))
    mults = draw(st.lists(st.integers(1, d + 2), max_size=5))
    order = draw(st.permutations(range(len(mults))))
    return order[:draw(st.integers(0, min(3, len(mults))))], d, mults


@settings(max_examples=300, deadline=None)
@given(kept_cases())
def test_kept_is_the_frozen_filter(case):
    assert fatpoints._kept(*case) == _frozen_kept(*case)


def _frozen_random_rational_points(r, rng):
    """`random_rational_points` as it was, through Fractions and the
    Fraction path of `normalize_proj`: the oracle of its integer draws."""
    pts, seen = [], set()
    while len(pts) < r:
        u = Fraction(rng.randint(-999, 999), rng.randint(1, 9))
        v = Fraction(rng.randint(-999, 999), rng.randint(1, 9))
        p = normalize_proj((u, v, Fraction(1)))
        if p not in seen:
            seen.add(p)
            pts.append(p)
    return tuple(pts)


@pytest.mark.parametrize("r", [1, 12])
def test_random_points_are_the_frozen_draws(r):
    for s in range(100):
        new, old = random.Random(s), random.Random(s)
        assert (fatpoints.random_rational_points(r, new)
                == _frozen_random_rational_points(r, old))
        assert new.getstate() == old.getstate()
