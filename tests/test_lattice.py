import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from linserlab._linalg import CERT_PRIMES, RANK_PRIME
from linserlab import fatpoints
from linserlab.fatpoints import (general_position_lines, make_config,
                                 normalize_proj)
from linserlab.lattice import (CutFunctional, _falling_table, canonical,
                               cross, dependent_triples, dot,
                               halfplane_partition, jet_conditions,
                               primitive, triangle_set, triangle_staircase)


def test_triangle_set_counts():
    for d in range(6):
        assert len(triangle_set(d)) == (d + 1) * (d + 2) // 2
    assert triangle_set(1) == frozenset({(0, 0), (1, 0), (0, 1)})


def test_cut_needs_linear_part():
    with pytest.raises(ValueError):
        CutFunctional(0, 0, 5)


def test_halfplane_partition_splits_and_rejects_vanishing():
    pts = triangle_set(2)
    plus, minus = halfplane_partition(pts, CutFunctional(1, 0, Fraction(-1, 2)))
    assert plus == {(1, 0), (1, 1), (2, 0)}
    assert minus == {(0, 0), (0, 1), (0, 2)}
    with pytest.raises(ValueError):
        halfplane_partition(pts, CutFunctional(1, 0, -1))


def _frozen_fraction_partition(points, a, b, c):
    """halfplane_partition as it was before cuts had an integer form:
    every point evaluated in Fraction arithmetic.  Kept as the oracle."""
    plus, minus = set(), set()
    for p in points:
        v = a * p[0] + b * p[1] + c
        if v > 0:
            plus.add(p)
        elif v < 0:
            minus.add(p)
        else:
            raise ValueError(f"cut vanishes on lattice point {p}")
    return frozenset(plus), frozenset(minus)


big = st.integers(-10**30, 10**30)
rationals = st.builds(Fraction, big, st.sampled_from(
    [1, 2, 3, 4, 6, 7, 10**9 + 7, 2**61 - 1, 10**30]))
lattice_coord = st.one_of(st.integers(-50, 50), big)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(lattice_coord, lattice_coord), min_size=1,
                max_size=25),
       rationals, rationals, rationals, st.integers(-1, 24))
def test_integer_partition_matches_fraction_partition(points, a, b, c, on):
    if a == 0 and b == 0:
        a = Fraction(1, 3)
    if on >= 0:  # move the line onto a point, to see the same error
        x, y = points[on % len(points)]
        c = -(a * x + b * y)
    cut = CutFunctional(a, b, c)
    assert cut.as_triple() == (a, b, c)
    assert cut.den > 0 and math.gcd(*cut.num, cut.den) == 1
    try:
        want = _frozen_fraction_partition(points, a, b, c)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            halfplane_partition(points, cut)
        assert str(got.value) == str(exc)
    else:
        assert halfplane_partition(points, cut) == want
        assert all(cut.value(p) == a * p[0] + b * p[1] + c for p in points)


def test_cut_integer_form_is_canonical():
    cut = CutFunctional(Fraction(2, 4), 0, Fraction(-3, 6))
    assert (cut.num, cut.den) == ((1, 0, -1), 2)
    assert cut == CutFunctional(Fraction(1, 2), 0, Fraction(-1, 2))
    assert hash(cut) == hash(CutFunctional(Fraction(1, 2), 0, Fraction(-1, 2)))
    assert CutFunctional(-3, 1, Fraction(7, 2)).num == (-6, 2, 7)
    assert CutFunctional(2, 4, 6).num == (2, 4, 6)  # den 1: no rescaling


def test_staircases():
    assert len(triangle_staircase(3)) == 6


coords = st.integers(min_value=-8, max_value=8)


def _integer_threshold(a, b, t):
    """The cut whose positive side is exactly {a*x + b*y >= t} on Z^2: its
    threshold sits at t - 1/2, so it vanishes on no lattice point."""
    return CutFunctional(a, b, Fraction(1, 2) - t)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.tuples(coords, coords), min_size=1, max_size=20),
       st.integers(-3, 3), st.integers(-3, 3), st.integers(-20, 20))
def test_partition_is_a_partition(points, a, b, t):
    if a == 0 and b == 0:
        a = 1
    cut = _integer_threshold(a, b, t)
    plus, minus = halfplane_partition(frozenset(points), cut)
    assert plus | minus == frozenset(points)
    assert not plus & minus
    assert all(cut.value(p) > 0 for p in plus)
    assert all(cut.value(p) < 0 for p in minus)


def _falling(n, k):
    if 0 <= n < k:
        return 0
    out = 1
    for t in range(k):
        out *= n - t
    return out


def _frozen_jet_rows(D, jets):
    """The interpolation rows as `dumnicki._jet_rows` built them before
    `jet_conditions` served them, kept as the oracle."""
    cols = sorted(D)
    return [[_falling(a, al) * _falling(b, be) for (a, b) in cols]
            for (al, be) in jets]


def _collision_staircase(r, m):
    """Standard monomials of (y, x^r)^m, the limit of m-fold points
    colliding along a horizontal r-jet: j < m and i < r*(m - j)."""
    return frozenset((i, j) for j in range(m) for i in range(r * (m - j)))


hostile = st.integers(10**12 - 3, 10**12 + 3)
support_coord = st.one_of(st.integers(-5, 40), hostile)


@settings(max_examples=80, deadline=None)
@given(st.sets(st.tuples(support_coord, support_coord), min_size=1,
               max_size=12),
       st.integers(1, 5), st.integers(0, 3))
def test_jet_conditions_at_one_match_frozen_rows(D, m, r):
    # r = 0 stands for the triangle staircase, r >= 1 for a collision
    jets = sorted(triangle_staircase(m) if r == 0
                  else _collision_staircase(r, m))
    oracle = _frozen_jet_rows(D, jets)
    cols = [(a, b, 0) for a, b in sorted(D)]
    exact = jet_conditions(cols, [((1, 1, 1), jets)])
    assert exact.dtype == object and exact.tolist() == oracle
    p = CERT_PRIMES[0]
    residues = jet_conditions(cols, [((1, 1, 1), jets)], p)
    assert residues.dtype == np.int64
    assert residues.tolist() == [[e % p for e in row] for row in oracle]


def test_jet_conditions_edges():
    cols = [(-1, 2, 0), (3, 0, 0)]
    # a Laurent exponent at a coordinate other than 1 has no integer value
    with pytest.raises(ValueError):
        jet_conditions(cols, [((2, 1, 1), [(0, 0)])])
    assert jet_conditions(cols, [((1, 1, 1), [(1, 1)])]).tolist() == [[-2, 0]]
    assert jet_conditions(cols, [((1, 1, 1), [])]).shape == (0, 2)
    assert jet_conditions([], [((1, 1, 1), [(0, 0)])], 7).shape == (1, 0)


def test_primitive_takes_rationals_and_keeps_the_direction():
    assert primitive((Fraction(1, 2), 1)) == (1, 2)
    assert primitive((Fraction(-2, 3), Fraction(4, 9), 0)) == (-3, 2, 0)
    assert primitive((-4, 6)) == (-2, 3)
    assert canonical((-4, 6)) == (2, -3)
    assert canonical((0, Fraction(-1, 2), Fraction(1, 3))) == (0, 3, -2)
    for zero in ((0, 0), (Fraction(0), 0, 0)):
        with pytest.raises(ValueError):
            primitive(zero)


def _frozen_normalize_dependency(vec):
    """The circuit normalization of arrangements before `canonical`."""
    den = math.lcm(*(f.denominator for f in vec))
    ints = [int(f * den) for f in vec]
    g = 0
    for x in ints:
        g = math.gcd(g, x)
    ints = [x // g for x in ints]
    lead = next(x for x in ints if x)
    if lead < 0:
        ints = [-x for x in ints]
    return tuple(ints)


rationals = st.fractions(min_value=-10**6, max_value=10**6,
                         max_denominator=10**4)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.one_of(rationals, st.just(Fraction(0))), min_size=1,
                max_size=6).filter(any))
def test_canonical_matches_frozen_dependency_normalization(vec):
    v = canonical(vec)
    assert v == _frozen_normalize_dependency(vec)
    assert all(type(x) is int for x in v)
    # the same line through the origin, and the same canonical vector for
    # every nonzero rational multiple
    assert primitive(vec) in (v, tuple(-x for x in v))
    assert canonical([Fraction(-7, 3) * x for x in vec]) == v


def test_dependent_triples_are_confirmed_exactly():
    # four points on x = y, three on x + y = 2z, two on neither;
    # (1:1:1) lies on both lines
    pts = [(0, 0, 1), (1, 1, 1), (2, 2, 1), (5, 5, 3), (2, 0, 1),
           (0, 2, 1), (7, -3, 1), (4, -9, 1)]
    assert dependent_triples(pts) == [(0, 1, 2, 3), (1, 4, 5)]
    # (0:p:1) is (0:0:1) mod p = RANK_PRIME, but not over Q
    assert dependent_triples([(0, 0, 1), (1, 0, 1),
                              (0, RANK_PRIME, 1)]) == []


def _collinear_oracle(pts):
    lines = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            line = cross(pts[i], pts[j])
            on = tuple(k for k, pt in enumerate(pts) if dot(line, pt) == 0)
            if len(on) > 2:
                lines.add(on)
    return sorted(lines)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_dependent_triples_match_the_triple_loop(data):
    # a small grid makes collinear triples common; adding multiples of
    # RANK_PRIME makes triples that are collinear mod p only
    coord = st.integers(-3, 3).flatmap(
        lambda x: st.sampled_from([x, x + RANK_PRIME, x - 2 * RANK_PRIME]))
    pts = data.draw(st.lists(st.tuples(coord, coord, coord).filter(any),
                             max_size=9, unique_by=normalize_proj))
    assert dependent_triples(pts) == _collinear_oracle(pts)


def _frozen_dependent_triples(vs):
    """`dependent_triples` as it was: one numpy pass reads every
    det(v_i, v_j, v_k) mod RANK_PRIME, and each modular zero is confirmed
    in integers.  The oracle of the exact pair loop."""
    if len(vs) < 3:
        return []
    p = RANK_PRIME
    a = np.array([[c % p for c in v] for v in vs], dtype=np.int64)
    b, c = a[:, [1, 2, 0]], a[:, [2, 0, 1]]
    planes = (b[:, None] * c[None] - c[:, None] * b[None]) % p  # v_i x v_j
    zero = (planes @ a.T) % p == 0
    hits = np.triu(np.count_nonzero(zero, axis=2) > 2, 1)
    out = set()
    for i, j in zip(*np.nonzero(hits)):
        normal = cross(vs[i], vs[j])
        on = tuple(k for k in np.flatnonzero(zero[i, j]).tolist()
                   if dot(normal, vs[k]) == 0)
        if len(on) > 2:
            out.add(on)
    return sorted(out)


def _config_points(kind, size, seed):
    param = {"star": "s", "pencil_products": "k"}.get(kind, "r")
    return list(make_config(kind, {param: size}, seed=seed).points)


_GRID = st.integers(-3, 3)
_HOSTILE = st.integers(-10**12, 10**12) | st.sampled_from(
    [RANK_PRIME, -RANK_PRIME, 10**12, -10**12, 2 * RANK_PRIME + 1])
_VECTOR_SETS = st.one_of(
    # random rational points
    st.tuples(st.just("random"), st.integers(0, 15), st.integers(0, 99)),
    # the configurations of `make_config`, lines through many points
    st.tuples(st.just("star"), st.integers(2, 6), st.integers(0, 99)),
    st.tuples(st.just("pencil_products"), st.integers(1, 4),
              st.integers(0, 99)),
    st.tuples(st.just("collinear"), st.integers(1, 12), st.integers(0, 99)),
).map(lambda t: _config_points(*t)) | st.one_of(
    # a grid with many collinear points; hostile coordinates; line sets as
    # `general_position_lines` draws them
    st.lists(st.tuples(_GRID, _GRID, st.integers(0, 2)).filter(any),
             max_size=16, unique_by=normalize_proj),
    st.lists(st.tuples(_HOSTILE, _HOSTILE, _HOSTILE).filter(any),
             max_size=8, unique_by=normalize_proj),
    st.lists(st.tuples(*[st.integers(-9, 9)] * 3).filter(any),
             max_size=9, unique_by=normalize_proj))


@settings(max_examples=300, deadline=None)
@given(_VECTOR_SETS)
def test_dependent_triples_match_the_frozen_modular_screen(vs):
    assert dependent_triples(vs) == _frozen_dependent_triples(vs)


def test_general_position_lines_draw_the_frozen_lines(monkeypatch):
    drawn = [general_position_lines(s, random.Random(seed))
             for s in range(2, 9) for seed in range(51)]
    monkeypatch.setattr(fatpoints, "dependent_triples",
                        _frozen_dependent_triples)
    assert drawn == [general_position_lines(s, random.Random(seed))
                     for s in range(2, 9) for seed in range(51)]


def _frozen_falling_table(vals, orders, p=None):
    """`_falling_table` as it was, one value at a time: the oracle of its
    running product over whole columns."""
    table = []
    for v in vals:
        f, a, row = 1, 0, []
        for k in orders:
            f = 0 if 0 <= v < k else f
            while a < k and f:
                f, a = (f * (v - a) % p if p else f * (v - a)), a + 1
            row.append(f)
        table.append(row)
    return np.array(table, dtype=object if p is None else np.int64)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-40, 60), min_size=1, max_size=12, unique=True),
       st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True),
       st.sampled_from([None, 2, 7, RANK_PRIME, CERT_PRIMES[0]]))
def test_falling_table_is_the_frozen_loop(vals, orders, p):
    vals, orders = sorted(vals), sorted(orders)
    new, old = _falling_table(vals, orders, p), _frozen_falling_table(
        vals, orders, p)
    assert new.dtype == old.dtype and new.shape == old.shape
    assert new.tolist() == old.tolist()
