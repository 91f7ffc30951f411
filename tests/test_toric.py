"""Normal fans, lower-hull subdivisions, iterated single-cut lifts."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linserlab.dumnicki import paper_family, reduce_partition
from linserlab.lattice import CutFunctional, triangle_set
from linserlab.toric import (
    Cone2,
    UnboundedPolygon,
    check_strict_convexity,
    hull_polygon,
    induced_lift,
    initial_lift,
    lower_hull_subdivision,
    normal_fan,
    primary_cells,
    split_lift,
    subdivision_from_json,
    subdivision_to_json,
)


def gens(cones):
    return [c.generators for c in cones]


def polygon_area(poly):
    """The shoelace area of a polygon given by its vertices in order, the
    oracle that cells must tile."""
    n = len(poly)
    if n < 3:
        return Fraction(0)
    s = sum(poly[i][0] * poly[(i + 1) % n][1]
            - poly[(i + 1) % n][0] * poly[i][1] for i in range(n))
    return Fraction(s, 2)


def test_hull_polygon_and_area():
    pts = [(0, 0), (2, 0), (2, 2), (0, 2), (1, 1), (1, 0)]
    poly = hull_polygon(pts)
    assert poly == ((0, 0), (2, 0), (2, 2), (0, 2))
    assert polygon_area(poly) == 4


def test_cone_validation():
    assert Cone2(((2, 0),)).generators == ((1, 0),)
    with pytest.raises(ValueError):
        Cone2(((1, 0), (-1, 0)))  # halfplane, not strictly convex
    with pytest.raises(ValueError):
        Cone2(((1, 0), (1, 1), (0, 1)))


def test_normal_fan_square():
    cones = normal_fan([(0, 0), (1, 0), (1, 1), (0, 1)])
    assert gens(cones) == [
        ((1, 0), (0, 1)),
        ((0, 1), (-1, 0)),
        ((-1, 0), (0, -1)),
        ((0, -1), (1, 0)),
    ]


def test_normal_fan_orders_steep_generators_exactly():
    """A generator at angle 1e-9 comes after (1, 0), at angle 0; a
    sentinel key for horizontal directions once put it first."""
    n = 10**9 + 1
    assert gens(normal_fan([(0, 0), (1, -n), (0, 5)])) == [
        ((1, 0), (n, 1)),
        ((n, 1), (-n - 5, -1)),
        ((-n - 5, -1), (1, 0)),
    ]


def test_normal_fan_segment():
    cones = normal_fan([(0, 0), (3, 0)])
    assert gens(cones) == [((1, 0),), ((-1, 0),)]
    with pytest.raises(ValueError):
        normal_fan([(1, 1)])


def test_normal_fan_three_segment_chain():
    P = UnboundedPolygon(((0, 0), (1, -1), (2, -1), (3, 0)), (0, 1))
    cones = normal_fan(P)
    assert gens(cones) == [
        ((1, 0), (1, 1)),
        ((1, 1), (0, 1)),
        ((0, 1), (-1, 1)),
        ((-1, 1), (-1, 0)),
    ]


def test_unbounded_chain_must_be_convex():
    with pytest.raises(ValueError):
        UnboundedPolygon(((0, 0), (1, 1), (2, 0)), (0, 1))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.tuples(st.integers(min_value=-6, max_value=6),
                          st.integers(min_value=-6, max_value=6)),
                min_size=3, max_size=12))
def test_bounded_normal_fan_is_complete(pts):
    poly = hull_polygon(pts)
    if polygon_area(poly) == 0:
        return
    cones = normal_fan(pts)
    assert len(cones) == len(poly)
    # consecutive cones share a boundary ray and sweep the whole plane once
    for a, b in zip(cones, cones[1:] + cones[:1]):
        assert a.generators[1] == b.generators[0]


def test_lower_hull_on_a_line():
    pts = [(i, 0) for i in range(4)]
    flat = lower_hull_subdivision(pts, {p: Fraction(0) for p in pts})
    assert len(flat.cells) == 1
    assert flat.cells[0].points == frozenset(pts)
    curved = lower_hull_subdivision(
        pts, {(i, 0): Fraction(i * i) for i in range(4)})
    assert [c.vertices for c in curved.cells] == [
        ((0, 0), (1, 0)), ((1, 0), (2, 0)), ((2, 0), (3, 0))]


def test_lower_hull_paraboloid_heights():
    D = triangle_set(2)
    sub = lower_hull_subdivision(D, {p: Fraction(p[0] ** 2 + p[1] ** 2)
                                     for p in D})
    cellsets = {c.points for c in sub.cells}
    # the four points of the unit square are coplanar on z = x + y
    assert frozenset({(0, 0), (1, 0), (0, 1), (1, 1)}) in cellsets
    assert check_strict_convexity(sub, induced_lift(sub))


@settings(max_examples=40, deadline=None)
@given(
    d=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_lower_hull_cells_tile_the_hull(d, data):
    D = sorted(triangle_set(d))
    heights = {p: Fraction(data.draw(st.integers(min_value=-5, max_value=5)))
               for p in D}
    sub = lower_hull_subdivision(D, heights)
    total = sum(polygon_area(c.vertices) for c in sub.cells)
    assert total == polygon_area(hull_polygon(D))
    covered = set()
    for c in sub.cells:
        covered |= c.points
    assert covered == set(D)
    lift = induced_lift(sub)
    vals = lift.value_map()
    # the hull is a lower bound that touches every cell
    assert all(vals[p] <= heights[p] for p in D)


def test_subdivision_json_round_trip():
    D = triangle_set(2)
    sub = lower_hull_subdivision(D, {p: Fraction(p[0] ** 2 + p[1] ** 2, 3)
                                     for p in D})
    doc = subdivision_to_json(sub)
    pts, heights = subdivision_from_json(doc)
    again = lower_hull_subdivision(pts, heights)
    assert again == sub


def test_initial_lift_is_flat():
    lift = initial_lift(triangle_set(3))
    assert len(lift.subdivision.cells) == 1
    assert lift.active == triangle_set(3)
    assert lift.primary == ()
    assert set(lift.value_map().values()) == {Fraction(0)}


def test_split_lift_ignores_empty_side():
    D = triangle_set(2)
    lift = initial_lift(D)
    # positive side of this cut misses the triangle entirely
    same = split_lift(D, CutFunctional(1, 0, Fraction(-9, 2)), lift)
    assert same == lift


def test_split_lift_single_cut():
    D = triangle_set(2)
    cut = CutFunctional(1, 0, Fraction(-3, 2))  # x >= 2
    lift = split_lift(D, cut)
    assert lift.primary == (frozenset({(2, 0)}),)
    assert lift.active == D - {(2, 0)}
    assert check_strict_convexity(lift.subdivision, lift)
    vals = lift.value_map()
    assert vals[(2, 0)] > 0
    assert all(vals[p] == 0 for p in lift.active)


def test_nine_cut_lift_matches_reduction():
    D, _mults, cuts = paper_family(1)
    lift = initial_lift(D)
    for cut in cuts:
        lift = split_lift(D, cut, lift)
    got = primary_cells(lift)
    assert got == reduce_partition(D, cuts)
    assert check_strict_convexity(lift.subdivision, lift)


def test_split_lift_fully_consumed():
    D = triangle_set(1)
    lift = split_lift(D, CutFunctional(1, 1, Fraction(-1, 2)))
    # both sides nonempty, then exhaust the residual with a generous cut
    final = split_lift(D, CutFunctional(-1, -1, Fraction(1, 2)), lift)
    assert final.active == frozenset()
    assert primary_cells(final) == [frozenset({(0, 1), (1, 0)}),
                                    frozenset({(0, 0)})]
