"""Fat-point systems: cohomology tables, initial degrees, Cremona, Pell."""

from fractions import Fraction
from math import comb

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.matrices import DomainMatrix

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
    generic_cohomology,
    make_config,
    pell_family,
    semi_effectivity_status,
    speciality_stability,
    waldschmidt_sandwich,
)

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
    pt = ((0, 0, 1),)
    with pytest.raises(ValueError):
        conditions_matrix(FatPointSystem(4, pt, (3,), fieldspec=GF(2)))
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


def test_pell_family_square_zero():
    fam = pell_family(3)
    assert [(c.d, c.mults[0], c.mults[1]) for c in fam] == [
        (13, 5, 4),
        (949, 301, 300),
        (18721, 5921, 5920),
    ]
    for cls in fam:
        assert len(cls.mults) == 10
        assert cls.mults[1:] == (cls.mults[1],) * 9
        assert cls.self_intersection() == 0


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
