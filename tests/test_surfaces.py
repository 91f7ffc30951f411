"""Intersection lattices, negativity bounds, incidence self-intersections."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linserlab.surfaces import (
    DivClass,
    NSLattice,
    SurfaceInvariants,
    build_incidence,
    c_squared,
    c_squared_bruteforce,
    counterexample_n,
    ee_lattice,
    ee_nef_test,
    kollar_report,
    pair,
    ratio_report,
    vwbnc_bound,
    wbnc_bound,
)


def test_lattice_validation():
    with pytest.raises(ValueError):
        NSLattice(("A", "B"), ((0, 1), (2, 0)), (0, 0))
    with pytest.raises(ValueError):
        NSLattice(("A",), ((1,),), (0, 0))
    lat = ee_lattice()
    with pytest.raises(ValueError):
        pair(lat, DivClass((1, 0)), DivClass((0, 1, 0)))


def test_elliptic_product_pairings():
    lat = ee_lattice()
    f1, f2, delta = (DivClass(c) for c in ((1, 0, 0), (0, 1, 0), (0, 0, 1)))
    assert pair(lat, f1, f1) == 0
    assert pair(lat, f1, f2) == 1
    assert pair(lat, f1, delta) == 1
    assert lat.canonical == (0, 0, 0)


@pytest.mark.parametrize("n", range(2, 21))
def test_large_h1_family(n):
    rep = kollar_report(n)
    assert rep.AnSq == 2
    assert rep.An_dot_F1F2 == n * n - 2 * n + 3
    assert rep.nAn_minus_R_sq == -2 * (n - 1) ** 3
    assert rep.chi == -((n - 1) ** 3)
    assert rep.h1_lower == (n - 1) ** 3
    assert rep.h0_Cn == n * n
    assert ee_nef_test(*rep.An.coeffs)


def test_family_needs_n_at_least_two():
    with pytest.raises(ValueError):
        kollar_report(1)


@pytest.mark.parametrize("c", range(11))
def test_counterexample_threshold_is_minimal(c):
    n = counterexample_n(c)
    assert n >= 2
    assert (n - 1) ** 3 > c * n * n
    assert not ((n - 2) ** 3 > c * (n - 1) ** 2)


def test_nef_test_fixtures():
    assert ee_nef_test(1, 1, 0)
    assert ee_nef_test(0, 0, 1)
    assert not ee_nef_test(1, 1, -1)
    assert not ee_nef_test(-1, -1, 1)


def test_negativity_bounds_on_the_plane():
    plane = SurfaceInvariants(9, 3)
    assert vwbnc_bound(plane, 0) == 1
    assert wbnc_bound(plane, 0) == 2
    with pytest.raises(ValueError):
        vwbnc_bound(plane, -1)
    with pytest.raises(ValueError):
        wbnc_bound(plane, -1)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_finite_plane_negativity(q):
    cfg = build_incidence("projective_plane", {"q": q})
    npts = q * q + q + 1
    assert len(cfg.points) == npts
    assert len(cfg.lines) == npts
    # every point lies on q+1 lines, pairwise line meetings all blown up
    assert all(sum(row) == q + 1 for row in cfg.incidence)
    assert c_squared(cfg) == -q * npts
    assert c_squared(cfg) == c_squared_bruteforce(cfg)
    assert ratio_report(cfg) == -q


def test_plane_order_must_be_prime():
    with pytest.raises(ValueError):
        build_incidence("projective_plane", {"q": 4})


@pytest.mark.parametrize("s", range(3, 7))
def test_general_lines_negativity(s):
    cfg = build_incidence("general_lines", {"s": s, "seed": 11})
    assert len(cfg.points) == comb(s, 2)
    assert all(sum(row) == 2 for row in cfg.incidence)
    assert c_squared(cfg) == -s * (s - 2)
    assert c_squared(cfg) == c_squared_bruteforce(cfg)


@settings(max_examples=25, deadline=None)
@given(
    s=st.integers(min_value=2, max_value=7),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_closed_form_matches_bruteforce(s, seed):
    cfg = build_incidence("general_lines", {"s": s, "seed": seed})
    assert c_squared(cfg) == c_squared_bruteforce(cfg)


@pytest.mark.parametrize("n", range(2, 7))
def test_collinear_ratio(n):
    cfg = build_incidence("collinear", {"n": n})
    assert c_squared(cfg) == 1 - n
    assert ratio_report(cfg) == Fraction(1 - n, n)


def test_exceptional_only():
    cfg = build_incidence("exceptional_only", {"n": 6})
    assert c_squared(cfg) == -6
    assert c_squared_bruteforce(cfg) == -6
    assert ratio_report(cfg) == -1
    with pytest.raises(ValueError):
        build_incidence("exceptional_only", {"n": 0})
    with pytest.raises(ValueError):
        build_incidence("moebius", {})
