"""Line arrangements, circuits, reciprocal-coordinate ideals."""

import itertools
from collections import Counter
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linserlab import _linalg, arrangements
from linserlab._linalg import nullspace, rank_exact
from linserlab.arrangements import (
    Circuit,
    LineArrangement,
    circuits,
    da_divisor,
    generic_arrangement,
    graded_counts,
    m8_minus,
    singular_points,
)
from linserlab.fatpoints import PlaneDivisorClass, normalize_proj
from linserlab.lattice import canonical, cross, dependent_triples, dot

SEEDS = (11, 23, 77)

CONCURRENT = LineArrangement(((1, 0, 0), (0, 1, 0), (1, 1, 0)))


def test_rejects_proportional_forms():
    with pytest.raises(ValueError):
        LineArrangement(((1, 1, -2), (2, 2, -4)))
    with pytest.raises(ValueError):
        generic_arrangement(1)
    with pytest.raises(ValueError):
        singular_points(LineArrangement(((1, 0, 0),)))


def _through_fractions(form):
    """The normal form as the constructor once computed it."""
    return normalize_proj(tuple(Fraction(c) for c in form))


coefficient = st.one_of(st.integers(-30, 30), st.booleans(),
                        st.fractions(-30, 30, max_denominator=6))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(coefficient, coefficient, coefficient).filter(any),
                min_size=1, max_size=5, unique_by=_through_fractions))
def test_forms_normalize_as_through_fractions(forms):
    arr = LineArrangement(tuple(forms))
    assert arr.forms == tuple(map(_through_fractions, forms))
    assert all(type(c) is int for f in arr.forms for c in f)


def test_concurrent_triple():
    assert singular_points(CONCURRENT) == [((0, 0, 1), 3)]
    cs = circuits(CONCURRENT, 3)
    assert len(cs) == 1
    assert cs[0].indices == (0, 1, 2)
    assert cs[0].coeffs == (1, 1, -1)
    (form,) = [arrangements._circuit_form(c, 3) for c in cs]
    assert form.terms == (((0, 1, 1), 1), ((1, 0, 1), 1), ((1, 1, 0), -1))
    gc = graded_counts(CONCURRENT, 3)
    assert gc.min_gens_by_degree == ((1, 0), (2, 1), (3, 0))
    assert gc.linear_syzygies == 0


@pytest.mark.parametrize("seed", SEEDS)
def test_five_generic_lines(seed):
    a = generic_arrangement(5, seed=seed)
    sing = singular_points(a)
    assert len(sing) == 10 and all(t == 2 for _, t in sing)
    assert len(circuits(a, 4)) == 5
    gc = graded_counts(a, 4)
    assert gc.min_gens_by_degree == ((1, 0), (2, 0), (3, 4), (4, 0))
    assert gc.linear_syzygies == 0


@settings(max_examples=15, deadline=None)
@given(
    s=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_generic_circuit_count(s, seed):
    # no concurrences, so the circuits are exactly the 4-subsets
    a = generic_arrangement(s, seed=seed)
    cs = circuits(a, min(s, 4))
    assert all(len(c.indices) == 4 for c in cs)
    assert len(cs) == comb(s, 4)


@settings(max_examples=15, deadline=None)
@given(
    s=st.integers(min_value=3, max_value=6),
    seed=st.integers(min_value=0, max_value=10**6),
    px=st.integers(min_value=-9, max_value=9),
    py=st.integers(min_value=-9, max_value=9),
)
def test_generators_vanish_on_reciprocals(s, seed, px, py):
    a = generic_arrangement(s, seed=seed)
    point = (Fraction(px), Fraction(py, 7), Fraction(1))
    values = []
    for f in a.forms:
        v = sum(Fraction(c) * x for c, x in zip(f, point))
        if v == 0:
            return  # the point landed on a line; reciprocals undefined
        values.append(1 / v)
    for c in circuits(a, min(s, 4)):
        assert arrangements._circuit_form(c, s).evaluate(values) == 0


def test_eight_line_fixture():
    a = m8_minus()
    assert len(a) == 8
    sing = singular_points(a)
    assert Counter(t for _, t in sing) == {3: 7, 2: 7}
    assert Counter(len(c.indices) for c in circuits(a, 4)) == {3: 7, 4: 35}
    gc = graded_counts(a, 3)
    assert gc.min_gens_by_degree == ((1, 0), (2, 7), (3, 1))
    assert gc.linear_syzygies == 1


def test_contracted_divisor_generic():
    a = generic_arrangement(5, seed=11)
    rep = da_divisor(a)
    assert rep.divisor == PlaneDivisorClass(4, (1,) * 10)
    assert rep.line_pairings == (0,) * 5
    assert rep.exceptional_pairings == (1,) * 10
    assert rep.nef_partial


def test_contracted_divisor_needs_class_when_singular():
    a = m8_minus()
    with pytest.raises(ValueError):
        da_divisor(a)
    sing = singular_points(a)
    cls = PlaneDivisorClass(7, tuple(t - 1 for _, t in sing))
    rep = da_divisor(a, divisor=cls)
    # each line meets the other seven, once per singular point on it
    assert rep.line_pairings == (0,) * 8
    assert rep.nef_partial
    with pytest.raises(ValueError):
        da_divisor(a, divisor=PlaneDivisorClass(7, (1, 1)))


def test_circuit_size_bounds():
    with pytest.raises(ValueError):
        circuits(CONCURRENT, 4)
    with pytest.raises(ValueError):
        graded_counts(CONCURRENT, 0)
    with pytest.raises(ValueError):
        graded_counts(CONCURRENT, 5)


def _rank_circuits(a, max_size):
    """`circuits` by exact ranks and kernels, frozen from before it read
    the integer minors: the oracle for the determinant rule."""
    if max_size > len(a):
        raise ValueError("max_size exceeds the number of lines")
    cols = {i: a.forms[i] for i in range(len(a))}

    def rank_of(sub):
        return rank_exact([cols[i] for i in sub])

    out = []
    for size in range(3, min(max_size, 4) + 1):
        for sub in itertools.combinations(range(len(a)), size):
            if rank_of(sub) != size - 1:
                continue
            if any(rank_of(prop) < size - 1
                   for prop in itertools.combinations(sub, size - 1)):
                continue
            ker = nullspace([[Fraction(cols[i][k]) for i in sub]
                             for k in range(3)])
            assert len(ker) == 1
            coeffs = canonical(ker[0])
            for k in range(3):
                assert sum(c * cols[i][k]
                           for c, i in zip(coeffs, sub)) == 0
            out.append(Circuit(sub, coeffs))
    return out


def _planted(draw):
    """Up to nine forms: lines through one or two planted points (so
    concurrent triples and quadruples are common) and small random ones."""
    small = st.integers(-2, 2)
    vec = st.tuples(small, small, small).filter(any)
    forms = []
    for _ in range(draw(st.integers(0, 2))):
        point = draw(vec)
        for q in draw(st.lists(vec, max_size=4)):
            if any(cross(point, q)):
                forms.append(cross(point, q))
    forms += draw(st.lists(vec, max_size=6))
    unique = {}
    for f in draw(st.permutations(forms)):
        unique.setdefault(normalize_proj(f), f)
    return list(unique.values())[:9]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_circuits_match_the_rank_oracle(data):
    kind = data.draw(st.sampled_from(["planted", "generic", "m8"]))
    if kind == "planted":
        forms = _planted(data.draw)
        if len(forms) < 2:
            return
        a = LineArrangement(tuple(forms))
    elif kind == "generic":
        a = generic_arrangement(data.draw(st.integers(3, 8)),
                                seed=data.draw(st.integers(0, 10**6)))
    else:
        a = m8_minus()
    for max_size in (2, 3, 4):
        if max_size > len(a):
            with pytest.raises(ValueError):
                circuits(a, max_size)
            continue
        assert circuits(a, max_size) == _rank_circuits(a, max_size)


def test_circuits_match_the_rank_oracle_on_fixtures():
    quad = LineArrangement(((1, 0, 0), (0, 1, 0), (1, 1, 0), (1, -1, 0),
                            (0, 0, 1)))
    for a in (CONCURRENT, quad, m8_minus(), *(generic_arrangement(s, seed)
                                             for s in range(3, 9)
                                             for seed in range(3))):
        for max_size in range(2, min(len(a), 4) + 1):
            assert circuits(a, max_size) == _rank_circuits(a, max_size)


def test_circuits_make_no_rank_call(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("circuits called a rank or a kernel")

    for name in ("rank_exact", "nullspace", "rank_profile_mod_p"):
        monkeypatch.setattr(_linalg, name, refuse)
    for name in ("rank_profile_mod_p", "deficient_rank"):
        monkeypatch.setattr(arrangements, name, refuse)
    cs = circuits(m8_minus(), 4)
    assert Counter(len(c.indices) for c in cs) == {3: 7, 4: 35}


def _lift_graded_counts(a, max_deg, circs=None):
    """`graded_counts` as it was before the Hilbert-series bound, every
    rank by `rank_exact`: the oracle for the ranks the bound proves."""
    if not 1 <= max_deg <= 4:
        raise ValueError("max_deg must be between 1 and 4")
    d = len(a)
    if circs is None:
        circs = circuits(a, min(len(a), max_deg + 1))
    gens = [arrangements._circuit_form(c, d) for c in circs
            if len(c.indices) <= max_deg + 1]
    by_degree = {}
    for f in gens:
        by_degree.setdefault(f.degree, []).append(f)
    monomials = arrangements._monomials

    def coeff_row(form, shift, index):
        # the dense row builder of `graded_counts` before its sparse pieces
        row = [0] * len(index)
        for exp, c in form.terms:
            key = tuple(e + s for e, s in zip(exp, shift))
            row[index[key]] = c
        return row

    def piece_rank(k, min_shift):
        index = {m: i for i, m in enumerate(monomials(d, k))}
        rows = []
        for e, forms in by_degree.items():
            if e > k or k - e < min_shift:
                continue
            for shift in monomials(d, k - e):
                for f in forms:
                    rows.append(coeff_row(f, shift, index))
        if not rows:
            return 0
        return rank_exact(rows)

    counts = []
    for k in range(1, max_deg + 1):
        counts.append((k, piece_rank(k, 0) - piece_rank(k, 1)))

    lin_syz = 0
    quadrics = by_degree.get(2, [])
    if quadrics:
        index2 = {m: i for i, m in enumerate(monomials(d, 2))}
        mat = [coeff_row(f, (0,) * d, index2) for f in quadrics]
        basis = [quadrics[i] for i in _linalg.independent_rows(mat)]
        index3 = {m: i for i, m in enumerate(monomials(d, 3))}
        rows = []
        for q in basis:
            for v in range(d):
                shift = tuple(1 if k == v else 0 for k in range(d))
                rows.append(coeff_row(q, shift, index3))
        lin_syz = len(rows) - rank_exact(rows)
    return arrangements.GradedCounts(tuple(counts), lin_syz)


@st.composite
def _concurrent_sets(draw):
    """2-8 lines: 3-5 of them through one drawn point and the rest small
    random forms, or all through one point."""
    small = st.integers(-3, 3)
    point = draw(st.tuples(small, small, small).filter(any))
    # two independent forms vanishing at the point span the lines through it
    u, v = [w for w in (cross(point, e) for e in ((1, 0, 0), (0, 1, 0),
                                                  (0, 0, 1))) if any(w)][:2]
    if not any(cross(u, v)):
        v = cross(point, u)
    s = draw(st.integers(2, 8))
    through = s if draw(st.booleans()) else min(s, draw(st.integers(3, 5)))
    ratios = draw(st.lists(st.tuples(small, small).filter(any),
                           min_size=through, max_size=through,
                           unique_by=lambda r: normalize_proj(r + (0,))))
    forms = {}
    for lam, mu in ratios:
        f = tuple(lam * x + mu * y for x, y in zip(u, v))
        forms.setdefault(normalize_proj(f), f)
    others = draw(st.lists(st.tuples(small, small, small).filter(any),
                           max_size=s - through))
    for f in others:
        forms.setdefault(normalize_proj(f), f)
    return LineArrangement(tuple(forms.values()))


def _frozen_circuits(a, max_size):
    """`circuits` as it was before its table of triple determinants: the
    concurrent triples from `dependent_triples`, four fresh determinants
    per 4-set."""
    if max_size > len(a):
        raise ValueError("max_size exceeds the number of lines")
    f = a.forms
    triples = {t for on in dependent_triples(f)
               for t in itertools.combinations(on, 3)}
    subs = sorted(triples) if max_size >= 3 else []
    if max_size >= 4:
        subs += [q for q in itertools.combinations(range(len(f)), 4)
                 if triples.isdisjoint(itertools.combinations(q, 3))]
    out = []
    for sub in subs:
        v = [f[i] for i in sub]
        if len(v) == 3:
            v.append(cross(v[0], v[1]))
        dep = []
        for l in range(len(sub)):
            u, w, x = v[:l] + v[l + 1:]
            dep.append((-1) ** l * dot(u, cross(w, x)))
        coeffs = canonical(dep)
        for k in range(3):
            assert sum(c * u[k] for c, u in zip(coeffs, v)) == 0
        out.append(Circuit(sub, coeffs))
    return out


@st.composite
def _wide_forms(draw):
    """4-8 pairwise non-proportional forms with 30-bit entries."""
    entry = st.integers(-2**30, 2**30)
    forms = {}
    for f in draw(st.lists(st.tuples(entry, entry, entry).filter(any),
                           min_size=4, max_size=8)):
        forms.setdefault(normalize_proj(f), f)
    return LineArrangement(tuple(forms.values()))


@settings(max_examples=100, deadline=None)
@given(a=_concurrent_sets() | _wide_forms())
def test_circuits_match_the_frozen_circuits(a):
    for max_size in (3, 4):
        if max_size > len(a):
            with pytest.raises(ValueError):
                circuits(a, max_size)
            continue
        assert circuits(a, max_size) == _frozen_circuits(a, max_size)


@settings(max_examples=100, deadline=None)
@given(a=_concurrent_sets(), max_deg=st.integers(1, 4))
def test_graded_counts_match_the_lift_oracle(a, max_deg):
    assert graded_counts(a, max_deg) == _lift_graded_counts(a, max_deg)


@pytest.mark.parametrize("a", [CONCURRENT, m8_minus(),
                               generic_arrangement(5, seed=11),
                               LineArrangement(((1, 0, 0), (0, 1, 0),
                                                (1, 1, 0), (1, -1, 0),
                                                (0, 0, 1)))])
@pytest.mark.parametrize("max_deg", [1, 2, 3, 4])
def test_graded_counts_match_the_lift_oracle_on_fixtures(a, max_deg):
    assert graded_counts(a, max_deg) == _lift_graded_counts(a, max_deg)


def _lifts(monkeypatch):
    """The shapes of the matrices whose kernels `_linalg` lifts."""
    shapes, lift = [], _linalg._lift_kernel

    def spy(mat, *args):
        shapes.append(mat.shape)
        return lift(mat, *args)

    monkeypatch.setattr(_linalg, "_lift_kernel", spy)
    return shapes


@pytest.mark.parametrize("max_deg", [3, 4])
def test_the_hilbert_bound_leaves_one_lift(monkeypatch, max_deg):
    shapes = _lifts(monkeypatch)
    for s in range(5, 9):
        graded_counts(generic_arrangement(s, seed=s), max_deg)
    assert shapes == []
    # M8: the 7 quadrics times the 8 variables, shared by the piece of
    # degree 3 and the linear syzygies, fall one short of dim I_3 = 56
    gc = graded_counts(m8_minus(), max_deg)
    assert gc.linear_syzygies == 1
    assert shapes == [(56, 120)]


def test_a_degree_without_forms_is_ranked_once(monkeypatch):
    shapes, profile = [], arrangements.rank_profile_mod_p

    def spy(a, p):
        shapes.append(a.shape)
        return profile(a, p)

    monkeypatch.setattr(arrangements, "rank_profile_mod_p", spy)
    gc = graded_counts(generic_arrangement(6, seed=6), 4)
    assert gc.min_gens_by_degree == ((1, 0), (2, 0), (3, 10), (4, 0))
    # only the 15 cubics: piece (3, 0), and (4, 0) whose rows are (4, 1)'s
    assert shapes == [(15, 56), (90, 126)]


def test_graded_counts_of_one_and_two_lines():
    one = LineArrangement(((1, 0, 0),))
    two = LineArrangement(((1, 0, 0), (0, 1, 0)))
    for a in (one, two):
        for max_deg in (1, 3, 4):
            gc = graded_counts(a, max_deg)
            assert gc.min_gens_by_degree == tuple(
                (k, 0) for k in range(1, max_deg + 1))
            assert gc.linear_syzygies == 0


def test_graded_counts_refuses_a_false_circuit():
    a = generic_arrangement(5, seed=11)
    (first, *rest) = circuits(a, 4)
    wrong = Circuit(first.indices, (first.coeffs[0] + 1,) + first.coeffs[1:])
    with pytest.raises(ValueError):
        graded_counts(a, 3, [wrong] + rest)
    assert graded_counts(a, 3, [first] + rest) == graded_counts(a, 3)
