"""Squarefree monomial ideals, symbolic powers, Newton-region multipliers."""

import functools
import itertools
import json
from fractions import Fraction
from math import floor

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from linserlab import cli, symbolic
from linserlab.symbolic import (
    ElsChain,
    MonomialIdeal,
    _minimize,
    asymptotic_multiplier,
    bight,
    containment_suite,
    contains,
    els_chain_check,
    howald_multiplier,
    ideal,
    ideal_from_json,
    ideal_to_json,
    maximal_ideal,
    minimal_primes,
    power,
    product,
    subset,
    symbolic_power,
    unit_ideal,
)

EDGES = ideal([(1, 1, 0), (1, 0, 1), (0, 1, 1)])  # (xy, xz, yz)


def squarefree_ideals(max_vars=4, max_gens=4, min_vars=2):
    def build(n, supports):
        gens = [tuple(1 if k in s else 0 for k in range(n)) for s in supports]
        return ideal(gens, nvars=n)

    return st.integers(min_value=min_vars, max_value=max_vars).flatmap(
        lambda n: st.builds(
            build,
            st.just(n),
            st.lists(st.sets(st.integers(min_value=0, max_value=n - 1),
                             min_size=1, max_size=n),
                     min_size=1, max_size=max_gens),
        )
    )


def test_canonical_generators():
    i = ideal([(2, 0), (1, 1), (3, 1), (1, 1)])
    assert i.gens == ((1, 1), (2, 0))
    assert i == ideal([(1, 1), (2, 0)])
    assert str(i) == "(x*y, x^2)"
    assert str(ideal([(0, 0)])) == "(1)"
    assert unit_ideal(("x", "y")).is_unit()


def test_construction_errors():
    with pytest.raises(ValueError):
        ideal([(1, -1)])
    with pytest.raises(ValueError):
        ideal([(1, 0), (1, 1, 0)])
    with pytest.raises(ValueError):
        ideal([], nvars=None)
    with pytest.raises(ValueError):
        ideal([(1,) * 13])


@pytest.mark.parametrize("variables", [
    ("x", "x"), (1, 2), (), tuple(f"x{k}" for k in range(13))])
def test_construction_refuses_bad_variables(variables):
    # before, ("x", "x") printed (x*x), and (1, 2) built an ideal whose
    # str() raised TypeError
    gens = ((1,) * len(variables),)
    with pytest.raises(ValueError):
        MonomialIdeal(variables, gens)
    with pytest.raises(ValueError):
        ideal(gens, variables=variables)
    with pytest.raises(ValueError):
        unit_ideal(variables)
    with pytest.raises(ValueError):
        maximal_ideal(variables)


def _frozen_minimize(gens):
    """The pairwise loop that `_minimize` ran before it packed exponent
    vectors into ints, kept as its oracle."""
    pool = sorted(set(gens), key=lambda g: (sum(g), g))
    kept = []
    for g in pool:
        if not any(all(a <= b for a, b in zip(h, g)) for h in kept):
            kept.append(g)
    return tuple(sorted(kept))


@st.composite
def exponent_pools(draw):
    """Pools in 1-12 variables with exponents 0-3 or up to 2**70, with
    duplicates and, sometimes, the zero vector; the pool may be empty."""
    n = draw(st.integers(1, 12))
    entry = draw(st.sampled_from([st.integers(0, 3),
                                  st.integers(0, 3) | st.integers(0, 2**70)]))
    vector = st.lists(entry, min_size=n, max_size=n).map(tuple)
    pool = draw(st.lists(vector, max_size=40))
    if pool:
        pool += draw(st.lists(st.sampled_from(pool), max_size=5))
    if draw(st.booleans()):
        pool.append((0,) * n)
    return draw(st.permutations(pool))


@settings(max_examples=300, deadline=None)
@given(exponent_pools())
def test_minimize_is_the_frozen_pairwise_loop(pool):
    assert _minimize(pool) == _frozen_minimize(pool)


def test_minimize_where_a_borrow_would_cross_a_field():
    """Largest exponent 2**k or 2**k - 1, at the edge of the field width:
    every ordered pair of vectors over {0, 1, m - 1, m} is minimized as
    the loop does, so no field's borrow or carry reaches the next one."""
    for k in range(71):
        for m in {2**k, 2**k - 1} - {0}:
            vectors = list(itertools.product(sorted({0, 1, m - 1, m}),
                                             repeat=2))
            for h, g in itertools.product(vectors, repeat=2):
                assert _minimize([h, g]) == _frozen_minimize([h, g])
    assert _minimize([]) == ()


def test_power_and_products():
    mm = maximal_ideal(("x", "y"))
    assert power(mm, 0) == unit_ideal(("x", "y"))
    assert power(mm, 2).gens == ((0, 2), (1, 1), (2, 0))
    x = ideal([(1, 0)], variables=("x", "y"))
    y = ideal([(0, 1)], variables=("x", "y"))
    assert product(x, y) == ideal([(1, 1)], variables=("x", "y"))
    with pytest.raises(ValueError):
        contains(x, (1, 0, 0))
    with pytest.raises(ValueError):
        power(x, -1)


def test_minimal_primes_of_edge_ideal():
    primes = minimal_primes(EDGES)
    assert [p.variables for p in primes] == [(0, 1), (0, 2), (1, 2)]
    assert bight(EDGES) == 2
    mm = maximal_ideal(("x", "y", "z"))
    assert [p.variables for p in minimal_primes(mm)] == [(0, 1, 2)]
    assert bight(mm) == 3
    with pytest.raises(ValueError):
        minimal_primes(ideal([(2, 0)]))
    with pytest.raises(ValueError):
        minimal_primes(unit_ideal(("x",)))


def test_xyz_separates_symbolic_from_ordinary():
    xyz = (1, 1, 1)
    assert contains(symbolic_power(EDGES, 2), xyz)
    assert not contains(power(EDGES, 2), xyz)
    assert symbolic_power(EDGES, 1) == EDGES


@settings(max_examples=60, deadline=None)
@given(
    i=squarefree_ideals(),
    m=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_symbolic_membership_matches_prime_valuations(i, m, data):
    a = tuple(data.draw(st.integers(min_value=0, max_value=3))
              for _ in range(i.nvars))
    primes = minimal_primes(i)
    # covers intersect every generator support minimally
    for p in primes:
        s = set(p.variables)
        assert all(any(g[k] for k in s) for g in i.gens)
        for drop in s:
            smaller = s - {drop}
            assert not all(any(g[k] for k in smaller) for g in i.gens)
    expected = all(sum(a[k] for k in p.variables) >= m for p in primes)
    assert contains(symbolic_power(i, m), a) == expected


@settings(max_examples=40, deadline=None)
@given(i=squarefree_ideals(max_vars=3, max_gens=3),
       r=st.integers(min_value=1, max_value=3))
def test_ordinary_powers_sit_inside_symbolic(i, r):
    assert subset(power(i, r), symbolic_power(i, r))
    assert subset(symbolic_power(i, r + 1), symbolic_power(i, r))


@pytest.mark.parametrize("r", [1, 2, 3, 4])
def test_containment_suite_edge_ideal(r):
    suite = containment_suite(EDGES, r)
    assert suite.els
    assert suite.harbourne
    assert isinstance(suite.hh1, bool) and isinstance(suite.hh4, bool)
    with pytest.raises(ValueError):
        containment_suite(EDGES, 0)


@pytest.mark.parametrize("i, r", [(EDGES, 1), (EDGES, 2),
                                  (ideal([(1, 1, 0), (0, 1, 1)]), 3),
                                  (ideal([(1, 1, 0, 0), (0, 1, 1, 0),
                                          (0, 0, 1, 1)]), 2)])
def test_containment_suite_computes_each_symbolic_power_once(monkeypatch,
                                                             i, r):
    calls = []
    monkeypatch.setattr(symbolic, "symbolic_power",
                        lambda j, m: calls.append(m) or symbolic_power(j, m))
    containment_suite(i, r)
    e, n = bight(i), i.nvars
    assert sorted(calls) == sorted({r * e, max(1, r * e - (e - 1)),
                                    r * n, max(1, r * n - (n - 1))})


@pytest.mark.parametrize("argv", [["power", "--m", "3"],
                                  ["power", "--m", "2", "--ordinary"],
                                  ["suite", "--r", "2"]])
def test_the_cli_validates_only_the_json_ideal(monkeypatch, capsys,
                                               tmp_path, argv):
    """Every other ideal of the call is built from valid ideals, by
    `MonomialIdeal._from_valid`, which validates nothing."""
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(ideal_to_json(BEYOND_THREE["C4"])))
    validated, post_init = [], MonomialIdeal.__post_init__

    def spy(self):
        validated.append(self.variables)
        post_init(self)

    monkeypatch.setattr(MonomialIdeal, "__post_init__", spy)
    code = cli.main(["symbolic", argv[0], "--ideal", str(path)] + argv[1:])
    assert code == 0, capsys.readouterr().out
    assert validated == [BEYOND_THREE["C4"].variables]


def test_howald_one_variable():
    i = ideal([(2,)], variables=("x",))
    assert howald_multiplier(i, 1) == i
    # the ideal jumps exactly at the log-canonical threshold 1/2
    assert howald_multiplier(i, Fraction(1, 4)) == unit_ideal(("x",))
    assert howald_multiplier(i, Fraction(1, 2)) == ideal([(1,)],
                                                         variables=("x",))


@pytest.mark.parametrize("t,k", [(2, 1), (3, 2), (5, 4)])
def test_howald_maximal_ideal_powers(t, k):
    mm = maximal_ideal(("x", "y"))
    assert howald_multiplier(mm, t) == power(mm, k)
    # fractional coefficients round down through the open condition
    assert howald_multiplier(mm, Fraction(2 * t + 1, 2)) == power(mm, k)


@settings(max_examples=25, deadline=None)
@given(
    i=squarefree_ideals(max_vars=3, max_gens=3),
    k=st.integers(min_value=2, max_value=3),
    c=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
)
def test_howald_respects_power_scaling(i, k, c):
    assert howald_multiplier(power(i, k), c) == howald_multiplier(i, k * c)


@settings(max_examples=25, deadline=None)
@given(
    i=squarefree_ideals(max_vars=3, max_gens=3),
    c=st.sampled_from([Fraction(1, 2), Fraction(1), Fraction(3, 2)]),
)
def test_howald_monotone_in_coefficient(i, c):
    assert subset(howald_multiplier(i, c + 1), howald_multiplier(i, c))


def test_asymptotic_multiplier_edge_ideal():
    j2 = asymptotic_multiplier(EDGES, 2)
    assert j2 == EDGES
    for r in (1, 2, 3):
        assert power(j2, r) == power(EDGES, r)


def test_asymptotic_multiplier_maximal_ideal():
    mm = maximal_ideal(("x", "y"))
    assert asymptotic_multiplier(mm, 3) == power(mm, 2)


def test_asymptotic_validation():
    with pytest.raises(ValueError):
        asymptotic_multiplier(EDGES, 0)
    with pytest.raises(ValueError):
        asymptotic_multiplier(ideal([(2, 0, 0), (0, 1, 1)]), 2)


def _sampled_asymptotic_multiplier(i, t):
    """howald_multiplier(I^(p), t/p) at p = d, 2d, ..., 6d (d the
    denominator of t), or None unless the last three samples agree.  The
    sampled computation, frozen from before the exact formula, kept as
    the oracle."""
    t = Fraction(t)
    values = [howald_multiplier(symbolic_power(i, p), t / p)
              for p in (t.denominator * k for k in range(1, 7))]
    return values[-1] if values[-3] == values[-2] == values[-1] else None


_T = [Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2),
      Fraction(2), Fraction(5, 2), Fraction(3)]


@settings(max_examples=200, deadline=None)
@given(i=squarefree_ideals(max_vars=3, max_gens=3), t=st.sampled_from(_T))
def test_asymptotic_multiplier_matches_the_sampled_oracle(i, t):
    sampled = _sampled_asymptotic_multiplier(i, t)
    assume(sampled is not None)
    assert asymptotic_multiplier(i, t) == sampled


def _in_howald_set(primes, a, t):
    """x^a in J(t) by Howald's rule on the symbolic polyhedron."""
    return all(sum(a[k] + 1 for k in p.variables) > t for p in primes)


@settings(max_examples=80, deadline=None)
@given(i=squarefree_ideals(max_vars=5, max_gens=5, min_vars=4),
       t=st.sampled_from(_T))
def test_asymptotic_multiplier_matches_its_definition(i, t):
    primes = minimal_primes(i)
    j = asymptotic_multiplier(i, t)
    for a in j.gens:
        assert _in_howald_set(primes, a, t)
        for k in range(i.nvars):
            if a[k]:
                lower = a[:k] + (a[k] - 1,) + a[k + 1:]
                assert not _in_howald_set(primes, lower, t)
    # membership is decided inside the box a_k <= floor(t) + 1: capping a
    # coordinate there keeps every sum over a prime through it above t
    box = range(floor(t) + 2)
    for a in itertools.product(box, repeat=i.nvars):
        assert contains(j, a) == _in_howald_set(primes, a, t)


BEYOND_THREE = {  # 4-cycle, 4-path, three faces of a tetrahedron, 5-cycle
    "C4": ideal([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 1)]),
    "P4": ideal([(1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1)]),
    "T4": ideal([(1, 1, 1, 0), (0, 1, 1, 1), (1, 0, 1, 1)]),
    "C5": ideal([(1, 1, 0, 0, 0), (0, 1, 1, 0, 0), (0, 0, 1, 1, 0),
                 (0, 0, 0, 1, 1), (1, 0, 0, 0, 1)]),
}


@pytest.mark.parametrize("name,r", [("C4", 1), ("C4", 2), ("P4", 1),
                                    ("P4", 2), ("T4", 1), ("T4", 2),
                                    ("C5", 1)])
def test_els_chain_beyond_three_variables(name, r):
    # a theorem (Ein, Lazarsfeld and Smith): every link holds
    assert els_chain_check(BEYOND_THREE[name], r) == ElsChain(True, True,
                                                              True)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_els_chain(r):
    chain = els_chain_check(EDGES, r)
    assert chain.left and chain.middle and chain.right


def test_ideal_json_round_trip():
    doc = ideal_to_json(EDGES)
    assert doc == {"vars": ["x", "y", "z"],
                   "gens": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}
    assert ideal_from_json(doc) == EDGES


def _frozen_prime_power(variables, prime, m):
    n = len(variables)
    gens = []
    for combo in itertools.combinations_with_replacement(prime.variables, m):
        g = [0] * n
        for k in combo:
            g[k] += 1
        gens.append(tuple(g))
    return MonomialIdeal(tuple(variables), tuple(gens))


def _intersect(i, j):
    """I and J intersected by their pairwise least common multiples."""
    return MonomialIdeal._from_valid(i.variables, [
        tuple(map(max, g, h)) for g in i.gens for h in j.gens])


def _frozen_intersect_prime_powers(i, exponent):
    """Every P^exponent(P) built and intersected by pairwise lcms, as
    `_intersect_prime_powers` did before it raised generators onto each
    prime, kept as its oracle."""
    return functools.reduce(_intersect, (
        _frozen_prime_power(i.variables, p, exponent(p))
        for p in minimal_primes(i)))


def _frozen_multiplier(i, t):
    k = floor(t) + 1
    return _frozen_intersect_prime_powers(
        i, lambda p: max(0, k - len(p.variables)))


@settings(max_examples=150, deadline=None)
@given(i=squarefree_ideals(max_vars=6, max_gens=6, min_vars=1),
       m=st.integers(min_value=1, max_value=5), t=st.sampled_from(_T))
def test_raising_is_the_frozen_intersection(i, m, t):
    assert symbolic_power(i, m) == _frozen_intersect_prime_powers(
        i, lambda p: m)
    assert asymptotic_multiplier(i, t) == _frozen_multiplier(i, t)


BENCHMARK_IDEALS = {  # the ideals the benchmark's algebra workload reads
    "tri": EDGES,
    "p3": ideal([(1, 1, 0), (0, 1, 1)]),
    "xy_z": ideal([(1, 1, 0), (0, 0, 1)]),
    "c4": BEYOND_THREE["C4"],
    "p4": BEYOND_THREE["P4"],
    "t4": BEYOND_THREE["T4"],
    "c5": BEYOND_THREE["C5"],
}


@pytest.mark.parametrize("name", sorted(BENCHMARK_IDEALS))
def test_raising_is_the_frozen_intersection_on_fixtures(name):
    i = BENCHMARK_IDEALS[name]
    for m in range(1, 7):
        assert symbolic_power(i, m) == _frozen_intersect_prime_powers(
            i, lambda p: m)
    for t in _T + [Fraction(7, 2), Fraction(6)]:
        assert asymptotic_multiplier(i, t) == _frozen_multiplier(i, t)
