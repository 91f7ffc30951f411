"""Squarefree monomial ideals: symbolic powers, containment testers, and
Newton-polyhedron multiplier ideals.

Symbolic powers are intersections of powers of the minimal primes, the
coordinate primes of the minimal vertex covers of the generator hypergraph,
taken by raising each generator onto one prime after another; ideals built
from valid ideals are only minimized (`MonomialIdeal._from_valid`).
Multiplier ideals of monomial ideals follow the Newton-polyhedron
membership rule: x^a lies in the multiplier ideal at coefficient c exactly
when a + (1,..,1) is interior to c times the Newton region.

The asymptotic multiplier ideal J(t) of the symbolic powers of a
squarefree I needs no Newton region: the symbolic polyhedron
Q = {a >= 0 : sum over k in P of a_k >= 1 for every minimal prime P} turns
Howald's rule into J(t) = intersection over P of P^max(0, floor(t) + 1 - |P|),
in any number of variables.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import ceil, floor
from operator import add, index
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from .dumnicki import _json_int
from .lattice import cross, primitive

Exponent = Tuple[int, ...]

_LETTERS = ("x", "y", "z", "w", "u", "v")

MAX_VARS = 12


def default_variables(n: int) -> Tuple[str, ...]:
    if n <= len(_LETTERS):
        return _LETTERS[:n]
    return tuple(f"x{i+1}" for i in range(n))


def _divides(d: Exponent, m: Exponent) -> bool:
    return all(di <= mi for di, mi in zip(d, m))


def _minimize(gens: Iterable[Exponent]) -> Tuple[Exponent, ...]:
    """Antichain of minimal elements under divisibility, sorted.

    Candidates are taken by degree, then lex, and one is kept when no kept
    generator divides it.  The divisibility test is one big-int
    subtraction.  Each nonnegative exponent vector packs into one int with
    a field of w = (largest exponent).bit_length() + 1 bits per variable,
    and `guard` sets the top bit of every field.  Every field of
    pack(g) | guard is at least 2**(w-1) and every field of pack(h) is
    below it, so no field borrows in (pack(g) | guard) - pack(h), and a
    field keeps its top bit exactly when g_k >= h_k: h divides g iff
    that difference masked by `guard` equals `guard`.
    """
    pool = sorted(set(gens), key=lambda g: (sum(g), g))
    if not pool:
        return ()
    w = max(map(max, pool)).bit_length() + 1
    guard = sum(1 << (w * k + w - 1) for k in range(len(pool[0])))
    kept: List[Exponent] = []
    packed: List[int] = []
    for g in pool:
        p = 0
        for e in g:
            p = p << w | e
        top = p | guard
        for h in packed:
            if (top - h) & guard == guard:
                break
        else:
            kept.append(g)
            packed.append(p)
    return tuple(sorted(kept))


def _checked_variables(variables) -> Tuple[str, ...]:
    variables = tuple(variables)
    if not (all(isinstance(v, str) for v in variables)
            and 1 <= len(set(variables)) == len(variables) <= MAX_VARS):
        raise ValueError(f"variables must be 1 to {MAX_VARS} distinct strings")
    return variables


@dataclass(frozen=True)
class MonomialIdeal:
    """Minimal monomial generators over named variables.

    Construction canonicalizes: generators are deduplicated, minimized
    under divisibility, and sorted, so equality of ideals is equality of
    dataclasses.  Minimizing packs each generator into one int with a
    guard bit on top of every exponent's field, so that each divisibility
    test is one subtraction and one mask (`_minimize`).
    The constructor validates; `_from_valid`, for generators built from
    valid ideals over the same variables, only minimizes.
    """

    variables: Tuple[str, ...]
    gens: Tuple[Exponent, ...]

    def __post_init__(self):
        variables = _checked_variables(self.variables)
        gens = []
        for g in self.gens:
            g = tuple(map(index, g))
            if len(g) != len(variables):
                raise ValueError("generator length does not match variables")
            if any(e < 0 for e in g):
                raise ValueError("exponents must be nonnegative")
            gens.append(g)
        object.__setattr__(self, "variables", variables)
        object.__setattr__(self, "gens", _minimize(gens))

    @classmethod
    def _from_valid(cls, variables, gens) -> MonomialIdeal:
        i = object.__new__(cls)
        i.__dict__.update(variables=variables, gens=_minimize(gens))
        return i

    @property
    def nvars(self) -> int:
        return len(self.variables)

    def is_unit(self) -> bool:
        return self.gens == ((0,) * self.nvars,)

    def is_squarefree(self) -> bool:
        return all(e <= 1 for g in self.gens for e in g)

    def __str__(self) -> str:
        if not self.gens:
            return "(0)"
        return "(" + ", ".join(format_monomial(g, self.variables)
                               for g in self.gens) + ")"


def format_monomial(exp: Exponent, variables: Sequence[str]) -> str:
    parts = []
    for e, v in zip(exp, variables):
        if e == 1:
            parts.append(v)
        elif e > 1:
            parts.append(f"{v}^{e}")
    return "*".join(parts) if parts else "1"


def ideal(gens: Iterable[Exponent], variables=None,
          nvars: Optional[int] = None) -> MonomialIdeal:
    gens = [tuple(g) for g in gens]
    if variables is None:
        if nvars is None:
            if not gens:
                raise ValueError("cannot infer the variable count")
            nvars = len(gens[0])
        variables = default_variables(nvars)
    return MonomialIdeal(tuple(variables), tuple(gens))


def unit_ideal(variables) -> MonomialIdeal:
    variables = _checked_variables(variables)
    return MonomialIdeal._from_valid(variables, ((0,) * len(variables),))


def _same_ring(i: MonomialIdeal, j: MonomialIdeal):
    if i.variables != j.variables:
        raise ValueError("ideals live over different variables")


def power(i: MonomialIdeal, k: int) -> MonomialIdeal:
    """k-fold products of generators, minimized; k = 0 is the unit ideal."""
    if k < 0:
        raise ValueError("k must be >= 0")
    if k == 0:
        return unit_ideal(i.variables)
    return MonomialIdeal._from_valid(i.variables, [
        tuple(map(sum, zip(*combo)))
        for combo in itertools.combinations_with_replacement(i.gens, k)])


def intersect(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    """Pairwise least common multiples, minimized."""
    _same_ring(i, j)
    return MonomialIdeal._from_valid(i.variables, [
        tuple(map(max, g, h)) for g in i.gens for h in j.gens])


def product(i: MonomialIdeal, j: MonomialIdeal) -> MonomialIdeal:
    _same_ring(i, j)
    return MonomialIdeal._from_valid(i.variables, [
        tuple(map(add, g, h)) for g in i.gens for h in j.gens])


def contains(i: MonomialIdeal, m: Exponent) -> bool:
    m = tuple(map(index, m))
    if len(m) != i.nvars:
        raise ValueError("monomial length does not match the ring")
    return any(_divides(g, m) for g in i.gens)


def subset(j: MonomialIdeal, i: MonomialIdeal) -> bool:
    _same_ring(i, j)
    return all(contains(i, g) for g in j.gens)


def maximal_ideal(variables) -> MonomialIdeal:
    variables = _checked_variables(variables)
    n = len(variables)
    return MonomialIdeal._from_valid(variables, [
        tuple(1 if k == idx else 0 for k in range(n)) for idx in range(n)])


# ---------------------------------------------------------------------------
# minimal primes of squarefree ideals


@dataclass(frozen=True)
class PrimeSupport:
    """A coordinate prime, recorded by its variable indices."""

    variables: Tuple[int, ...]

    def __post_init__(self):
        v = tuple(sorted(set(map(index, self.variables))))
        if not v:
            raise ValueError("a prime support must be nonempty")
        object.__setattr__(self, "variables", v)


def _require_squarefree(i: MonomialIdeal):
    if not i.is_squarefree():
        raise ValueError("generators must be squarefree")
    if not i.gens or i.is_unit():
        raise ValueError("need a proper nonzero ideal")


def minimal_primes(i: MonomialIdeal) -> List[PrimeSupport]:
    """Minimal vertex covers of the hypergraph of generator supports,
    by brute force over variable subsets."""
    _require_squarefree(i)
    supports = [frozenset(k for k, e in enumerate(g) if e) for g in i.gens]
    n = i.nvars
    covers: List[frozenset] = []
    for size in range(1, n + 1):
        for sub in itertools.combinations(range(n), size):
            s = frozenset(sub)
            if any(c <= s for c in covers):
                continue
            if all(s & supp for supp in supports):
                covers.append(s)
    return sorted((PrimeSupport(tuple(c)) for c in covers),
                  key=lambda p: (len(p.variables), p.variables))


def bight(i: MonomialIdeal) -> int:
    """Maximum codimension among the components, i.e. the largest minimal
    vertex cover."""
    return max(len(p.variables) for p in minimal_primes(i))


def _intersect_prime_powers(i: MonomialIdeal, exponent) -> MonomialIdeal:
    """The intersection of P^exponent(P) over the minimal primes P of I:
    each generator g of degree s < e = exponent(P) on P becomes the g * x^b
    with b on P and |b| = e - s, which generate what its lcms with P^e do.
    The pool is minimized before each raise (a raise of a multiple of h is
    a multiple of a raise of h), and the last one by `_from_valid`."""
    pool: List[Exponent] = [(0,) * i.nvars]
    for p in minimal_primes(i):
        e, on_p = exponent(p), p.variables
        raised = []
        for g in _minimize(pool):
            s = sum(map(g.__getitem__, on_p))
            if s >= e:
                raised.append(g)
                continue
            for combo in itertools.combinations_with_replacement(on_p, e - s):
                h = list(g)
                for k in combo:
                    h[k] += 1
                raised.append(tuple(h))
        pool = raised
    return MonomialIdeal._from_valid(i.variables, pool)


def symbolic_power(i: MonomialIdeal, m: int) -> MonomialIdeal:
    """Intersection of the m-th powers of the minimal primes, by raising."""
    if m < 1:
        raise ValueError("m must be >= 1")
    acc = _intersect_prime_powers(i, lambda p: m)
    if m == 1:
        assert acc == i
    return acc


# ---------------------------------------------------------------------------
# containment testers


@dataclass(frozen=True)
class ContainmentSuite:
    els: bool
    harbourne: bool
    hh1: bool
    hh2: bool
    hh3: bool
    hh4: bool


def containment_suite(i: MonomialIdeal, r: int) -> ContainmentSuite:
    """Symbolic-vs-ordinary power containments at exponent r.

    els: I^(re) <= I^r.  harbourne: I^(re-(e-1)) <= I^r.  hh1..hh4 add the
    maximal-ideal factors m^(rn-r), m^(rn-r-(n-1)), m^(re-r), and
    m^(re-r-(e-1)), each tested at the smallest admissible symbolic
    exponent, with negative m-exponents clamped to zero.  Each symbolic
    power is computed once per distinct exponent: els and hh3 share I^(re),
    harbourne and hh4 share I^(re-(e-1)).
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    _require_squarefree(i)
    e, n = bight(i), i.nvars
    ir = power(i, r)
    mm = maximal_ideal(i.variables)
    h = max(1, r * e - (e - 1))
    # (symbolic exponent, m-exponent) of els, harbourne, hh1, ..., hh4
    tests = ((r * e, 0), (h, 0), (r * n, r * n - r),
             (max(1, r * n - (n - 1)), r * n - r - (n - 1)),
             (r * e, r * e - r), (h, r * e - r - (e - 1)))
    powers = {m: symbolic_power(i, m) for m in {m for m, _ in tests}}
    return ContainmentSuite(*(
        subset(powers[m], product(power(mm, k), ir) if k > 0 else ir)
        for m, k in tests))


# ---------------------------------------------------------------------------
# Newton regions and multiplier ideals


# Facet normals of a Newton region are enumerated for at most this many
# variables (see `_newton_normals`).
NEWTON_MAX_VARS = 3


def _newton_normals(gens: Sequence[Exponent], n: int):
    """Inward normals covering every facet of conv(gens) + R_{>=0}^n.

    Facets of the region have nonnegative normals; each is spanned by
    generator points and coordinate rays, so normals of point triples,
    point pairs crossed with an axis, and the axes themselves exhaust the
    candidates for n <= 3.  Extra (redundant) normals are harmless: the
    inequality nu.u >= min_g nu.g is valid on the region for every nu >= 0,
    and at an interior point every nonzero valid inequality is strict.
    """
    if n > NEWTON_MAX_VARS:
        raise ValueError(f"Newton regions are supported in at most "
                         f"{NEWTON_MAX_VARS} variables")
    cands = set()
    for k in range(n):
        cands.add(tuple(1 if j == k else 0 for j in range(n)))

    def add(nu):  # the orientation of nu >= 0, if it has one
        if min(nu) < 0:
            nu = tuple(-x for x in nu)
        if min(nu) >= 0 and max(nu) > 0:
            cands.add(primitive(nu))

    if n == 2:
        for p, q in itertools.combinations(gens, 2):
            add((q[1] - p[1], p[0] - q[0]))
    if n == 3:
        axes = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
        for p, q in itertools.combinations(gens, 2):
            d = (q[0] - p[0], q[1] - p[1], q[2] - p[2])
            for ax in axes:
                add(cross(d, ax))
        for p, q, s in itertools.combinations(gens, 3):
            u = (q[0] - p[0], q[1] - p[1], q[2] - p[2])
            v = (s[0] - p[0], s[1] - p[1], s[2] - p[2])
            add(cross(u, v))
    out = []
    for nu in sorted(cands):
        h = min(sum(nk * gk for nk, gk in zip(nu, g)) for g in gens)
        out.append((nu, h))
    return out


def newton_region_contains(i: MonomialIdeal, c, a: Sequence) -> bool:
    """Membership of the point a in c times the Newton region of I."""
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if not i.gens:
        return False
    a = tuple(Fraction(x) for x in a)
    if len(a) != i.nvars:
        raise ValueError("point length does not match the ring")
    return all(sum(nk * ak for nk, ak in zip(nu, a)) >= c * h
               for nu, h in _newton_normals(i.gens, i.nvars))


def howald_multiplier(i: MonomialIdeal, c) -> MonomialIdeal:
    """Multiplier ideal of I at coefficient c: monomials x^a with
    a + (1,..,1) interior to c * (Newton region of I).

    A coordinate bound for minimal generators: a binding facet nu at the
    reduction of a in direction j gives nu_j (a_j + 1) <= c h(nu) + nu_j,
    so every minimal generator lives in the box a_j <= c h(nu) / nu_j.
    """
    c = Fraction(c)
    if c <= 0:
        raise ValueError("c must be positive")
    if not i.gens:
        raise ValueError("need a nonzero ideal")
    n = i.nvars
    normals = _newton_normals(i.gens, n)
    bound = 1
    for nu, h in normals:
        for nj in nu:
            if nj > 0:
                bound = max(bound, ceil(Fraction(c * h, nj)))
    bound += 1
    cn, cd = c.numerator, c.denominator

    def interior(u: Exponent) -> bool:
        return all(cd * sum(nk * uk for nk, uk in zip(nu, u)) > cn * h
                   for nu, h in normals)

    hits = [a for a in itertools.product(range(bound + 1), repeat=n)
            if interior(tuple(x + 1 for x in a))]
    if not hits:
        raise ArithmeticError("multiplier ideal is zero on the search box; "
                              "this cannot happen for c > 0 at desk scale")
    return MonomialIdeal._from_valid(i.variables, hits)


def asymptotic_multiplier(i: MonomialIdeal, t) -> MonomialIdeal:
    """Asymptotic multiplier ideal J(t) of the symbolic-power system of a
    squarefree I, exactly: the intersection over the minimal primes P of
    P^max(0, floor(t) + 1 - |P|), raised as in `symbolic_power`.

    I^(m) is the set of lattice points of mQ, with Q = {a >= 0 : sum over
    k in P of a_k >= 1 for every P} the symbolic polyhedron, so by
    Howald's theorem J(t) = {x^a : sum over k in P of (a_k + 1) > t for
    every P}.  For integer a that inequality says sum over k in P of
    a_k >= floor(t) + 1 - |P|, which is membership in the power of P.
    """
    t = Fraction(t)
    if t <= 0:
        raise ValueError("t must be positive")
    k = floor(t) + 1
    return _intersect_prime_powers(
        i, lambda p: max(0, k - len(p.variables)))


@dataclass(frozen=True)
class ElsChain:
    left: bool
    middle: bool
    right: bool


def els_chain_check(i: MonomialIdeal, r: int) -> ElsChain:
    """The containment chain behind uniform symbolic-power bounds:
    I^(re) <= J(re) <= J(e)^r <= I^r with e = bight(I) and J(t) the
    asymptotic multiplier ideal of the symbolic-power system, the
    intersection of the P^max(0, floor(t) + 1 - |P|) over the minimal
    primes P (`asymptotic_multiplier`).  It holds in any number of
    variables (Ein, Lazarsfeld and Smith)."""
    if r < 1:
        raise ValueError("r must be >= 1")
    e = bight(i)
    j_re = asymptotic_multiplier(i, r * e)
    j_e = asymptotic_multiplier(i, e)
    j_e_r = power(j_e, r)
    return ElsChain(
        subset(symbolic_power(i, r * e), j_re),
        subset(j_re, j_e_r),
        subset(j_e_r, power(i, r)),
    )


# ---------------------------------------------------------------------------
# JSON round trip


def ideal_to_json(i: MonomialIdeal) -> Dict:
    return {"vars": list(i.variables), "gens": [list(g) for g in i.gens]}


def ideal_from_json(data: Dict) -> MonomialIdeal:
    """The ideal of {"vars": [...], "gens": [[e, ...], ...]}; the vars
    must be a list of distinct strings, the gens a list of lists, and
    every exponent a JSON int."""
    names, gens = data["vars"], data["gens"]
    if not (type(names) is list and all(type(v) is str for v in names)
            and len(set(names)) == len(names)):
        raise ValueError("vars must be a list of distinct strings")
    if not (type(gens) is list and all(type(g) is list for g in gens)):
        raise ValueError("gens must be a list of lists of integers")
    return MonomialIdeal(tuple(names),
                         tuple(tuple(map(_json_int, g)) for g in gens))
