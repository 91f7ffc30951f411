"""The two-sided rank certificate in rank_exact, with Bareiss as the oracle.

A deficient rank mod p is proved by lifting the predicted kernel to Q and
checking it exactly; these tests feed it random low-rank products and
matrices built so that the first primes of the lift's walk, RANK_PRIME and
the primes below it, lie about the rank.  Matrices of the same build,
unlucky for the first primes of the determinant's walk, the same one,
check that `det_exact` counts such primes as residue 0.
"""

from fractions import Fraction
from math import prod

import numpy as np
import pytest
import sympy
from hypothesis import given, settings, strategies as st

from linserlab import _linalg
from linserlab._linalg import (CERT_PRIMES, RANK_PRIME, _annihilated,
                               _prime_below, _rational, det_exact,
                               independent_rows, independent_rows_mod_p,
                               nullspace, rank_exact, to_int_rows)
from test_linalg import _bareiss_det, _bareiss_echelon


def _bareiss_rank(rows):
    ints = [row for row in to_int_rows(rows) if any(row)]
    return _bareiss_echelon(ints)[0] if ints else 0


def _matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def _walk(start, count):
    """`count` primes from `start` down, each the largest below the last:
    from RANK_PRIME, the primes the kernel lift restarts at and those
    `det_exact` takes."""
    primes = [start]
    while len(primes) < count:
        primes.append(_prime_below(primes[-1]))
    return primes


def _spy_lifts(monkeypatch):
    """The prime of every kernel lift (`_dixon`) made from now on."""
    primes, dixon = [], _linalg._dixon

    def spy(mat, pivots, rows, p, both):
        primes.append(p)
        return dixon(mat, pivots, rows, p, both)

    monkeypatch.setattr(_linalg, "_dixon", spy)
    return primes


@st.composite
def low_rank(draw, entries):
    """An n x m product of n x r and r x m factors: rank at most r."""
    n = draw(st.integers(1, 9))
    m = draw(st.integers(1, 9))
    r = draw(st.integers(0, min(n, m)))
    left = [[draw(entries) for _ in range(r)] for _ in range(n)]
    right = [[draw(entries) for _ in range(m)] for _ in range(r)]
    if r == 0:
        return [[0] * m for _ in range(n)]
    return _matmul(left, right)


small = st.integers(-9, 9)
wide_range = st.one_of(st.integers(-3, 3), st.integers(-10**12, 10**12),
                       st.integers(-2**80, 2**80))


@settings(max_examples=80, deadline=None)
@given(low_rank(small))
def test_low_rank_small_entries_match_bareiss(mat):
    assert rank_exact(mat) == _bareiss_rank(mat)


@settings(max_examples=60, deadline=None)
@given(low_rank(wide_range))
def test_low_rank_large_entries_match_bareiss(mat):
    assert rank_exact(mat) == _bareiss_rank(mat)


@settings(max_examples=50, deadline=None)
@given(low_rank(small), st.lists(st.integers(1, 30), min_size=9,
                                 max_size=9))
def test_low_rank_fractions_match_bareiss(mat, dens):
    rows = [[Fraction(e, d) for e in row] for row, d in zip(mat, dens)]
    assert rank_exact(rows) == _bareiss_rank(rows)


def _unimodular(n, seed):
    """An n x n integer matrix of determinant 1 with mixed entries."""
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    state = seed
    for _ in range(3 * n * n):
        state = (state * 1103515245 + 12345) % 2**31
        i, j = state % n, (state // n) % n
        if i != j:
            f = (state >> 8) % 7 - 3
            u[i] = [a + f * b for a, b in zip(u[i], u[j])]
    return u


def _with_invariants(n, m, diagonal, seed):
    """U D V with U, V unimodular and D = diag(diagonal): rank = nonzeros."""
    d = [[diagonal[i] if i == j and i < len(diagonal) else 0
          for j in range(m)] for i in range(n)]
    return _matmul(_matmul(_unimodular(n, seed), d), _unimodular(m, seed + 1))


@pytest.mark.parametrize("unlucky", [1, 2, 4, 7])
@pytest.mark.parametrize("shape", [(6, 6), (5, 8), (8, 5)])
def test_minor_divisible_by_first_primes(unlucky, shape, monkeypatch):
    """The first `unlucky` primes of the lift's walk see rank 3, not 4.

    Their kernels are too big and cannot verify; the lift restarts at each
    prime below, and the first prime past them proves rank 4 without
    Bareiss.
    """
    walk = _walk(RANK_PRIME, unlucky + 1)
    mat = _with_invariants(*shape, [1, 2, 3, prod(walk[:-1])], seed=unlucky)
    ints = to_int_rows(mat)
    assert [_linalg.rank_mod_p(ints, p) for p in walk] == [3] * unlucky + [4]
    lifts = _spy_lifts(monkeypatch)
    assert rank_exact(mat) == 4
    assert lifts == walk
    assert _bareiss_rank(mat) == 4


def test_unlucky_past_hadamard_bound_needs_no_bareiss(monkeypatch):
    """Every entry is divisible by the first two primes of the lift's walk:
    both see rank 0.

    The zero kernel mod p cannot verify, although the Hadamard bound for
    rank 0 is already passed; the next prime sees rank 3, restarts the
    lift and proves the rank without Bareiss.
    """
    walk = _walk(RANK_PRIME, 3)
    mat = [[walk[0] * walk[1] * e for e in row]
           for row in _with_invariants(4, 5, [1, 1, 5], seed=9)]
    lifts = _spy_lifts(monkeypatch)
    assert rank_exact(mat) == 3
    assert lifts == walk


@pytest.mark.parametrize("unlucky", [1, 2, 3, 4, 7])
@pytest.mark.parametrize("shape", [(6, 6), (5, 8), (8, 5)])
def test_kernel_and_rows_past_unlucky_primes(unlucky, shape):
    """The first `unlucky` primes of the lift's walk see rank 3 instead of
    4; nullspace still returns the verified kernel of the reduced echelon
    form, and independent_rows four rows independent over Q, the pivots
    of the first prime that sees rank 4, without Bareiss."""
    walk = _walk(RANK_PRIME, unlucky + 1)
    mat = _with_invariants(*shape, [1, 2, 3, prod(walk[:-1])], seed=unlucky)
    assert _linalg.rank_mod_p(mat, walk[-2]) == 3
    basis = nullspace(mat)
    picked = independent_rows(mat)
    assert len(basis) == shape[1] - 4
    assert basis == [[Fraction(int(e.p), int(e.q)) for e in v]
                     for v in sympy.Matrix(mat).nullspace()]
    assert len(picked) == 4 and _bareiss_rank([mat[i] for i in picked]) == 4
    assert picked == independent_rows_mod_p(mat, walk[-1])


@pytest.mark.parametrize("unlucky", [1, 2, 4])
@pytest.mark.parametrize("n", [1, 4, 6])
def test_determinant_divisible_by_first_primes(unlucky, n, monkeypatch):
    """The first `unlucky` primes of the determinant's walk divide det:
    they see rank below n and count with residue 0, and the later primes
    fix the value."""
    walk = _walk(RANK_PRIME, unlucky)
    diagonal = ([1] * n + [2, 3, prod(walk)])[-n:]
    mat = _with_invariants(n, n, diagonal, seed=unlucky)
    assert _linalg.rank_mod_p(mat, RANK_PRIME) == n - 1
    taken, residues, step = [], [], _linalg._det_mod_p

    def spy(b, p):
        taken.append(p)
        residues.append(step(b, p))
        return residues[-1]

    monkeypatch.setattr(_linalg, "_det_mod_p", spy)
    det = det_exact(mat)
    assert det == prod(diagonal)
    assert det == _bareiss_det(mat) == sympy.Matrix(mat).det()
    assert taken == _walk(RANK_PRIME, len(taken)) and len(taken) > unlucky
    assert residues == [det % p for p in taken]
    assert residues[:unlucky] == [0] * unlucky


@pytest.mark.parametrize("unlucky", [1, 2, 4, 7])
def test_nullspace_past_primes_that_move_a_pivot(unlucky, monkeypatch):
    """The first `unlucky` primes of the lift's walk divide the leading
    entry: they see the full rank 2, but with pivots (1, 2) instead of
    (0, 1).  Their kernel (1, 0, -M) is not the reduced echelon one, so
    the lift restarts until a prime sees the rational pivots."""
    walk = _walk(RANK_PRIME, unlucky + 1)
    big = prod(walk[:-1])
    mat = [[big, 0, 1], [0, 1, 0], [big, 1, 1]]
    lifts = _spy_lifts(monkeypatch)
    assert nullspace(mat) == [[Fraction(-1, big), Fraction(0), Fraction(1)]]
    assert lifts == walk


def test_kernel_path_needs_many_primes():
    """Factors with 90-bit entries: the kernels take several batches."""
    state, draws = 7, []
    for _ in range(7 * 5 + 5 * 9):
        state = (state * 6364136223846793005 + 1442695040888963407) % 2**64
        draws.append((state << 26) - 2**89)
    left = [draws[5 * i:5 * i + 5] for i in range(7)]
    right = [draws[35 + 9 * i:35 + 9 * i + 9] for i in range(5)]
    mat = _matmul(left, right)
    assert rank_exact(mat) == 5
    assert _bareiss_rank(mat) == 5


def test_det_walk_is_every_prime_below_cert_primes():
    head = _walk(CERT_PRIMES[0], 60)
    assert tuple(head[:3]) == CERT_PRIMES
    assert all(a > b for a, b in zip(head, head[1:]))
    for a, b in zip(head, head[1:]):
        assert not any(_linalg.is_prime(q) for q in range(b + 1, a))
    for q in head:
        assert all(q % f for f in range(2, 46341))


def test_miller_rabin_matches_trial_division():
    # strong pseudoprimes to base 2, to bases 2 and 3, to bases 2, 3, 5
    # and 7, and numbers around the primes det_exact and GF(p) use
    for n in [*range(3000), 2047, 3277, 4033, 4681, 8321, 1_373_653,
              25_326_001, 3_215_031_751, 2_147_483_647, 2_147_483_649,
              4_294_967_291, 4_294_967_293, 4_294_967_295]:
        expect = n >= 2 and all(n % f for f in range(2, min(n, 70_000)))
        assert _linalg.is_prime(n) == expect, n
    # the least composite the three bases do not catch lies above 2**32
    with pytest.raises(ValueError):
        _linalg.is_prime(4_759_123_141)


def test_rank_mod_p_refuses_primes_that_overflow_int64():
    assert _linalg.rank_mod_p([[1, 2], [3, 4]], _linalg.P_LIMIT - 1) == 2
    with pytest.raises(ValueError):
        _linalg.rank_mod_p([[1, 2], [3, 4]], 4_294_967_291)


@settings(max_examples=80, deadline=None)
@given(st.integers(-10**9, 10**9), st.integers(1, 10**9))
def test_rational_reconstruction_round_trip(a, b):
    m = CERT_PRIMES[0] * CERT_PRIMES[1] * CERT_PRIMES[2]
    x = a * pow(b, -1, m) % m
    bound = 10**9
    frac = _rational(x, m, bound, bound)
    assert frac is not None
    assert Fraction(*frac) == Fraction(a, b)


def test_kernel_check_rejects_what_does_not_prove_the_bound():
    mat = np.array([[1, 2, 3], [2, 4, 6]], dtype=object)
    free = [1, 2]
    assert _annihilated(mat, [[-2, 1, 0], [-3, 0, 1]], free)
    assert _annihilated(mat, [[-4, 2, 0], [-6, 0, 2]], free)
    assert not _annihilated(mat, [[-2, 1, 0], [-3, 0, 2]], free)  # pattern
    assert not _annihilated(mat, [[-2, 1, 0], [-2, 1, 0]], free)  # repeated
    assert not _annihilated(mat, [[0, 0, 0], [0, 0, 0]], free)    # zero
    assert not _annihilated(mat, [[-2, 1, 0], [-1, 0, 1]], free)  # A v != 0
