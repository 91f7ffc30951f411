"""Exact linear algebra against an independent oracle (sympy)."""

from fractions import Fraction
from math import lcm, prod

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings, strategies as st

from linserlab import _linalg
from linserlab._linalg import (CERT_PRIMES, RANK_PRIME, _prime_below,
                               det_exact, independent_rows,
                               independent_rows_mod_p,
                               is_prime, nullspace, rank_exact, rank_mod_p,
                               rank_profile_mod_p, to_int_rows)


def _sympy_rank(rows):
    return sympy.Matrix([[sympy.Rational(x) for x in r] for r in rows]).rank()


def test_rank_fixed():
    assert rank_exact([[1, 2], [2, 4]]) == 1
    assert rank_exact([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == 3
    assert rank_exact([[0, 0], [0, 0]]) == 0
    assert rank_exact([]) == 0


def test_det_fixed():
    assert det_exact([[2, 0], [0, 3]]) == 6
    assert det_exact([[1, 2], [2, 4]]) == 0
    assert det_exact([[0, 1, 0], [0, 0, 1], [1, 0, 0]]) == 1


def test_to_int_rows_clears_denominators():
    rows = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(2), Fraction(0)]]
    ints = to_int_rows(rows)
    assert ints[0] == [3, 2]
    assert ints[1] == [2, 0]


def test_exact_rows_take_integers_and_refuse_floats():
    """Every entry is read through its denominator: bools and numpy
    integers count as integers, and a float is refused, not truncated.
    Mod p a Fraction row is scaled by a unit, and a denominator that p
    divides is refused."""
    assert to_int_rows([[True, np.int64(-3), Fraction(5, 4)]]) == [[4, -12, 5]]
    assert det_exact([[np.int64(2), Fraction(1, 3)], [1, 1]]) == Fraction(5, 3)
    assert rank_mod_p([[Fraction(1, 2)]], 7) == 1
    assert independent_rows_mod_p([[Fraction(1, 2)]], 7) == [0]
    rows = [[Fraction(1, 2), Fraction(1, 3)], [3, 2], [0, Fraction(5, 4)]]
    assert rank_mod_p(rows, 7) == 2
    assert independent_rows_mod_p(rows, 7) == [0, 2]
    for call in (rank_mod_p, independent_rows_mod_p):
        with pytest.raises(ValueError):
            call([[1, 0], [0, Fraction(1, 7)]], 7)
    for call in (to_int_rows, rank_exact, det_exact, nullspace,
                 independent_rows, lambda rows: rank_mod_p(rows, 7),
                 lambda rows: independent_rows_mod_p(rows, 7)):
        for rows in ([[0.5]], [[1, 0.25], [0, 1]], [[np.float64(2.0)]]):
            with pytest.raises(TypeError):
                call(rows)


small_entries = st.integers(min_value=-9, max_value=9)


@st.composite
def rational_matrix(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=5))
    return [
        [Fraction(draw(small_entries), draw(st.integers(1, 4)))
         for _ in range(m)]
        for _ in range(n)
    ]


@settings(max_examples=60, deadline=None)
@given(rational_matrix())
def test_rank_matches_sympy(mat):
    assert rank_exact(mat) == _sympy_rank(mat)


@settings(max_examples=40, deadline=None)
@given(rational_matrix())
def test_nullspace_annihilates_and_spans(mat):
    basis = nullspace(mat)
    ncols = len(mat[0])
    for vec in basis:
        assert any(v != 0 for v in vec)
        for row in mat:
            assert sum(Fraction(a) * v for a, v in zip(row, vec)) == 0
    assert len(basis) == ncols - rank_exact(mat)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(small_entries, min_size=3, max_size=3),
                min_size=3, max_size=3))
def test_det_matches_sympy(mat):
    expected = sympy.Matrix(mat).det()
    assert det_exact(mat) == expected


det_entries = st.one_of(
    st.integers(-3, 3), st.integers(-2**80, 2**80),
    st.builds(Fraction, st.integers(-2**80, 2**80), st.integers(1, 30)))


@st.composite
def square_matrices(draw):
    """n x n, n <= 8: dense, or a singular product of n x r and r x n
    factors with r < n."""
    n = draw(st.integers(1, 8))
    entries = draw(st.sampled_from([small_entries, det_entries]))
    if draw(st.booleans()):
        return [[draw(entries) for _ in range(n)] for _ in range(n)]
    r = draw(st.integers(0, n - 1))
    left = [[draw(small_entries) for _ in range(r)] for _ in range(n)]
    right = [[draw(entries) for _ in range(n)] for _ in range(r)]
    return [[sum((row[k] * right[k][j] for k in range(r)), Fraction(0))
             for j in range(n)] for row in left]


@settings(max_examples=80, deadline=None)
@given(square_matrices())
def test_det_matches_bareiss_and_sympy(mat):
    det = det_exact(mat)
    assert det == _bareiss_det([row[:] for row in mat])
    assert det == sympy.Matrix([[sympy.Rational(e) for e in row]
                                for row in mat]).det()


nonzero_entries = st.one_of(
    st.integers(-2**40, 2**40).filter(bool),
    st.builds(Fraction, st.integers(1, 99), st.integers(1, 30)),
    st.builds(Fraction, st.integers(-99, -1), st.integers(1, 30)))


@st.composite
def scaled_permutations(draw):
    """(sigma, diag), n <= 8: the matrix P D with P[i, sigma[i]] = 1."""
    n = draw(st.integers(1, 8))
    sigma = draw(st.permutations(range(n)))
    diag = draw(st.lists(nonzero_entries, min_size=n, max_size=n))
    return sigma, diag


@settings(max_examples=80, deadline=None)
@given(scaled_permutations())
def test_det_of_a_scaled_permutation_carries_its_sign(case):
    """det(P D) = sign(sigma) prod(diag), sign by counting inversions: the
    elimination brings up the rows in the order sigma^-1, so this checks
    the parity that `_det_mod_p` reads from the row order."""
    sigma, diag = case
    n = len(sigma)
    mat = [[diag[j] if sigma[i] == j else 0 for j in range(n)]
           for i in range(n)]
    inversions = sum(a > b for i, a in enumerate(sigma)
                     for b in sigma[i + 1:])
    det = det_exact(mat)
    assert det == (-1) ** inversions * prod(diag)
    assert det == sympy.Matrix([[sympy.Rational(e) for e in row]
                                for row in mat]).det()


def test_det_edge_cases():
    assert det_exact([[0]]) == 0
    assert det_exact([[5]]) == 5
    assert det_exact([]) == Fraction(1)
    assert isinstance(det_exact([]), Fraction)
    assert det_exact([[0, 1], [1, 0]]) == -1
    with pytest.raises(ValueError):
        det_exact([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(ValueError):
        det_exact([[1, 2], [3]])


@pytest.mark.parametrize("value", [
    RANK_PRIME - 1, -(RANK_PRIME - 1),
    RANK_PRIME * _prime_below(RANK_PRIME) - 1, Fraction(RANK_PRIME - 2, 3)])
def test_det_just_below_the_prime_products(value):
    """|det| = sqrt(h2), just below a product M of det_exact's primes: a
    modulus that only passed the Hadamard bound, not twice it, would read
    det - M."""
    assert det_exact([[value]]) == value
    assert det_exact([[value, 0], [0, 1]]) == value


@settings(max_examples=30, deadline=None)
@given(rational_matrix())
def test_mod_p_rank_is_lower_bound(mat):
    exact = rank_exact(mat)
    ints = to_int_rows(mat)
    for p in CERT_PRIMES:
        assert rank_mod_p(ints, p) <= exact


def test_rank_certifies_large_full_rank_fast():
    from sympy.polys.matrices import DomainMatrix
    n = 60
    mat = [[(i * 7919 + j * 104729 + (i * j) % 97) % 1009 - 500
            for j in range(n)] for i in range(n)]
    r = rank_exact(mat)
    assert r == DomainMatrix.from_Matrix(sympy.Matrix(mat)).rank()


# Frozen copies of the eliminations the modular engine replaced: Fraction
# Gauss-Jordan for the kernel, the row-by-row greedy loop mod p, and
# fraction-free (Bareiss) elimination for rank and determinant.


def _rref_kernel(rows, ncols=None):
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols)]
                for i in range(ncols or 0)]
    mat = [[Fraction(e) for e in row] for row in rows]
    ncols = len(mat[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == len(mat):
            break
        piv = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [e / mat[r][c] for e in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][f]
        basis.append(v)
    return basis


def _greedy_rows_mod_p(rows, p):
    picked, basis = [], []
    for idx, row in enumerate(rows):
        cur = [e % p for e in row]
        for brow, bcol in basis:
            if cur[bcol]:
                f = cur[bcol]
                cur = [(a - f * b) % p for a, b in zip(cur, brow)]
        lead = next((j for j, e in enumerate(cur) if e), None)
        if lead is None:
            continue
        inv = pow(cur[lead], -1, p)
        basis.append(([e * inv % p for e in cur], lead))
        picked.append(idx)
    return picked


def _bareiss_echelon(mat):
    """Fraction-free elimination with full pivoting.

    Returns (rank, sign, last_pivot).  `mat` is consumed (list of int lists).
    After step k every entry is a (k+1)x(k+1) minor of the input, so sizes
    stay polynomial; the exact divisions below cannot leave a remainder.
    """
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    sign = 1
    prev = 1
    r = 0
    for _step in range(min(nrows, ncols)):
        best = None
        for i in range(r, nrows):
            row = mat[i]
            for j in range(r, ncols):
                e = row[j]
                if e:
                    a = abs(e)
                    if best is None or a < best[0]:
                        best = (a, i, j)
                        if a == 1:
                            break
            if best is not None and best[0] == 1:
                break
        if best is None:
            break
        _, pi, pj = best
        if pi != r:
            mat[pi], mat[r] = mat[r], mat[pi]
            sign = -sign
        if pj != r:
            for row in mat:
                row[pj], row[r] = row[r], row[pj]
            sign = -sign
        piv = mat[r][r]
        prow = mat[r]
        for i in range(r + 1, nrows):
            row = mat[i]
            head = row[r]
            row[r] = 0
            if head:
                for j in range(r + 1, ncols):
                    row[j] = (row[j] * piv - head * prow[j]) // prev
            elif piv != prev:
                # Sylvester identity degenerates to a pure rescale, which is
                # still needed to keep entries equal to minors.
                for j in range(r + 1, ncols):
                    row[j] = (row[j] * piv) // prev
        prev = piv
        r += 1
    return r, sign, prev


def _bareiss_det(rows):
    """The determinant as `det_exact` computed it before the residues."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    r, sign, last = _bareiss_echelon(to_int_rows(rows))
    if r < n:
        return Fraction(0)
    scales = (lcm(*(Fraction(e).denominator for e in row)) for row in rows)
    return Fraction(sign * last, prod(scales))


@st.composite
def low_rank_rows(draw, entries):
    """An n x m product of factors of inner size r, wide or tall, with
    some rows replaced by zero rows."""
    n = draw(st.integers(1, 8))
    m = draw(st.integers(1, 8))
    r = draw(st.integers(0, min(n, m)))
    left = [[draw(st.integers(-4, 4)) for _ in range(r)] for _ in range(n)]
    right = [[draw(entries) for _ in range(m)] for _ in range(r)]
    rows = [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            if r else [0] * m for row in left]
    zero = draw(st.sets(st.integers(0, n - 1)))
    return [[0] * m if i in zero else row for i, row in enumerate(rows)]


fractions = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 6))


@settings(max_examples=120, deadline=None)
@given(st.one_of(low_rank_rows(small_entries), low_rank_rows(fractions),
                 low_rank_rows(st.integers(-10**15, 10**15))))
def test_nullspace_is_the_rref_kernel(rows):
    assert nullspace(rows) == _rref_kernel(rows)


@given(st.integers(0, 6))
def test_nullspace_of_no_rows(ncols):
    assert nullspace([], ncols=ncols) == _rref_kernel([], ncols)


@settings(max_examples=80, deadline=None)
@given(low_rank_rows(small_entries),
       st.sampled_from([2, 3, 7, CERT_PRIMES[0]]))
def test_independent_rows_mod_p_is_the_greedy_loop(rows, p):
    assert independent_rows_mod_p(rows, p) == _greedy_rows_mod_p(rows, p)


@settings(max_examples=80, deadline=None)
@given(st.one_of(low_rank_rows(small_entries), low_rank_rows(fractions)))
def test_independent_rows_have_full_rank(rows):
    picked = independent_rows(rows)
    assert len(picked) == _sympy_rank(rows)
    assert _sympy_rank([rows[i] for i in picked]) == len(picked)


def _eager_rank_mod_p(a, p):
    """Frozen copy of the modular rank loop that reduced every update."""
    nrows, ncols = a.shape
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        stuck = np.nonzero(a[r:, c])[0]
        if stuck.size == 0:
            continue
        i = r + int(stuck[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        below = a[r + 1:, c]
        nz = np.nonzero(below)[0]
        if nz.size:
            rows_below = r + 1 + nz
            a[rows_below, c:] = (a[rows_below, c:]
                                 - np.outer(below[nz], a[r, c:])) % p
        r += 1
    return r


def _reduction_interval(p):
    return (2**63 - p) // (p - 1)**2 - 1


# the largest prime below 2**30: the trailing block is reduced every 7 updates
P30 = 1_073_741_789


def test_reduction_intervals():
    assert is_prime(RANK_PRIME) and is_prime(P30)
    assert not any(is_prime(q) for q in range(RANK_PRIME + 1, 2**26))
    assert [_reduction_interval(p) for p in CERT_PRIMES] == [1, 1, 1]
    assert _reduction_interval(P30) == 7
    assert _reduction_interval(RANK_PRIME) == 2047


@st.composite
def residue_matrices(draw):
    """(a, p): an int64 matrix of residues mod p of rank at most k, with
    some columns zero and entries drawn toward 0, 1 and p - 1."""
    p = draw(st.sampled_from(CERT_PRIMES + (P30, RANK_PRIME, 2, 7)))
    entries = st.one_of(st.integers(0, p - 1), st.sampled_from([0, 1, p - 1]))
    n = draw(st.integers(1, 16))
    m = draw(st.integers(1, 16))
    k = draw(st.integers(0, min(n, m)))
    left = [[draw(entries) for _ in range(k)] for _ in range(n)]
    right = [[draw(entries) for _ in range(m)] for _ in range(k)]
    zero = draw(st.sets(st.integers(0, m - 1)))
    rows = [[0 if j in zero else sum(x * y for x, y in zip(row, col)) % p
             for j, col in enumerate(zip(*right))] if k else [0] * m
            for row in left]
    return np.array(rows, dtype=np.int64), p


@settings(max_examples=200, deadline=None)
@given(residue_matrices())
def test_lazy_rank_mod_p_is_the_eager_loop(case):
    a, p = case
    lazy, eager = a.copy(), a.copy()
    assert len(rank_profile_mod_p(lazy, p)[0]) == _eager_rank_mod_p(eager, p)
    if _reduction_interval(p) == 1:
        # the block is reduced after every update: the same final array
        assert np.array_equal(lazy, eager)


def _is_inverse(c, b, p):
    """Whether C B = I mod p, C reduced, by Python integer products."""
    n = len(b)
    return all(0 <= int(e) < p for e in c.flat) and [
        [sum(int(c[i, k]) * int(b[k][j]) for k in range(n)) % p
         for j in range(n)] for i in range(n)] == np.eye(n, dtype=int).tolist()


@settings(max_examples=100, deadline=None)
@given(residue_matrices())
def test_inverse_of_the_picked_block(case):
    """The rank pass finds the greedy independent columns and distinct
    pivot rows, and the block they pick is inverted."""
    a, p = case
    pivots, rows = _linalg.rank_profile_mod_p(a.copy(), p)
    assert pivots == independent_rows_mod_p(a.T.tolist(), p)
    assert len(set(rows)) == len(rows) == len(pivots)
    block = a[rows][:, pivots]
    assert _is_inverse(_linalg._inverse(block.copy(), p), block, p)


@pytest.mark.parametrize("p, n", [(CERT_PRIMES[0], 40), (P30, 40), (7, 40),
                                  (RANK_PRIME, 2100)])
@pytest.mark.parametrize("deficient", [False, True])
def test_lazy_rank_mod_p_at_its_largest_updates(p, n, deficient):
    """Row c < n - 1 is e_c + (p - 1) e_{n-1}, and the last row is p - 1
    left of the diagonal.  Every step subtracts (p - 1)**2 from the last
    entry, the most one update can, so it would leave int64 without the
    block reduction; mod p it ends at x - (n - 1)."""
    a = np.zeros((n, n), dtype=np.int64)
    a[np.arange(n - 1), np.arange(n - 1)] = 1
    a[:n - 1, n - 1] = p - 1
    a[n - 1, :n - 1] = p - 1
    a[n - 1, n - 1] = (n - 1 if deficient else n) % p
    assert len(rank_profile_mod_p(a, p)[0]) == n - deficient


def test_unlucky_rank_prime_goes_on_to_the_kernel_lift(monkeypatch):
    mat = [[1, 1], [1, 1 + RANK_PRIME]]
    assert rank_mod_p(mat, RANK_PRIME) == 1
    assert rank_exact(mat) == 2
    # the greedy pick mod RANK_PRIME falls short, so independent_rows
    # lifts once from the profile of the transpose there; the lift walks
    # on past every unlucky prime, and its proved profile names the rows
    lifts, primes = [], []
    real_lift, real_dixon = _linalg._lift_kernel, _linalg._dixon

    def spy_lift(mat, full, profile, rref):
        lifts.append((mat.tolist(), full, profile, rref))
        return real_lift(mat, full, profile, rref)

    def spy_dixon(mat, pivots, rows, p, both):
        primes.append(p)
        return real_dixon(mat, pivots, rows, p, both)

    monkeypatch.setattr(_linalg, "_lift_kernel", spy_lift)
    monkeypatch.setattr(_linalg, "_dixon", spy_dixon)
    q = _linalg._prime_below(RANK_PRIME)
    for unlucky in ([RANK_PRIME], [RANK_PRIME, q]):
        mat = [[1, 1], [1, 1 + prod(unlucky)]]
        assert all(independent_rows_mod_p(mat, p) == [0] for p in unlucky)
        lifts.clear()
        primes.clear()
        assert independent_rows(mat) == [0, 1]
        profile = rank_profile_mod_p(
            np.array(mat, dtype=np.int64).T % RANK_PRIME, RANK_PRIME)
        assert lifts == [(np.array(mat).T.tolist(), 2, profile, False)]
        assert primes == unlucky


@settings(max_examples=60, deadline=None)
@given(st.one_of(low_rank_rows(small_entries), low_rank_rows(det_entries)),
       st.data())
def test_deficient_rank_tolerates_zero_rows_and_columns(rows, data):
    # zero rows and columns at drawn places, as the vertex-reduced
    # conditions of a repeated point or a point on a coordinate line have;
    # the bound `full` is min(shape), which they keep the rank from reaching
    ints = to_int_rows(rows)
    for _ in range(data.draw(st.integers(1, 3))):
        ints.insert(data.draw(st.integers(0, len(ints))), [0] * len(ints[0]))
    for _ in range(data.draw(st.integers(0, 2))):
        at = data.draw(st.integers(0, len(ints[0])))
        ints = [row[:at] + [0] + row[at:] for row in ints]
    mat = np.array(ints, dtype=object)
    full = min(mat.shape)
    for profile in ((_linalg.rank_profile_mod_p(
            (mat % RANK_PRIME).astype(np.int64), RANK_PRIME)), None):
        assert _linalg.deficient_rank(mat, full, profile) == _sympy_rank(
            ints)


# The p-adic kernel lift: exact answers on large entries, restarts past an
# unlucky RANK_PRIME, and the int64 pieces it is built from.

@st.composite
def big_products(draw):
    """U V for an n x r U and an r x m V with entries of up to 150 bits:
    wide, tall and square, of rank at most r (0 <= r <= min(n, m))."""
    n = draw(st.integers(1, 7))
    m = draw(st.integers(1, 7))
    r = draw(st.integers(0, min(n, m)))
    entries = st.one_of(st.integers(-3, 3), st.integers(-2**150, 2**150))
    left = [[draw(entries) for _ in range(r)] for _ in range(n)]
    right = [[draw(entries) for _ in range(m)] for _ in range(r)]
    if r == 0:
        return [[0] * m for _ in range(n)]
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*right)]
            for row in left]


@settings(max_examples=80, deadline=None)
@given(big_products())
def test_dixon_lift_matches_sympy(mat):
    oracle = sympy.Matrix(mat)
    assert rank_exact(mat) == oracle.rank()
    assert nullspace(mat) == [[Fraction(int(e.p), int(e.q)) for e in v]
                              for v in oracle.nullspace()]


def _spy_eliminations(monkeypatch):
    """(name, prime, shape) of every rank pass and inversion; the two rank
    passes inside an inversion are not listed apart."""
    calls, inside = [], []
    rank, inverse = _linalg.rank_profile_mod_p, _linalg._inverse

    def spy_rank(a, p):
        if not inside:
            calls.append(("rank", p, a.shape))
        return rank(a, p)

    def spy_inverse(b, p):
        calls.append(("inverse", p, b.shape))
        inside.append(b)
        try:
            return inverse(b, p)
        finally:
            inside.pop()

    monkeypatch.setattr(_linalg, "rank_profile_mod_p", spy_rank)
    monkeypatch.setattr(_linalg, "_inverse", spy_inverse)
    return calls


def test_unlucky_rank_prime_restarts_the_lift(monkeypatch):
    # Mod RANK_PRIME the rank is 1: the pivot block [1] is inverted, and
    # the lifted kernel (0, 1) fails once past its Hadamard bound.  The
    # next prime sees full rank.
    calls = _spy_eliminations(monkeypatch)
    assert rank_exact([[1, 0], [0, RANK_PRIME]]) == 2
    q = _linalg._prime_below(RANK_PRIME)
    assert calls == [("rank", RANK_PRIME, (2, 2)),
                     ("inverse", RANK_PRIME, (1, 1)), ("rank", q, (2, 2))]


def test_wrong_rank_profile_moves_to_the_next_prime(monkeypatch):
    # Mod RANK_PRIME the pivot is column 1: the kernel (1, -RANK_PRIME)
    # verifies, but it is not the reduced echelon one.
    calls = _spy_eliminations(monkeypatch)
    assert nullspace([[RANK_PRIME, 1]]) == [[Fraction(-1, RANK_PRIME), 1]]
    q = _linalg._prime_below(RANK_PRIME)
    assert calls == [("rank", RANK_PRIME, (1, 2)),
                     ("inverse", RANK_PRIME, (1, 1)),
                     ("rank", q, (1, 2)), ("inverse", q, (1, 1))]


def _unimodular(n, seed):
    """A unit lower times a unit upper triangular integer matrix."""
    rng = np.random.default_rng(seed)
    lower = np.tril(rng.integers(-3, 4, (n, n)), -1) + np.eye(n, dtype=int)
    upper = np.triu(rng.integers(-3, 4, (n, n)), 1) + np.eye(n, dtype=int)
    return (lower.astype(object) @ upper.astype(object)).tolist()


@pytest.mark.parametrize("unlucky", [1, 3])
@pytest.mark.parametrize("shape", [(6, 6), (5, 8), (8, 5)])
def test_restarts_past_several_unlucky_primes(unlucky, shape):
    """U D V with D = diag(1, 2, 3, q) and q the product of RANK_PRIME and
    the primes just below it: each of them sees rank 3, and the lift
    restarts until a prime sees the rank 4 and the rational pivots."""
    q, p = 1, RANK_PRIME
    for _ in range(unlucky):
        q, p = q * p, _linalg._prime_below(p)
    n, m = shape
    d = [[[1, 2, 3, q][i] if i == j and i < 4 else 0 for j in range(m)]
         for i in range(n)]
    mat = (np.array(_unimodular(n, unlucky), dtype=object)
           @ np.array(d, dtype=object)
           @ np.array(_unimodular(m, unlucky + 1), dtype=object)).tolist()
    assert rank_mod_p(mat, RANK_PRIME) == 3
    oracle = sympy.Matrix(mat)
    assert rank_exact(mat) == oracle.rank() == 4
    assert nullspace(mat) == [[Fraction(int(e.p), int(e.q)) for e in v]
                              for v in oracle.nullspace()]


def test_prime_below():
    q = _linalg._prime_below(RANK_PRIME)
    assert is_prime(q) and not any(is_prime(k) for k in range(q + 1,
                                                               RANK_PRIME))
    assert _linalg._prime_below(11) == 7


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(-2**200, 2**200), min_size=1, max_size=12))
def test_limbs_sum_to_the_entries(values):
    limbs = _linalg._limbs(np.array(values, dtype=object))
    assert limbs.dtype == np.int64 and limbs.shape[1:] == (len(values),)
    assert [sum(int(limb[i]) << (26 * j) for j, limb in enumerate(limbs))
            for i in range(len(values))] == values
    assert all(0 <= int(e) < 2**26 for limb in limbs[:-1] for e in limb)
    assert all(-2**25 <= int(e) < 2**25 for e in limbs[-1])


def test_dot_is_exact_past_one_int64_chunk():
    # 5000 products of 2**26 - 1 and RANK_PRIME - 1 overflow int64 in one
    # sum; the chunks are summed as Python ints
    n = 5000
    a = np.full((2, n), 2**26 - 1, dtype=np.int64)
    a[1] *= -1
    b = np.full((n, 1), RANK_PRIME - 1, dtype=np.int64)
    want = n * (2**26 - 1) * (RANK_PRIME - 1)
    assert [int(x) for x in _linalg._dot(a, b).flat] == [want, -want]


@pytest.mark.parametrize("p", [7, P30, RANK_PRIME, CERT_PRIMES[0]])
@settings(max_examples=30, deadline=None)
@given(st.integers(1, 24).flatmap(lambda n: st.tuples(
    st.integers(0, 2**32 - 1), st.permutations(range(n)))))
# row 5 of that matrix starts 0, 0: two columns need a swap
@example(case=(14, (5, 0, 1, 2, 3, 4, 6, 7)))
def test_inverse_of_a_pivot_block(p, case):
    # the rows of a unimodular matrix, permuted: a leading entry that is 0
    # mod p takes a swap, and the lazy reduction runs many steps (every
    # 7 mod P30, every step mod CERT_PRIMES[0])
    seed, perm = case
    b = (np.array(_unimodular(len(perm), seed), dtype=object)[list(perm)]
         % p).astype(np.int64)
    assert _is_inverse(_linalg._inverse(b.copy(), p), b.tolist(), p)


def _frozen_rank_profile_mod_p(a, p):
    """`rank_profile_mod_p` as it was before the rows to update came from
    the pivot search and a mostly hit update became a slice, kept as the
    oracle of its pivots, rows and final array."""
    nrows, ncols = a.shape
    lazy = (2**63 - p) // (p - 1)**2 - 1
    pending = 0
    order = list(range(nrows))
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        col = a[r:, c]
        if pending:
            col %= p
        stuck = col.nonzero()[0]
        if stuck.size == 0:
            continue
        i = r + int(stuck[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
            order[r], order[i] = order[i], order[r]
        row = a[r, c:] % p if pending else a[r, c:]
        a[r, c:] = row * pow(int(a[r, c]), -1, p) % p
        below = a[r + 1:, c]
        nz = below.nonzero()[0]
        if nz.size:
            a[r + 1 + nz, c:] -= below[nz, None] * a[r, c:]
            pending += 1
            if pending == lazy:
                a[r + 1:, c + 1:] %= p
                pending = 0
        pivots.append(c)
    return pivots, order[:len(pivots)]


@st.composite
def profile_cases(draw):
    """(a, p): dense, sparse or low-rank residues mod p, with some columns
    zero and the top rows zero on the leading columns, so that pivots
    need swaps."""
    p = draw(st.sampled_from([7, RANK_PRIME, CERT_PRIMES[0]]))
    n, m = draw(st.integers(1, 14)), draw(st.integers(1, 14))
    nonzero = st.one_of(st.integers(1, p - 1), st.sampled_from([1, p - 1]))
    kind = draw(st.sampled_from(["dense", "sparse", "low_rank"]))
    if kind == "low_rank":
        k = draw(st.integers(0, min(n, m)))
        left = np.array(draw(st.lists(st.lists(nonzero, min_size=k,
                                               max_size=k),
                                      min_size=n, max_size=n)),
                        dtype=object).reshape(n, k)
        right = np.array(draw(st.lists(nonzero, min_size=k * m,
                                       max_size=k * m)),
                         dtype=object).reshape(k, m)
        a = (left @ right % p).astype(np.int64)
    else:
        entry = (nonzero if kind == "dense" else st.integers(0, 3).flatmap(
            lambda k: nonzero if k == 0 else st.just(0)))
        a = np.array(draw(st.lists(entry, min_size=n * m, max_size=n * m)),
                     dtype=np.int64).reshape(n, m)
    a[:, sorted(draw(st.sets(st.integers(0, m - 1), max_size=m)))] = 0
    a[:draw(st.integers(0, n - 1)), :draw(st.integers(0, m))] = 0
    return a, p


@settings(max_examples=300, deadline=None)
@given(profile_cases())
@example(case=(np.array([[0, 0, 1], [0, 2, 3], [4, 5, 6]], dtype=np.int64),
               7))
def test_rank_profile_is_the_frozen_loop(case):
    a, p = case
    new, old = a.copy(), a.copy()
    assert rank_profile_mod_p(new, p) == _frozen_rank_profile_mod_p(old, p)
    assert np.array_equal(new, old)


@pytest.mark.parametrize("p, n", [(CERT_PRIMES[0], 40), (P30, 40), (7, 40)])
def test_inverse_at_its_largest_updates(p, n, monkeypatch):
    """B is unit upper triangular with B[0, c] = p - 1 and B[c, n - 1] = 1
    for 0 < c < n - 1, so the first rank pass leaves [B | I].  The second,
    on [J B J | J], subtracts (p - 1)**2 from what becomes C[0, n - 1] at
    every step from 1 to n - 2: more than int64 holds without the block
    reduction, so with `_lazy` disabled the inverse comes out wrong, except
    mod 7, where 40 such updates fit."""
    b = np.eye(n, dtype=np.int64)
    b[0, 1:] = p - 1
    b[1:n - 1, n - 1] = 1
    assert _is_inverse(_linalg._inverse(b.copy(), p), b.tolist(), p)
    if p != 7:
        monkeypatch.setattr(_linalg, "_lazy", lambda p: 10**9)
        assert not _is_inverse(_linalg._inverse(b.copy(), p), b.tolist(), p)
