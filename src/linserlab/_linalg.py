"""Dense exact linear algebra over Q and over prime fields.

Matrices are plain lists of rows; entries are ints or Fractions, and a
float is refused with TypeError rather than truncated.  Rank, kernel and
determinant computations never touch floating point.

One engine gives exact ranks, kernels, row selections and determinants:
one modular elimination loop (`rank_profile_mod_p`, numpy, int64) gives
every rank, rank profile, inverse and determinant mod p.  It bounds the
rank from below: rank over GF(p) never exceeds rank over Q, so a full
rank mod p settles the exact rank at once.  A deficient rank r mod p
also names the pivot columns P and the rows R that carry them, and
B = A[R, P] is then invertible mod p.  The kernel that this profile
predicts, the solution X of B X = -A[R, F] over the free columns F, is
lifted p-adically (`_Lift`, after Dixon): B is inverted mod p once
(`_inverse`, two passes of the same loop from [B | I]), each step adds
one p-adic digit, and rational reconstruction turns the digits into a
basis.  A basis that keeps the identity on F and that A annihilates
exactly over Z proves rank <= r.  An unlucky prime can only delay that
proof, never fake it: past the Hadamard bound of the minors a failing
basis proves the rank larger than r, and the lift starts again at the
next prime below (`_prime_below`).  Every exact proof walks that one
sequence, RANK_PRIME and the primes below it, and `_lift_kernel` hands
back the profile of the prime whose rank it proved.

`independent_rows` lifts the kernels of A^T and of A together, stepping
the one with less work done, and returns the pivots of A^T in the proved
profile: rows independent mod p, as many as the rank over Q.  `rank_exact`
is the size of that proved selection, and `rank_mod_p` the size of the
selection mod p, since A and A^T have the same rank.  `nullspace` lifts
the kernel of A alone and also asks for the rational pivots, the profile
of the reduced echelon form.  `det_exact` takes the
determinant from its residues on the same walk, each from the pass on
[B | I] (`_det_mod_p`), until the primes pass twice the Hadamard bound.
No certificate uses `det_exact`: a square piece is proved by its rank.

Every walk starts at RANK_PRIME, the largest prime below 2**26.  There
one product of residues fills 52 bits, so the elimination subtracts up
to 2047 of them before an entry must be reduced, and it reduces only the
pivot column and the pivot row at each step (Dumas, Giorgi and Pernet,
ACM TOMS 35(3), 2008).  The same bound keeps the lift in int64: its
digits lie below RANK_PRIME, and the exact B is split into 26-bit limbs.

The halves of that proof can be called on their own:
`rank_profile_mod_p` eliminates an int64 array of residues, and
`deficient_rank` proves a rank that is deficient mod RANK_PRIME from that
profile.  `fatpoints.cohomology` builds its residues mod RANK_PRIME
directly and calls both.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm, prod

import numpy as np

# Modular elimination works in int64 and multiplies two residues before
# reducing, so every prime it takes is below P_LIMIT: p**2 < 2**62.
P_LIMIT = 2**31

# The largest primes below P_LIMIT: the top of the modulus range, where
# the elimination reduces after every update.
CERT_PRIMES = (2_147_483_647, 2_147_483_629, 2_147_483_587)

# The largest prime below 2**26: the first modulus of every walk, where
# (p - 1)**2 < 2**52 leaves room for 2047 unreduced updates per entry.
RANK_PRIME = 67_108_859

# The kernel lift splits exact integers into limbs of _LIMB bits and takes
# digits mod primes up to RANK_PRIME < 2**26, so a product of a limb and a
# digit is below 2**52 and int64 holds a sum of _INNER of them.
_LIMB = 26
_INNER = 2**11 - 1


def _scaled_rows(rows):
    """Each row times the lcm of its denominators, and the product of the
    lcms.  Every entry must have a denominator (ints, bools, Fractions,
    numpy integers); a float raises TypeError rather than be truncated."""
    out, scale = [], 1
    for row in rows:
        try:
            mult = lcm(*[e.denominator for e in row])
        except AttributeError:
            raise TypeError(f"row {row!r} has an entry that is not an "
                            f"integer or a Fraction") from None
        if mult == 1:
            out.append(list(map(int, row)))
        else:
            out.append([int(e * mult) for e in row])
            scale *= mult
    return out, scale


def to_int_rows(rows):
    """Scale each row by the lcm of its denominators.

    Row scaling preserves rank and the column kernel.  Entries are ints or
    Fractions; a float raises TypeError.
    """
    return _scaled_rows(rows)[0]


def rank_mod_p(rows, p):
    """Rank over GF(p), p < P_LIMIT: the number of rows that
    `independent_rows_mod_p` selects."""
    return len(independent_rows_mod_p(rows, p))


def _residues(rows, p):
    """The int64 array of the integer rows mod p."""
    return np.array([[e % p for e in row] for row in rows], dtype=np.int64)


def rank_profile_mod_p(a, p):
    """Pivot columns and pivot rows of an echelon form of `a` over GF(p).

    `a` is an int64 array with entries in [0, p) and is consumed.  The
    caller keeps p below P_LIMIT.  Each step reduces the pivot column and
    the pivot row only, scales the pivot row to 1 in place, and subtracts
    products of residues from the rows below without reducing them.  One
    `nonzero` of the column names both the pivot and the rows to update:
    after the swap, the rows below that hold a nonzero are the rest of
    that list.  When more than three quarters of the rows from the pivot
    down hold a nonzero, every row below is updated as one slice (a zero
    row subtracts 0); else the rows that hold one are gathered.  The
    slice is faster on the small dense matrices of special systems and
    certificates, the gather on the larger sparser ones of generic
    systems and ideals (CHANGES.md has the times).  An entry holds at
    most `lazy` such products between reductions, which keeps it inside
    int64; after `lazy` updates the whole trailing block is reduced.  For
    p near 2**31, `lazy` is 1 and the block is reduced after every update.

    The pivot rows are the original indices of the rows that the swaps
    bring up, in order; B = a[rows][:, pivots] is then invertible mod p.
    """
    nrows, ncols = a.shape
    lazy = _lazy(p)
    pending = 0  # updates since the trailing block was last reduced
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
        if i != r:  # the old row r, now at i, is zero at c
            a[[r, i]] = a[[i, r]]
            order[r], order[i] = order[i], order[r]
        # rows at or below r are zero left of column c
        row = a[r, c:]
        if pending:
            row %= p
        row *= pow(int(row[0]), -1, p)
        row %= p
        if stuck.size > 1:
            if 4 * stuck.size > 3 * (nrows - r):
                a[r + 1:, c:] -= np.multiply.outer(a[r + 1:, c], row)
            else:
                hit = r + stuck[1:]
                a[hit, c:] -= a[hit, c, None] * row
            pending += 1
            if pending == lazy:
                a[r + 1:, c + 1:] %= p
                pending = 0
        pivots.append(c)
    return pivots, order[:len(pivots)]


def _lazy(p):
    """Products of two residues mod p that an int64 entry holds between
    reductions: a sum of `lazy` of them stays below 2**63 - p."""
    return (2**63 - p) // (p - 1)**2 - 1


def rank_exact(rows):
    """Exact rank over Q: the size of the row selection that
    `independent_rows` proves, since A and A^T have the same rank."""
    return len(independent_rows(rows))


def deficient_rank(mat, full, profile=None):
    """Exact rank of an integer matrix whose rank mod RANK_PRIME < full.

    `mat` is a numpy object array of ints, and `full` is min(mat.shape) or
    a smaller upper bound on its rank.  Zero rows and columns are allowed:
    they are never pivots, and each adds a unit vector to a kernel.
    `profile` is the (pivots, rows) that `rank_profile_mod_p` found for
    mat mod RANK_PRIME; without it, a rank pass here finds them.  The
    kernels of A and of A^T that the profile predicts are lifted
    p-adically (`_Lift`), and the first to verify exactly proves the rank.
    """
    return _lift_kernel(mat, full, profile, False)[0]


def _lift_kernel(mat, full, profile, rref):
    """(rank, integer kernel basis, free columns, profile) of the integer
    matrix `mat`, proved; the profile is that of the prime whose rank was
    proved, and the basis is None when that rank reaches `full`.

    `_dixon` lifts the kernel of mat (and, unless `rref`, of mat^T) that
    the profile mod p predicts; a missing profile is found by
    `rank_profile_mod_p`.  With `rref` the basis must also be that of the
    reduced echelon form (`_reduced`).  When p was unlucky or its pivots
    are not the rational ones, the next prime below starts again: such a
    prime costs time only.
    """
    p = RANK_PRIME
    while True:
        if profile is None:
            profile = rank_profile_mod_p((mat % p).astype(np.int64), p)
        pivots, rows = profile
        if len(pivots) == full:
            return full, None, None, profile
        found = _dixon(mat, pivots, rows, p, not rref)
        if found and (not rref or _reduced(*found, pivots)):
            return len(pivots), *found, profile
        p, profile = _prime_below(p), None


def _reduced(vecs, free, pivots):
    """Whether no kernel vector is nonzero at a pivot after its own free
    column.  For a basis that is the identity on the free columns, this
    holds exactly when the pivots are the rational rank profile, and the
    basis is then that of the reduced echelon form."""
    return not any(v[c] for v, f in zip(vecs, free) for c in pivots if c > f)


def _prime_below(p):
    """The largest prime below the odd prime p."""
    q = p - 2
    while q > 2 and not is_prime(q):
        q -= 2
    if q < 3:
        raise ArithmeticError("no odd prime is left to lift over")
    return q


# Strong-pseudoprime bases.  The least composite passing all three is
# 4_759_123_141 > 2**32 (G. Jaeschke, Math. Comp. 61, 1993).
_MR_BASES = (2, 7, 61)
# Trial division first: most candidates have a small factor, and a base
# that n divides would break the test.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47,
                 53, 59, 61)


def is_prime(n):
    """Miller-Rabin with `_MR_BASES`: exact for every n < 2**32.

    Raises ValueError above that, where the bases no longer suffice.
    """
    if n >= 2**32:
        raise ValueError("is_prime is exact only below 2**32")
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while not d & 1:
        d, s = d >> 1, s + 1
    for q in _MR_BASES:
        x = pow(q, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _limbs(b):
    """The limbs of an integer object array, stacked: an int64 array L of
    shape (n,) + b.shape with b = sum_j L[j] 2**(26 j).  Every limb but
    the last lies in [0, 2**26), and the last in [-2**25, 2**25)."""
    bits = max(map(abs, b.ravel().tolist()), default=0).bit_length()
    limbs = []
    for _ in range(bits // _LIMB):
        limbs.append(b & (2**_LIMB - 1))
        b = b >> _LIMB
    limbs.append(b)
    return np.array(limbs, dtype=np.int64)


def _dot(a, b):
    """a @ b exactly, for int64 factors with |a| |b| < 2**52 (a may be a
    stack): in int64 over inner chunks of _INNER terms, whose sums fit,
    and as Python ints across chunks."""
    n = a.shape[-1]
    if n <= _INNER:
        return a @ b
    return sum((a[..., k:k + _INNER] @ b[k:k + _INNER]).astype(object)
               for k in range(0, n, _INNER))


def _beside_identity(b, p):
    """[U | E], the pivots and the row order that `rank_profile_mod_p`
    leaves from [B | I], for an n x n int64 array `b` with entries in
    [0, p < P_LIMIT).  E B = U, U is unit upper triangular when B is
    invertible mod p, and else a pivot lands in the I block."""
    n = len(b)
    g = np.concatenate([b, np.eye(n, dtype=np.int64)], axis=1)
    return g, *rank_profile_mod_p(g, p)


def _inverse(b, p):
    """C = B^-1 mod p for an int64 array `b` that is invertible mod p, with
    entries in [0, p < P_LIMIT).

    `_beside_identity` leaves [U | E] with E B = U unit upper triangular.
    With J the permutation that reverses the order, J U J is unit lower
    triangular, so the same loop on [J U J | J E] makes no swap and
    leaves [I | J U^-1 E], whose rows reversed are U^-1 E = B^-1.
    """
    n = len(b)
    g = _beside_identity(b, p)[0][::-1]
    g = np.concatenate([g[:, n - 1::-1], g[:, n:]], axis=1)
    rank_profile_mod_p(g, p)
    return g[::-1, n:]


def _det_mod_p(b, p):
    """det B mod p for an n x n int64 array `b` with entries in [0, p).

    Row k of `_beside_identity`'s [U | E] is the original row order[k]
    divided by the k-th pivot, less multiples of the rows above it.  So E
    is a lower triangular matrix with E[k, order[k]] on its diagonal, its
    rows permuted by `order`, and det B = sign(order) / prod E[k, order[k]]
    since det U = 1.  When B is singular mod p, the residue is 0.
    """
    n = len(b)
    g, pivots, order = _beside_identity(b, p)
    if pivots[-1] >= n:
        return 0
    det = prod(g[range(n), [n + i for i in order]].tolist()) % p
    for k in range(n):  # sort the order by swaps, each flipping the sign
        while order[k] != k:
            i = order[k]
            order[k], order[i], det = order[i], i, -det
    return pow(det, -1, p)


class _Lift:
    """Dixon's p-adic lift of the kernel that a rank profile predicts
    (J. D. Dixon, Numer. Math. 40, 1982).

    With B = mat[rows, pivots] and the free columns F, the kernel vector of
    f in F is e_f + X[:, f] on the pivots, where B X = -mat[rows, F].  A
    step takes one p-adic digit x = C r mod p of X, with C = B^-1 mod p,
    and updates the residual r <- (r - B x) / p exactly; B x is summed
    from int64 products of B's 26-bit limbs (Chen and Storjohann, ISSAC
    2005).  On a geometric schedule of steps the digits are reconstructed
    as rationals, and `_annihilated` proves the basis.  X is a quotient of
    minors of mat[rows], each at most sqrt(h2), h2 the product of the
    squared row norms (Hadamard); once p**steps > 2 h2 the reconstruction
    is X itself, so a basis that still fails proves the rank over Q larger
    than len(rows), and the lift is `spent`.
    """

    def __init__(self, mat, pivots, rows, limbs, powers, inverse, p):
        self.mat, self.pivots, self.rows, self.p = mat, pivots, rows, p
        # B = sum(limbs * powers), and inverse = C
        self.limbs, self.powers, self.inverse = limbs, powers, inverse
        taken = set(pivots)
        self.free = [j for j in range(mat.shape[1]) if j not in taken]
        self.residual, self.digits = None, []
        self.target, self.last = 1, None  # steps of the next and last try
        self.vecs, self.spent = None, False

    def cost(self):
        """Digits lifted after the next step, times the columns of each."""
        return (len(self.digits) + 1) * len(self.free)

    def step(self):
        """Lift one digit; on the schedule, try the basis."""
        p = self.p
        if self.residual is None:
            self.residual = -self.mat[self.rows][:, self.free]
        x = _dot(self.inverse, (self.residual % p).astype(np.int64)) % p
        bx = (_dot(self.limbs, x).astype(object) * self.powers).sum(axis=0)
        self.residual = (self.residual - bx) // p
        self.digits.append(x)
        steps = len(self.digits)
        if steps < self.target:
            return
        vecs = self.basis()
        if vecs is not None and _annihilated(self.mat, vecs, self.free):
            self.vecs = vecs
            return
        if self.last is None:  # a step count with p**last > 2 h2
            h2 = prod(int(row.dot(row)) for row in self.mat[self.rows])
            self.last = -(-(2 * h2).bit_length() // (p.bit_length() - 1))
        self.spent = steps >= self.last
        self.target = min(steps + (steps + 1) // 2, self.last)

    def basis(self):
        """Integer kernel vectors by rational reconstruction, or None.

        The entries share a running common denominator, so an entry that
        is small once multiplied by it needs no reconstruction of its own.
        """
        p = self.p
        acc = self.digits[-1].astype(object)
        for d in self.digits[-2::-1]:
            acc = acc * p + d
        m = p ** len(self.digits)
        bound = isqrt((m - 1) // 2)
        den, scaled = 1, []
        for x in acc.flat:
            y = x * den % m
            if y > m // 2:
                y -= m
            if abs(y) > bound:
                frac = _rational(y % m, m, bound, bound // den)
                if frac is None:
                    return None
                y, b = frac
                den *= b
            scaled.append((y, den))
        k = len(self.free)
        vecs = []
        for j, f in enumerate(self.free):
            v = [0] * self.mat.shape[1]
            v[f] = den
            for i, c in enumerate(self.pivots):
                y, at = scaled[i * k + j]
                v[c] = y * (den // at)
            vecs.append(v)
        return vecs


def _dixon(mat, pivots, rows, p, both):
    """The proved kernel basis of mat and its free columns, or None when p
    was unlucky (rank over Q > len(pivots)).

    B = mat[rows, pivots] is split into limbs and inverted mod p once by
    `_inverse`, whose rank passes repeat on B the row operations of the
    pass that found the profile: that pass does not keep them.  With
    `both` the kernel of mat^T, lifted from B^T and C^T, races that of
    mat: the side with fewer digits times columns after its next step (on
    a tie, mat) takes it, and the first to verify wins.  Neither fewer
    columns nor smaller entries reliably tells which side needs fewer
    digits.
    """
    b = mat[rows][:, pivots]
    limbs, inverse = _limbs(b), _inverse((b % p).astype(np.int64), p)
    powers = np.array([1 << (_LIMB * j) for j in range(len(limbs))],
                      dtype=object)[:, None, None]
    lifts = [_Lift(mat, pivots, rows, limbs, powers, inverse, p)]
    if both:
        lifts.append(_Lift(mat.T, rows, pivots, limbs.transpose(0, 2, 1),
                           powers, inverse.T, p))
    while True:
        lift = min(lifts, key=_Lift.cost)
        lift.step()
        if lift.vecs is not None:
            return lift.vecs, lift.free
        if lift.spent:
            return None


def _rational(x, m, nbound, dbound):
    """(a, b) with a = b x mod m, |a| <= nbound, 0 < b <= dbound, or None.

    Wang's half extended Euclid; unique when 2 nbound dbound < m.
    """
    r0, r1, t0, t1 = m, x, 0, 1
    while r1 > nbound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if t1 == 0 or abs(t1) > dbound or gcd(r1, t1) != 1:
        return None
    return (r1, t1) if t1 > 0 else (-r1, -t1)


def _annihilated(mat, vecs, free):
    """Exact proof that `vecs` are independent vectors in ker(mat).

    On the `free` coordinates the vectors must form a nonzero multiple of
    the identity, which makes them independent, and mat v must be 0 over Z
    for each; then rank(mat) <= ncols - len(vecs).  The first row is tried
    alone, since a wrong reconstruction almost always fails there.
    """
    den = vecs[0][free[0]]
    if den == 0 or any(v[f] != (den if i == j else 0)
                       for i, v in enumerate(vecs)
                       for j, f in enumerate(free)):
        return False
    vt = np.array(vecs, dtype=object).T
    return not (np.count_nonzero(mat[:1] @ vt)
                or np.count_nonzero(mat[1:] @ vt))


def det_exact(rows):
    """Exact determinant of a square matrix with int/Fraction entries.

    Each row is scaled to integers, and det**2 <= h2, the product of the
    squared row norms (Hadamard).  Primes are taken from RANK_PRIME down,
    by `_prime_below`, until their product M has M**2 > 4 h2; then det is
    the residue of least absolute value mod M (Abbott, Bronstein and
    Mulders, ISSAC 1999).  Each residue is one rank pass on [B | I]
    (`_det_mod_p`): a prime that divides det gives 0 there, so no prime
    needs to be lucky, and no singularity test is separate.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    ints, scale = _scaled_rows(rows)
    bound = 4 * prod(sum(e * e for e in row) for row in ints)
    primes, modulus = [RANK_PRIME], RANK_PRIME
    while modulus * modulus <= bound:
        primes.append(_prime_below(primes[-1]))
        modulus *= primes[-1]
    mat = np.array(ints, dtype=object)
    det = sum(_det_mod_p((mat % p).astype(np.int64), p) * (modulus // p)
              * pow(modulus // p, -1, p) for p in primes) % modulus
    if det > modulus // 2:
        det -= modulus
    return Fraction(det, scale)


def nullspace(rows, ncols=None):
    """Basis of the column kernel {v : M v = 0}, exact over Q.

    The basis of the reduced row echelon form: one Fraction vector per
    free column, 1 there and 0 on the other free columns.  It is lifted
    p-adically from one elimination mod RANK_PRIME, and a prime whose
    pivots are not the rational profile passes the lift on to the next
    prime below.
    """
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols or 0)]
                for i in range(ncols or 0)]
    mat = np.array(to_int_rows(rows), dtype=object)
    _, vecs, free, _ = _lift_kernel(mat, mat.shape[1], None, True)
    if vecs is None:
        return []
    den = vecs[0][free[0]]
    return [[Fraction(e, den) for e in v] for v in vecs]


def independent_rows_mod_p(rows, p):
    """Indices of the greedy maximal set of rows independent over GF(p).

    Row i is taken when it is independent of the rows before it: these are
    the pivot columns of the echelon form of the transpose.  Sound for
    exact certificates: rows independent mod p are independent over Q.
    The row scales of `_scaled_rows` are units mod p; a float raises
    TypeError and a denominator that p divides ValueError.
    """
    if not 2 <= p < P_LIMIT:
        raise ValueError(f"residues need 2 <= p < 2**31, got {p}")
    if not rows or not rows[0]:
        return []
    ints, scale = _scaled_rows(rows)
    if scale % p == 0:
        raise ValueError(f"a denominator is divisible by {p}")
    return rank_profile_mod_p(np.ascontiguousarray(_residues(ints, p).T),
                              p)[0]


def independent_rows(rows):
    """Indices of a maximal set of rows independent over Q.

    The greedy selection mod RANK_PRIME, the pivot columns of the
    transpose, is accepted when it takes every row or reaches
    min(nonzero rows, nonzero columns), which bounds the rank.  A shorter
    one hands its profile to `_lift_kernel` on the exact transpose, and the
    pivots of the profile it proved are returned: columns of A^T
    independent mod a prime, so rows of A independent over Q, and as many
    as the rank.  Used to pick a square nonsingular submatrix witness, and
    by `rank_exact`.  The nonzero columns are counted on the residues; a
    column that is zero mod RANK_PRIME is looked up in the integers.
    """
    if not rows or not rows[0]:
        return []
    ints = to_int_rows(rows)
    a = _residues(ints, RANK_PRIME)
    profile = rank_profile_mod_p(np.ascontiguousarray(a.T), RANK_PRIME)
    if len(profile[0]) == len(ints):
        return profile[0]
    zero = np.flatnonzero(~a.any(axis=0)).tolist()
    full = min(sum(map(any, ints)), len(ints[0]) - sum(
        not any(row[j] for row in ints) for j in zero))
    if len(profile[0]) < full:
        profile = _lift_kernel(np.array(ints, dtype=object).T, full, profile,
                               False)[3]
    return profile[0]
