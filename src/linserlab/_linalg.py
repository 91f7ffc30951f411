"""Dense exact linear algebra over Q and over prime fields.

Matrices are plain lists of rows; entries are ints or Fractions.  Rank and
determinant computations never touch floating point.

`rank_exact` proves the rank from both sides.  A modular elimination (numpy,
int64) gives the lower bound: rank over GF(p) never exceeds rank over Q, so a
full rank mod p settles the exact rank at once.  A deficient rank r mod p
predicts the kernel: the reduced echelon form mod p gives the basis that is
the identity on the free columns.  That basis is lifted to Q by Chinese
remaindering over a stream of primes and rational reconstruction, for the
column kernels of A and of A^T at once.  A lifted basis that keeps the
identity pattern and that A annihilates exactly over Z proves rank <= r.
An unlucky prime can only delay that proof, never fake it.  Fraction-free
(Bareiss) elimination runs only when the modulus has passed the Hadamard
bound on the kernel entries and still nothing verifies, which happens only
when every prime since the last better profile divides one minor.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm, prod

import numpy as np

# Modular elimination works in int64 and multiplies two residues before
# reducing, so every prime it takes is below P_LIMIT: p**2 < 2**62.
P_LIMIT = 2**31

# Fixed prime list keeps results deterministic.
CERT_PRIMES = (2_147_483_647, 2_147_483_629, 2_147_483_587)


def to_int_rows(rows):
    """Scale each row by the lcm of its denominators.

    Row scaling preserves rank and the column kernel.
    """
    out = []
    for row in rows:
        mult = 1
        for e in row:
            if isinstance(e, Fraction):
                mult = lcm(mult, e.denominator)
        if mult == 1:
            out.append([int(e) for e in row])
        else:
            out.append([int(e * mult) for e in row])
    return out


def rank_mod_p(rows, p):
    """Rank over GF(p), p < P_LIMIT.  Entries may be arbitrary ints."""
    if not 2 <= p < P_LIMIT:
        raise ValueError(f"rank_mod_p needs 2 <= p < 2**31, got {p}")
    if not rows or not rows[0]:
        return 0
    a = np.array([[e % p for e in row] for row in rows], dtype=np.int64)
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
        # rows at or below r are zero left of column c
        a[r, c:] = a[r, c:] * pow(int(a[r, c]), -1, p) % p
        below = a[r + 1:, c]
        nz = np.nonzero(below)[0]
        if nz.size:
            rows_below = r + 1 + nz
            a[rows_below, c:] = (a[rows_below, c:]
                                 - np.outer(below[nz], a[r, c:])) % p
        r += 1
    return r


def _echelon_mod_p(a, primes):
    """Row echelon forms of a stack of matrices, a[b] mod primes[b].

    `a` (int64, shape (batch, rows, cols), entries in [0, p)) is consumed;
    all primes are eliminated in lockstep, which spreads numpy's per-call
    cost over the batch (`rank_mod_p` keeps the cheaper single-matrix loop
    for one prime), and pivot rows are scaled to 1.  At a column where
    only some primes find a pivot, the others are dropped: a column
    independent of the earlier ones mod p is so over Q, so their rank
    profile is not the rational one.  Returns the stack and primes kept,
    and the pivot columns.  Rows at or below the current pivot are zero
    left of its column, so each step only touches the columns from the
    pivot on.
    """
    q = primes[:, None, None]
    nrows, ncols = a.shape[1:]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        if r == nrows:
            break
        if not a[:, r, c].all():
            stuck = a[:, r:, c] != 0
            found = stuck.any(axis=1)
            if not found.all():
                if not found.any():
                    continue
                a, primes, stuck = a[found], primes[found], stuck[found]
                q = primes[:, None, None]
            b, first = np.arange(len(primes)), stuck.argmax(axis=1) + r
            a[b, r], a[b, first] = a[b, first], a[b, r]
        inv = [pow(x, -1, p) for x, p in zip(a[:, r, c].tolist(),
                                             primes.tolist())]
        row = a[:, r, c:]
        row *= np.array(inv)[:, None]
        row %= q[:, 0]
        rows = r + 1 + (a[:, r + 1:, c] != 0).any(axis=0).nonzero()[0]
        if rows.size:
            block = a[:, rows, c:]
            block -= block[:, :, :1] * row[:, None, :]
            block %= q
            a[:, rows, c:] = block
        pivots.append(c)
    return a, primes, pivots


def _rref_free_mod_p(a, primes):
    """The free-column block of the reduced row echelon forms.

    Like `_echelon_mod_p`.  Back substitution only updates that block:
    the pivot columns of the reduced form are the identity, and clearing
    pivot k from the rows above uses their echelon entries there, which
    the later pivots (to its right) never change.  Returns the block
    (batch, rank, free), the primes kept, the pivots and the free columns.
    """
    a, primes, pivots = _echelon_mod_p(a, primes)
    taken = set(pivots)
    free = [j for j in range(a.shape[2]) if j not in taken]
    r = len(pivots)
    block = a[:, :r][:, :, free]
    q = primes[:, None, None]
    for k in range(r - 1, 0, -1):
        above = block[:, :k]
        above -= a[:, :k, pivots[k], None] * block[:, k, None, :]
        above %= q
    return block, primes, pivots, free


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


def rank_exact(rows):
    """Exact rank over Q.

    Full rank mod CERT_PRIMES[0] settles it (a nonzero minor mod p is
    nonzero in Z).  A deficient rank is proved by a lifted kernel
    (`_kernel_rank`), and by Bareiss only if the kernel lift gives up.
    """
    rows = [row for row in to_int_rows(rows) if any(row)]
    if not rows:
        return 0
    full = min(len(rows), len(rows[0]))
    if rank_mod_p(rows, CERT_PRIMES[0]) == full:
        return full
    rank = _kernel_rank(rows, full)
    if rank is None:
        rank, _, _ = _bareiss_echelon([list(row) for row in rows])
    return rank


def _kernel_rank(rows, full):
    """Rank of nonzero integer rows, proved by a mod-p rank and a kernel.

    Each batch of primes is reduced once and fed to the kernel lifts of A
    and of A^T in turn; the first lift whose basis verifies proves the
    rank.  Returns None when a lift's modulus passes the Hadamard bound
    without verifying: the primes were unlucky, and the caller falls back
    to Bareiss.
    """
    mat = np.array(rows, dtype=object)
    lifts = (_KernelLift(mat), _KernelLift(mat.T))
    norms = [sorted((sum(e * e for e in line) for line in lines),
                    reverse=True) for lines in (rows, zip(*rows))]
    hadamard = {}  # rank r -> squared Hadamard bound on r x r minors
    for primes in _batches():
        a = np.stack([(mat % p).astype(np.int64) for p in primes.tolist()])
        stacks = (a, np.ascontiguousarray(a.transpose(0, 2, 1)))
        # The side with fewer entries to lift tends to verify first, and
        # then the other side's elimination of this batch is skipped.
        for lift, stack in sorted(zip(lifts, stacks),
                                  key=lambda pair: pair[0].size()):
            if not lift.add(stack, primes):
                continue  # every prime of the batch had a worse profile
            if lift.rank == full:
                return full
            vecs = lift.basis()
            if vecs is not None and _annihilated(lift.mat, vecs, lift.free):
                return lift.rank
            # Kernel entries are ratios of r x r minors (Cramer), each at
            # most the Hadamard bound H; once the reconstruction bound
            # reaches H a lucky profile always reconstructs and verifies.
            r = lift.rank
            if r not in hadamard:
                hadamard[r] = min(prod(n[:r]) for n in norms)
            if lift.bound() ** 2 >= hadamard[r]:
                return None
    return None


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


def _prime_stream():
    """CERT_PRIMES, then every prime below them in descending order."""
    yield from CERT_PRIMES
    q = CERT_PRIMES[-1] - 2
    while q > 2:
        if is_prime(q):
            yield q
        q -= 2


def _batches():
    """The prime stream after CERT_PRIMES[0], in batches of 1, 2, 4, 4, ...

    One batch is eliminated in lockstep, which spreads numpy's per-call
    cost over its primes; small first batches keep a kernel that lifts
    from one or two primes from paying for four.
    """
    stream = _prime_stream()
    next(stream)  # rank_exact's fast path used it
    size = 1
    while batch := list(islice(stream, size)):
        yield np.array(batch, dtype=np.int64)
        size = min(2 * size, 4)


class _KernelLift:
    """The RREF kernel of one matrix, lifted from many primes to Q.

    A prime's reduced echelon form gives the kernel basis that is the
    identity on the free columns; what is left to lift is the block of the
    pivot rows in the free columns.  Residues are kept as mixed-radix
    (Garner) digits, so a new prime costs only int64 vector operations.
    A prime whose (rank, pivots) profile is lexicographically better
    restarts the accumulation; a worse one divides a minor and is skipped.
    """

    def __init__(self, mat):
        self.mat = mat  # exact integer matrix, numpy object array
        self.ncols = mat.shape[1]
        self.profile = None

    def size(self):
        """Entries left to lift; the column count before the first prime."""
        if self.profile is None:
            return self.ncols
        return self.rank * len(self.free)

    def add(self, a, primes):
        """Fold in a stack of the matrix mod `primes` (consumed).

        Returns whether the batch was folded in.
        """
        blocks, primes, pivots, free = _rref_free_mod_p(a, primes)
        profile = (-len(pivots), pivots)
        if self.profile is not None and profile > self.profile:
            return False
        if profile != self.profile:
            self.profile, self.rank, self.pivots = profile, len(pivots), pivots
            self.free = free
            self.primes, self.digits, self.modulus = [], [], 1
        blocks = blocks.reshape(len(primes), -1)
        for block, p in zip(blocks, primes.tolist()):
            if self.primes:
                s = self.digits[-1] % p
                for d, q in zip(self.digits[-2::-1], self.primes[-2::-1]):
                    s = (d % p + q % p * s) % p
                block = (block - s) % p * pow(self.modulus % p, -1, p) % p
            self.digits.append(block)
            self.primes.append(p)
            self.modulus *= p
        return True

    def bound(self):
        """Numerator and denominator bound N, with 2 N**2 < modulus."""
        return isqrt((self.modulus - 1) // 2)

    def basis(self):
        """Integer kernel vectors by rational reconstruction, or None.

        The entries share a running common denominator, so an entry that
        is small once multiplied by it needs no reconstruction of its own.
        """
        m, bound = self.modulus, self.bound()
        den, scaled = 1, []
        for e in range(len(self.digits[0])):
            x = int(self.digits[-1][e])
            for d, q in zip(self.digits[-2::-1], self.primes[-2::-1]):
                x = x * q + int(d[e])
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
            v = [0] * self.ncols
            v[f] = den
            for i, c in enumerate(self.pivots):
                y, at = scaled[i * k + j]
                v[c] = -y * (den // at)
            vecs.append(v)
        return vecs


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
    """Exact determinant of a square matrix with int/Fraction entries."""
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    scale = Fraction(1)
    int_rows = []
    for row in rows:
        mult = 1
        for e in row:
            if isinstance(e, Fraction):
                mult = lcm(mult, e.denominator)
        scale *= mult
        int_rows.append([int(e * mult) for e in row])
    r, sign, last = _bareiss_echelon(int_rows)
    if r < n:
        return Fraction(0)
    return Fraction(sign * last) / scale


def rref(rows):
    """Reduced row echelon form over Q.  Returns (rank, pivot_cols, matrix)."""
    mat = [[Fraction(e) for e in row] for row in rows]
    nrows = len(mat)
    ncols = len(mat[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if mat[i][c]:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][c]
        mat[r] = [e * inv for e in mat[r]]
        for i in range(nrows):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return r, pivots, mat


def nullspace(rows, ncols=None):
    """Basis of the column kernel {v : M v = 0}, exact over Q."""
    if not rows:
        if ncols is None:
            return []
        basis = []
        for j in range(ncols):
            v = [Fraction(0)] * ncols
            v[j] = Fraction(1)
            basis.append(v)
        return basis
    ncols = len(rows[0])
    rank, pivots, mat = rref(rows)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -mat[i][f]
        basis.append(v)
    return basis


def independent_rows_mod_p(rows, p):
    """Indices of a maximal set of rows independent over GF(p).

    Sound for exact certificates: rows independent mod p are independent
    over Q.  Used to pick a square nonsingular submatrix witness.
    """
    if not rows:
        return []
    picked = []
    basis = []  # rows of a growing echelon form, python ints mod p
    ncols = len(rows[0])
    for idx, row in enumerate(rows):
        cur = [e % p for e in row]
        for brow, bcol in basis:
            f = cur[bcol]
            if f:
                cur = [(a - f * b) % p for a, b in zip(cur, brow)]
        lead = next((j for j in range(ncols) if cur[j]), None)
        if lead is None:
            continue
        inv = pow(cur[lead], p - 2, p)
        cur = [(e * inv) % p for e in cur]
        basis.append((cur, lead))
        picked.append(idx)
    return picked
