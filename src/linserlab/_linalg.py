"""Dense exact linear algebra over Q and over prime fields.

Matrices are plain lists of rows; entries are ints or Fractions, and a
float is refused with TypeError rather than truncated.  Rank, kernel and
determinant computations never touch floating point.

One engine gives exact ranks, kernels and row selections.  A modular
elimination (numpy, int64) bounds the rank from below: rank over GF(p)
never exceeds rank over Q, so a full rank mod p settles the exact rank at
once.  A deficient rank r mod p predicts the kernel: the reduced echelon
form mod p gives the basis that is the identity on the free columns.  That
basis is lifted to Q by Chinese remaindering over a stream of primes and
rational reconstruction.  A lifted basis that keeps the identity pattern
and that A annihilates exactly over Z proves rank <= r, and it is then the
kernel basis of the reduced echelon form over Q.  An unlucky prime can only
delay that proof, never fake it: it divides a minor, and the next lucky
prime restarts the lift with a strictly better rank profile.

`rank_exact` lifts the column kernels of A and of A^T at once, after one
elimination mod RANK_PRIME; `nullspace` lifts the kernel of A alone;
`independent_rows` takes a greedy row selection mod p whose size is
min(shape) or the proved rank; `det_exact` takes the determinant from its
residues mod enough primes of the stream to pass twice the Hadamard bound.

Rank-only residues are taken mod RANK_PRIME, the largest prime below
2**26.  There one product of residues fills 52 bits, so the elimination
subtracts up to 2047 of them before an entry must be reduced, and it
reduces only the pivot column and the pivot row at each step (Dumas,
Giorgi and Pernet, ACM TOMS 35(3), 2008).  A rank mod RANK_PRIME is still
a lower bound; an unlucky RANK_PRIME only sends the matrix on to the
kernel lift, which runs over the stream of CERT_PRIMES and the primes
below them.

The halves of `rank_exact` can be called on their own: `rank_mod_p_array`
eliminates an int64 array of residues, and `deficient_rank` proves a rank
that is deficient mod RANK_PRIME.  `fatpoints.cohomology` builds its
residues mod RANK_PRIME directly and calls both.
"""

from __future__ import annotations

import threading
from fractions import Fraction
from itertools import islice
from math import gcd, isqrt, lcm, prod

import numpy as np

# Modular elimination works in int64 and multiplies two residues before
# reducing, so every prime it takes is below P_LIMIT: p**2 < 2**62.
P_LIMIT = 2**31

# Fixed prime list keeps results deterministic.
CERT_PRIMES = (2_147_483_647, 2_147_483_629, 2_147_483_587)

# Primes per stack when determinant residues are eliminated: a fixed stack
# size bounds the memory of a large determinant, which needs many primes.
_DET_CHUNK = 16

# The largest prime below 2**26: the modulus of rank-only residues, where
# (p - 1)**2 < 2**52 leaves room for 2047 unreduced updates per entry.
RANK_PRIME = 67_108_859


def _scaled_rows(rows):
    """Each row times the lcm of its denominators, and the product of the
    lcms.  Every entry must have a denominator (ints, bools, Fractions,
    numpy integers); a float raises TypeError rather than be truncated."""
    out, scale = [], 1
    for row in rows:
        try:
            mult = lcm(*(e.denominator for e in row))
        except AttributeError:
            raise TypeError(f"row {row!r} has an entry that is not an "
                            f"integer or a Fraction") from None
        if mult == 1:
            out.append([int(e) for e in row])
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
    """Rank over GF(p), p < P_LIMIT.  Entries may be arbitrary ints."""
    if not 2 <= p < P_LIMIT:
        raise ValueError(f"rank_mod_p needs 2 <= p < 2**31, got {p}")
    if not rows or not rows[0]:
        return 0
    return rank_mod_p_array(
        np.array([[e % p for e in row] for row in rows], dtype=np.int64), p)


def rank_mod_p_array(a, p):
    """Rank over GF(p) of an int64 array with entries in [0, p).

    `a` is consumed.  The caller keeps p below P_LIMIT.  Each step reduces
    the pivot column and the pivot row only, and subtracts products of
    residues from the rows below without reducing them.  An entry holds at
    most `lazy` such products between reductions, which keeps it inside
    int64; after `lazy` updates the whole trailing block is reduced.  For
    p near 2**31, `lazy` is 1 and the block is reduced after every update.
    """
    nrows, ncols = a.shape
    lazy = (2**63 - p) // (p - 1)**2 - 1
    pending = 0  # updates since the trailing block was last reduced
    r = 0
    for c in range(ncols):
        if r == nrows:
            break
        col = a[r:, c]
        if pending:
            col %= p
        stuck = np.nonzero(col)[0]
        if stuck.size == 0:
            continue
        i = r + int(stuck[0])
        if i != r:
            a[[r, i]] = a[[i, r]]
        # rows at or below r are zero left of column c
        row = a[r, c:] % p if pending else a[r, c:]
        a[r, c:] = row * pow(int(a[r, c]), -1, p) % p
        below = a[r + 1:, c]
        nz = np.nonzero(below)[0]
        if nz.size:
            rows_below = r + 1 + nz
            a[rows_below, c:] -= np.outer(below[nz], a[r, c:])
            pending += 1
            if pending == lazy:
                a[r + 1:, c + 1:] %= p
                pending = 0
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
    the pivot columns, and per kept prime the product of its pivots, signed
    by its row swaps: the determinant mod p of a square matrix whose rank
    reaches its size.  Rows at or below the current pivot are zero left of
    its column, so each step only touches the columns from the pivot on.
    """
    q = primes[:, None, None]
    nrows, ncols = a.shape[1:]
    pivots = []
    dets = [1] * len(primes)
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
                dets = [d for d, f in zip(dets, found.tolist()) if f]
                a, primes, stuck = a[found], primes[found], stuck[found]
                q = primes[:, None, None]
            b, first = np.arange(len(primes)), stuck.argmax(axis=1) + r
            a[b, r], a[b, first] = a[b, first], a[b, r]
            dets = [-d if i != r else d for d, i in zip(dets, first.tolist())]
        heads, ps = a[:, r, c].tolist(), primes.tolist()
        inv = [pow(x, -1, p) for x, p in zip(heads, ps)]
        dets = [d * x % p for d, x, p in zip(dets, heads, ps)]
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
    return a, primes, pivots, dets


def _rref_free_mod_p(a, primes):
    """The free-column block of the reduced row echelon forms.

    Like `_echelon_mod_p`.  Back substitution only updates that block:
    the pivot columns of the reduced form are the identity, and clearing
    pivot k from the rows above uses their echelon entries there, which
    the later pivots (to its right) never change.  Returns the block
    (batch, rank, free), the primes kept, the pivots and the free columns.
    """
    a, primes, pivots, _ = _echelon_mod_p(a, primes)
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


def rank_exact(rows):
    """Exact rank over Q.

    Full rank mod RANK_PRIME settles it (a nonzero minor mod p is nonzero
    in Z); a deficient rank goes to `deficient_rank`, which an unlucky
    RANK_PRIME only costs time.
    """
    rows = [row for row in to_int_rows(rows) if any(row)]
    if not rows:
        return 0
    full = min(len(rows), len(rows[0]))
    if rank_mod_p(rows, RANK_PRIME) == full:
        return full
    return deficient_rank(np.array(rows, dtype=object), full)


def deficient_rank(mat, full):
    """Exact rank of an integer matrix whose rank mod RANK_PRIME < full.

    `mat` is a numpy object array of ints without zero rows, and `full` is
    min(mat.shape).  The rank is proved by the lifted kernel of A or of
    A^T, over the prime stream from CERT_PRIMES[0] on.  The lift needs the
    reduced echelon form mod each of its primes, so it starts afresh
    rather than reuse the elimination mod RANK_PRIME.
    """
    lift, _ = _proved_kernel(mat, True, full)
    return lift.rank


def _proved_kernel(mat, both, full):
    """The first kernel lift to prove itself, and its integer basis.

    Each batch of `_batches` is reduced once and fed to the lift of the
    column kernel of `mat` and, with `both`, of mat^T.  A lift is done
    when its rank mod p reaches `full` (the basis is then None), or when
    its lifted basis verifies exactly.  A wrong profile never verifies, so
    the loop only ends on the rational rank profile.
    """
    lifts = [_KernelLift(mat)] + ([_KernelLift(mat.T)] if both else [])
    for primes in _batches():
        a = np.stack([(mat % p).astype(np.int64) for p in primes.tolist()])
        stacks = [a]
        if both:
            stacks.append(np.ascontiguousarray(a.transpose(0, 2, 1)))
        # The side with fewer entries to lift tends to verify first, and
        # then the other side's elimination of this batch is skipped.
        for lift, stack in sorted(zip(lifts, stacks),
                                  key=lambda pair: pair[0].size()):
            if not lift.add(stack, primes):
                continue  # every prime of the batch had a worse profile
            if lift.rank == full:
                return lift, None
            vecs = lift.basis()
            if vecs is not None and _annihilated(lift.mat, vecs, lift.free):
                return lift, vecs
    raise ArithmeticError("the prime stream ran out")


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


# The prime stream found so far, extended on demand by `_prime_stream`
# under the lock, so that two threads never append the same prime.
_STREAM = list(CERT_PRIMES)
_STREAM_LOCK = threading.Lock()


def _prime_stream():
    """CERT_PRIMES, then every prime below them in descending order.

    Each prime is found by `is_prime` once per process and kept in
    `_STREAM`, which later streams read back.
    """
    i = 0
    while True:
        if i == len(_STREAM):
            with _STREAM_LOCK:
                q = _STREAM[-1] - 2
                while i == len(_STREAM) and q > 2:
                    if is_prime(q):
                        _STREAM.append(q)
                    q -= 2
            if i == len(_STREAM):
                return
        yield _STREAM[i]
        i += 1


def _batches():
    """The prime stream in batches of 1, 2, 4, 4, ...

    One batch is eliminated in lockstep, which spreads numpy's per-call
    cost over its primes; small first batches keep a kernel that lifts
    from one or two primes from paying for four.
    """
    stream = _prime_stream()
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
    """Exact determinant of a square matrix with int/Fraction entries.

    Each row is scaled to integers, and det**2 <= h2, the product of the
    squared row norms (Hadamard).  Primes are taken from the stream until
    their product M has M**2 > 4 h2; then det is the residue of least
    absolute value mod M (Abbott, Bronstein and Mulders, ISSAC 1999).  The
    residues are eliminated in stacks of _DET_CHUNK primes.  A prime whose
    rank falls below n divides det, so its residue is 0, and a prime of
    full rank gives det mod p as its signed pivot product: no prime needs
    to be lucky, and no singularity test is separate.
    """
    n = len(rows)
    if n == 0:
        return Fraction(1)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    ints, scale = _scaled_rows(rows)
    bound = 4 * prod(sum(e * e for e in row) for row in ints)
    primes, modulus = [], 1
    stream = _prime_stream()
    while modulus * modulus <= bound:
        primes.append(next(stream))
        modulus *= primes[-1]
    mat = np.array(ints, dtype=object)
    residues = []
    for k in range(0, len(primes), _DET_CHUNK):
        chunk = np.array(primes[k:k + _DET_CHUNK], dtype=np.int64)
        a = np.stack([(mat % p).astype(np.int64) for p in chunk.tolist()])
        _, kept, pivots, dets = _echelon_mod_p(a, chunk)
        full = dict(zip(kept.tolist(), dets)) if len(pivots) == n else {}
        residues += [full.get(p, 0) for p in chunk.tolist()]
    det = sum(r * (modulus // p) * pow(modulus // p, -1, p)
              for r, p in zip(residues, primes)) % modulus
    if det > modulus // 2:
        det -= modulus
    return Fraction(det, scale)


def nullspace(rows, ncols=None):
    """Basis of the column kernel {v : M v = 0}, exact over Q.

    The basis of the reduced row echelon form: one Fraction vector per
    free column, 1 there and 0 on the other free columns.  It is lifted
    over the prime stream from CERT_PRIMES[0] on.
    """
    if not rows:
        return [[Fraction(int(i == j)) for j in range(ncols or 0)]
                for i in range(ncols or 0)]
    mat = np.array(to_int_rows(rows), dtype=object)
    lift, vecs = _proved_kernel(mat, False, len(rows[0]))
    if vecs is None:
        return []
    den = vecs[0][lift.free[0]]
    return [[Fraction(e, den) for e in v] for v in vecs]


def independent_rows_mod_p(rows, p):
    """Indices of the greedy maximal set of rows independent over GF(p).

    Row i is taken when it is independent of the rows before it: these are
    the pivot columns of the echelon form of the transpose.  Sound for
    exact certificates: rows independent mod p are independent over Q.
    """
    if not 2 <= p < P_LIMIT:
        raise ValueError(f"independent_rows_mod_p needs 2 <= p < 2**31, "
                         f"got {p}")
    if not rows or not rows[0]:
        return []
    a = np.array([[e % p for e in row] for row in rows], dtype=np.int64)
    return _echelon_mod_p(np.ascontiguousarray(a.T)[None],
                          np.array([p], dtype=np.int64))[2]


def independent_rows(rows):
    """Indices of a maximal set of rows independent over Q.

    The greedy selection mod a prime of the stream, from CERT_PRIMES[0]
    on, accepted once its size is min(shape) or the rank that `rank_exact`
    proves.  Used to pick a square nonsingular submatrix witness.
    """
    if not rows or not rows[0]:
        return []
    ints = to_int_rows(rows)
    rank = min(len(ints), len(ints[0]))
    for p in _prime_stream():
        picked = independent_rows_mod_p(ints, p)
        if len(picked) < rank and p == CERT_PRIMES[0]:
            rank = rank_exact(ints)
        if len(picked) == rank:
            return picked
    raise ArithmeticError("the prime stream ran out")
