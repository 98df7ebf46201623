"""Exact linear algebra kernel.

Matrices are plain lists of rows over a scalar domain (see ``scalars``).
Everything is computed exactly.  Over Q, one pass over the rows
(``_distinct_int_rows``) makes them integers, drops zero entries, keeps
each column that a single-entry row forces to zero as the one row {j: 1},
removing it from every other row until no new single-entry row appears,
and keeps each remaining row once: the same row space, so the same kernel
and rank, and a forced column is the pivot of its own row, so the
canonical basis is unchanged.  The one shortcut is
``nullspace_sparse_q``: those rows are eliminated once modulo the
61-bit prime 2^61 - 1, up to a certified stop where the kernel read off the
rows reduced so far checks exactly against all of them (a norm bound
proves the reduced ones), later 61-bit primes eliminate only the rows that
gave its pivots, and the kernels are combined by CRT and lifted by rational
reconstruction (Wang, Guy & Davenport, SIGSAM Bull. 1982).  Each prime
reads its kernel off one elimination that pivots every row on its highest
column.  A prime that gives a lower rank or lower pivot columns than
another is unlucky (the rank mod p of any rows is at most their rank over
Q), and the lifted kernel is verified exactly against every row before it
is returned, so no prime can make it wrong.  The rows that gave the
final pivots span the row space and come back with the kernel
(``kernel_and_rows``), so a membership test (``kernel_contains``) can use
them alone.  ``solve`` has no elimination of its own: the solutions of
M x = b_i and ker M are read off the ``kernel_and_rows`` of the
augmented rows [-b_0 ... -b_{m-1} | M with its columns reversed].
``rank_of_rows`` gives an exact rank from the rank mod 2^61 - 1 when that
meets a proven upper bound, and else from the smaller of the right and the
left kernel.
``nullspace_sparse_mod`` is the same sparse elimination over GF(p) itself,
where it is exact.  ``generic_rank`` decides a rank over Q(x) between two
exact bounds: the rank at integer points and a polynomial basis of the left
kernel.
"""

from __future__ import annotations

import random
from fractions import Fraction
from functools import cache, cached_property
from itertools import chain, combinations_with_replacement
from math import gcd, isqrt, lcm, prod

from .scalars import QQ, DomainError, Poly, PolyRing, PrimeField, RationalDomain, _is_prime


# ---------------------------------------------------------------------------
# generic dense routines
# ---------------------------------------------------------------------------

def identity_matrix(n, dom=QQ):
    one, zero = dom.one(), dom.zero()
    return [[one if i == j else zero for j in range(n)] for i in range(n)]


def mat_mul(a, b, dom=QQ):
    rb = len(b)
    cb = len(b[0]) if rb else 0
    out = []
    for row in a:
        new = [dom.zero()] * cb
        for k, x in enumerate(row):
            if dom.is_zero(x):
                continue
            brow = b[k]
            for j in range(cb):
                if not dom.is_zero(brow[j]):
                    new[j] = new[j] + x * brow[j]
        out.append(new)
    return out


def mat_vec(a, v, dom=QQ):
    out = []
    for row in a:
        s = dom.zero()
        for x, y in zip(row, v):
            if not (dom.is_zero(x) or dom.is_zero(y)):
                s = s + x * y
        out.append(s)
    return out


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_eq(a, b, dom=QQ):
    if len(a) != len(b):
        return False
    for ra, rb in zip(a, b):
        if len(ra) != len(rb):
            return False
        for x, y in zip(ra, rb):
            if not dom.is_zero(x - y):
                return False
    return True


def rref(rows, dom=QQ):
    """Reduced row echelon form (in place on a copy); returns (rows, pivots).

    Every entry that is or becomes zero is the one shared ``dom.zero()``
    (scalars are immutable, so sharing is safe).
    """
    zero, one, is_zero = dom.zero(), dom.one(), dom.is_zero
    m = [[zero if is_zero(x) else x for x in r] for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c] is not zero:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        prow = m[r]
        pv = prow[c]
        if pv != one:
            prow = m[r] = [x if x is zero else x / pv for x in prow]
        support = [j for j, y in enumerate(prow) if y is not zero]
        for i in range(nrows):
            row = m[i]
            f = row[c]
            if i == r or f is zero:
                continue
            for j in support:
                x = row[j] - f * prow[j]
                row[j] = zero if is_zero(x) else x
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r] + m[r:], pivots


def rank(rows, dom=QQ):
    if not rows:
        return 0
    return len(rref(rows, dom)[1])


def nullspace(rows, ncols, dom=QQ):
    """Canonical (RREF) basis of {x : M x = 0}, rows of the result matrix."""
    red, pivots = rref(rows, dom) if rows else ([], [])
    pivset = set(pivots)
    free = [c for c in range(ncols) if c not in pivset]
    basis = []
    zero, one = dom.zero(), dom.one()
    for f in free:
        v = [zero] * ncols
        v[f] = one
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(v)
    red2, _ = rref(basis, dom) if basis else ([], [])
    return [r for r in red2 if any(not dom.is_zero(x) for x in r)]


def solve(rows, rhss, ncols, dom=QQ):
    """The affine solution spaces of M x = b for many right-hand sides b:
    (ker M as a ``Subspace``, [a solution x_i of M x = b_i, or None]).

    M is given by sparse rows {key: {column: coefficient}} (a key without a
    row is a zero row), each b by {key: value}; entries are anything
    ``dom.coerce`` takes, such as those of ``linear_conditions``.  Every
    answer is read off one ``kernel_and_rows`` of the augmented system
    [-b_0 ... -b_{m-1} | M'], M' being M with its columns reversed: column
    i < m holds -b_i, column j of M sits at m + ncols - 1 - j, and a key
    found only in some b_i is a row of right-hand-side entries alone.  Its
    canonical kernel basis has one vector per free column f of the RREF R
    with highest-column pivots, with 1 at f, its lowest column, and its
    other entries at pivot columns above f.

    A row of R whose pivot c is below m is zero on every column of M', so
    it is y^T [-b_0 ... | M'] for some y with y^T M = 0, and its entry at
    column i < m is -y^T b_i.  When b_i is consistent that entry is 0, so
    column i is no pivot, and its vector has no other column below m: it
    is e_i plus (0, y') with M' y' = b_i, read as x_i[j] = y'[m + ncols - 1
    - j].  When column i is itself a pivot, y^T b_i != 0 and b_i is
    inconsistent; a vector with first column i and a second column below
    m is not a solution either, and x_i is None.  The highest-column
    pivots of M' are the lowest-column pivots of M, so x_i is zero at the
    free columns of the RREF of M: the solution the RREF of [M | b_i]
    gives.  The vectors whose first column is m or more span ker M'; they
    are reversed into ker M and put in canonical form again.  The kernel is
    verified exactly by ``kernel_and_rows``, and so is every answer.
    """
    coerce, is_zero, zero = dom.coerce, dom.is_zero, dom.zero()
    m = len(rhss)
    top = m + ncols - 1
    # kernel_and_rows takes GF(p) rows as residues
    entry = (lambda c: c.v) if isinstance(dom, PrimeField) else (lambda c: c)
    aug = {key: {top - j: entry(c) for j, v in row.items() if not is_zero(c := coerce(v))}
           for key, row in rows.items()}
    for i, b in enumerate(rhss):
        for key, v in b.items():
            if not is_zero(c := coerce(v)):
                aug.setdefault(key, {})[i] = entry(-c)
    space = kernel_and_rows(list(aug.values()), top + 1, dom)[0]

    def unreversed(row, columns):
        x = [zero] * ncols
        for c in columns:
            x[top - c] = row[c]
        return x

    null, solutions = [], [None] * m
    for row, support in space._supports:
        i = support[0]
        if i >= m:
            null.append(unreversed(row, support))
        elif len(support) == 1 or support[1] >= m:
            solutions[i] = unreversed(row, support[1:])
    return Subspace(null, ncols, dom), solutions


def inverse(mat, dom=QQ):
    n = len(mat)
    aug = [list(r) + list(e) for r, e in zip(mat, identity_matrix(n, dom))]
    red, pivots = rref(aug, dom)
    if pivots[:n] != list(range(n)):
        raise DomainError("matrix is singular")
    return [row[n:] for row in red[:n]]


def is_invertible(mat, dom=QQ):
    try:
        inverse(mat, dom)
        return True
    except DomainError:
        return False


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """Linear subspace of F^n held in canonical reduced echelon form.

    Equal subspaces compare equal no matter which spanning set built them.
    A sparse basis handed over by ``_canonical`` is kept so, and its dense
    rows are built on the first use of ``basis``.
    """

    _sparse = None   # the canonical basis as sparse rows {column: entry}, if kept so

    def __init__(self, vectors, ambient_dim, dom=QQ):
        self.dom = dom
        self.ambient_dim = ambient_dim
        red, _ = rref(vectors, dom) if vectors else ([], [])
        self.basis = [r for r in red if any(not dom.is_zero(x) for x in r)]

    @classmethod
    def _canonical(cls, basis, ambient_dim, dom):
        """The subspace of a basis already in canonical form (no rref), as
        dense rows or as sparse rows {column: entry}.  Sparse rows are kept
        while at most one entry in eight is nonzero, where they take less
        memory than dense rows (a list slot holds 8 bytes, a dict entry
        several times that); denser ones are made dense at once."""
        space = cls.__new__(cls)
        space.dom, space.ambient_dim = dom, ambient_dim
        if not (basis and isinstance(basis[0], dict)):
            space.basis = basis
        elif 8 * sum(map(len, basis)) <= len(basis) * ambient_dim:
            space._sparse = basis
        else:
            space.basis = _dense(basis, ambient_dim, dom)
        return space

    @cached_property
    def basis(self):
        """The canonical basis as dense rows, built from the sparse rows,
        which are then let go."""
        basis = _dense(self._sparse, self.ambient_dim, self.dom)
        self._sparse = None
        return basis

    @property
    def dim(self):
        basis = self.__dict__.get("basis")
        return len(self._sparse if basis is None else basis)

    @cached_property
    def _supports(self):
        """Each basis row with its nonzero columns, the lowest first."""
        if "basis" not in self.__dict__:
            return [(row, sorted(row)) for row in self._sparse]
        is_zero = self.dom.is_zero
        return [(row, [j for j, x in enumerate(row) if not is_zero(x)]) for row in self.basis]

    def coordinates(self, v):
        """Coordinates of v in the echelon basis; None when v is outside."""
        is_zero = self.dom.is_zero
        w = list(v)
        coords = []
        for row, support in self._supports:
            f = w[support[0]]
            if not is_zero(f):
                f = f / row[support[0]]
                for j in support:
                    w[j] = w[j] - f * row[j]
            coords.append(f)
        return None if any(not is_zero(x) for x in w) else coords

    def contains_vector(self, v):
        return self.coordinates(v) is not None

    def contains(self, other):
        return all(self.contains_vector(v) for v in other.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim and self.dim == other.dim
                and mat_eq(self.basis, other.basis, self.dom))

    def __hash__(self):
        return hash((self.ambient_dim, self.dim))

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


# ---------------------------------------------------------------------------
# fast rational nullspace (multi-modular elimination + exact verification)
# ---------------------------------------------------------------------------

def _distinct_int_rows(sparse_rows):
    """Integer rows with the same row space as ``sparse_rows``, reduced in
    one pass: the forced-column step of structured Gaussian elimination
    (LaMacchia & Odlyzko, CRYPTO '90) and deduplication.

    Rows of ints (those of ``identities.law_rows``) are taken as they are;
    when any entry is a Fraction, each row is scaled by its lcm of
    denominators.  Zero entries are dropped.  A nonzero single-entry row
    forces its column j to zero in every kernel vector: it is kept once, as
    {j: 1}, and column j is removed from every other row, which may leave a
    new single-entry row; this repeats until none appears, and a row left
    empty is dropped.  Each step subtracts a multiple of some {j: 1} from a
    row or scales a row by a nonzero integer, so the row space is the same
    and the kernel too.  The rows with two or more entries are kept once
    each, in first-seen order (two rows are one when their {column: entry}
    items are), after the forced ones in increasing column order.

    A forced column j is the pivot of {j: 1} and occurs in no other row, so
    the highest-column pivots of ``_rref_mod`` and the canonical kernel are
    those of the rows as given.
    """
    if Fraction in set(map(type, chain.from_iterable(map(dict.values, sparse_rows)))):
        sparse_rows = list(map(_integral, sparse_rows))
    forced, rows = set(), []
    for row in sparse_rows:
        if 0 in row.values():
            row = {j: c for j, c in row.items() if c}
        if len(row) == 1:
            forced.update(row)
        elif row:
            rows.append(row)
    new = set(forced)
    while new:
        # only rows holding a column forced in the last round change
        pending, rows, touched, new = rows, [], new, set()
        for row in pending:
            if not touched.isdisjoint(row):
                row = {j: c for j, c in row.items() if j not in forced}
                if len(row) < 2:
                    new.update(row)
                    forced.update(row)
                    continue
            rows.append(row)
    # hash of a row's items -> the distinct rows with that hash (hashes, not
    # frozensets of the items, keep the transient small)
    seen = {}
    out = [{j: 1} for j in sorted(forced)]
    for row in rows:
        same = seen.setdefault(hash(frozenset(row.items())), [])
        if row not in same:
            same.append(row)
            out.append(row)
    return out


@cache
def _prime(i):
    """The i-th of the moduli 2^61 - 1 = p_0 > p_1 > p_2 > ... of
    ``nullspace_sparse_q``, the primes of 61 bits in decreasing order."""
    if i == 0:
        return (1 << 61) - 1
    p = _prime(i - 1) - 2
    while not _is_prime(p):
        p -= 2
    return p


_CHECK_AFTER = 8   # rows past twice the last new pivot before a stop is tried


def _rref_mod(introws, p, ncols=None):
    """Reduced row echelon form mod p of sparse integer rows, pivoting each
    row on its highest column, and the rows that gave its pivots.

    Returns ({pivot column: row dict with 1 at the pivot}, [input rows],
    the number of rows reduced, kernel), all entries in [1, p).  Each pivot
    is the highest column of its row and occurs in no other row, so this is
    the unique such RREF of the row space mod p, whatever the row order;
    short rows go first because that keeps the fill-in low.  The input rows
    that gave pivots span that row space.

    Without ``ncols`` every row is reduced and the kernel is None.  With it
    the elimination stops early in two cases, each of which leaves the RREF
    and the pivot rows of the full elimination, and hands back the kernel
    over Q of every row in ``nullspace_sparse_q``'s form:

    * at ncols pivots: the kernel is [] (rank ncols mod p, so over Q);
    * at a certified stop (see ``nullspace_sparse_q``): after a row that
      reduced to zero, with i its index in the sorted order, i at least
      twice the index of the later of the last new pivot and the last
      failed stop, plus ``_CHECK_AFTER``, and some row still unreduced, the
      kernel of the RREF lifted to Q (``_lift_kernel``) is checked exactly
      against the rows not reduced and, by ``_certified``, against those
      reduced.  A failed lift or check goes on eliminating; the back-off
      makes at most log2 of the number of rows failed checks.
    Otherwise the kernel is None.
    """
    red = {}
    pivot_rows = []
    holders = {}   # non-pivot column -> pivot columns whose rows hold it
    rows = sorted(introws, key=len)
    n, last = len(rows), 0   # last: the index of the last new pivot or failed stop
    for i, introw in enumerate(rows):
        row = {}
        for j, v in introw.items():
            v %= p
            if v:
                row[j] = v
        # pivot rows hold no other pivot column, so one pass reduces the row;
        # past three pivot rows, keeping the entries unreduced (zeros too)
        # and reducing each mod p once at the end costs less than after
        # every update
        pivots = [c for c in row if c in red]
        defer = len(pivots) > 3
        for c in pivots:
            f = row.pop(c)
            for j, v in red[c].items():
                if j != c:
                    x = row.get(j, 0) - f * v
                    if defer or (x := x % p):
                        row[j] = x
                    else:
                        del row[j]
        if defer:
            for j, v in list(row.items()):
                v %= p
                if v:
                    row[j] = v
                else:
                    del row[j]
        if not row:
            if i >= 2 * last + _CHECK_AFTER and i + 1 < n and ncols is not None:
                cand = _lift_kernel(red, ncols, p)
                if cand is not None and _certified(rows[i + 1:], rows[:i + 1], cand, p):
                    return red, pivot_rows, i + 1, cand
                last = i
            continue
        c = max(row)
        inv = pow(row[c], -1, p)
        new = {j: v * inv % p for j, v in row.items()}
        for pc in holders.pop(c, ()):
            prow = red[pc]
            f = prow.pop(c)
            for j, v in new.items():
                if j == c:
                    continue
                x = (prow.get(j, 0) - f * v) % p
                if x:
                    prow[j] = x
                    holders.setdefault(j, set()).add(pc)
                else:
                    del prow[j]
                    holders[j].discard(pc)
        red[c] = new
        pivot_rows.append(introw)
        if len(red) == ncols:
            return red, pivot_rows, i + 1, []
        last = i
        for j in new:
            if j != c:
                holders.setdefault(j, set()).add(c)
    return red, pivot_rows, n, None


def _rat_reconstruct(a, m, bound):
    """Lift a residue mod m to n/d with |n|, d <= bound; None if impossible."""
    r0, r1 = m, a % m
    s0, s1 = 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        s0, s1 = s1, s0 - q * s1
    if abs(s1) > bound or s1 == 0:
        return None
    if gcd(r1, abs(s1)) != 1:
        return None
    return Fraction(r1, s1)


def _modular_kernel(rows, p, ncols=None):
    """(shape, pivot rows, RREF, kernel) of integer rows mod p from one
    elimination (``_rref_mod``, which stops early only given ``ncols``, and
    then may hand back the kernel over Q), pivoting each row on its highest
    column.  Every entry of the RREF's row c lies left of c, so the vectors
    e_f - sum_c R[c][f] e_c, one per free column f, are the kernel in
    canonical form (``_free_columns``).  The shape (-rank, the pivot columns
    negated from the highest down) is least at the primes where the RREF
    reduces from that over Q."""
    red, pivot_rows, _, kernel = _rref_mod(rows, p, ncols)
    return (-len(red), [-c for c in sorted(red, reverse=True)]), pivot_rows, red, kernel


def _free_columns(red, ncols):
    """{free column f: {pivot column c: R[c][f]}} of an RREF R with
    highest-column pivots, f and c increasing: the kernel vector of f is
    e_f - sum_c R[c][f] e_c, with f its lowest column."""
    at = {f: {} for f in range(ncols) if f not in red}
    for c in sorted(red):
        for f, v in red[c].items():
            if f != c:
                at[f][c] = v
    return at


def _crt(red, m, rq, q):
    """RREF entries mod m*q from those mod m (red) and mod q (rq), two
    RREFs with the same pivot columns."""
    u = pow(m, -1, q)
    out = {}
    for c, row in red.items():
        qrow = rq[c]
        new = {j: a + m * ((qrow.get(j, 0) - a) * u % q) for j, a in row.items()}
        for j, b in qrow.items():
            if j not in new:
                new[j] = m * (b * u % q)
        out[c] = new
    return out


def _lift_kernel(red, ncols, m):
    """The kernel of an RREF mod m with highest-column pivots, lifted to Q
    by rational reconstruction, as sparse rows {column: Fraction}; None if
    an entry does not lift."""
    bound = isqrt(m // 2)
    cand = []
    for f, col in _free_columns(red, ncols).items():
        v = {f: Fraction(1)}
        for c, a in col.items():
            lifted = _rat_reconstruct(-a, m, bound)
            if lifted is None:
                return None
            v[c] = lifted
        cand.append(v)
    return cand


def nullspace_sparse_mod(sparse_rows, ncols, dom):
    """Canonical RREF basis of the nullspace over dom = GF(p) of sparse rows
    with integer entries (residues or any representatives); exact, as the
    elimination runs mod p itself; with it, the rows that gave the pivots:
    independent mod p, rank many, so they span the row space."""
    zero, one = dom.zero(), dom.one()
    red, pivot_rows, _, _ = _rref_mod(sparse_rows, dom.p)
    basis = []
    for f, col in _free_columns(red, ncols).items():
        v = [zero] * ncols
        v[f] = one
        for c, a in col.items():
            v[c] = dom.from_int(-a)
        basis.append(v)
    return basis, pivot_rows


def nullspace_sparse_q(sparse_rows, ncols):
    """Exact rational nullspace of a sparse integer/rational system, as the
    canonical RREF basis in sparse rows {column: Fraction}, with the
    independent integer rows that gave its pivots: (basis, rows).

    The rows go through ``_distinct_int_rows``: they are made integers,
    zero entries dropped, each column that a single-entry row forces to
    zero kept as the one row {j: 1} and removed from every other row, and
    each distinct row kept once; these rows have the same row space, and
    a forced column is the pivot of its own row, never a free column, so
    the canonical kernel is that of the rows as given.  They are
    eliminated modulo the first prime p_0 = 2^61 - 1, shortest first, each
    row pivoting on its highest column, until the RREF holds ncols pivots,
    a certified stop (below) or the last row, which gives r pivots and the
    r rows that gave them; each later 61-bit prime makes the same one
    elimination of those r rows alone.  The kernel is read off each such
    RREF, with no elimination of its own (see ``_modular_kernel``).  The
    RREFs of the primes of one shape are combined by CRT, and after each
    prime the kernel of the combination is lifted to Q by rational
    reconstruction (Wang, Guy & Davenport, SIGSAM Bull. 1982) and checked
    exactly against every distinct row, so against every row: each row is
    either reduced mod p_0 or dot-checked, never both, while the candidate
    comes from the elimination at p_0 alone (``_certified``); after CRT or
    a restart, every row is dot-checked.

    Soundness: the rank mod any prime of any subset of the rows is at most
    its rank over Q, and at equal rank each highest-column pivot mod p sits
    no higher than its counterpart over Q (a minor nonzero mod p is nonzero
    over Q).  A candidate that passes the check has ncols - r vectors in
    reduced echelon shape (each has a 1 at its own free column and 0 at the
    others), so they are independent and dim ker >= ncols - r >= ncols -
    rank_Q = dim ker: the candidate is the kernel in canonical form,
    whichever primes produced it.

    Certified stop (the certify-instead-of-recompute step of Mulders &
    Storjohann, J. Symb. Comput. 37, 2004): after some rows S of all rows
    are reduced mod p_0 (``_rref_mod`` says when a stop is tried), the
    kernel of their RREF is lifted; if the lift, cand, checks exactly
    against every row, the elimination ends there.  A row of S is proven by
    the bound ||row||_1 ||w||_inf < p_0, with w the candidate vector
    scaled to integers: row . w is 0 mod p_0, and smaller than p_0 in size.
    Then cand lies in ker_Q(all), which lies in ker_Q(S), and dim ker_Q(S)
    = ncols - rank_Q(S) <= ncols - rank_p(S) = |cand|: the three are equal,
    and cand is the kernel.  So rank_p(all) <= rank_Q(all) = rank_p(S):
    every later row would reduce to zero, and the full elimination gives
    the same RREF and pivot rows.  At ncols pivots, rank_p(S) = ncols and
    the same holds with the kernel zero.

    Lucky primes: a new prime whose shape is larger (a lower rank, or the
    same rank with lower pivots, compared from the top down) is unlucky and
    skipped.  One whose shape is smaller shows that the earlier primes were
    unlucky: all rows are eliminated again at it and its pivot rows replace
    the r rows.  A lift that fails the check is tested against the r rows
    alone.  If it annihilates them, the same argument makes it their kernel
    over Q, so they have rank r and span less than all rows: rank_Q > r,
    every prime of the current shape is unlucky for the rows, and all rows
    are eliminated at fresh primes until one shows a smaller shape.
    Otherwise the modulus is still too small and the next prime is
    combined.

    Termination: a restart takes a strictly smaller shape, the shape of
    all rows at some prime, and there are finitely many of those.  Between
    restarts, all but finitely many primes divide no pivot minor of the r
    rows, and there the rank and the pivots are those over Q and the RREF is
    the reduction of the RREF over Q; if that is not of the current shape,
    such a prime restarts, and if it is, the primes of that shape are
    exactly those, so the combined residues agree with the RREF of the r
    rows over Q.  Once sqrt(M/2) exceeds the Hadamard bound of the rows for
    the product M of the combined primes, every entry (a ratio of minors)
    lifts, and the lift is the kernel of the r rows: it passes the check, or
    it annihilates the r rows and the next smaller shape is sought.

    The r integer rows that gave the pivots of the shape the kernel lifted
    at are independent mod p, so over Q, and the verified kernel has
    ncols - r vectors, so they span the row space; they are returned with
    the kernel.
    """
    introws = _distinct_int_rows(sparse_rows)
    if ncols == 0:
        return [], []
    return _crt_kernel(introws, ncols, _modular_kernel(introws, _prime(0), ncols))


def _crt_kernel(introws, ncols, first):
    """``nullspace_sparse_q`` of distinct integer rows from the
    ``_modular_kernel`` of all of them at the first prime, given ncols:
    (canonical basis, the rows that gave its pivots).  A kernel that the
    first elimination handed back is the answer.  Else that elimination
    reduced every row, and its candidate is checked by ``_certified``; every
    later one, after CRT or a restart, by dot products with every row."""
    (shape, pivot_rows, red, cand), m = first, _prime(0)
    if cand is not None:
        return cand, pivot_rows
    i = 0
    while True:
        cand = _lift_kernel(red, ncols, m)
        if cand is not None and (_certified((), introws, cand, m) if i == 0
                                 else _verify_nullspace(introws, cand)):
            return cand, pivot_rows
        spans_less = cand is not None and _verify_nullspace(pivot_rows, cand)
        i += 1
        p = _prime(i)
        new = _modular_kernel(introws if spans_less else pivot_rows, p)
        if new[0] < shape:
            if not spans_less:
                new = _modular_kernel(introws, p)
            (shape, pivot_rows, red, _), m = new, p
        elif new[0] == shape and not spans_less:
            red, m = _crt(red, m, new[2], p), m * p


def _dense(sparse_rows, ncols, dom):
    """Sparse rows as dense rows of elements of dom."""
    out = []
    for row in sparse_rows:
        r = [dom.zero()] * ncols
        for j, c in row.items():
            r[j] = dom.coerce(c)
        out.append(r)
    return out


def sparse_rows(vectors, dom=QQ):
    """Dense vectors over dom as sparse rows in ``kernel`` form, each with
    the span of its vector: over Q scaled to integers by the lcm of its
    denominators, over GF(p) as residues, elsewhere as they are."""
    if isinstance(dom, RationalDomain):
        return [_integral({j: c for j, c in enumerate(v) if c}) for v in vectors]
    if isinstance(dom, PrimeField):
        return [{j: c.v for j, c in enumerate(v) if c.v} for v in vectors]
    return [{j: c for j, c in enumerate(v) if not dom.is_zero(c)} for v in vectors]


def kernel(rows, ncols, dom=QQ):
    """The kernel of sparse rows in ``identities.law_rows`` form, as
    a ``Subspace`` holding the canonical basis: the one entry point of the
    library's homogeneous solvers (the first half of ``kernel_and_rows``)."""
    return kernel_and_rows(rows, ncols, dom)[0]


def kernel_and_rows(rows, ncols, dom=QQ):
    """(``kernel`` of rows, rows with that kernel).  Over Q the rows go to
    ``nullspace_sparse_q``, over GF(p) to ``nullspace_sparse_mod``, and both
    hand back the independent rows that gave the pivots of the elimination,
    which span the row space; over any other domain (Q(t)) the rows go to
    the dense ``nullspace`` and come back as given.  ``kernel_contains`` is
    fastest on the fewest rows; the subspace does not hold them, so a space
    kept for long keeps no rows alive.  Over Q the subspace is handed the
    sparse canonical basis (``Subspace._canonical``)."""
    if isinstance(dom, RationalDomain):
        basis, rows = nullspace_sparse_q(rows, ncols)
    elif isinstance(dom, PrimeField):
        basis, rows = nullspace_sparse_mod(rows, ncols, dom)
    else:
        basis = nullspace(_dense(rows, ncols, dom), ncols, dom)
    return Subspace._canonical(basis, ncols, dom), rows


def rank_of_rows(rows, ncols, dom=QQ, bound=None):
    """The exact rank of sparse rows in ``kernel``'s form.

    Over Q the rows are made distinct integer rows, with forced columns
    dropped (``_distinct_int_rows``: the same row space), and their rank r mod
    p_0 = 2^61 - 1 is a lower bound: a minor nonzero mod p_0 is nonzero
    over Q.  When r equals the least of the number of distinct rows, ncols
    and ``bound`` (an upper bound on the rank that the caller has proven),
    r is the rank; so it is when that elimination stopped with the kernel
    over Q (``_rref_mod`` given ncols, which never stops at ``bound``: a
    bound is checked, not trusted).  Otherwise the rank is read off the
    smaller of the two kernels, each from the verified
    ``nullspace_sparse_q``: ncols minus the dimension of the right kernel
    (ncols - r vectors at p_0), whose elimination at p_0 is the one just
    made, or the number of distinct rows minus the dimension of the left
    kernel (rows - r vectors at p_0), the kernel of the transposed rows.  A rank above ``bound`` proves the
    bound wrong and raises ``ValueError``.  Over GF(p) one elimination
    mod p gives the rank; other domains (Q(t)) take the dense ``rank``.
    """
    if isinstance(dom, PrimeField):
        r = len(_rref_mod(rows, dom.p)[0])
    elif not isinstance(dom, RationalDomain):
        r = rank(_dense(rows, ncols, dom), dom)
    else:
        introws = _distinct_int_rows(rows)
        first = _modular_kernel(introws, _prime(0), ncols)
        r = -first[0][0]
        if first[3] is None and r < min(len(introws), ncols,
                                        len(introws) if bound is None else bound):
            if ncols <= len(introws):
                r = ncols - len(_crt_kernel(introws, ncols, first)[0])
            else:
                transposed = [{} for _ in range(ncols)]
                for i, row in enumerate(introws):
                    for j, a in row.items():
                        transposed[j][i] = a
                r = len(introws) - len(nullspace_sparse_q(transposed, len(introws))[0])
    if bound is not None and r > bound:
        raise ValueError(f"rank {r} above the bound {bound}")
    return r


def kernel_contains(rows, vectors, dom=QQ):
    """Whether every dense vector lies in the kernel of sparse rows in
    ``kernel``'s form.  Over Q the vectors are checked in integers
    (``_verify_nullspace``), with no Fraction arithmetic, against the rows
    of ``_distinct_int_rows``: the same row space, with each forced column
    one row {j: 1}, so a vector is checked once at it.  Elsewhere each row
    is summed against each vector in dom.  Any rows with the kernel will
    do, such as those of ``kernel_and_rows``: the fewer, the faster."""
    if isinstance(dom, RationalDomain):
        return _verify_nullspace(_distinct_int_rows(rows),
                                 [{j: c for j, c in enumerate(v) if c} for v in vectors])
    return all(dom.is_zero(sum((dom.coerce(a) * v[j] for j, a in row.items()), dom.zero()))
               for row in rows for v in vectors)


def _integral(row):
    """A sparse row of ints and Fractions times the lcm of its denominators:
    the integer row with its span."""
    m = lcm(*(c.denominator for c in row.values()))
    return {j: c.numerator * (m // c.denominator) for j, c in row.items()}


def _verify_nullspace(introws, cand):
    """Whether every sparse candidate vector annihilates every integer row."""
    return _annihilates(introws, list(map(_integral, cand)))


def _certified(unreduced, reduced, cand, p):
    """Whether the kernel ``cand`` lifted from the RREF mod p of the integer
    rows ``reduced`` annihilates them and the rows ``unreduced`` over Q.

    The unreduced rows are checked first, by dot products.  Each vector of
    cand, scaled to an integer vector w (``_integral``: its denominators, at
    most sqrt(p/2), are prime to p), is w mod p up to a unit, so row . w is
    0 mod p for every reduced row.  If ||row||_1 ||w||_inf < p, then
    |row . w| < p and row . w = 0.  Only the vectors for which this bound
    fails at the largest ||row||_1 of the reduced rows are dot-checked
    against them."""
    scaled = list(map(_integral, cand))
    if not _annihilates(unreduced, scaled):
        return False
    norm = max((sum(map(abs, row.values())) for row in reduced), default=0)
    return _annihilates(reduced, [w for w in scaled if norm * max(map(abs, w.values())) >= p])


def _annihilates(introws, vectors):
    """Whether every sparse integer vector annihilates every integer row."""
    if not vectors:
        return True
    at_col = {}   # column -> [(vector index, entry)]
    for i, w in enumerate(vectors):
        for j, x in w.items():
            at_col.setdefault(j, []).append((i, x))
    for row in introws:
        sums = {}
        for j, a in row.items():
            for i, x in at_col.get(j, ()):
                sums[i] = sums.get(i, 0) + a * x
        if any(sums.values()):
            return False
    return True


# ---------------------------------------------------------------------------
# generic rank over Q(x), with a two-sided certificate
# ---------------------------------------------------------------------------

def linear_pencil(mats):
    """The matrix sum_k x_k mats[k] over Q[x_0, ..., x_{s-1}], s = len(mats)."""
    s = len(mats)
    units = list(map(PolyRing(s).var_key, range(s)))
    return [[Poly(s, {units[k]: M[i][j] for k, M in enumerate(mats)})
             for j in range(len(mats[0][0]))] for i in range(len(mats[0]))]


def seeded_points(seed, nvars, bound):
    """200 points with integer coordinates in [-bound, bound], drawn by
    ``random.Random(seed)`` (as lists of Fractions)."""
    rng = random.Random(seed)
    for _ in range(200):
        yield [Fraction(rng.randint(-bound, bound)) for _ in range(nvars)]


def generic_rank(mat, points, full_only=False):
    """Certified rank over Q(x) of a matrix whose entries are homogeneous
    ``Poly``s of one degree e; returns (rank, point, kernel).

    Lower bound: the rank at ``point``, the first point of the stream
    ``points`` with the largest rank seen.  Upper bound: ``kernel``, vectors
    w of polynomials with w^T mat = 0, independent over Q(x) because their
    values at one point are, so rank <= rows - len(kernel).  They are
    searched degree by degree as the kernel of the homogeneous coefficient
    system (``nullspace_sparse_q``): the kept vectors come first, then the
    canonical basis of the degree in order, and a vector is kept when it
    raises the rank of the kept ones at the current point.  Each round draws
    one point and searches one more degree; the result is returned only
    when rank + len(kernel) = rows.  A rank r < rows - len(kernel) has a
    left kernel spanned by vectors of r x r minors (Cramer's rule; minimal
    polynomial bases, Forney, SIAM J. Control 13, 1975), of degree
    r * e <= (rows - len(kernel) - 1) * e; past that degree the found
    vectors span the kernel, so later rounds only draw points.

    With ``full_only`` the search returns at the first kernel vector, which
    proves the rank is not full: the rank returned is then the point lower
    bound and the kernel that one vector.  Raises ``DomainError`` on any
    other input, and when the points run out before the bounds meet.
    """
    ent, nvars, e = _integer_entries(mat)
    rows = len(ent)
    best, point, kept, cand, d = -1, None, [], [], 0
    for x in points:
        r = rank(_values(ent, x), QQ)
        if r > best:
            best, point = r, x
        if best + len(kept) < rows and d <= (rows - len(kept) - 1) * e:
            basis = _left_kernel_of_degree(ent, nvars, d)
            if full_only and basis:
                return best, point, basis[:1]
            cand, d = kept + basis, d + 1
        if best + len(kept) < rows:
            kept = max(kept, _independent_at(cand, x), key=len)
        if best + len(kept) == rows:
            return best, point, kept
    raise DomainError(f"generic rank not certified: rank {best} at the points, "
                      f"{len(kept)} kernel vectors, {rows} rows")


def _integer_entries(mat):
    """(rows of {monomial key: int}, variable count, degree e) of a matrix
    of homogeneous Polys of one degree, scaled by a common denominator."""
    if not (mat and mat[0] and all(len(row) == len(mat[0]) for row in mat)
            and all(isinstance(p, Poly) for row in mat for p in row)):
        raise DomainError("generic_rank needs a nonempty rectangular matrix of Poly entries")
    if not all(type(c) in (int, Fraction) for row in mat for p in row for c in p.terms.values()):
        raise DomainError("generic_rank requires Q: Poly entries with rational coefficients")
    nvars = {p.n for row in mat for p in row}
    ring = PolyRing(max(nvars))
    degrees = {ring.key_degree(ex) for row in mat for p in row for ex in p.terms}
    if len(nvars) > 1 or len(degrees) > 1:
        raise DomainError("generic_rank needs homogeneous entries of one degree "
                          "in one set of variables")
    den = lcm(*(Fraction(c).denominator for row in mat for p in row for c in p.terms.values()))
    ent = [[{ex: int(c * den) for ex, c in p.terms.items()} for p in row] for row in mat]
    return ent, nvars.pop(), max(degrees, default=0)


def _values(polys, x):
    """Rows of the values at x of rows of polynomials {monomial key:
    coefficient} in len(x) variables."""
    ring = PolyRing(len(x))
    power = {}
    out = []
    for row in polys:
        vals = []
        for p in row:
            s = Fraction(0)
            for ex, c in p.items():
                v = power.get(ex)
                if v is None:
                    v = power[ex] = prod(xi ** k for xi, k in zip(x, ring.unpack(ex)) if k)
                s += c * v
            vals.append(s)
        out.append(vals)
    return out


def _independent_at(cand, x):
    """The vectors of cand, in order, that raise the rank of the ones kept
    before them when evaluated at x: those at the pivot columns of the RREF
    of their values at x, taken as columns."""
    values = _values([[p.terms for p in w] for w in cand], x)
    return [cand[k] for k in rref(list(zip(*values)))[1]]


def _left_kernel_of_degree(ent, nvars, d):
    """Canonical basis of the vectors w of degree-d forms with w^T ent = 0,
    as lists of Polys: one unknown per (row, monomial) and one equation per
    (column, monomial of degree d + e)."""
    monos = _monomials(nvars, d)
    nm = len(monos)
    eqs = {}
    for i, row in enumerate(ent):
        for j, p in enumerate(row):
            for ex, c in p.items():
                for mi, m in enumerate(monos):
                    eqs.setdefault((j, m + ex), {})[i * nm + mi] = c
    basis = []
    for v in nullspace_sparse_q(list(eqs.values()), len(ent) * nm)[0]:
        w = [{} for _ in ent]
        for k, c in v.items():
            w[k // nm][monos[k % nm]] = c
        basis.append([Poly(nvars, terms) for terms in w])
    return basis


def _monomials(n, deg):
    """Keys of the monomials of degree deg in n variables, ascending: the
    lexicographic order of their exponent tuples."""
    units = map(PolyRing(n).var_key, range(n))
    return sorted(map(sum, combinations_with_replacement(units, deg)))
