"""Exact linear algebra kernel.

Matrices are plain lists of rows over a scalar domain (see ``scalars``).
Everything is computed exactly; the only shortcut is a mod-p pivot search
(numpy) used to accelerate large rational nullspace computations, whose
result is always verified exactly before being returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

import numpy as np

from .scalars import QQ, DomainError, Poly

_PRIMES = (2147483647, 2147483629, 2147483563, 2147483549)


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
    """Reduced row echelon form (in place on a copy); returns (rows, pivots)."""
    m = [list(r) for r in rows]
    nrows = len(m)
    ncols = len(m[0]) if nrows else 0
    pivots = []
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if not dom.is_zero(m[i][c]):
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        pv = m[r][c]
        if pv != dom.one():
            m[r] = [x / pv for x in m[r]]
        for i in range(nrows):
            if i != r and not dom.is_zero(m[i][c]):
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
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
    if not rows:
        rows = []
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


def solve(rows, rhs, dom=QQ):
    """One solution of M x = rhs, or None if inconsistent."""
    ncols = len(rows[0]) if rows else len(rhs) * 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, dom)
    for i, row in enumerate(red):
        if i < len(pivots):
            continue
        if not dom.is_zero(row[-1]) and all(dom.is_zero(x) for x in row[:-1]):
            return None
    # a pivot in the rhs column means inconsistency
    if pivots and pivots[-1] == ncols:
        return None
    x = [dom.zero()] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][-1]
    return x


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


def bareiss_rank(rows):
    """Fraction-free rank for matrices over a polynomial ring (or Z).

    Exact on any integral domain whose elements support *, - and divexact.
    """
    m = [list(r) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    prev = None
    r = 0
    for c in range(ncols):
        pr = None
        for i in range(r, nrows):
            if m[i][c]:
                pr = i
                break
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            for j in range(ncols):
                if j == c:
                    continue
                num = piv * m[i][j] - m[i][c] * m[r][j]
                if prev is not None:
                    num = num.divexact(prev) if isinstance(num, Poly) else _exact_div_int(num, prev)
                m[i][j] = num
            m[i][c] = m[i][c] - m[i][c]
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def _exact_div_int(a, b):
    q, rem = divmod(a, b)
    if rem:
        raise DomainError("inexact integer division in Bareiss")
    return q


# ---------------------------------------------------------------------------
# subspaces
# ---------------------------------------------------------------------------

class Subspace:
    """Linear subspace of F^n held in canonical reduced echelon form.

    Equal subspaces compare equal no matter which spanning set built them.
    """

    def __init__(self, vectors, ambient_dim, dom=QQ):
        self.dom = dom
        self.ambient_dim = ambient_dim
        red, _ = rref(vectors, dom) if vectors else ([], [])
        self.basis = [r for r in red if any(not dom.is_zero(x) for x in r)]

    @property
    def dim(self):
        return len(self.basis)

    def contains_vector(self, v):
        dom = self.dom
        w = list(v)
        for row in self.basis:
            lead = next(i for i, x in enumerate(row) if not dom.is_zero(x))
            if not dom.is_zero(w[lead]):
                f = w[lead] / row[lead]
                w = [x - f * y for x, y in zip(w, row)]
        return all(dom.is_zero(x) for x in w)

    def contains(self, other):
        return all(self.contains_vector(v) for v in other.basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and len(self.basis) == len(other.basis)
                and mat_eq(self.basis, other.basis, self.dom))

    def __hash__(self):
        return hash((self.ambient_dim, len(self.basis)))

    def sum(self, other):
        return Subspace(self.basis + other.basis, self.ambient_dim, self.dom)

    def intersect(self, other):
        dom = self.dom
        ka, kb = len(self.basis), len(other.basis)
        if ka == 0 or kb == 0:
            return Subspace([], self.ambient_dim, dom)
        # solve u^T A = v^T B; columns of the stacked system are coordinates
        rows = []
        for j in range(self.ambient_dim):
            rows.append([self.basis[i][j] for i in range(ka)]
                        + [-other.basis[i][j] for i in range(kb)])
        kern = nullspace(rows, ka + kb, dom)
        vecs = []
        for w in kern:
            v = [dom.zero()] * self.ambient_dim
            for i in range(ka):
                if not dom.is_zero(w[i]):
                    v = [x + w[i] * y for x, y in zip(v, self.basis[i])]
            vecs.append(v)
        return Subspace(vecs, self.ambient_dim, dom)

    def __repr__(self):
        return f"Subspace(dim={self.dim}, ambient={self.ambient_dim})"


# ---------------------------------------------------------------------------
# fast rational nullspace (mod-p pivot search + exact verification)
# ---------------------------------------------------------------------------

def _rows_to_int(sparse_rows):
    out = []
    for row in sparse_rows:
        if not row:
            continue
        denom = 1
        for c in row.values():
            if isinstance(c, Fraction):
                denom = denom * c.denominator // gcd(denom, c.denominator)
        introw = {}
        for j, c in row.items():
            v = int(c * denom) if isinstance(c, Fraction) else c * denom
            if v:
                introw[j] = v
        if introw:
            g = 0
            for v in introw.values():
                g = gcd(g, abs(v))
            if g > 1:
                introw = {j: v // g for j, v in introw.items()}
            out.append(introw)
    return out


def _modp_rref(dense, p):
    """RREF of an int64 array mod p; returns (reduced, pivot_cols, pivot_src_rows)."""
    m = dense % p
    nrows, ncols = m.shape
    order = np.arange(nrows)
    r = 0
    pivots = []
    for c in range(ncols):
        col = m[r:, c]
        nz = np.nonzero(col)[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            m[[r, i]] = m[[i, r]]
            order[[r, i]] = order[[i, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        col = m[:, c].copy()
        col[r] = 0
        mask = col != 0
        if mask.any():
            m[mask] = (m[mask] - col[mask, None] * m[r][None, :]) % p
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return m[:r], pivots, order[:len(pivots)]


def _rat_reconstruct(a, p):
    """Lift a mod-p residue to n/d with |n|, d <= sqrt(p/2); None if impossible."""
    if a == 0:
        return Fraction(0)
    bound = int((p // 2) ** 0.5)
    r0, r1 = p, a % p
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


def nullspace_sparse_q(sparse_rows, ncols):
    """Exact rational nullspace of a sparse integer/rational system.

    Pivot structure is found mod p with numpy, the candidate basis is lifted
    by rational reconstruction, then verified exactly against every row.
    Falls back to dense exact elimination if any step fails.
    """
    introws = _rows_to_int(sparse_rows)
    if not introws:
        eye, _ = rref(identity_matrix(ncols, QQ), QQ)
        return eye
    if ncols == 0:
        return []
    for p in _PRIMES:
        dense = np.zeros((len(introws), ncols), dtype=np.int64)
        for i, row in enumerate(introws):
            for j, v in row.items():
                dense[i, j] = v % p
        red, pivots, _ = _modp_rref(dense, p)
        pivset = set(pivots)
        free = [c for c in range(ncols) if c not in pivset]
        cand = []
        ok = True
        for f in free:
            v = [Fraction(0)] * ncols
            v[f] = Fraction(1)
            for i, piv in enumerate(pivots):
                lifted = _rat_reconstruct(int((-red[i, f]) % p), p)
                if lifted is None:
                    ok = False
                    break
                v[piv] = lifted
            if not ok:
                break
            cand.append(v)
        if not ok:
            continue
        if _verify_nullspace(introws, cand):
            red2, _ = rref(cand, QQ) if cand else ([], [])
            return [r for r in red2 if any(x != 0 for x in r)]
    # exact fallback
    dense_rows = []
    for row in introws:
        r = [Fraction(0)] * ncols
        for j, v in row.items():
            r[j] = Fraction(v)
        dense_rows.append(r)
    return nullspace(dense_rows, ncols, QQ)


def _verify_nullspace(introws, cand):
    scaled = []
    for v in cand:
        denom = 1
        for c in v:
            denom = denom * c.denominator // gcd(denom, c.denominator)
        scaled.append([int(c * denom) for c in v])
    for row in introws:
        items = list(row.items())
        for v in scaled:
            s = 0
            for j, a in items:
                if v[j]:
                    s += a * v[j]
            if s != 0:
                return False
    return True


def solve_linear(mat, mode, dom=QQ):
    """Core kernel entry point: mode is 'nullspace', 'solve' or 'rank'.

    For 'solve', ``mat`` is an augmented matrix [M | b]; returns
    (particular, nullspace_basis) or raises on inconsistency.
    """
    if mode == "rank":
        return rank(mat, dom)
    if mode == "nullspace":
        ncols = len(mat[0]) if mat else 0
        return Subspace(nullspace(mat, ncols, dom), ncols, dom)
    if mode == "solve":
        rows = [r[:-1] for r in mat]
        rhs = [r[-1] for r in mat]
        x = solve(rows, rhs, dom)
        if x is None:
            raise DomainError("inconsistent linear system")
        ncols = len(rows[0]) if rows else 0
        return x, Subspace(nullspace(rows, ncols, dom), ncols, dom)
    raise ValueError(f"unknown mode {mode!r}")
