"""Linear operator-space solvers: derivations and their many relatives.

Each solver writes its defining law as term trees, turns the law into an
exact linear system with ``linear_conditions`` and returns a canonical basis
of the solution space.  Over Q, large systems go through the verified mod-p
fast path in ``linalg``.

``linear_conditions(A, terms, variables, unknowns)`` contract:

* ``terms`` is a list of (coefficient, term) pairs in the ``identities``
  term format: ("v", name) or (symbol, (child, ...)).  A symbol is either a
  key of ``unknowns`` or the name of one of A's operations.
* Every term contains exactly one unknown, and the children of an unknown
  contain none, so the law is linear in the unknowns.
* ``unknowns`` maps each unknown symbol of arity k to (output dimension,
  column function).  The column function takes (output coordinate, basis
  index of argument 1, ..., basis index of argument k) and returns the
  column of that unknown coefficient.  A map D is unary into A, a bilinear
  form theta is binary into F (output dimension 1), an unknown element c
  is nullary.
* The law is evaluated at every basis tuple of ``variables`` (in
  ``itertools.product`` order).  The result maps (basis tuple, output
  coordinate) to a sparse row {column: coefficient}; zero rows are left
  out, and keys run tuple-major, coordinate-ascending.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .linalg import (Subspace, mat_mul, mat_sub, mat_vec, nullspace,
                     nullspace_sparse_q, rank)
from .scalars import QQ, DomainError, Poly, PolyRing
from .varieties import check_variety, minus_algebra

SAMPLE_SEED = 20240801


def _flatten(mat):
    return [x for row in mat for x in row]


def _unflatten(vec, n):
    return [list(vec[i * n:(i + 1) * n]) for i in range(n)]


class OperatorSpace:
    """A linear space of n x n matrices with a semantic tag."""

    def __init__(self, ambient_dim, vectors, tag, dom=QQ, meta=None):
        self.ambient_dim = ambient_dim
        self.dom = dom
        self.tag = tag
        self.meta = meta or {}
        self.subspace = Subspace(vectors, ambient_dim * ambient_dim, dom)

    @property
    def dim(self):
        return self.subspace.dim

    def matrices(self):
        return [_unflatten(v, self.ambient_dim) for v in self.subspace.basis]

    def contains_matrix(self, mat):
        return self.subspace.contains_vector(_flatten(mat))

    def contains(self, other):
        return self.subspace.contains(other.subspace)

    def closed_under_bracket(self):
        mats = self.matrices()
        for a in mats:
            for b in mats:
                comm = mat_sub(mat_mul(a, b, self.dom), mat_mul(b, a, self.dom))
                if not self.contains_matrix(comm):
                    return False
        return True

    def __repr__(self):
        return f"OperatorSpace({self.tag}, dim={self.dim}, ambient={self.ambient_dim})"


class TupleOperatorSpace:
    """A linear space of m-tuples of n x n matrices."""

    def __init__(self, ambient_dim, tuple_len, vectors, tag, dom=QQ, meta=None):
        self.ambient_dim = ambient_dim
        self.tuple_len = tuple_len
        self.dom = dom
        self.tag = tag
        self.meta = meta or {}
        self.subspace = Subspace(vectors, tuple_len * ambient_dim ** 2, dom)

    @property
    def dim(self):
        return self.subspace.dim

    def projection_dim(self, slot):
        n2 = self.ambient_dim ** 2
        rows = [v[slot * n2:(slot + 1) * n2] for v in self.subspace.basis]
        return rank(rows, self.dom)

    def projection_space(self, slot):
        n2 = self.ambient_dim ** 2
        rows = [v[slot * n2:(slot + 1) * n2] for v in self.subspace.basis]
        return OperatorSpace(self.ambient_dim, rows,
                             f"{self.tag}-proj{slot}", self.dom)

    def __repr__(self):
        return (f"TupleOperatorSpace({self.tag}, dim={self.dim}, "
                f"tuples of {self.tuple_len})")


def _nullspace_rows(rows, ncols, dom):
    if dom is QQ:
        return nullspace_sparse_q(rows, ncols)
    dense = []
    for row in rows:
        r = [dom.zero()] * ncols
        for j, c in row.items():
            r[j] = c
        dense.append(r)
    return nullspace(dense, ncols, dom)


def linear_conditions(A, terms, variables, unknowns):
    """Rows of a law linear in its unknowns, at every basis tuple.

    See the module docstring for the contract.  Each term is compiled once:
    subterms without the unknown become functions returning sparse vectors
    of A, the path to the unknown a function that adds scale * value, a
    vector of linear forms {coordinate: {column: coefficient}}, into a sum.
    """
    dom = A.dom
    one = dom.one()
    minus = -one

    def count(term):
        if term[0] == "v":
            return 0
        return (term[0] in unknowns) + sum(count(c) for c in term[1])

    if any(count(t) != 1 for _, t in terms):
        raise DomainError("every term needs exactly one unknown")

    def add(form, key, x):
        y = form.get(key)
        form[key] = x if y is None else y + x

    def times(a, b):
        # most factors are the shared one or minus one
        if a is one:
            return b
        if b is one:
            return a
        return -b if a is minus else a * b

    def supports(vecs):
        # (basis indices, coefficient product) over the product of supports
        out = [((), one)]
        for v in vecs:
            out = [(idx + (i,), times(coef, c)) for idx, coef in out for i, c in v.items()]
        return out

    def constant(term):
        if term[0] == "v":
            name = term[1]
            return lambda env: env[name]
        table = A.op(term[0]).table
        kids = [constant(k) for k in term[1]]

        def product(env):
            out = {}
            for idx, coef in supports([k(env) for k in kids]):
                for r, c in table.get(idx, {}).items():
                    add(out, r, times(coef, c))
            return out
        return product

    def linear(term):
        sym, kids = term
        if sym in unknowns:
            dim, col = unknowns[sym]
            args = [constant(k) for k in kids]

            def unknown(env, scale, out):
                for idx, coef in supports([f(env) for f in args]):
                    f = times(scale, coef)
                    for r in range(dim):
                        add(out.setdefault(r, {}), col(r, *idx), f)
            return unknown
        s = next(i for i, k in enumerate(kids) if count(k))
        inner = linear(kids[s])
        others = [constant(k) for i, k in enumerate(kids) if i != s]
        # (arguments other than slot s) -> [(slot-s argument, output row)]
        index = {}
        for idx, row in A.op(sym).table.items():
            index.setdefault(idx[:s] + idx[s + 1:], []).append((idx[s], row))

        def node(env, scale, out):
            val = {}
            inner(env, one, val)
            for idx, coef in supports([f(env) for f in others]):
                f0 = times(scale, coef)
                for a, row in index.get(idx, ()):
                    form = val.get(a)
                    if form:
                        for r, c in row.items():
                            f = times(f0, c)
                            tgt = out.setdefault(r, {})
                            for key, x in form.items():
                                x = f if x is one else x if f is one else f * x
                                y = tgt.get(key)
                                tgt[key] = x if y is None else y + x
        return node

    compiled = []
    for c, t in terms:
        c = dom.coerce(c)
        compiled.append((one if c == one else minus if c == minus else c, linear(t)))
    rows = {}
    for combo in itertools.product(range(A.dim), repeat=len(variables)):
        env = {v: {i: one} for v, i in zip(variables, combo)}
        total = {}
        for c, fn in compiled:
            fn(env, c, total)
        for r in sorted(total):
            row = {k: x for k, x in total[r].items() if not dom.is_zero(x)}
            if row:
                rows[(combo, r)] = row
    return rows


def _map_columns(n, offset=0):
    """Column function of an unknown n x n matrix D: entry D[r][a]."""
    return lambda r, a: offset + r * n + a


def _product(opn, m, slot=None, sym="<D>"):
    """The term opn(x0, ..., sym(x_slot), ..., x_{m-1})."""
    return (opn, tuple(("v", f"x{i}") if i != slot else (sym, (("v", f"x{i}"),))
                       for i in range(m)))


def _variables(m):
    return tuple(f"x{i}" for i in range(m))


def derivation_space(A, delta=1, op=None):
    """delta-derivations: phi(x1..xm) = delta * sum_i (x1.. phi(x_i) ..xm).

    delta=1 is the usual derivation space; delta=1/2 the half-derivations
    governing transposed Poisson structures.  For arity > 2, delta must be 1.
    """
    opn = op or A.op_names()[0]
    m = A.op(opn).arity
    dom = A.dom
    delta = dom.coerce(delta)
    if m > 2 and not dom.is_zero(delta - dom.one()):
        raise DomainError("delta-derivations with arity > 2 require delta = 1")
    n = A.dim
    terms = [(1, ("<D>", (_product(opn, m),)))]
    terms += [(-delta, _product(opn, m, s)) for s in range(m)]
    rows = linear_conditions(A, terms, _variables(m), {"<D>": (n, _map_columns(n))})
    vecs = _nullspace_rows(list(rows.values()), n * n, dom)
    tag = "der" if delta == dom.one() else f"delta-der({delta})"
    return OperatorSpace(n, vecs, tag, dom)


def centroid(A, op=None):
    """Maps commuting with the multiplication in every slot."""
    opn = op or A.op_names()[0]
    m = A.op(opn).arity
    n = A.dim
    rows = []
    for s in range(m):
        terms = [(1, ("<D>", (_product(opn, m),))), (-1, _product(opn, m, s))]
        rows += linear_conditions(A, terms, _variables(m),
                                  {"<D>": (n, _map_columns(n))}).values()
    vecs = _nullspace_rows(rows, n * n, A.dom)
    return OperatorSpace(n, vecs, "centroid", A.dom)


def multiplication_operator(A, fixed, op=None, slot=0):
    """Matrix of a -> t(x_1, ..., a, ..., x_m), a in argument ``slot``.

    The fixed arguments fill the other slots in order; each is a basis
    index or a vector.  slot 0 gives right multiplication a -> a x for a
    binary t, slot 1 left multiplication a -> x a.
    """
    t = A.op(op)
    dom = A.dom
    n = A.dim
    fixed_vecs = []
    for f in fixed:
        if isinstance(f, int):
            v = {f: dom.one()}
        else:
            v = {i: dom.coerce(c) for i, c in enumerate(f)
                 if not dom.is_zero(dom.coerce(c))}
        fixed_vecs.append(v)
    M = [[dom.zero()] * n for _ in range(n)]
    for a in range(n):
        args = fixed_vecs[:slot] + [{a: dom.one()}] + fixed_vecs[slot:]
        for k, c in t.apply_sparse(args).items():
            M[k][a] = c
    return M


def generalized_derivation_space(A, mode="full", op=None):
    """(m+1)-ary derivations (mode "full") or quasiderivation pairs.

    full: tuples (D0,...,Dm) with sum_i [x1,..,D^{i-1}x_i,..,xm] = Dm([x..]).
    quasi: pairs (d, f) with every slot carrying the same d.
    The report includes the trivial subspace and the quotient dimension.
    """
    opn = op or A.op_names()[0]
    dom = A.dom
    n = A.dim
    m = A.op(opn).arity
    n2 = n * n
    nslots = m + 1 if mode == "full" else 2
    unknowns = {f"<D{i}>": (n, _map_columns(n, i * n2)) for i in range(nslots)}
    terms = [(1, _product(opn, m, s, f"<D{s if mode == 'full' else 0}>"))
             for s in range(m)]
    terms.append((-1, (f"<D{nslots - 1}>", (_product(opn, m),))))
    rows = linear_conditions(A, terms, _variables(m), unknowns)
    vecs = _nullspace_rows(list(rows.values()), nslots * n2, dom)
    tag = f"{m + 1}-ary-der" if mode == "full" else "qder"
    space = TupleOperatorSpace(n, nslots, vecs, tag, dom)

    der = derivation_space(A, delta=1, op=op)
    cen = centroid(A, op=op)
    trivial_vecs = []
    if mode == "full":
        for d in der.subspace.basis:
            trivial_vecs.append(list(d) * (m + 1))
        for phi in cen.subspace.basis:
            for s in range(m):
                v = [dom.zero()] * ((m + 1) * n2)
                v[s * n2:(s + 1) * n2] = list(phi)
                v[m * n2:(m + 1) * n2] = list(phi)
                trivial_vecs.append(v)
    else:
        for d in der.subspace.basis:
            trivial_vecs.append(list(d) * 2)
        for phi in cen.subspace.basis:
            # (phi, m*phi): phi in every slot sums to m phi on the product
            v = list(phi) + [dom.from_int(m) * c for c in phi]
            trivial_vecs.append(v)
    trivial = Subspace(trivial_vecs, nslots * n2, dom)
    contained = all(space.subspace.contains_vector(v) for v in trivial.basis)
    space.meta.update({
        "trivial_dim": trivial.dim,
        "trivial_contained": contained,
        "quotient_dim": space.dim - trivial.dim,
        "projection_dims": [space.projection_dim(s) for s in range(nslots)],
    })
    if mode == "quasi":
        space.meta["QDer_KS_dim"] = space.projection_dim(0)
        space.meta["QDer_LL_dim"] = space.projection_dim(1)
    if mode == "full" and space.dim <= 40:
        # the semisimple part lives in the derived subalgebra of the tuple
        # Lie algebra; its slot projections carry the sl_{n+1} copies
        derived = _tuple_derived_subalgebra(space)
        space.meta["derived_dim"] = derived.dim
        space.meta["derived_projection_dims"] = [
            rank([v[s * n2:(s + 1) * n2] for v in derived.basis], dom)
            for s in range(nslots)]
    return space


def _tuple_derived_subalgebra(space):
    dom = space.dom
    n = space.ambient_dim
    n2 = n * n
    basis = space.subspace.basis
    def mats(v):
        return [_unflatten(v[s * n2:(s + 1) * n2], n)
                for s in range(space.tuple_len)]
    out = []
    for i in range(len(basis)):
        mi = mats(basis[i])
        for j in range(i + 1, len(basis)):
            mj = mats(basis[j])
            vec = []
            for a, b in zip(mi, mj):
                comm = mat_sub(mat_mul(a, b, dom), mat_mul(b, a, dom))
                vec.extend(_flatten(comm))
            out.append(vec)
    return Subspace(out, space.tuple_len * n2, dom)


# ---------------------------------------------------------------------------
# local derivations
# ---------------------------------------------------------------------------

def _sample_points(A, rng, count=64):
    n = A.dim
    pts = [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            v = [Fraction(0)] * n
            v[i] = v[j] = Fraction(1)
            pts.append(v)
    for _ in range(count):
        pts.append([Fraction(rng.randint(-9, 9)) for _ in range(n)])
    return pts


def _der_images_matrix(der_mats, x, dom):
    # columns D_i x
    cols = [mat_vec(D, x, dom) for D in der_mats]
    n = len(x)
    return [[cols[j][i] for j in range(len(cols))] for i in range(n)]


def _member_at_point(der_mats, phi, x, dom):
    S = _der_images_matrix(der_mats, x, dom)
    target = mat_vec(phi, x, dom)
    base = rank(S, dom)
    aug = [row + [t] for row, t in zip(S, target)]
    return rank(aug, dom) == base


def local_derivation_test(A, phi, op=None, der=None, generic=None):
    """Pointwise local-derivation test.

    Returns {"verdict": "No", "witness": x} when some sampled or symbolic
    point refutes phi, else {"verdict": "GenericYes"}.  GenericYes certifies
    the necessary generic-membership condition plus structured sampling; it
    is not a full universal proof (see the report's note).
    """
    dom = A.dom
    if len(phi) != A.dim:
        raise DomainError("operator has wrong shape")
    der = der or derivation_space(A, delta=1, op=op)
    der_mats = der.matrices()
    rng = random.Random(SAMPLE_SEED)
    for x in _sample_points(A, rng):
        if not _member_at_point(der_mats, phi, x, dom):
            return {"verdict": "No", "witness": x, "seed": SAMPLE_SEED}
    generic = generic or local_derivation_generic_space(A, op=op, der=der)
    if not generic.contains_matrix(phi):
        return {"verdict": "No", "witness": "generic-point membership fails",
                "seed": SAMPLE_SEED}
    return {"verdict": "GenericYes", "witness": None, "seed": SAMPLE_SEED,
            "note": "generic membership + structured sampling"}


def local_derivation_generic_space(A, op=None, der=None, max_kernel_degree=3):
    """The space {phi : phi(x) in span_{Q(x)} {D_i x}} of constant matrices.

    Computed exactly: the generic rank r of S_x = [D_1 x | ... | D_r x] is
    certified by a rational sample (lower bound) together with an explicit
    polynomial basis of the left kernel of S_x (upper bound); membership then
    reduces to the linear conditions w(x)^T phi x = 0.
    """
    if A.dom is not QQ:
        raise DomainError("generic local-derivation space requires Q")
    n = A.dim
    der = der or derivation_space(A, delta=1, op=op)
    der_mats = der.matrices()
    rng = random.Random(SAMPLE_SEED + 1)
    if not der_mats:
        # no derivations: phi must satisfy phi x = 0 generically, so phi = 0
        return OperatorSpace(n, [], "locder-generic", QQ,
                             meta={"generic_rank": 0, "certified": True})
    generic_rank = 0
    for _ in range(6):
        x = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        S = _der_images_matrix(der_mats, x, QQ)
        generic_rank = max(generic_rank, rank(S, QQ))
    need = n - generic_rank
    ring = PolyRing(n)
    gens = ring.gens()
    # symbolic columns D_i x (entries linear in x)
    sym_cols = []
    for D in der_mats:
        col = []
        for i in range(n):
            p = ring.zero()
            for j in range(n):
                if D[i][j]:
                    p = p + Poly.const(n, D[i][j]) * gens[j]
            col.append(p)
        sym_cols.append(col)
    kernel = []
    if need > 0:
        for deg in range(0, max_kernel_degree + 1):
            monos = _monomials(n, deg)
            nunk = n * len(monos)
            rows = {}
            for ci, col in enumerate(sym_cols):
                # w . col must vanish: collect per output monomial
                for mi, mono in enumerate(monos):
                    for i in range(n):
                        for e, c in col[i].terms.items():
                            key = tuple(a + b for a, b in zip(mono, e))
                            rows.setdefault((ci, key), {})
                            unk = i * len(monos) + mi
                            row = rows[(ci, key)]
                            row[unk] = row.get(unk, Fraction(0)) + c
            vecs = nullspace_sparse_q(list(rows.values()), nunk)
            for v in vecs:
                w = []
                for i in range(n):
                    terms = {}
                    for mi, mono in enumerate(monos):
                        c = v[i * len(monos) + mi]
                        if c:
                            terms[mono] = c
                    w.append(Poly(n, terms))
                kernel.append(w)
            kernel = _independent_kernel(kernel, n, rng)
            if len(kernel) >= need:
                kernel = kernel[:need]
                break
    certified = len(kernel) == need
    # membership conditions: w(x)^T (phi x) = 0 identically
    rows = {}
    for wi, w in enumerate(kernel):
        for i in range(n):
            if not w[i].terms:
                continue
            for j in range(n):
                # contribution of phi_{i,j} x_j to w(x)^T phi x
                for e, c in w[i].terms.items():
                    key = tuple(a + (1 if s == j else 0) for s, a in enumerate(e))
                    row = rows.setdefault((wi, key), {})
                    unk = i * n + j
                    row[unk] = row.get(unk, Fraction(0)) + c
    if certified:
        vecs = nullspace_sparse_q(list(rows.values()), n * n)
    else:
        # fall back to heavily sampled constraints (still contains LocDer)
        vecs = _sampled_locder_space(A, der_mats, rng)
    return OperatorSpace(n, vecs, "locder-generic", QQ,
                         meta={"generic_rank": generic_rank,
                               "kernel_degrees": [max((sum(e) for p in w for e in p.terms), default=0)
                                                  for w in kernel],
                               "certified": certified,
                               "seed": SAMPLE_SEED + 1})


def _monomials(n, deg):
    if deg == 0:
        return [tuple([0] * n)]
    out = []
    def rec(prefix, rem, slots):
        if slots == 1:
            out.append(tuple(prefix + [rem]))
            return
        for k in range(rem + 1):
            rec(prefix + [k], rem - k, slots - 1)
    rec([], deg, n)
    return out


def _independent_kernel(kernel, n, rng):
    """A maximal subset of kernel vectors independent over Q(x).

    A vector is kept when it raises the rank of the kept vectors evaluated
    at one random point; rank at a point is a lower bound of the rank over
    Q(x), so the kept vectors are independent.
    """
    x = [Fraction(rng.randint(-7, 7)) for _ in range(n)]
    keep, acc = [], []
    for w in kernel:
        trial = acc + [[p.eval(x) for p in w]]
        if rank(trial, QQ) == len(trial):
            acc = trial
            keep.append(w)
    return keep


def _sampled_locder_space(A, der_mats, rng, samples=48):
    n = A.dim
    rows = []
    for _ in range(samples):
        x = [Fraction(rng.randint(-9, 9)) for _ in range(n)]
        S = _der_images_matrix(der_mats, x, QQ)
        # conditions: phi x lies in col-span(S): use left kernel at the point
        kern = nullspace([list(col) for col in zip(*S)], n, QQ)
        for w in kern:
            row = {}
            for i in range(n):
                if w[i] == 0:
                    continue
                for j in range(n):
                    if x[j]:
                        row[i * n + j] = row.get(i * n + j, Fraction(0)) + w[i] * x[j]
            if row:
                rows.append(row)
    return nullspace_sparse_q(rows, n * n)


# ---------------------------------------------------------------------------
# f-Leibniz derivations
# ---------------------------------------------------------------------------

def bracketings(k):
    """All full binary bracketings of x_0 ... x_{k-1} as nested index pairs."""
    def rec(lo, hi):
        if hi - lo == 1:
            return [lo]
        out = []
        for mid in range(lo + 1, hi):
            for left in rec(lo, mid):
                for right in rec(mid, hi):
                    out.append((left, right))
        return out
    return rec(0, k)


def left_bracketing(k):
    b = 0
    for i in range(1, k):
        b = (b, i)
    return b


def right_bracketing(k):
    b = k - 1
    for i in range(k - 2, -1, -1):
        b = (i, b)
    return b


def leibniz_derivation_space(A, k, arrangement="all", op=None, max_order=5):
    """f-Leibniz derivations of order k for the chosen arrangement(s).

    "all" intersects over every full bracketing of length k (Catalan many).
    The report says whether the space contains an invertible element, decided
    by the symbolic determinant of a generic combination.
    """
    if k < 2:
        raise DomainError("order must be >= 2")
    if k > max_order:
        raise DomainError(f"order {k} exceeds the resource bound {max_order}")
    t = A.op(op)
    if t.arity != 2:
        raise DomainError("f-Leibniz derivations need a binary operation")
    if arrangement == "left":
        brs = [left_bracketing(k)]
    elif arrangement == "right":
        brs = [right_bracketing(k)]
    elif arrangement == "all":
        brs = bracketings(k)
    else:
        raise DomainError(f"unknown arrangement {arrangement!r}")
    opn = op or A.op_names()[0]
    n = A.dim

    def tree(b, slot):
        if isinstance(b, int):
            x = ("v", f"x{b}")
            return ("<D>", (x,)) if b == slot else x
        return (opn, (tree(b[0], slot), tree(b[1], slot)))

    rows = []
    for br in brs:
        terms = [(1, ("<D>", (tree(br, None),)))]
        terms += [(-1, tree(br, s)) for s in range(k)]
        rows += linear_conditions(A, terms, _variables(k),
                                  {"<D>": (n, _map_columns(n))}).values()
    vecs = _nullspace_rows(rows, n * n, A.dom)
    space = OperatorSpace(n, vecs, f"leibder({k},{arrangement})", A.dom)
    space.meta["invertible_exists"], space.meta["invertible_witness"] = \
        _generic_invertibility(space)
    return space


def _generic_invertibility(space):
    mats = space.matrices()
    s = len(mats)
    n = space.ambient_dim
    if s == 0:
        return False, None
    ring = PolyRing(s)
    gens = ring.gens()
    sym = [[ring.zero() for _ in range(n)] for _ in range(n)]
    for idx, M in enumerate(mats):
        for i in range(n):
            for j in range(n):
                if M[i][j]:
                    sym[i][j] = sym[i][j] + Poly.const(s, M[i][j]) * gens[idx]
    d = _poly_det(sym, ring)
    if not d.terms:
        return False, None
    rng = random.Random(SAMPLE_SEED + 2)
    for _ in range(200):
        c = [Fraction(rng.randint(-5, 5)) for _ in range(s)]
        if d.eval(c) != 0:
            return True, c
    return True, None


def _poly_det(mat, ring):
    """Bareiss fraction-free determinant over a polynomial ring."""
    n = len(mat)
    if n == 0:
        return ring.one()
    m = [row[:] for row in mat]
    prev = ring.one()
    sign = 1
    for c in range(n - 1):
        pr = None
        for i in range(c, n):
            if m[i][c].terms:
                pr = i
                break
        if pr is None:
            return ring.zero()
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        piv = m[c][c]
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                num = piv * m[i][j] - m[i][c] * m[c][j]
                m[i][j] = num.divexact(prev)
            m[i][c] = ring.zero()
        prev = piv
    out = m[n - 1][n - 1]
    return out if sign == 1 else -out


# ---------------------------------------------------------------------------
# commuting maps and Peirce decomposition
# ---------------------------------------------------------------------------

def commuting_map_space(A, op=None):
    """Maps with [phi(x), x] = 0, by the polarized condition
    [phi(x),y] + [phi(y),x] = 0 on basis pairs (exact when char != 2)."""
    dom = A.dom
    if dom.char == 2:
        raise DomainError("commuting maps need characteristic != 2")
    t = A.op(op)
    if t.arity != 2:
        raise DomainError("commuting maps need a binary operation")
    n = A.dim
    # the law in the commutator algebra: [D(x0), x1] + [D(x1), x0]
    terms = [(1, _product("mul", 2, 0)), (1, ("mul", (("<D>", (("v", "x1"),)), ("v", "x0"))))]
    conds = linear_conditions(minus_algebra(A, op), terms, _variables(2),
                              {"<D>": (n, _map_columns(n))})
    # the law is symmetric in (x, y): one row set per unordered pair
    rows = [row for ((i, j), _), row in conds.items() if i <= j]
    vecs = _nullspace_rows(rows, n * n, dom)
    return OperatorSpace(n, vecs, "commuting", dom)


def peirce_decompose(A, e, op=None):
    """Peirce components A_ij = {x : ex = (2-i)x, xe = (2-j)x}, i,j in {1,2}.

    Requires an idempotent e in an alternative algebra; raises if the four
    components fail to span.
    """
    dom = A.dom
    t = A.op(op)
    n = A.dim
    if isinstance(e, int):
        ev = A.basis_vector(e)
    else:
        ev = [dom.coerce(c) for c in e]
    sq = t.apply([ev, ev])
    if all(dom.is_zero(c) for c in ev):
        raise DomainError("e must be nonzero")
    if any(not dom.is_zero(a - b) for a, b in zip(sq, ev)):
        raise DomainError("e is not idempotent")
    if not check_variety(A, "alternative", op=op)["holds"]:
        raise DomainError("Peirce decomposition requires an alternative algebra")
    L = multiplication_operator(A, (ev,), op, slot=1)
    R = multiplication_operator(A, (ev,), op)
    comps = {}
    for i_lab, lam in ((1, dom.one()), (2, dom.zero())):
        for j_lab, mu in ((1, dom.one()), (2, dom.zero())):
            rows = []
            for r_ in range(n):
                rowL = [L[r_][c] - (lam if c == r_ else dom.zero()) for c in range(n)]
                rowR = [R[r_][c] - (mu if c == r_ else dom.zero()) for c in range(n)]
                rows.append(rowL)
                rows.append(rowR)
            comps[(i_lab, j_lab)] = Subspace(nullspace(rows, n, dom), n, dom)
    total = sum(s.dim for s in comps.values())
    if total != n:
        raise DomainError("Peirce components do not span the algebra")
    return comps
