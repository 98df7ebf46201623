"""Linear operator-space solvers: derivations and their many relatives.

Each solver writes its defining law as term trees, turns the law into an
exact linear system with ``identities.law_rows`` (at one basis tuple per
orbit of the variable permutations the law is proven symmetric or
antisymmetric under) and returns a canonical basis of the solution space.
Over Q the integer rows go straight into the verified mod-p fast path in
``linalg``; over GF(p) they are eliminated mod p itself.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .identities import law_rows
from .linalg import (Subspace, generic_rank, kernel, kernel_and_rows, kernel_contains,
                     linear_pencil, mat_mul, mat_sub, mat_vec, rank_of_rows, seeded_points,
                     sparse_rows)
from .scalars import QQ, DomainError, PolyRing
from .structure import multiplication_operator
from .varieties import check_variety, minus_algebra

SAMPLE_SEED = 20240801
MAX_LEIBNIZ_ORDER = 5   # Catalan(k - 1) bracketings, each a k-variable scan


def _flatten(mat):
    return [x for row in mat for x in row]


def _unflatten(vec, n):
    return [list(vec[i * n:(i + 1) * n]) for i in range(n)]


class OperatorSpace:
    """A linear space of n x n matrices (a ``Subspace`` of flattened
    matrices) with a semantic tag."""

    def __init__(self, ambient_dim, subspace, tag, meta=None):
        self.ambient_dim = ambient_dim
        self.dom = subspace.dom
        self.tag = tag
        self.meta = meta or {}
        self.subspace = subspace

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
    """A linear space of m-tuples of n x n matrices (a ``Subspace`` of
    concatenated flattened matrices)."""

    def __init__(self, ambient_dim, tuple_len, subspace, tag, meta=None):
        self.ambient_dim = ambient_dim
        self.tuple_len = tuple_len
        self.dom = subspace.dom
        self.tag = tag
        self.meta = meta or {}
        self.subspace = subspace

    @property
    def dim(self):
        return self.subspace.dim

    def projection_dim(self, slot):
        n2 = self.ambient_dim ** 2
        rows = sparse_rows([v[slot * n2:(slot + 1) * n2] for v in self.subspace.basis],
                           self.dom)
        return rank_of_rows(rows, n2, self.dom)

    def projection_space(self, slot):
        n2 = self.ambient_dim ** 2
        rows = [v[slot * n2:(slot + 1) * n2] for v in self.subspace.basis]
        return OperatorSpace(self.ambient_dim, Subspace(rows, n2, self.dom),
                             f"{self.tag}-proj{slot}")

    def __repr__(self):
        return (f"TupleOperatorSpace({self.tag}, dim={self.dim}, "
                f"tuples of {self.tuple_len})")


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
    rows = law_rows(A, terms, _variables(m), {"<D>": (n, _map_columns(n))})
    tag = "der" if delta == dom.one() else f"delta-der({delta})"
    return OperatorSpace(n, kernel(rows, n * n, dom), tag)


def centroid(A, op=None):
    """Maps commuting with the multiplication in every slot."""
    opn = op or A.op_names()[0]
    m = A.op(opn).arity
    n = A.dim
    rows = []
    for s in range(m):
        terms = [(1, ("<D>", (_product(opn, m),))), (-1, _product(opn, m, s))]
        # slot s's variable first, so that the others form one run of
        # variables the law may be (anti)symmetric in
        variables = (f"x{s}",) + tuple(v for v in _variables(m) if v != f"x{s}")
        rows += law_rows(A, terms, variables, {"<D>": (n, _map_columns(n))})
    return OperatorSpace(n, kernel(rows, n * n, A.dom), "centroid")


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
    rows = law_rows(A, terms, _variables(m), unknowns)
    tag = f"{m + 1}-ary-der" if mode == "full" else "qder"
    ker, pivot_rows = kernel_and_rows(rows, nslots * n2, dom)
    space = TupleOperatorSpace(n, nslots, ker, tag)

    der, cen = _trivial_parts(A, pivot_rows, mode, op)
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
    # the space is exactly the kernel of rows, and of the rows that gave
    # its pivots, which span theirs
    contained = kernel_contains(pivot_rows, trivial.basis, dom)
    space.meta.update({
        "trivial_dim": trivial.dim,
        "trivial_contained": contained,
        "quotient_dim": space.dim - trivial.dim,
        "projection_dims": [space.projection_dim(s) for s in range(nslots)],
    })
    if mode == "quasi":
        space.meta["QDer_KS_dim"], space.meta["QDer_LL_dim"] = space.meta["projection_dims"]
    if mode == "full" and space.dim <= 40:
        # the semisimple part lives in the derived subalgebra of the tuple
        # Lie algebra; its slot projections carry the sl_{n+1} copies
        comms = _tuple_commutators(space)
        derived = _derived_dim(space, comms)
        space.meta["derived_dim"] = derived
        # a projection does not raise the rank
        space.meta["derived_projection_dims"] = [
            rank_of_rows([{j - s * n2: c for j, c in row.items() if s * n2 <= j < (s + 1) * n2}
                          for row in comms], n2, dom, bound=derived)
            for s in range(nslots)]
    return space


def _trivial_parts(A, rows, mode, op=None):
    """(Der, centroid) of A, read off rows whose kernel is the space of
    generalized derivations (Leger & Luks, J. Algebra 228, 2000: both embed
    in it).  D is a derivation when (D, .., D) lies in the space, and phi
    is in the centroid when every (0, .., phi at slot s, .., 0, phi) does,
    so Der is the kernel of the rows with all slot blocks folded together,
    and the centroid the one kernel of the rows with block s folded with
    the last, for each slot s.  In quasi mode the centroid is ``centroid``
    itself."""
    n, dom = A.dim, A.dom
    n2, m = n * n, A.op(op).arity
    der = kernel([_fold(row, n2, range(m + 1)) for row in rows], n2, dom)
    if mode != "full":
        return OperatorSpace(n, der, "der"), centroid(A, op=op)
    cen = kernel([_fold(row, n2, (s, m)) for s in range(m) for row in rows], n2, dom)
    return OperatorSpace(n, der, "der"), OperatorSpace(n, cen, "centroid")


def _fold(row, n2, slots):
    """A sparse row over tuples of n x n matrices as a row over one matrix:
    the entries of the slot blocks in ``slots`` added together."""
    out = {}
    for j, c in row.items():
        if j // n2 in slots:
            out[j % n2] = out.get(j % n2, 0) + c
    return out


def _derived_dim(space, comms):
    """The dimension of the span of the commutators ``comms`` of the basis
    tuples of the (m+1)-ary derivations L, from their entries at the pivot
    columns of L's canonical basis: dim L columns instead of (m+1)n^2.

    [D, E] lies in L.  A tuple D = (D_0, .., D_m) is in L when D_m mu(x) =
    sum_i mu(.., D_i x_i, ..) for all x = (x_0, .., x_{m-1}) (slot i of the
    product carries D_i).  Applying this to E_m mu(x) = sum_i mu(.., E_i
    x_i, ..) gives D_m E_m mu(x) = sum_i mu(.., D_i E_i x_i, ..) plus the
    cross terms sum_{i != j} mu(.., E_i x_i, .., D_j x_j, ..), which are
    symmetric in D and E; so they cancel in D_m E_m mu - E_m D_m mu =
    sum_i mu(.., [D_i, E_i] x_i, ..), and [D, E] is in L (Leger & Luks,
    J. Algebra 228, 2000).  A vector of L is the combination of the
    canonical basis with its own entries at the pivot columns as weights,
    so restricting L to those columns is injective, and the rank of the
    commutators there is the rank of the commutators.
    """
    pivots = {}
    for v in space.subspace.basis:
        pivots[next(j for j, x in enumerate(v) if not space.dom.is_zero(x))] = len(pivots)
    return rank_of_rows([{pivots[j]: c for j, c in row.items() if j in pivots} for row in comms],
                        space.dim, space.dom)


def _tuple_commutators(space):
    """The slotwise commutators of every pair of basis tuples, which span
    the derived subalgebra, as sparse rows in ``linear_conditions`` form."""
    n = space.ambient_dim
    mats = []   # per basis tuple: {slot * n + row: {column: entry}}
    for vec in sparse_rows(space.subspace.basis, space.dom):
        mat = {}
        for j, c in vec.items():
            mat.setdefault(j // n, {})[j % n] = c
        mats.append(mat)
    out = []
    for i, a in enumerate(mats):
        for b in mats[i + 1:]:
            comm = {}
            for x, y, sign in ((a, b, 1), (b, a, -1)):
                for r, xrow in x.items():
                    slot = r - r % n
                    for k, u in xrow.items():
                        for c, v in y.get(slot + k, {}).items():
                            comm[r * n + c] = comm.get(r * n + c, 0) + sign * u * v
            out.append({j: c for j, c in comm.items() if c})
    return out


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


def _member_at_point(der_mats, phi, x, dom):
    """Whether phi x lies in span{D_i x}."""
    images = Subspace([mat_vec(D, x, dom) for D in der_mats], len(x), dom)
    return images.contains_vector(mat_vec(phi, x, dom))


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


def local_derivation_generic_space(A, op=None, der=None):
    """The space {phi : phi(x) in span_{Q(x)} {D_i x}} of constant matrices.

    Computed exactly: ``linalg.generic_rank`` certifies the rank r of
    S_x = [D_1 x | ... | D_r x] over Q(x) and returns a polynomial basis of
    the left kernel of S_x; membership then reduces to the linear
    conditions w(x)^T phi x = 0.
    """
    if A.dom is not QQ:
        raise DomainError("generic local-derivation space requires Q")
    n = A.dim
    der = der or derivation_space(A, delta=1, op=op)
    der_mats = der.matrices()
    if not der_mats:
        # no derivations: phi must satisfy phi x = 0 generically, so phi = 0
        return OperatorSpace(n, Subspace([], n * n), "locder-generic",
                             meta={"generic_rank": 0, "certified": True})
    # S_x = sum_j x_j N_j with N_j[i][c] = D_c[i][j]
    S = linear_pencil([[[D[i][j] for D in der_mats] for i in range(n)] for j in range(n)])
    r, _, left = generic_rank(S, seeded_points(SAMPLE_SEED + 1, n, 9))
    # membership conditions: w(x)^T (phi x) = 0 identically
    x = list(map(PolyRing(n).var_key, range(n)))   # the keys of the x_j
    rows = {}
    for wi, w in enumerate(left):
        for i in range(n):
            for j in range(n):
                # contribution of phi_{i,j} x_j to w(x)^T phi x
                for e, c in w[i].terms.items():
                    row = rows.setdefault((wi, e + x[j]), {})
                    unk = i * n + j
                    row[unk] = row.get(unk, Fraction(0)) + c
    return OperatorSpace(n, kernel(list(rows.values()), n * n), "locder-generic",
                         meta={"generic_rank": r,
                               "kernel_degrees": [max(p.degree() for p in w) for w in left],
                               "certified": True,
                               "seed": SAMPLE_SEED + 1})


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


def leibniz_derivation_space(A, k, arrangement="all", op=None):
    """f-Leibniz derivations of order k for the chosen arrangement(s).

    "all" intersects over every full bracketing of length k (Catalan many).
    The report says whether the space contains an invertible element, decided
    by the certified generic rank of a generic combination (``generic_rank``).
    """
    if k < 2:
        raise DomainError("order must be >= 2")
    if k > MAX_LEIBNIZ_ORDER:
        raise DomainError(f"order {k} exceeds the resource bound {MAX_LEIBNIZ_ORDER}")
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
        rows += law_rows(A, terms, _variables(k), {"<D>": (n, _map_columns(n))})
    space = OperatorSpace(n, kernel(rows, n * n, A.dom), f"leibder({k},{arrangement})")
    space.meta["invertible_exists"], space.meta["invertible_witness"] = \
        _generic_invertibility(space)
    return space


def _generic_invertibility(space):
    """(whether the space holds an invertible map, the first point c of the
    seeded stream where sum_k c_k M_k is invertible): the generic
    combination has full rank over Q(x), certified by ``generic_rank``."""
    mats = space.matrices()
    if not mats:
        return False, None
    _, point, left = generic_rank(linear_pencil(mats),
                                  seeded_points(SAMPLE_SEED + 2, len(mats), 5),
                                  full_only=True)
    return (False, None) if left else (True, point)


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
    rows = law_rows(minus_algebra(A, op), terms, _variables(2), {"<D>": (n, _map_columns(n))})
    return OperatorSpace(n, kernel(rows, n * n, dom), "commuting")


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
            comps[(i_lab, j_lab)] = kernel(sparse_rows(rows, dom), n, dom)
    total = sum(s.dim for s in comps.values())
    if total != n:
        raise DomainError("Peirce components do not span the algebra")
    return comps
