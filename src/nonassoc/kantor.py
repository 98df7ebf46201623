"""Kantor products, the conservative algebra U(n), quasi-units.

The (left) Kantor product of two multiplications A, B relative to a fixed
vector u is  [[A,B]](x,y) = A(u, B(x,y)) - B(A(u,x), y) - B(x, A(u,y)).
U(n) is the space of all bilinear multiplications on an n-dimensional
space, made into an algebra by the Kantor product itself.
"""

from __future__ import annotations

from fractions import Fraction

from .identities import Identity, law_table, linear_conditions
from .linalg import Subspace, inverse, kernel, solve
from .scalars import QQ, DomainError
from .structure import Algebra, StructureTensor, change_basis, linear_map, multiplication_operator


def _kantor_terms(b):
    """[[A,B]](x,y) = L(B(x,y)) - B(Lx, y) - B(x, Ly) with the unary map
    L = A(u, .) and B the operation symbol ``b``."""
    x, y = ("v", "x"), ("v", "y")
    return [(1, ("L", ((b, (x, y)),))), (-1, (b, (("L", (x,)), y))),
            (-1, (b, (x, ("L", (y,)))))]


_KANTOR_LAW = Identity(_kantor_terms("B"), {"B": 2, "L": 1})


def kantor_product(A, B, u):
    """Structure tensor of [[A,B]] w.r.t. u.

    A, B are binary StructureTensors on a common space; u is a dense vector
    or a basis index.
    """
    if A.arity != 2 or B.arity != 2:
        raise DomainError("Kantor product needs binary multiplications")
    if A.dim != B.dim:
        raise DomainError("dimension mismatch")
    if A.dom != B.dom:
        raise DomainError("domain mismatch")
    dom = A.dom
    n = A.dim
    if isinstance(u, int):
        if not 0 <= u < n:
            raise DomainError(f"u = {u} is not a basis index of a {n}-dimensional space")
    elif len(u) != n:
        raise DomainError(f"u has {len(u)} coordinates, the space has dimension {n}")
    elif all(dom.is_zero(dom.coerce(c)) for c in u):
        raise DomainError("u must be nonzero")
    law = Algebra("kantor", n, {"B": B, "L": _left_map(A, u)}, dom)
    return StructureTensor(n, 2, law_table(law, _KANTOR_LAW, {"B": "B", "L": "L"}), dom)


def kantor_square(A, u):
    return kantor_product(A, A, u)


def alpha_index(i, j, k, n):
    """Basis position of alpha_{i,j}^k in U(n) (i, j, k are 1-based)."""
    return ((i - 1) * n + (j - 1)) * n + (k - 1)


def _left_map(A, u):
    """L = A(u, .) as an arity-1 operation; A is a binary StructureTensor, u
    a basis index or a vector."""
    M = multiplication_operator(Algebra("A", A.dim, {"A": A}, A.dom), (u,), "A", slot=1)
    return linear_map(M, A.dom)


def _kantor_rows(A, u):
    """[[A,B]] w.r.t. u as exact rows linear in B: {((x, y), r): {b: c}},
    [[A,B]](e_x, e_y)_r being the sum of c times B's U(n)-coordinate b
    (``alpha_index``).  A is a binary StructureTensor, u a basis index or
    a vector."""
    n = A.dim
    unknown = (n, lambda r, x, y: alpha_index(x + 1, y + 1, r + 1, n))
    return linear_conditions(Algebra("L", n, {"L": _left_map(A, u)}, A.dom), _kantor_terms("<B>"),
                             ("x", "y"), {"<B>": unknown})


def build_U(n, u_index=0):
    """The conservative algebra U(n) of all multiplications on V_n.

    Basis alpha_{i,j}^k ordered by (i,j,k); the product of two basis
    multiplications is their Kantor product w.r.t. u = v_{u_index}.

    The Kantor product [[A,B]] is linear in B, so one ``linear_conditions``
    call in the unknown B (``_kantor_rows``) gives the product of A with
    every basis multiplication: n^2 row builds for the whole table instead
    of n^6 law tables.  Only the left factors alpha_{i,j}^k with i = u
    need one: alpha_{i,j}^k(u, .) is zero for i != u, so L = A(u, .) and
    every product with such a left factor vanish.
    """
    if n < 1:
        raise DomainError("n must be positive")
    if not 0 <= u_index < n:
        raise DomainError("invalid u_index")
    table = {}
    for j in range(n):
        for k in range(n):
            alpha = StructureTensor(n, 2, {(u_index, j): {k: Fraction(1)}}, QQ)
            products = {}
            for ((x, y), r), row in _kantor_rows(alpha, u_index).items():
                for b, c in row.items():
                    products.setdefault(b, {})[alpha_index(x + 1, y + 1, r + 1, n)] = c
            a = alpha_index(u_index + 1, j + 1, k + 1, n)
            table.update(((a, b), products[b]) for b in sorted(products))
    A = Algebra(f"U({n})", n ** 3, {"mul": StructureTensor(n ** 3, 2, table, QQ)}, QQ)
    A.meta_u_index = u_index
    return A


# the printed change of basis for U(2); columns are e_1..e_8 in alpha-coordinates
def _u2_e_matrix():
    n = 2
    cols = []
    A = lambda i, j, k: alpha_index(i, j, k, n)
    defs = [
        {A(1, 1, 1): 1, A(1, 2, 2): -1, A(2, 1, 2): -1},   # e1
        {A(1, 1, 2): 1},                                   # e2
        {A(2, 2, 2): 1, A(1, 2, 1): -1, A(2, 1, 1): -1},   # e3
        {A(2, 2, 1): 1},                                   # e4
        {A(1, 1, 1): 2, A(1, 2, 2): 1, A(2, 1, 2): 1},     # e5
        {A(2, 2, 2): 2, A(1, 2, 1): 1, A(2, 1, 1): 1},     # e6
        {A(1, 2, 1): 1, A(2, 1, 1): -1},                   # e7
        {A(1, 2, 2): 1, A(2, 1, 2): -1},                   # e8
    ]
    for d in defs:
        col = [Fraction(0)] * 8
        for idx, c in d.items():
            col[idx] = Fraction(c)
        cols.append(col)
    return [[cols[j][i] for j in range(8)] for i in range(8)]


# the published 8x8 table of U(2) in the e-basis; rows multiply columns
U2_E_TABLE = {
    (1, 1): {1: -1}, (1, 2): {2: -3}, (1, 3): {3: 1}, (1, 4): {4: 3},
    (1, 5): {5: -1}, (1, 6): {6: 1}, (1, 7): {7: 1}, (1, 8): {8: -1},
    (2, 1): {2: 3}, (2, 3): {1: 2}, (2, 4): {3: 1}, (2, 6): {5: -1},
    (2, 7): {8: 1},
    (3, 1): {3: -2}, (3, 2): {1: -1}, (3, 3): {4: -3}, (3, 5): {6: 1},
    (3, 8): {7: -1},
    (5, 1): {1: -2}, (5, 2): {2: -3}, (5, 3): {3: -1}, (5, 5): {5: -2},
    (5, 6): {6: -1}, (5, 7): {7: -1}, (5, 8): {8: -2},
    (6, 1): {3: 2}, (6, 2): {1: 1}, (6, 3): {4: 3}, (6, 5): {6: -1},
    (6, 8): {7: 1},
    (7, 1): {3: 2}, (7, 2): {1: 1}, (7, 3): {4: 3}, (7, 5): {6: -1},
    (7, 8): {7: 1},
    (8, 2): {2: 1}, (8, 3): {3: -1}, (8, 4): {4: -2}, (8, 6): {6: -1},
    (8, 7): {7: -1},
}


def _u2_printed_tensor():
    table = {}
    for (i, j), row in U2_E_TABLE.items():
        table[(i - 1, j - 1)] = {k - 1: Fraction(c) for k, c in row.items()}
    return StructureTensor(8, 2, table, QQ)


def u2_e_basis():
    """U(2) in the published e-basis; must reproduce the printed table.

    The designated vector u is not fixed by the construction, so v_1 is
    tried first and v_2 second; the matching choice is recorded on the
    returned algebra as ``meta_u_index``.
    """
    E = _u2_e_matrix()
    Einv = inverse(E, QQ)
    printed = _u2_printed_tensor()
    for u_index in (0, 1):
        A = build_U(2, u_index)
        B = change_basis(A, Einv)
        if B.op("mul") == printed:
            B.name = "U2e"
            B.meta_u_index = u_index
            return B
    raise DomainError("no choice of u reproduces the printed U(2) table")


def u2_subalgebra(which):
    """W2 = span{e1..e6} or S2 = span{e1..e4} of U(2) in the e-basis."""
    A = u2_e_basis()
    if which == "W2":
        keep = range(6)
    elif which == "S2":
        keep = range(4)
    else:
        raise DomainError("which must be 'W2' or 'S2'")
    keep = list(keep)
    t = A.op("mul")
    table = {}
    for i in keep:
        for j in keep:
            row = t.basis_product((i, j))
            if any(k not in keep for k in row):
                raise DomainError(f"{which} is not closed under the product")
            if row:
                table[(keep.index(i), keep.index(j))] = dict(row)
    return Algebra(which, len(keep),
                   {"mul": StructureTensor(len(keep), 2, table, QQ)}, QQ)


# ---------------------------------------------------------------------------
# conservativity
# ---------------------------------------------------------------------------

class ConservativityReport:
    def __init__(self, feasible, particular, homogeneous, terminal):
        self.feasible = feasible
        self.particular = particular          # StructureTensor or None
        self.homogeneous = homogeneous        # Subspace of admissible values
        self.terminal = terminal
        self.quasi_unit = None                # a solution of K e = -vec(M), or None

    def __repr__(self):
        return (f"ConservativityReport(feasible={self.feasible}, "
                f"terminal={self.terminal})")


def _bracket_terms(opn, c, u, v):
    """[L_c, M](u, v) = c(uv) - (cu)v - u(cv) as (coefficient, term) pairs."""
    return [(1, (opn, (c, (opn, (u, v))))), (-1, (opn, ((opn, (c, u)), v))),
            (-1, (opn, (u, (opn, (c, v)))))]


def _k_rows(A, op=None):
    """Kantor's operator K: c -> [L_c, M] as exact sparse rows
    {((x, y), r): {k: [L_{e_k}, M](e_x, e_y)_r}}."""
    opn = op or A.op_names()[0]
    terms = _bracket_terms(opn, ("<c>", ()), ("v", "x"), ("v", "y"))
    return linear_conditions(A, terms, ("x", "y"), {"<c>": (A.dim, lambda r: r)})


def _double_brackets(A, op=None):
    """-[L_a,[L_b,M]] for every basis pair (a, b), as the right-hand side
    {((x, y), r): value} of K s = -[L_a,[L_b,M]].

    The value is linear in a: [L_a, N](x,y) = a N(x,y) - N(ax, y) - N(x, ay)
    for N = [L_b, M], so one system in the unknown a gives every pair.
    """
    opn = op or A.op_names()[0]
    n = A.dim
    a, b, x, y = ("<a>", ()), ("v", "b"), ("v", "x"), ("v", "y")
    terms = [(-c, (opn, (a, t))) for c, t in _bracket_terms(opn, b, x, y)]
    terms += [(c, t) for c, t in _bracket_terms(opn, b, (opn, (a, x)), y)
              + _bracket_terms(opn, b, x, (opn, (a, y)))]
    rows = linear_conditions(A, terms, ("b", "x", "y"), {"<a>": (n, lambda r: r)})
    rhs = {(i, j): {} for i in range(n) for j in range(n)}
    for ((j, xi, yi), r), row in rows.items():
        for i, v in row.items():
            rhs[(i, j)][((xi, yi), r)] = v
    return rhs


def _conservativity(A, op=None):
    """(null(K), {(a, b): particular solution of K s = -[L_a,[L_b,M]], or
    None}, a quasi-unit or None), with K built once and factorised once by
    ``linalg.solve`` for all pairs and for K e = -vec(M)."""
    K = _k_rows(A, op)
    rhs = _double_brackets(A, op)
    *answers, unit = solve(K, [*rhs.values(), _quasi_target(A, op)], A.dim, A.dom)
    return kernel(list(K.values()), A.dim, A.dom), dict(zip(rhs, answers)), unit


def conservativity_test(A, op=None):
    """Linear feasibility of [L_a,[L_b,.]] = -[L_{a*b},.] in the unknown *.

    The system decouples: for each basis pair (a,b) the unknown vector a*b
    solves K s = -[L_a,[L_b,M]], with the same coefficient matrix K.  The
    affine solution space is a particular * plus any bilinear map into
    null(K).  terminal reports whether * = 2/3 xy + 1/3 yx works, in the
    pairing [L_a,[L_b,.]] = -[L_{M*(b,a)},.]: the orientation under which
    the published terminal algebras W2 and S2 (and the printed degree-4
    terminal identity) come out terminal.  That product is undefined in
    characteristic 3, where the test is refused before any system is built.
    ``quasi_unit`` is the particular quasi-unit of ``quasi_unit_space``,
    from the same K: when it is not None, the quasi-unit space is
    ``homogeneous``.
    """
    t = A.op(op)
    if t.arity != 2:
        raise DomainError("conservativity needs a binary operation")
    dom = A.dom
    if dom.char == 3:
        raise DomainError("the terminal test's product 2/3 xy + 1/3 yx is undefined "
                          "in characteristic 3")
    n = A.dim
    null, answers, unit = _conservativity(A, op)
    particular = None
    if None not in answers.values():
        particular = StructureTensor(n, 2, {ab: dict(enumerate(s)) for ab, s in answers.items()},
                                     dom)
    swapped = StructureTensor(n, 2, {(j, i): row for (i, j), row in t.table.items()}, dom)
    star = t.scale(Fraction(2, 3)).add(swapped.scale(Fraction(1, 3)))
    rep = ConservativityReport(particular is not None, particular, null,
                               _solves_conservativity(A, null, answers, star))
    rep.quasi_unit = unit
    return rep


def associated_product_check(A, star, op=None):
    """Verify a printed associated product against the defining equation.

    Calibrated on the published examples (M* on the terminal algebras W2/S2,
    and -B(u, A(x,y)) on U(2)): the products as printed satisfy
    [L_a,[L_b,M]] = -[L_{star(b,a)},M].
    """
    return _solves_conservativity(A, *_conservativity(A, op)[:2], star)


def _solves_conservativity(A, null, answers, star):
    """Whether star(b, a) solves K s = -[L_a,[L_b,M]] for every basis pair
    (a, b): each system is consistent and star(b, a) differs from its
    particular solution by an element of null(K)."""
    dom = A.dom
    for (a, b), x in answers.items():
        if x is None:
            return False
        s = star.basis_product((b, a))
        if not null.contains_vector([s.get(k, dom.zero()) - c for k, c in enumerate(x)]):
            return False
    return True


# ---------------------------------------------------------------------------
# quasi-units and Jacobi elements (even case)
# ---------------------------------------------------------------------------

def _quasi_target(A, op=None):
    """-vec(M) in the keys of ``_k_rows``: e is a quasi-unit iff [L_e, M] =
    -M, i.e. K e = -vec(M)."""
    return {((x, y), r): -c for (x, y), row in A.op(op).table.items() for r, c in row.items()}


def quasi_unit_space(A, op=None):
    """Solutions of e(xy) = (ex)y + x(ey) - xy, linear in e: (the space of
    differences, a particular quasi-unit), or (the zero space, None)."""
    if A.op(op).arity != 2:
        raise DomainError("quasi-units need a binary operation")
    dom = A.dom
    n = A.dim
    K = _k_rows(A, op)
    sol = solve(K, [_quasi_target(A, op)], n, dom)[0]
    if sol is None:
        return Subspace([], n, dom), None
    return kernel(list(K.values()), n, dom), sol


def jacobi_element_space(A, op=None):
    """Elements with a(xy) = (ax)y + x(ay): the kernel of c -> [L_c, M]."""
    t = A.op(op)
    if t.arity != 2:
        raise DomainError("Jacobi elements need a binary operation")
    return kernel(list(_k_rows(A, op).values()), A.dim, A.dom)
