import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import kantor
from nonassoc.catalog import catalog_get
from nonassoc.identities import Identity, eval_identity_sparse, linear_conditions
from nonassoc.kantor import (U2_E_TABLE, alpha_index, associated_product_check, build_U,
                             conservativity_test, jacobi_element_space,
                             kantor_product, kantor_square, quasi_unit_space,
                             u2_e_basis, u2_subalgebra)
from nonassoc.linalg import Subspace, is_invertible, mat_vec, nullspace
from nonassoc.scalars import GF, QQ, DomainError
from nonassoc.structure import Algebra, StructureTensor, change_basis
from nonassoc.varieties import check_variety
from test_linalg import _dense_solve  # the dense reference solve


def _tensor_from_vector(vec, n, dom):
    """A vector in U(n)-coordinates as a multiplication on V_n."""
    table = {}
    for i in range(n):
        for j in range(n):
            row = {}
            for k in range(n):
                c = vec[alpha_index(i + 1, j + 1, k + 1, n)]
                if not dom.is_zero(c):
                    row[k] = c
            if row:
                table[(i, j)] = row
    return StructureTensor(n, 2, table, dom)


def _vector_from_tensor(t, n, dom):
    """A multiplication on V_n as a vector in U(n)-coordinates."""
    vec = [dom.zero()] * n ** 3
    for (i, j), row in t.table.items():
        for k, c in row.items():
            vec[alpha_index(i + 1, j + 1, k + 1, n)] = c
    return vec


def test_u2_matches_printed_table():
    A = u2_e_basis()
    t = A.op("mul")
    assert A.meta_u_index == 0  # u = v_1 reproduces the published table
    for i in range(1, 9):
        for j in range(1, 9):
            want = {k - 1: Fraction(c)
                    for k, c in U2_E_TABLE.get((i, j), {}).items()}
            assert t.basis_product((i - 1, j - 1)) == want, (i, j)


def test_unital_kantor_square_is_negated_product():
    # for unital commutative associative A and u = 1: [[A,A]](x,y) = -xy
    A = catalog_get("abelian", {"n": 2})
    table = {(i, j): {} for i in range(2) for j in range(2)}
    # build Q[x]/(x^2): e0 = 1, e1 = x
    t = StructureTensor(2, 2, {(0, 0): {0: 1}, (0, 1): {1: 1},
                               (1, 0): {1: 1}}, QQ)
    sq = kantor_square(t, 0)
    for i in range(2):
        for j in range(2):
            got = sq.basis_product((i, j))
            want = {k: -c for k, c in t.basis_product((i, j)).items()}
            assert got == want


def test_kantor_multilinearity():
    rng = random.Random(12)
    n = 3

    def rnd_tensor():
        table = {}
        for i in range(n):
            for j in range(n):
                row = {k: Fraction(rng.randint(-2, 2)) for k in range(n)}
                row = {k: c for k, c in row.items() if c}
                if row:
                    table[(i, j)] = row
        return StructureTensor(n, 2, table, QQ)

    for _ in range(5):
        A1, A2, B = rnd_tensor(), rnd_tensor(), rnd_tensor()
        u = [Fraction(rng.randint(-2, 2)) for _ in range(n)]
        if all(c == 0 for c in u):
            u[0] = Fraction(1)
        left = kantor_product(A1.add(A2), B, u)
        right = kantor_product(A1, B, u).add(kantor_product(A2, B, u))
        assert left == right
        left = kantor_product(B, A1.add(A2), u)
        right = kantor_product(B, A1, u).add(kantor_product(B, A2, u))
        assert left == right
        c = Fraction(rng.randint(1, 3))
        assert kantor_product(A1.scale(c), B, u) == kantor_product(A1, B, u).scale(c)
        cu = [c * x for x in u]
        assert kantor_product(A1, B, cu) == kantor_product(A1, B, u).scale(c)


def test_kantor_product_rejects_a_u_outside_the_space():
    """An index u outside 0..n-1, or a vector u of the wrong length, is an
    input error (it used to give an empty table or drop coordinates)."""
    t = catalog_get("sl2").op("mul")
    for u in (3, 7, -1, [1, 0], [1, 0, 0, 0], [0, 0, 0, 1]):
        with pytest.raises(DomainError):
            kantor_product(t, t, u)
    assert kantor_product(t, t, [0, 0, 1]) == kantor_product(t, t, 2)


# [[A,B]](x,y) = A(u, B(x,y)) - B(A(u,x), y) - B(x, A(u,y)) with u a variable
_PAIR_LAW = Identity(
    [(1, ("A", (("v", "u"), ("B", (("v", "x"), ("v", "y")))))),
     (-1, ("B", (("A", (("v", "u"), ("v", "x"))), ("v", "y")))),
     (-1, ("B", (("v", "x"), ("A", (("v", "u"), ("v", "y"))))))],
    {"A": 2, "B": 2})


def _eval_kantor_product(A, B, u):
    """kantor_product before law tables: eval_identity_sparse on the pair
    law with u bound to its vector, once per basis pair."""
    dom = A.dom
    n = A.dim
    one = dom.one()
    uv = {u: one} if isinstance(u, int) else {
        i: dom.coerce(c) for i, c in enumerate(u) if not dom.is_zero(dom.coerce(c))}
    pair = Algebra("kantor", n, {"A": A, "B": B}, dom)
    table = {}
    for i, j in itertools.product(range(n), repeat=2):
        val = eval_identity_sparse(pair, _PAIR_LAW, {"u": uv, "x": {i: one}, "y": {j: one}},
                                   {"A": "A", "B": "B"})
        if val:
            table[(i, j)] = val
    return StructureTensor(n, 2, table, dom)


def test_kantor_product_matches_the_pair_law_on_octonion_squares():
    """Every basis u and two dense u (one with denominators)."""
    o = catalog_get("octonions").op("mul")
    for u in list(range(8)) + [[1, 2, 0, 0, 0, 0, 0, -1], [Fraction(1, 2)] * 8]:
        got = kantor_product(o, o, u)
        assert got.table == _eval_kantor_product(o, o, u).table
        assert all(type(c) is Fraction for row in got.table.values() for c in row.values())


@pytest.mark.parametrize("n", [2, 3])
def test_kantor_product_matches_the_pair_law_on_U(n):
    """U(n) built from the basis multiplications against the reference
    product, and Kantor squares of U(n) itself over Q and over GF(5)."""
    U = build_U(n)
    basis = [StructureTensor(n, 2, {(i, j): {k: Fraction(1)}}, QQ)
             for i in range(n) for j in range(n) for k in range(n)]
    table = {}
    for a, b in itertools.product(range(n ** 3), repeat=2):
        for (i, j), row in _eval_kantor_product(basis[a], basis[b], 0).table.items():
            for k, c in row.items():
                table.setdefault((a, b), {})[kantor.alpha_index(i + 1, j + 1, k + 1, n)] = c
    assert U.op().table == table
    t = U.op()
    gf = t.map_domain(GF(5), GF(5).coerce)
    for u in range(U.dim) if n == 2 else (0, 13, [1, 0, 2] + [0] * 23 + [4]):
        for s in (t, gf):
            assert kantor_product(s, s, u).table == _eval_kantor_product(s, s, u).table


def test_kantor_naturality_under_change_basis():
    """g . [[A,B]]_u = [[g.A, g.B]]_{gu} for invertible g."""
    rng = random.Random(13)
    base = catalog_get("NF", {"n": 3})
    A = base.op("mul")
    B = catalog_get("zinbiel-free1", {"n": 3}).op("mul")
    for _ in range(5):
        while True:
            P = [[Fraction(rng.randint(-2, 2)) for _ in range(3)]
                 for _ in range(3)]
            if is_invertible(P):
                break
        u = [Fraction(rng.randint(-2, 2)) for _ in range(3)]
        if all(c == 0 for c in u):
            u[1] = Fraction(1)
        wrapped = Algebra("w", 3, {"a": A, "b": B,
                                   "k": kantor_product(A, B, u)}, QQ)
        moved = change_basis(wrapped, P)
        gu = mat_vec(P, u, QQ)
        direct = kantor_product(moved.op("a"), moved.op("b"), gu)
        assert direct == moved.op("k")


def test_w2_s2_terminal():
    W2 = u2_subalgebra("W2")
    S2 = u2_subalgebra("S2")
    assert W2.dim == 6 and S2.dim == 4
    repw = check_variety(W2, "terminal")
    reps = check_variety(S2, "terminal")
    assert repw["holds"] and repw["conservativity_terminal"]
    assert reps["holds"] and reps["conservativity_terminal"]


def test_u2_idempotent_families():
    """The published idempotent families square to themselves; this holds
    for every rational choice of the parameters, not only c = d = 0."""
    A = u2_e_basis()
    t = A.op("mul")

    def lin(*pairs):
        v = [Fraction(0)] * 8
        for c, k in pairs:
            v[k - 1] += Fraction(c)
        return v

    for c in (0, 1, -2, Fraction(1, 3)):
        for d in (0, 2, Fraction(-1, 2)):
            candidates = [
                # e8 + e2 - e1 + c (3 e8 + e5 - 2 e1)
                lin((1, 8), (1, 2), (-1, 1), (3 * c, 8), (c, 5), (-2 * c, 1)),
                # -e1 + c (e5 - 2 e1) + d e8
                lin((-1, 1), (c, 5), (-2 * c, 1), (d, 8)),
                # -e1 - 2 e8 + 4 e3 + e6 + 3 e7 + c (3 e8 - e5 + 2 e1) + d e4
                lin((-1, 1), (-2, 8), (4, 3), (1, 6), (3, 7),
                    (3 * c, 8), (-c, 5), (2 * c, 1), (d, 4)),
                # -e1 - 2 e8 + c (3 e8 - e5 + 2 e1) + d e4
                lin((-1, 1), (-2, 8), (3 * c, 8), (-c, 5), (2 * c, 1), (d, 4)),
            ]
            for x in candidates:
                assert t.apply([x, x]) == x


def test_octonion_kantor_alternative_characterization():
    """The Kantor square over u is alternative exactly when the nested
    associator law (x, u, (x, u, y)) = 0 holds (checked in its polarized
    multilinear form)."""
    o = catalog_get("octonions")
    t = o.op("mul")

    def assoc_sp(a, b, c):
        left = t.apply_sparse([t.apply_sparse([a, b]), c])
        right = t.apply_sparse([a, t.apply_sparse([b, c])])
        out = dict(left)
        for k, v in right.items():
            out[k] = out.get(k, Fraction(0)) - v
        return {k: v for k, v in out.items() if v}

    def law_holds(u_idx):
        su = {u_idx: Fraction(1)}
        for x1 in range(8):
            for x2 in range(8):
                for y in range(8):
                    e1, e2, ey = ({x1: Fraction(1)}, {x2: Fraction(1)},
                                  {y: Fraction(1)})
                    tot = dict(assoc_sp(e1, su, assoc_sp(e2, su, ey)))
                    for k, v in assoc_sp(e2, su, assoc_sp(e1, su, ey)).items():
                        tot[k] = tot.get(k, Fraction(0)) + v
                    if any(v for v in tot.values()):
                        return False
        return True

    for u in (0, 1, 4):
        sq = Algebra("s", 8, {"mul": kantor_square(t, u)}, QQ)
        assert law_holds(u) == check_variety(sq, "alternative")["holds"]


def test_u2_conservative_with_published_associated_product():
    A = build_U(2, 0)
    rep = conservativity_test(A)
    assert rep.feasible
    # the published associated multiplication: (A * B)(x,y) = -B(u, A(x,y))
    n = 2
    basis_tensors = []
    for a in range(8):
        vec = [Fraction(0)] * 8
        vec[a] = Fraction(1)
        basis_tensors.append(_tensor_from_vector(vec, n, QQ))
    table = {}
    for a in range(8):
        for b in range(8):
            TA, TB = basis_tensors[a], basis_tensors[b]
            out = {}
            for i in range(n):
                for j in range(n):
                    inner = TA.basis_product((i, j))
                    val = TB.apply_sparse([{0: Fraction(1)}, inner])
                    for k, c in val.items():
                        if c:
                            out[(i, j, k)] = -c
            vec = [Fraction(0)] * 8
            for (i, j, k), c in out.items():
                vec[alpha_index(i + 1, j + 1, k + 1, n)] = c
            row = {k: c for k, c in enumerate(vec) if c}
            if row:
                table[(a, b)] = row
    star = StructureTensor(8, 2, table, QQ)
    assert associated_product_check(A, star)


def test_u2_second_published_associated_product():
    """The other published associated multiplication (the even case of
    A nabla^2 B = 1/3 (A^sigma Delta_u B + B~ Delta_u A) with
    A^sigma(x,y) = A(x,y) + A(y,x) and B~(x,y) = 2B(y,x) - B(x,y))
    satisfies the conservativity equation under the same orientation."""
    A = build_U(2, 0)
    n = 2
    basis = []
    for a in range(8):
        vec = [Fraction(0)] * 8
        vec[a] = Fraction(1)
        basis.append(_tensor_from_vector(vec, n, QQ))

    def sym(T):
        table = {}
        for i in range(n):
            for j in range(n):
                row = {}
                for k, c in T.basis_product((i, j)).items():
                    row[k] = row.get(k, Fraction(0)) + c
                for k, c in T.basis_product((j, i)).items():
                    row[k] = row.get(k, Fraction(0)) + c
                row = {k: c for k, c in row.items() if c}
                if row:
                    table[(i, j)] = row
        return StructureTensor(n, 2, table, QQ)

    def tilde(T):
        table = {}
        for i in range(n):
            for j in range(n):
                row = {}
                for k, c in T.basis_product((j, i)).items():
                    row[k] = row.get(k, Fraction(0)) + 2 * c
                for k, c in T.basis_product((i, j)).items():
                    row[k] = row.get(k, Fraction(0)) - c
                row = {k: c for k, c in row.items() if c}
                if row:
                    table[(i, j)] = row
        return StructureTensor(n, 2, table, QQ)

    table = {}
    for a in range(8):
        for b in range(8):
            total = kantor_product(sym(basis[a]), basis[b], 0).add(
                kantor_product(tilde(basis[b]), basis[a], 0)).scale(
                Fraction(1, 3))
            vec = _vector_from_tensor(total, n, QQ)
            row = {k: c for k, c in enumerate(vec) if c}
            if row:
                table[(a, b)] = row
    star2 = StructureTensor(8, 2, table, QQ)
    assert associated_product_check(A, star2)


def test_lie_algebras_are_conservative():
    assert conservativity_test(catalog_get("sl2")).feasible
    assert conservativity_test(catalog_get("abelian", {"n": 2})).feasible
    assert conservativity_test(catalog_get("heis3")).feasible


def test_nonconservative_2dim_witness():
    """A 2-dimensional algebra with infeasible conservativity system,
    found by randomized search and frozen here."""
    rng = random.Random(20240805)
    found = None
    for _ in range(200):
        table = {}
        for i in range(2):
            for j in range(2):
                row = {k: Fraction(rng.randint(-2, 2)) for k in range(2)}
                row = {k: c for k, c in row.items() if c}
                if row:
                    table[(i, j)] = row
        A = Algebra("cand", 2, {"mul": StructureTensor(2, 2, table, QQ)}, QQ)
        if not conservativity_test(A).feasible:
            found = A
            break
    assert found is not None
    assert not conservativity_test(found).feasible


def test_quasi_units():
    # unital algebra: the unit is a quasi-unit
    q = catalog_get("quaternions")
    kernel, particular = quasi_unit_space(q)
    assert particular is not None
    unit = q.basis_vector(0)
    # the affine space particular + kernel contains the unit
    diff = [a - b for a, b in zip(unit, particular)]
    assert kernel.contains_vector(diff)
    # abelian: every element is a quasi-unit (0 = -0)... the identity reads
    # e(xy) = (ex)y + x(ey) - xy, all terms vanish
    ab = catalog_get("abelian", {"n": 3})
    kernel, particular = quasi_unit_space(ab)
    assert particular == [0, 0, 0] and kernel.dim == 3
    # U(2) has a nonempty quasi-unit space
    kernel, particular = quasi_unit_space(u2_e_basis())
    assert particular is not None


def test_jacobi_elements():
    sl2 = catalog_get("sl2")
    assert jacobi_element_space(sl2).dim == 3
    ab = catalog_get("abelian", {"n": 2})
    assert jacobi_element_space(ab).dim == 2
    nf3 = catalog_get("NF", {"n": 3})
    space = jacobi_element_space(nf3)
    # e0 is not a Jacobi element of NF(3): e0(e0 e0) = 0 but (e0 e0) e0 = e2
    assert not space.contains_vector(nf3.basis_vector(0))


def test_build_u_errors():
    with pytest.raises(DomainError):
        build_U(2, 5)
    with pytest.raises(DomainError):
        build_U(0)


def test_u_structures_for_different_u_are_isomorphic():
    """The GL(V) action phi(A)(x,y) = phi A(phi^-1 x, phi^-1 y) carries
    (U(2), u=v1) to (U(2), u=v2); the induced GL_8 map is the alpha-basis
    permutation alpha_{ij}^k -> alpha_{s(i)s(j)}^{s(k)} for the swap s."""
    from nonassoc.kantor import alpha_index
    A0 = build_U(2, 0)
    A1 = build_U(2, 1)
    swap = {1: 2, 2: 1}
    P = [[Fraction(0)] * 8 for _ in range(8)]
    for i in (1, 2):
        for j in (1, 2):
            for k in (1, 2):
                src = alpha_index(i, j, k, 2)
                dst = alpha_index(swap[i], swap[j], swap[k], 2)
                P[dst][src] = Fraction(1)
    moved = change_basis(A0, P)
    assert moved.op("mul") == A1.op("mul")


# ---------------------------------------------------------------------------
# the sparse conservativity route against the dense route it replaced
# ---------------------------------------------------------------------------

def _dense_kantor(A):
    """Reference: (conservativity report fields, quasi-unit space, Jacobi
    element space) by the dense route: K as an n^2 * n x n matrix, the
    double brackets flattened per basis pair, and one dense solve of K per
    pair (``_dense_solve``, the solve ``linalg.solve`` replaced)."""
    dom, n, t = A.dom, A.dim, A.op()
    zero = dom.zero()
    pairs = list(itertools.product(range(n), repeat=2))

    def exact(terms, variables):
        rows = linear_conditions(A, terms, variables, {"<a>": (n, lambda r: r)})
        return {key: {j: dom.coerce(v) for j, v in row.items()} for key, row in rows.items()}

    # K[(x,y,r), k] = [L_{e_k}, M](e_x, e_y)_r
    opn = A.op_names()[0]
    ta, tb, tx, ty = ("<a>", ()), ("v", "b"), ("v", "x"), ("v", "y")
    K_rows = exact(kantor._bracket_terms(opn, ta, tx, ty), ("x", "y"))
    K = [[K_rows.get((xy, r), {}).get(k, zero) for k in range(n)] for xy in pairs for r in range(n)]
    # D[((b,x,y), r)][a] = [L_a,[L_b,M]](e_x, e_y)_r
    terms = [(c, (opn, (ta, u))) for c, u in kantor._bracket_terms(opn, tb, tx, ty)]
    terms += [(-c, u) for c, u in kantor._bracket_terms(opn, tb, (opn, (ta, tx)), ty)
              + kantor._bracket_terms(opn, tb, tx, (opn, (ta, ty)))]
    D = exact(terms, ("b", "x", "y"))

    def rhs(i, j):
        return [-D.get(((j, u, v), r), {}).get(i, zero) for u, v in pairs for r in range(n)]

    def solves(star):
        for a, b in pairs:
            prod = star.basis_product((b, a))
            lhs = [sum((c * row[k] for k, c in prod.items()), zero) for row in K]
            if lhs != rhs(a, b):
                return False
        return True

    kern = Subspace(nullspace(K, n, dom), n, dom)
    table = {}
    for a, b in pairs:
        s = _dense_solve(K, rhs(a, b), dom)
        if s is None:
            table = None
            break
        row = {k: c for k, c in enumerate(s) if not dom.is_zero(c)}
        if row:
            table[(a, b)] = row
    particular = None if table is None else StructureTensor(n, 2, table, dom)
    swapped = StructureTensor(n, 2, {(j, i): row for (i, j), row in t.table.items()}, dom)
    star = t.scale(Fraction(2, 3)).add(swapped.scale(Fraction(1, 3)))
    sol = _dense_solve(K, [-t.basis_product((x, y)).get(r, zero) for x, y in pairs
                           for r in range(n)], dom)
    quasi = (Subspace([], n, dom), None) if sol is None else (kern, sol)
    return (table is not None, particular, kern, solves(star)), quasi, kern


def _random_algebra(seed, dom):
    """A seeded random 2- or 3-dimensional algebra over dom, from nearly
    empty to dense tables, with denominators over Q."""
    rng = random.Random(seed)
    n = rng.choice([2, 2, 3])
    density = rng.choice([0.1, 0.2, 0.4, 0.7])
    table = {}
    for i, j in itertools.product(range(n), repeat=2):
        row = {k: dom.coerce(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
               for k in range(n) if rng.random() < density}
        row = {k: c for k, c in row.items() if not dom.is_zero(c)}
        if row:
            table[(i, j)] = row
    return Algebra(f"rnd{seed}", n, {"mul": StructureTensor(n, 2, table, dom)}, dom)


def _kantor_case(name):
    named = {"U2": lambda: build_U(2), "U2e": u2_e_basis,
             "W2": lambda: u2_subalgebra("W2"), "S2": lambda: u2_subalgebra("S2"),
             "sl2": lambda: catalog_get("sl2"), "NF3": lambda: catalog_get("NF", {"n": 3})}
    if name in named:
        return named[name]()
    field, seed = name.split("-")
    return _random_algebra(int(seed), QQ if field == "Q" else GF(5))


_KANTOR_CASES = (["U2", "U2e", "W2", "S2", "sl2", "NF3"]
                 + [f"Q-{s}" for s in range(44)] + [f"GF5-{s}" for s in range(12)])


@pytest.mark.parametrize("name", _KANTOR_CASES)
def test_conservativity_matches_the_dense_route(name):
    """The factor-once sparse route gives the dense route's verdicts,
    associated product, value space, terminal verdict, quasi-units and
    Jacobi elements."""
    A = _kantor_case(name)
    report, quasi, jacobi = _dense_kantor(A)
    rep = conservativity_test(A)
    assert (rep.feasible, rep.particular, rep.homogeneous, rep.terminal) == report
    assert quasi_unit_space(A) == quasi
    assert jacobi_element_space(A) == jacobi


def test_dense_route_cases_cover_both_verdicts():
    """The differential cases hold feasible and infeasible systems over Q
    and over GF(5), and terminal algebras."""
    seen = set()
    for name in _KANTOR_CASES:
        A = _kantor_case(name)
        rep = conservativity_test(A)
        seen.add((A.dom.char or 0, rep.feasible))
        seen.add(("terminal", rep.terminal))
    assert seen >= {(0, True), (0, False), (5, True), (5, False), ("terminal", True)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_u_matches_dense_round_trip(n):
    """U(n) reads each Kantor product from its table; the former build went
    through the dense U(n)-coordinate vector and filtered the zeros."""
    basis = []
    for a in range(n ** 3):
        vec = [Fraction(0)] * n ** 3
        vec[a] = Fraction(1)
        basis.append(_tensor_from_vector(vec, n, QQ))
    table = {}
    for a in range(n ** 3):
        for b in range(n ** 3):
            vec = _vector_from_tensor(kantor_product(basis[a], basis[b], 0), n, QQ)
            row = {k: c for k, c in enumerate(vec) if c}
            if row:
                table[(a, b)] = row
    assert build_U(n).op("mul").table == table


def _per_pair_build_U(n, u_index):
    """build_U before the linear rows: one ``kantor_product`` per basis pair."""
    basis = [StructureTensor(n, 2, {(i, j): {k: Fraction(1)}}, QQ)
             for i in range(n) for j in range(n) for k in range(n)]
    table = {}
    for a in range(n ** 3):
        for b in range(n ** 3):
            prod = kantor_product(basis[a], basis[b], u_index)
            table[(a, b)] = {alpha_index(i + 1, j + 1, k + 1, n): c
                             for (i, j), row in prod.table.items() for k, c in row.items()}
    return StructureTensor(n ** 3, 2, table, QQ)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_build_u_matches_the_per_pair_route_in_key_order(n):
    """Every u: the same products, keys (a, b) ascending and each row's
    alpha-coordinates ascending, exact Fractions."""
    for u in range(n):
        U = build_U(n, u)
        got, want = U.op("mul").table, _per_pair_build_U(n, u).table
        assert [(k, list(row.items())) for k, row in got.items()] == \
            [(k, list(row.items())) for k, row in want.items()]
        assert all(type(c) is Fraction for row in got.values() for c in row.values())
        assert (U.name, U.dim, U.meta_u_index) == (f"U({n})", n ** 3, u)


def _random_binary(rng, n, density):
    return StructureTensor(n, 2, {
        (i, j): {k: Fraction(rng.randint(-4, 4), rng.randint(1, 5)) for k in range(n)}
        for i in range(n) for j in range(n) if rng.random() < density}, QQ)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3), st.sampled_from([0.3, 0.7, 1.0]), st.booleans(),
       st.integers(0, 2**32))
def test_kantor_rows_contract_to_the_kantor_product(n, density, dense_u, seed):
    """The rows linear in B, contracted with B's U(n)-coordinates, are
    [[A,B]] for rational A and B and a basis or (scaled) vector u."""
    rng = random.Random(seed)
    A, B = _random_binary(rng, n, density), _random_binary(rng, n, density)
    u = rng.randrange(n)
    if dense_u:
        u = [Fraction(rng.randint(-3, 3), rng.randint(1, 4)) for _ in range(n)]
        u[rng.randrange(n)] = Fraction(rng.randint(1, 3), rng.randint(2, 4))
    vec = _vector_from_tensor(B, n, QQ)
    table = {}
    for ((x, y), r), row in kantor._kantor_rows(A, u).items():
        table.setdefault((x, y), {})[r] = sum(c * vec[b] for b, c in row.items())
    assert StructureTensor(n, 2, table, QQ) == kantor_product(A, B, u)


def test_conservativity_refuses_characteristic_3_before_solving(monkeypatch):
    """The product 2/3 xy + 1/3 yx of the terminal test has no meaning over
    GF(3): the test refuses before it builds or solves any system."""
    t = catalog_get("sl2").op("mul").map_domain(GF(3), GF(3).coerce)
    A = Algebra("sl2", 3, {"mul": t}, GF(3))

    def unreached(*args):
        raise AssertionError("the system was built")

    monkeypatch.setattr(kantor, "_conservativity", unreached)
    with pytest.raises(DomainError, match=r"2/3 xy \+ 1/3 yx is undefined in characteristic 3"):
        conservativity_test(A)
