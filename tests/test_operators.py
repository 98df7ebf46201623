import random
from fractions import Fraction

import pytest

from nonassoc import operators
from nonassoc.catalog import catalog_get
from nonassoc.linalg import (Subspace, identity_matrix, is_invertible, kernel, mat_mul,
                             sparse_rows)
from nonassoc.operators import (MAX_LEIBNIZ_ORDER, centroid, commuting_map_space,
                                derivation_space, generalized_derivation_space,
                                leibniz_derivation_space,
                                local_derivation_generic_space,
                                local_derivation_test, multiplication_operator,
                                peirce_decompose)
from nonassoc.scalars import QQ, QT, DomainError, RatFunc
from nonassoc.structure import Algebra, algebra_from_json, algebra_to_json, change_basis


def _antisym_space(n):
    vecs = []
    for i in range(n):
        for j in range(i + 1, n):
            M = [[Fraction(0)] * n for _ in range(n)]
            M[i][j], M[j][i] = Fraction(1), Fraction(-1)
            vecs.append([x for row in M for x in row])
    return Subspace(vecs, n * n)


def test_derivation_dims():
    assert derivation_space(catalog_get("sl2")).dim == 3
    assert derivation_space(catalog_get("abelian", {"n": 2})).dim == 4
    assert derivation_space(catalog_get("sl2"), delta=Fraction(1, 2)).dim == 1


def test_derivations_closed_under_bracket():
    for name, params in [("sl2", {}), ("NF", {"n": 3}), ("heis3", {}),
                         ("uppertri", {"n": 2}), ("tp4", {})]:
        A = catalog_get(name, params)
        for op in A.op_names():
            space = derivation_space(A, op=op)
            assert space.closed_under_bracket(), (name, op)


def test_delta_guard_for_higher_arity():
    with pytest.raises(DomainError):
        derivation_space(catalog_get("M8"), delta=Fraction(1, 2))


def test_ternary_jordan_derivations_are_so_n():
    for n in (3, 4):
        A = catalog_get("ternaryJordan", {"n": n})
        space = derivation_space(A)
        assert space.dim == n * (n - 1) // 2
        assert space.subspace == _antisym_space(n)


def test_derivation_dims_composition_algebras():
    # classical values, strong end-to-end checks of the Cayley-Dickson tables
    assert derivation_space(catalog_get("quaternions")).dim == 3   # so(3)
    assert derivation_space(catalog_get("octonions")).dim == 14    # g_2
    assert derivation_space(catalog_get("M7")).dim == 14           # g_2
    assert derivation_space(catalog_get("M8")).dim == 21           # so(7)


def test_centroid_dims():
    assert centroid(catalog_get("sl2")).dim == 1
    assert centroid(catalog_get("abelian", {"n": 3})).dim == 9
    assert centroid(catalog_get("matrix", {"n": 2})).dim == 1


def test_operator_space_covariance():
    """Conjugating the algebra conjugates Der, the centroid, and the
    half-derivation space (checked for random P)."""
    rng = random.Random(4)
    from nonassoc.linalg import inverse
    for name in ("heis3", "sl2", "NF"):
        A = catalog_get(name, {"n": 3} if name == "NF" else {})
        spaces = {
            "der": lambda X: derivation_space(X),
            "centroid": lambda X: centroid(X),
            "halfder": lambda X: derivation_space(X, delta=Fraction(1, 2)),
        }
        for _ in range(3):
            while True:
                P = [[Fraction(rng.randint(-2, 2)) for _ in range(3)]
                     for _ in range(3)]
                if is_invertible(P):
                    break
            B = change_basis(A, P)
            Pinv = inverse(P, QQ)
            for tag, build in spaces.items():
                base = build(A)
                moved = build(B)
                conj = [mat_mul(mat_mul(P, M, QQ), Pinv, QQ)
                        for M in base.matrices()]
                assert moved.subspace == Subspace(
                    [[x for row in M for x in row] for M in conj], 9), \
                    (name, tag)


def test_generalized_derivations_m7():
    g = generalized_derivation_space(catalog_get("M7"), "full")
    assert g.meta["quotient_dim"] == 0
    assert g.meta["trivial_contained"]


def test_generalized_derivations_d4():
    g = generalized_derivation_space(catalog_get("D", {"dim": 4}), "full")
    # raw coordinate projections are gl_4; the sl_4 copy sits in the
    # derived subalgebra of the tuple Lie algebra
    assert g.meta["projection_dims"] == [16, 16, 16, 16]
    assert g.meta["derived_dim"] == 15
    assert g.meta["derived_projection_dims"] == [15, 15, 15, 15]


def _seeded_rebase(A, seed=1):
    rng = random.Random(seed)
    while True:
        P = [[Fraction(rng.randint(-9, 9)) for _ in range(A.dim)] for _ in range(A.dim)]
        if is_invertible(P):
            return change_basis(A, P)


def _gf7(A):
    return algebra_from_json(dict(algebra_to_json(A), field="GF(7)"))


_SMALL = [("sl2", {}), ("heis3", {}), ("matrix", {"n": 2}), ("quaternions", {}), ("D2", {}),
          ("D", {"dim": 4})]
_GENDER_CASES = ([(catalog_get(*a), f"{a[0]}") for a in _SMALL]
                 + [(_seeded_rebase(catalog_get(*a)), f"{a[0]} rebased") for a in _SMALL]
                 + [(_gf7(catalog_get(*a)), f"{a[0]} over GF(7)") for a in _SMALL])


def _slot_commutator(space, a, b):
    """The slotwise commutator [a, b] of two flattened tuples of matrices."""
    n, dom = space.ambient_dim, space.dom
    n2 = n * n
    out = []
    for s in range(space.tuple_len):
        x = [a[s * n2 + r * n:s * n2 + (r + 1) * n] for r in range(n)]
        y = [b[s * n2 + r * n:s * n2 + (r + 1) * n] for r in range(n)]
        xy, yx = mat_mul(x, y, dom), mat_mul(y, x, dom)
        out += [u - v for ru, rv in zip(xy, yx) for u, v in zip(ru, rv)]
    return out


def _full_kernel_meta(space):
    """Reference: the projection and derived meta as kernels of the full
    coordinates, each rank an ambient dimension minus a kernel dimension."""
    n2, dom, slots = space.ambient_dim ** 2, space.dom, space.tuple_len
    basis = space.subspace.basis
    comms = sparse_rows([_slot_commutator(space, a, b)
                         for i, a in enumerate(basis) for b in basis[i + 1:]], dom)

    def slot_rank(rows, s):
        return n2 - kernel([{j - s * n2: c for j, c in row.items() if s * n2 <= j < (s + 1) * n2}
                            for row in rows], n2, dom).dim

    meta = {"projection_dims": [slot_rank(sparse_rows(basis, dom), s) for s in range(slots)]}
    if space.tuple_len > 2:
        meta["derived_dim"] = slots * n2 - kernel(comms, slots * n2, dom).dim
        meta["derived_projection_dims"] = [slot_rank(comms, s) for s in range(slots)]
    return meta


@pytest.mark.parametrize("A, label", _GENDER_CASES, ids=[c[1] for c in _GENDER_CASES])
def test_commutators_of_generalized_derivations_lie_in_the_space(A, label):
    """The (m+1)-ary derivations are a Lie algebra under the slotwise
    commutator, the premise of reading the derived meta at the pivot
    columns: every commutator of two basis tuples lies in the space."""
    g = generalized_derivation_space(A, "full")
    basis = g.subspace.basis
    for i, a in enumerate(basis):
        for b in basis[i + 1:]:
            assert g.subspace.contains_vector(_slot_commutator(g, a, b)), label


@pytest.mark.parametrize("A, label", _GENDER_CASES, ids=[c[1] for c in _GENDER_CASES])
def test_meta_matches_the_full_kernel_route(A, label):
    """Ranks read off the smaller certified side, and the derived meta from
    the pivot columns, equal the kernels of the full coordinates."""
    for mode in ("full", "quasi"):
        space = generalized_derivation_space(A, mode)
        want = _full_kernel_meta(space)
        assert {k: space.meta[k] for k in want} == want, (label, mode)


def _over_qt(A):
    """A with its tables read over Q(t), each product times 1 + t."""
    return Algebra(A.name, A.dim, {k: t.map_domain(QT, lambda c: QT.coerce(c) * (RatFunc.t_power(1) + 1))
                                   for k, t in A.ops.items()}, QT)


@pytest.mark.parametrize("A, label", _GENDER_CASES + [(_over_qt(catalog_get("sl2")), "sl2 over Q(t)"),
                                                      (_over_qt(catalog_get("heis3")), "heis3 over Q(t)")],
                         ids=[c[1] for c in _GENDER_CASES] + ["sl2 over Q(t)", "heis3 over Q(t)"])
def test_generalized_der_and_centroid_are_those_of_the_algebra(A, label, monkeypatch):
    """The derivations and the centroid that ``generalized_derivation_space``
    reads off the rows of its own kernel, with the slot blocks folded
    (``_trivial_parts``), are ``derivation_space`` and ``centroid``, in both
    modes (the quasi mode takes its centroid from ``centroid`` itself)."""
    der, cen = derivation_space(A).subspace, centroid(A).subspace
    parts = []
    trivial_parts = operators._trivial_parts
    monkeypatch.setattr(operators, "_trivial_parts",
                        lambda *args: parts.append(trivial_parts(*args)) or parts[-1])
    for mode in ("full", "quasi"):
        generalized_derivation_space(A, mode)
        got = parts.pop()
        assert (got[0].subspace, got[1].subspace) == (der, cen), (label, mode)


def test_quasi_derivations_report():
    q = generalized_derivation_space(catalog_get("sl2"), "quasi")
    assert q.meta["QDer_KS_dim"] >= derivation_space(catalog_get("sl2")).dim
    assert q.meta["trivial_contained"]


def test_local_derivation_abelian():
    space = local_derivation_generic_space(catalog_get("abelian", {"n": 2}))
    assert space.dim == 4


def test_local_derivation_sl2():
    sl2 = catalog_get("sl2")
    space = local_derivation_generic_space(sl2)
    assert space.meta["certified"]
    assert space.subspace == derivation_space(sl2).subspace
    assert space.dim == 3


def test_local_derivations_of_simple_associative_are_derivations():
    """Local derivations of M_n and of the quaternions are derivations, in
    any basis: the generic space must not keep kernel vectors that are
    dependent over Q(x), such as x1*w next to w."""
    rng = random.Random(11)
    for name, params in [("matrix", {"n": 2}), ("matrix", {"n": 3}),
                         ("quaternions", None)]:
        A = catalog_get(name, params)
        der = derivation_space(A)
        loc = local_derivation_generic_space(A, der=der)
        assert loc.meta["certified"], name
        assert loc.subspace == der.subspace, name
        if A.dim > 4:
            continue  # a rebased M_3 takes minutes in the dense fallback
        while True:
            P = [[Fraction(rng.randint(-3, 3)) for _ in range(A.dim)]
                 for _ in range(A.dim)]
            if is_invertible(P):
                break
        assert local_derivation_generic_space(change_basis(A, P)).dim == der.dim, name


def test_local_derivation_membership_chain():
    """Der <= QDer_KS <= LocDer-generic on small catalog entries."""
    for name, params in [("sl2", {}), ("heis3", {}), ("NF", {"n": 3}),
                         ("abelian", {"n": 2})]:
        A = catalog_get(name, params)
        der = derivation_space(A)
        q = generalized_derivation_space(A, "quasi")
        ks = q.projection_space(0)
        loc = local_derivation_generic_space(A, der=der)
        assert ks.subspace.contains(der.subspace), name
        assert loc.subspace.contains(ks.subspace) or loc.subspace.contains(der.subspace), name
        assert loc.subspace.contains(der.subspace), name


def test_local_derivation_test_accepts_derivations():
    A = catalog_get("heis3")
    der = derivation_space(A)
    res = local_derivation_test(A, der.matrices()[0], der=der)
    assert res["verdict"] == "GenericYes"


def test_local_derivation_test_refutes_at_a_sampled_point():
    """The identity of sl2 is not local: at the third basis vector h,
    h lies outside [sl2, h] = span{e, f}, so the sampled point h is the
    witness (before the generic-membership check is reached)."""
    A = catalog_get("sl2")
    res = local_derivation_test(A, identity_matrix(3))
    assert res["verdict"] == "No" and res["witness"] == A.basis_vector(2)


def test_leibniz_derivation_spaces():
    nf3 = catalog_get("NF", {"n": 3})
    space = leibniz_derivation_space(nf3, 2)
    assert space.meta["invertible_exists"]
    ab2 = catalog_get("abelian", {"n": 2})
    space = leibniz_derivation_space(ab2, 3)
    assert space.dim == 4 and space.meta["invertible_exists"]
    sl2 = catalog_get("sl2")
    space = leibniz_derivation_space(sl2, 3, "all")
    assert space.subspace.contains(derivation_space(sl2).subspace)
    with pytest.raises(DomainError):
        leibniz_derivation_space(nf3, 7)
    with pytest.raises(DomainError, match="^order 6 exceeds the resource bound 5$"):
        leibniz_derivation_space(nf3, MAX_LEIBNIZ_ORDER + 1)
    with pytest.raises(DomainError):
        leibniz_derivation_space(nf3, 1)


def test_leibniz_sl2_order3_is_der_without_invertibles():
    """Semisimple case: LDer(sl2) at order 3 is Der(sl2) itself, and no
    element of the space is invertible (every ad kills its own argument)."""
    sl2 = catalog_get("sl2")
    der = derivation_space(sl2)
    for arr in ("left", "right", "all"):
        sp = leibniz_derivation_space(sl2, 3, arr)
        assert sp.subspace == der.subspace
        assert not sp.contains_matrix(identity_matrix(3))
        assert sp.meta["invertible_exists"] is False


@pytest.mark.parametrize("name", ["M7", "octonions"])
def test_leibniz_order2_has_no_invertible_element(name):
    """The generic combination of LDer_2 is singular: one polynomial kernel
    vector of the pencil proves det = 0 (M7 took about 10 s by a symbolic
    determinant)."""
    space = leibniz_derivation_space(catalog_get(name), 2)
    assert space.meta["invertible_exists"] is False
    assert space.meta["invertible_witness"] is None


@pytest.mark.parametrize("name, params, witness", [
    ("heis3", None, [-3, 0, -1, 1, -5, -5]),
    ("NF", {"n": 4}, [3, 2, -2, -3]),
])
def test_leibniz_invertible_witness(name, params, witness):
    """The witness is the first point of the seeded stream where the generic
    combination is invertible (values recorded before the certified rank
    replaced the determinant)."""
    space = leibniz_derivation_space(catalog_get(name, params), 2)
    assert space.meta["invertible_exists"] is True
    assert space.meta["invertible_witness"] == witness
    combo = [[sum(c * M[i][j] for c, M in zip(witness, space.matrices()))
              for j in range(space.ambient_dim)] for i in range(space.ambient_dim)]
    assert is_invertible(combo)


@pytest.mark.parametrize("name, params, generic_rank, kernel_degrees", [
    ("matrix", {"n": 2}, 2, [0, 1]),
    ("matrix", {"n": 3}, 6, [0, 1, 2]),
    ("U2e", None, 2, [0, 0, 1, 1, 1, 1]),
    ("M7", None, 6, [1]),
    ("R", {"seq": [1]}, 3, [0, 0]),
])
def test_local_derivation_generic_meta(name, params, generic_rank, kernel_degrees):
    meta = local_derivation_generic_space(catalog_get(name, params)).meta
    assert (meta["generic_rank"], meta["kernel_degrees"], meta["certified"]) == \
        (generic_rank, kernel_degrees, True)


def test_commuting_maps_refuse_char_two():
    from nonassoc.scalars import GF
    from nonassoc.structure import Algebra, StructureTensor
    F = GF(2)
    t = StructureTensor(2, 2, {(0, 0): {1: F.from_int(1)}}, F)
    A = Algebra("x", 2, {"mul": t}, F)
    with pytest.raises(DomainError):
        commuting_map_space(A)


def test_leibniz_arrangements_differ_from_intersection():
    nf3 = catalog_get("NF", {"n": 3})
    left = leibniz_derivation_space(nf3, 3, "left")
    right = leibniz_derivation_space(nf3, 3, "right")
    both = leibniz_derivation_space(nf3, 3, "all")
    assert left.subspace.contains(both.subspace)
    assert right.subspace.contains(both.subspace)


def test_leibniz_left_inside_right_on_leibniz_algebras():
    """Mirror of the published one-sided containment: on the (right)
    Leibniz catalog entries, every left-arrangement Leibniz-derivation is
    a right-arrangement one."""
    for name, params in [("NF", {"n": 3}), ("NF", {"n": 4}),
                         ("filiform1p", {"n": 4})]:
        A = catalog_get(name, params)
        left = leibniz_derivation_space(A, 3, "left")
        right = leibniz_derivation_space(A, 3, "right")
        assert right.subspace.contains(left.subspace), name
        assert not left.subspace.contains(right.subspace), name


def test_commuting_maps():
    assert commuting_map_space(catalog_get("matrix", {"n": 2})).dim == 5
    ab = catalog_get("abelian", {"n": 2})
    assert commuting_map_space(ab).dim == 4
    sl2 = catalog_get("sl2")
    space = commuting_map_space(sl2)
    assert space.contains_matrix(identity_matrix(3))


def test_peirce():
    ut2 = catalog_get("uppertri", {"n": 2})
    comps = peirce_decompose(ut2, 0)
    assert [comps[(i, j)].dim for i in (1, 2) for j in (1, 2)] == [1, 1, 0, 1]
    m2 = catalog_get("matrix", {"n": 2})
    comps = peirce_decompose(m2, 0)
    assert [comps[(i, j)].dim for i in (1, 2) for j in (1, 2)] == [1, 1, 1, 1]
    # unit idempotent: everything in the (1,1) part
    q = catalog_get("quaternions")
    comps = peirce_decompose(q, 0)
    assert comps[(1, 1)].dim == 4


def test_peirce_errors():
    ut2 = catalog_get("uppertri", {"n": 2})
    with pytest.raises(DomainError):
        peirce_decompose(ut2, 1)  # e12 is not idempotent
    sl2 = catalog_get("sl2")
    with pytest.raises(DomainError):
        peirce_decompose(sl2, [Fraction(1), Fraction(0), Fraction(0)])


def test_peirce_multiplication_rules():
    """A_12 A_21 <= A_11 and friends, on associative catalog entries."""
    for name, n in [("matrix", 2), ("uppertri", 3)]:
        A = catalog_get(name, {"n": n})
        comps = peirce_decompose(A, 0)
        rules = {((1, 2), (2, 1)): (1, 1), ((2, 1), (1, 2)): (2, 2),
                 ((1, 1), (1, 2)): (1, 2), ((1, 2), (2, 2)): (1, 2),
                 ((2, 2), (2, 1)): (2, 1), ((2, 1), (1, 1)): (2, 1),
                 ((1, 1), (1, 1)): (1, 1), ((2, 2), (2, 2)): (2, 2)}
        t = A.op("mul")
        for (pa, pb), target in rules.items():
            for u in comps[pa].basis:
                for v in comps[pb].basis:
                    w = t.apply([u, v])
                    assert comps[target].contains_vector(w), (name, pa, pb)


def test_multiplication_operator_right():
    nf3 = catalog_get("NF", {"n": 3})
    R0 = multiplication_operator(nf3, (0,))
    # y -> y e0 pushes e0 -> e1 -> e2 -> 0
    assert R0[1][0] == 1 and R0[2][1] == 1 and R0[0][0] == 0
