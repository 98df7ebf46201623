import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc.catalog import catalog_get
from nonassoc.deform import (Cocycle, central_extension, certificate_from_json,
                             cocycle_space, cocycle_from_vector,
                             degeneration_obstruction, degeneration_verify,
                             invariant_profile)
from nonassoc.identities import check_identity, parse_identity
from nonassoc.invariants import annihilator_subspace
from nonassoc.linalg import Subspace
from nonassoc.scalars import GF, QQ, QT, DomainError, RatFunc
from nonassoc.structure import Algebra, StructureTensor, change_basis
from nonassoc.varieties import check_variety
from test_linalg import reference_intersect


def _tinv_eye(n):
    return certificate_from_json(
        [["t^-1" if i == j else "0" for j in range(n)] for i in range(n)])


def test_scaling_certificate_to_zero_algebra():
    for name, params in [("sl2", {}), ("NF", {"n": 3}), ("heis3", {})]:
        A = catalog_get(name, params)
        zero = catalog_get("abelian", {"n": A.dim})
        rep = degeneration_verify(A, zero, _tinv_eye(A.dim))
        assert rep["limit_exists"] and rep["equals_B"], name


def test_diag_t_t3_certificate():
    nf2 = catalog_get("NF", {"n": 2})
    zero = catalog_get("abelian", {"n": 2})
    g = certificate_from_json([["t", "0"], ["0", "t^3"]])
    rep = degeneration_verify(nf2, zero, g)
    assert rep["limit_exists"] and rep["equals_B"]


def test_degeneration_verify_lifts_through_map_domain():
    """The transported tables are change_basis of A lifted to Q(t) operation
    by operation, as before Algebra.map_domain."""
    for name, cert in (("NF", [["t^-1", "0", "0"], ["1", "t", "0"], ["0", "0", "t^2"]]),
                       ("heis3", [["t", "0", "0"], ["0", "t", "1"], ["0", "0", "t^2"]])):
        A = catalog_get(name, {"n": 3} if name == "NF" else {})
        g = certificate_from_json(cert)
        lifted = Algebra(A.name, A.dim, {n: t.map_domain(QT, lambda c: RatFunc.const(c))
                                         for n, t in A.ops.items()}, QT)
        rep = degeneration_verify(A, catalog_get("abelian", {"n": 3}), g)
        assert rep["transformed"] == change_basis(lifted, g).ops


def test_improper_certificate_homogeneity():
    nf2 = catalog_get("NF", {"n": 2})
    g = certificate_from_json([["t^-1", "0"], ["0", "t^-2"]])
    rep = degeneration_verify(nf2, nf2, g)
    assert rep["limit_exists"] and rep["equals_B"]


def test_singular_certificate_rejected():
    nf2 = catalog_get("NF", {"n": 2})
    g = certificate_from_json([["t", "t"], ["t", "t"]])
    with pytest.raises(DomainError):
        degeneration_verify(nf2, nf2, g)


def test_certificate_t1_matches_change_basis():
    """(g * mu) evaluated at t = 1 equals change_basis(A, g(1))."""
    A = catalog_get("NF", {"n": 3})
    g = certificate_from_json([["t^-1", "0", "0"], ["1", "t", "0"],
                               ["0", "0", "t^2"]])
    rep = degeneration_verify(A, catalog_get("abelian", {"n": 3}), g)
    g1 = [[c.eval(Fraction(1)) for c in row] for row in g]
    B = change_basis(A, g1)
    t = rep["transformed"]["mul"]
    for args, row in B.op("mul").table.items():
        got = t.basis_product(args)
        for k, c in row.items():
            assert got[k].eval(Fraction(1)) == c


def test_certificates_compose():
    # NF(2) -> abelian(2) by diag(t, t^3); abelian -> abelian by t^-1 I;
    # the product certificate diag(1, t^2) also verifies NF(2) -> abelian(2)
    nf2 = catalog_get("NF", {"n": 2})
    zero = catalog_get("abelian", {"n": 2})
    g = certificate_from_json([["t", "0"], ["0", "t^3"]])
    h = _tinv_eye(2)
    assert degeneration_verify(nf2, zero, g)["equals_B"]
    assert degeneration_verify(zero, zero, h)["equals_B"]
    hg = [[sum((h[i][k] * g[k][j] for k in range(2)), RatFunc(()))
           for j in range(2)] for i in range(2)]
    rep = degeneration_verify(nf2, zero, hg)
    assert rep["limit_exists"] and rep["equals_B"]


CERTIFIED_PAIRS = []
for name, params in [("NF", {"n": 2}), ("NF", {"n": 3}), ("NF", {"n": 4}),
                     ("heis3", {}), ("sl2", {}), ("filiform1p", {"n": 4}),
                     ("zinbiel-free1", {"n": 3}), ("uppertri", {"n": 2}),
                     ("matrix", {"n": 2}), ("quaternions", {}),
                     ("R", {"seq": (2, 1)}), ("U2e", {}),
                     ("tp4", {}), ("M7", {}),
                     ("abelian", {"n": 2}), ("abelian", {"n": 5}),
                     ("zinbiel-free1", {"n": 4}), ("filiform1p", {"n": 5}),
                     ("heis3", {}), ("NF", {"n": 5})]:
    CERTIFIED_PAIRS.append((name, params))


def test_obstruction_never_rejects_certified_pairs():
    """Consistency: scaling every algebra to the zero algebra is certified
    by t^-1 I, and the obstruction list must be empty for each pair."""
    for name, params in CERTIFIED_PAIRS:
        A = catalog_get(name, params)
        if len(A.ops) > 1:
            A = Algebra(A.name, A.dim, {"mul": A.op("mul")}, A.dom)
        zero = catalog_get("abelian", {"n": A.dim})
        rep = degeneration_verify(A, zero, _tinv_eye(A.dim))
        assert rep["equals_B"], name
        assert degeneration_obstruction(A, zero) == [], name


def test_obstruction_rules():
    ab3 = catalog_get("abelian", {"n": 3})
    sl2 = catalog_get("sl2")
    v = degeneration_obstruction(ab3, sl2)
    assert any("dim A^2" in s for s in v)
    assert degeneration_obstruction(sl2, ab3) == []
    assert degeneration_obstruction(catalog_get("NF", {"n": 3}), ab3) == []


def _former_obstruction(A, B, op=None):
    """The rule set as written before it compared two invariant profiles."""
    from nonassoc.invariants import structure_report
    from nonassoc.operators import derivation_space
    violations = []
    repA = structure_report(A, op=op)
    repB = structure_report(B, op=op)
    pa, pb = repA["power_dims"], repB["power_dims"]
    for k in range(max(len(pa), len(pb))):
        da = pa[k] if k < len(pa) else pa[-1]
        db = pb[k] if k < len(pb) else pb[-1]
        if da < db:
            violations.append(f"dim A^{k + 1} = {da} < dim B^{k + 1} = {db}")
    if repA["annihilator"]["two_sided"] > repB["annihilator"]["two_sided"]:
        violations.append(f"dim Ann(A) = {repA['annihilator']['two_sided']} > "
                          f"dim Ann(B) = {repB['annihilator']['two_sided']}")
    dA = derivation_space(A, 1, op=op or A.op_names()[0]).dim
    dB = derivation_space(B, 1, op=op or B.op_names()[0]).dim
    if dA > dB:
        violations.append(f"dim Der(A) = {dA} > dim Der(B) = {dB}")
    comm, anti = parse_identity("x*y - y*x"), parse_identity("x*x")
    omA, omB = {"*": op or A.op_names()[0]}, {"*": op or B.op_names()[0]}
    if check_identity(A, comm, opmap=omA)[0] and not check_identity(B, comm, opmap=omB)[0]:
        violations.append("A is commutative but B is not")
    if check_identity(A, anti, opmap=omA)[0] and not check_identity(B, anti, opmap=omB)[0]:
        violations.append("A is anticommutative but B is not")
    return violations


def test_obstruction_matches_former_rule_set():
    """Same messages in the same order as the former rule set, on every
    ordered pair of equal dimension among small binary catalog algebras."""
    pool = [catalog_get(name, params) for name, params in [
        ("abelian", {"n": 3}), ("NF", {"n": 3}), ("sl2", {}), ("heis3", {}),
        ("uppertri", {"n": 2}), ("zinbiel-free1", {"n": 3}), ("abelian", {"n": 4}),
        ("NF", {"n": 4}), ("filiform1p", {"n": 4}), ("matrix", {"n": 2}),
        ("quaternions", {}), ("tp4", {})]]
    messages = []
    for A in pool:
        for B in pool:
            if A is not B and A.dim == B.dim:
                got = degeneration_obstruction(A, B)
                assert got == _former_obstruction(A, B), (A.name, B.name)
                messages += got
    # every rule fires somewhere in the pool
    for rule in ("dim A^", "dim Ann(A)", "dim Der(A)", "A is commutative",
                 "A is anticommutative"):
        assert any(m.startswith(rule) for m in messages), rule


def test_invariant_profile_fields():
    prof = invariant_profile(catalog_get("NF", {"n": 3}))
    assert prof["nilpotent"] and prof["power_dims"][0] == 3
    assert prof["anticommutative"] is False


def test_cocycles_abelian2_lie():
    res = cocycle_space(catalog_get("abelian", {"n": 2}), "lie", 1)
    assert (res["Z2_dim"], res["B2_dim"], res["H2_dim"]) == (1, 0, 1)
    theta = Cocycle([[[0, 1], [-1, 0]]])
    ext, rep = central_extension(catalog_get("abelian", {"n": 2}), theta)
    assert ext.op("mul") == catalog_get("heis3").op("mul")
    assert rep["V_in_annihilator"]
    assert rep["annihilator_component_trivial"]


def test_cocycles_abelian1_commassoc():
    res = cocycle_space(catalog_get("abelian", {"n": 1}),
                        "commutative-associative", 1)
    assert res["Z2_dim"] == 1 and res["B2_dim"] == 0
    theta = Cocycle([[[1]]])
    ext, _ = central_extension(catalog_get("abelian", {"n": 1}), theta)
    # e.e = v: the commutative version of the NF(2) table
    assert ext.op("mul").basis_product((0, 0)) == {1: 1}


def test_split_extension_fails_annihilator_check():
    nf2 = catalog_get("NF", {"n": 2})
    theta = Cocycle([[[0, 0], [0, 0]]])
    ext, rep = central_extension(nf2, theta)
    assert rep["V_in_annihilator"]
    assert not rep["annihilator_component_trivial"]


def test_base_not_in_variety_rejected():
    with pytest.raises(DomainError):
        cocycle_space(catalog_get("sl2"), "associative", 1)
    with pytest.raises(DomainError, match="binary"):
        cocycle_space(catalog_get("ternaryJordan", {"n": 3}), "lie", 1)


def test_random_cocycles_give_variety_members():
    """50 random theta in Z2 per (A, variety): the extension passes the
    variety check."""
    rng = random.Random(77)
    cases = [(catalog_get("abelian", {"n": 2}), "lie"),
             (catalog_get("NF", {"n": 2}), "leibniz"),
             (catalog_get("NF", {"n": 3}), "leibniz"),
             (catalog_get("heis3"), "leibniz"),
             (catalog_get("abelian", {"n": 2}), "commutative-associative")]
    for A, variety in cases:
        res = cocycle_space(A, variety, 1)
        basis = res["Z2"].basis
        for _ in range(50):
            coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]
            vec = [sum((c * b[i] for c, b in zip(coeffs, basis)), Fraction(0))
                   for i in range(A.dim ** 2)]
            theta = cocycle_from_vector(vec, A.dim)
            ext, _ = central_extension(A, theta)
            assert check_variety(ext, variety)["holds"], (A.name, variety)


def test_coboundaries_give_split_extensions():
    """theta in B2 yields an extension isomorphic to the split one via the
    explicit basis change x -> x + f-correction on V."""
    rng = random.Random(78)
    for A, variety in [(catalog_get("NF", {"n": 2}), "leibniz"),
                       (catalog_get("heis3"), "lie")]:
        res = cocycle_space(A, variety, 1)
        n = A.dim
        for _ in range(10):
            f = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
            vec = []
            t = A.op("mul")
            for i in range(n):
                for j in range(n):
                    vec.append(sum((f[k] * c for k, c in
                                    t.basis_product((i, j)).items()),
                                   Fraction(0)))
            assert res["B2"].contains_vector(vec) or all(x == 0 for x in vec)
            theta = cocycle_from_vector(vec, n)
            ext, _ = central_extension(A, theta)
            split, _ = central_extension(A, cocycle_from_vector(
                [Fraction(0)] * n * n, n))
            # basis change: x_i -> x_i + f(x_i) v, v -> v
            P = [[Fraction(1) if i == j else Fraction(0)
                  for j in range(n + 1)] for i in range(n + 1)]
            for i in range(n):
                P[n][i] = -f[i]
            moved = change_basis(ext, P)
            assert moved.op("mul") == split.op("mul")


def _extension_table_reference(A, theta):
    """The extension's table as built before it was A's table plus the
    cocycle's tensor: one loop over basis pairs, zeros filtered by hand."""
    t = A.op()
    dom = A.dom
    n = A.dim
    table = {}
    for i in range(n):
        for j in range(n):
            row = {k: c for k, c in t.basis_product((i, j)).items()}
            for a, c in enumerate(theta.value(i, j)):
                if not dom.is_zero(c):
                    row[n + a] = c
            if row:
                table[(i, j)] = row
    return table


@pytest.mark.parametrize("name, params", [("sl2", {}), ("heis3", {}), ("abelian", {"n": 3})])
@pytest.mark.parametrize("p", [None, 7])
def test_central_extension_table_matches_reference(name, params, p):
    rng = random.Random(f"{name} {p}")
    A = catalog_get(name, params)
    if p is not None:
        dom = GF(p)
        A = Algebra(A.name, A.dim, {k: t.map_domain(dom, dom.coerce) for k, t in A.ops.items()},
                    dom)
    for s in (1, 2):
        theta = Cocycle([[[rng.choice([0, 0, 1, -1, 2, Fraction(1, 3)]) for _ in range(A.dim)]
                          for _ in range(A.dim)] for _ in range(s)], A.dom)
        ext, _ = central_extension(A, theta)
        assert ext.op().table == _extension_table_reference(A, theta)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.data())
def test_annihilator_component_matches_the_reference_intersection(dom, data):
    """Random sparse algebras of dim 1-4 over Q and GF(7), in which a
    random set of basis vectors multiplies to zero (so lies in Ann(A)),
    and random forms theta with s = 1 or 2 slots, vanishing on those
    vectors at times: the extension reports a trivial annihilator component
    exactly when the reference intersection of Ann(A_theta) with the copy
    of A is 0."""
    n, s = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 2))
    dead = data.draw(st.sets(st.integers(0, n - 1)))
    spare = data.draw(st.booleans())
    entry = st.sampled_from([0, 0, 0, 1, -1, 2])
    table = {}
    for i, j in itertools.product(range(n), repeat=2):
        row = {k: Fraction(c) for k in range(n)
               if {i, j}.isdisjoint(dead) and (c := data.draw(entry))}
        if row:
            table[(i, j)] = row
    A = Algebra("random", n, {"mul": StructureTensor(n, 2, table, QQ).map_domain(dom, dom.coerce)},
                dom)
    theta = Cocycle([[[data.draw(entry) if not spare or {i, j}.isdisjoint(dead) else 0
                       for j in range(n)] for i in range(n)] for _ in range(s)], dom)
    ext, rep = central_extension(A, theta)
    ann = annihilator_subspace(ext, "two_sided")
    meet = reference_intersect(ann, Subspace([ext.basis_vector(a) for a in range(n)], n + s, dom))
    assert rep["annihilator_component_trivial"] == (meet.dim == 0)
    assert rep["ann_dim"] == ann.dim
