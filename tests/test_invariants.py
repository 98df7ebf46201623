import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import invariants
from nonassoc.catalog import catalog_get
from nonassoc.invariants import (characteristic_sequence,
                                 multiplicative_basis_check,
                                 standard_embedding, structure_report,
                                 verify_grading)
from nonassoc.linalg import Subspace, is_invertible, mat_mul, mat_sub
from nonassoc.scalars import GF, QQ, DomainError
from nonassoc.structure import Algebra, StructureTensor, change_basis, multiplication_operator


def test_structure_report_examples():
    rep = structure_report(catalog_get("abelian", {"n": 3}))
    assert rep["power_dims"] == [3, 0]
    assert rep["nilpotent"] and rep["nilpotency_index"] == 2
    assert rep["annihilator"]["two_sided"] == 3

    rep = structure_report(catalog_get("NF", {"n": 4}))
    assert rep["nilpotency_index"] == 5
    assert rep["power_dims"][1] == 3 and rep["power_dims"][3] == 1

    rep = structure_report(catalog_get("sl2"))
    assert rep["power_dims"][:2] == [3, 3]  # A^2 = A: perfect
    assert rep["annihilator"]["two_sided"] == 0
    assert not rep["nilpotent"] and not rep["solvable"]


def test_solvable_not_nilpotent():
    # R(1) is solvable but not nilpotent
    rep = structure_report(catalog_get("R", {"seq": (1,)}))
    assert rep["solvable"] and not rep["nilpotent"]


def test_commutative_center_of_unital():
    rep = structure_report(catalog_get("quaternions"))
    assert rep["commutative_center_dim"] == 1
    assert rep["center_dim"] == 0  # two-sided annihilator of a unital algebra


def test_structure_report_basis_independent():
    """Report dims are basis-independent: 100 random invertible P."""
    rng = random.Random(6)
    pool = [catalog_get(n, p) for n, p in [
        ("NF", {"n": 3}), ("heis3", {}), ("sl2", {}),
        ("filiform1p", {"n": 4}), ("uppertri", {"n": 2})]]
    checked = 0
    while checked < 100:
        A = pool[checked % len(pool)]
        n = A.dim
        P = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        if not is_invertible(P):
            continue
        B = change_basis(A, P)
        ra, rb = structure_report(A), structure_report(B)
        for key in ("power_dims", "derived_dims", "nilpotent", "solvable",
                    "annihilator", "center_dim"):
            assert ra[key] == rb[key], (A.name, key)
        checked += 1


def test_characteristic_sequence_values():
    assert characteristic_sequence(catalog_get("NF", {"n": 3}))["sequence"] == [3]
    assert characteristic_sequence(
        catalog_get("abelian", {"n": 3}))["sequence"] == [1, 1, 1]
    assert characteristic_sequence(
        catalog_get("filiform1p", {"n": 4, "theta": 1}))["sequence"] == [3, 1]


def test_characteristic_sequence_invariants():
    for name, params in [("NF", {"n": 3}), ("NF", {"n": 5}),
                         ("filiform1p", {"n": 4}), ("heis3", {}),
                         ("abelian", {"n": 4})]:
        A = catalog_get(name, params)
        res = characteristic_sequence(A)
        seq = res["sequence"]
        assert sum(seq) == A.dim, name
        assert all(a >= b for a, b in zip(seq, seq[1:])), name
        if res["witness"] is not None:
            # the witness attains the sequence and sits outside A^2
            from nonassoc.invariants import _jordan_type_nilpotent
            from nonassoc.operators import multiplication_operator
            M = multiplication_operator(A, (res["witness"],))
            assert list(_jordan_type_nilpotent(M, QQ, A.dim)) == seq


def test_characteristic_sequence_preconditions():
    with pytest.raises(DomainError):
        characteristic_sequence(catalog_get("sl2"))


def test_multiplicative_basis_examples():
    assert multiplicative_basis_check(catalog_get("NF", {"n": 5}))[0]
    assert multiplicative_basis_check(catalog_get("sl2"))[0]
    # matrix(2) in the modified basis {e11+e12, e12, e21, e22} fails
    m2 = catalog_get("matrix", {"n": 2})
    P = [[Fraction(1), Fraction(0), Fraction(0), Fraction(0)],
         [Fraction(1), Fraction(1), Fraction(0), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(1), Fraction(0)],
         [Fraction(0), Fraction(0), Fraction(0), Fraction(1)]]
    moved = change_basis(m2, P)
    ok, wit = multiplicative_basis_check(moved)
    assert not ok and wit is not None


def test_standard_embedding_an3():
    emb = standard_embedding(catalog_get("A_n", {"n": 3}))
    assert emb.l_dim == 3 and emb.dim == 6
    # published ad matrices: ad(e2,e3) = E11, ad(e1,e2) = E13, ad(e1,e3) = -E12
    T = catalog_get("A_n", {"n": 3}).op("mul")

    def ad(x, y):
        M = [[Fraction(0)] * 3 for _ in range(3)]
        for z in range(3):
            for k, c in T.basis_product((x, y, z)).items():
                M[k][z] = c
        return M

    E = lambda i, j: [[Fraction(1) if (a, b) == (i, j) else Fraction(0)
                       for b in range(3)] for a in range(3)]
    assert ad(1, 2) == E(0, 0)
    assert ad(0, 1) == E(0, 2)
    assert ad(0, 2) == [[-x for x in row] for row in E(0, 1)]


def test_standard_embedding_zero_ternary():
    z2 = Algebra("z", 2, {"mul": StructureTensor(2, 3, {}, QQ)}, QQ)
    emb = standard_embedding(z2)
    assert emb.l_dim == 0 and emb.dim == 2
    assert emb.op("mul").is_zero()


def test_standard_embedding_d4_closure_and_grading():
    emb = standard_embedding(catalog_get("D", {"dim": 4}))
    assert emb.l_dim == 6  # so(4)
    rep = structure_report(emb, grading=emb.grading, grading_modulus=2)
    assert rep["grading_ok"], rep.get("grading_witness")


def test_grading_rejected_when_wrong():
    sl2 = catalog_get("sl2")
    # e, f, h with fake degrees 0/1 is not a Z/2 grading of sl2
    parts = [(0, Subspace([sl2.basis_vector(0)], 3, QQ)),
             (1, Subspace([sl2.basis_vector(1), sl2.basis_vector(2)], 3, QQ))]
    ok, wit = verify_grading(sl2, parts, modulus=2)
    assert not ok
    # the Cartan grading h:0, e:1, f:-1 works over the integers
    parts = [(0, Subspace([sl2.basis_vector(2)], 3, QQ)),
             (1, Subspace([sl2.basis_vector(0)], 3, QQ)),
             (-1, Subspace([sl2.basis_vector(1)], 3, QQ))]
    ok, wit = verify_grading(sl2, parts)
    assert ok, wit


def test_grading_check_ternary():
    # all-degree-1 is a Z/2 grading of the ternary D(4): 1+1+1 = 1 mod 2
    d4 = catalog_get("D", {"dim": 4})
    full = Subspace([d4.basis_vector(i) for i in range(4)], 4, QQ)
    ok, wit = verify_grading(d4, [(1, full)], modulus=2)
    assert ok, wit
    # over the integers the same assignment fails (degree 3 has no part)
    ok, _ = verify_grading(d4, [(1, full)])
    assert not ok


def test_embedding_requires_ternary():
    with pytest.raises(DomainError):
        standard_embedding(catalog_get("sl2"))


def _embedding_reference(T):
    """(table, l_dim) of the standard embedding as built before its ad(x, y)
    came from ``multiplication_operator``: the ad matrices and every row
    filtered by hand, zero ad matrices left out."""
    t = T.op()
    dom = T.dom
    n = T.dim
    ad_mats = {}
    for x in range(n):
        for y in range(n):
            M = [[dom.zero()] * n for _ in range(n)]
            nz = False
            for z in range(n):
                for k, c in t.basis_product((x, y, z)).items():
                    M[k][z] = c
                    nz = True
            if nz:
                ad_mats[(x, y)] = M
    flat = [[x for row in M for x in row] for M in ad_mats.values()]
    Lspace = Subspace(flat, n * n, dom)
    s = Lspace.dim
    Lbasis = [[[v[i * n + j] for j in range(n)] for i in range(n)]
              for v in Lspace.basis]
    table = {}
    for a in range(s):
        for b in range(s):
            comm = mat_sub(mat_mul(Lbasis[a], Lbasis[b], dom),
                           mat_mul(Lbasis[b], Lbasis[a], dom))
            coords = Lspace.coordinates(x for row in comm for x in row)
            row = {k: c for k, c in enumerate(coords) if not dom.is_zero(c)}
            if row:
                table[(a, b)] = row
    for a in range(s):
        for w in range(n):
            col = [Lbasis[a][i][w] for i in range(n)]
            row = {s + k: c for k, c in enumerate(col) if not dom.is_zero(c)}
            if row:
                table[(a, s + w)] = row
            row = {s + k: -c for k, c in enumerate(col) if not dom.is_zero(c)}
            if row:
                table[(s + w, a)] = row
    for z in range(n):
        for w in range(n):
            M = ad_mats.get((z, w))
            if M is None:
                continue
            coords = Lspace.coordinates(x for row in M for x in row)
            row = {k: c for k, c in enumerate(coords) if not dom.is_zero(c)}
            if row:
                table[(s + z, s + w)] = row
    return table, s


@pytest.mark.parametrize("name, params", [("A_n", {"n": 3}), ("D", {"dim": 4}),
                                          ("D2", {}), ("M8", {})])
def test_standard_embedding_matches_reference(name, params):
    T = catalog_get(name, params)
    emb = standard_embedding(T)
    table, s = _embedding_reference(T)
    assert emb.op("mul").table == table
    assert emb.l_dim == s and emb.dim == s + T.dim
    degrees = [0] * s + [1] * T.dim
    assert [(d, sub.basis) for d, sub in emb.grading] == [
        (d, [emb.basis_vector(k) for k in range(emb.dim) if degrees[k] == d]) for d in (0, 1)]


def test_characteristic_sequence_is_certified_in_any_dimension(monkeypatch):
    """NF(4) + NF(4): every basis vector has Jordan type (4, 1, 1, 1, 1), so
    without samples no candidate reaches the generic type (4, 4).  The
    certified type is reported, with no witness."""
    nf4 = catalog_get("NF", {"n": 4}).op().table
    table = {(i + o, j + o): {k + o: c for k, c in row.items()}
             for o in (0, 4) for (i, j), row in nf4.items()}
    A = Algebra("NF4+NF4", 8, {"mul": StructureTensor(8, 2, table, QQ)}, QQ)
    monkeypatch.setattr(invariants, "EXTRA_SAMPLES", 0)
    assert characteristic_sequence(A) == {"sequence": [4, 4], "witness": None}
    # with samples, the first sample outside A^2 of the generic type is the witness
    monkeypatch.setattr(invariants, "EXTRA_SAMPLES", 40)
    res = characteristic_sequence(A)
    assert res["sequence"] == [4, 4]
    M = multiplication_operator(A, (res["witness"],))
    assert invariants._jordan_type_nilpotent(M, QQ, 8) == (4, 4)


def _reference_powers(A, op=None):
    """Reference: ``_powers`` as it was, A^k summed one product space
    A^i A^{k-i} at a time."""
    t = A.op(op)
    dom, n = A.dom, A.dim
    powers = [Subspace([A.basis_vector(i) for i in range(n)], n, dom)]
    for k in range(2, 4 * n + 5):
        acc = Subspace([], n, dom)
        for i in range(1, k):
            part = Subspace([t.apply([u, w]) for u in powers[i - 1].basis
                             for w in powers[k - i - 1].basis], n, dom)
            acc = Subspace(acc.basis + part.basis, n, dom)
        powers.append(acc)
        if acc.dim == 0:
            break
        if len(powers) >= 3 and powers[-1] == powers[-2] == powers[-3]:
            break
    return powers


def _reference_verify_grading(A, grading, op=None, modulus=None):
    """Reference: ``verify_grading`` as it was, each part and the total
    summed one subspace at a time."""
    t = A.op(op)
    dom = A.dom
    parts = {}
    for deg, sub in grading:
        if modulus:
            deg %= modulus
        part = parts.get(deg, Subspace([], A.dim, dom))
        parts[deg] = Subspace(part.basis + sub.basis, A.dim, dom)
    total = Subspace([], A.dim, dom)
    for sub in parts.values():
        total = Subspace(total.basis + sub.basis, A.dim, dom)
    if total.dim != A.dim:
        return False, {"reason": "parts do not span"}
    degs = sorted(parts)
    for combo in itertools.product(degs, repeat=t.arity):
        target_deg = sum(combo) % modulus if modulus else sum(combo)
        target = parts.get(target_deg, Subspace([], A.dim, dom))
        for bases in itertools.product(*[parts[d].basis for d in combo]):
            v = t.apply(bases)
            if not target.contains_vector(v):
                return False, {"degrees": list(combo), "product": v}
    return True, None


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.data())
def test_powers_and_grading_match_the_sum_loops(dom, data):
    """Random algebras of dim 1-4 over Q and GF(7), some nilpotent
    (products only into higher basis indices) and some graded by the
    degrees of their basis vectors (over Z or Z/m), with one part per kept
    basis vector, degrees repeating, shifted by multiples of m, and a
    vector dropped at times: the power filtration and the grading verdict
    and witness are those of the sum loops."""
    n = data.draw(st.integers(1, 4))
    deg = [data.draw(st.integers(0, 2)) for _ in range(n)]
    modulus = data.draw(st.sampled_from([None, 2, 3]))
    graded, nilpotent = data.draw(st.booleans()), data.draw(st.booleans())

    def reduced(d):
        return d % modulus if modulus else d

    table = {}
    for i, j in itertools.product(range(n), repeat=2):
        row = {k: Fraction(c) for k in range(n)
               if (not nilpotent or k > max(i, j))
               and (not graded or reduced(deg[k]) == reduced(deg[i] + deg[j]))
               and (c := data.draw(st.integers(-2, 2)))}
        if row:
            table[(i, j)] = row
    A = Algebra("random", n, {"mul": StructureTensor(n, 2, table, QQ).map_domain(dom, dom.coerce)},
                dom)
    assert invariants._powers(A, None) == _reference_powers(A)
    kept = [i for i in range(n) if not data.draw(st.integers(0, 9)) == 0]
    grading = [(deg[i] + (modulus or 0) * data.draw(st.integers(0, 1)),
                Subspace([A.basis_vector(i)], n, dom)) for i in kept]
    assert verify_grading(A, grading, modulus=modulus) == \
        _reference_verify_grading(A, grading, modulus=modulus)
