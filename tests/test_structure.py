import itertools
import json
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc.catalog import CATALOG_NAMES, catalog_get
from nonassoc.linalg import inverse, is_invertible, mat_vec
from nonassoc.scalars import GF, QQ, QT, DomainError, RatFunc
from nonassoc.structure import (Algebra, StructureTensor, algebra_from_json,
                                algebra_to_json, change_basis)


def _random_invertible(rng, n):
    while True:
        P = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(n)]
        from nonassoc.linalg import is_invertible
        if is_invertible(P):
            return P


def test_tensor_validation():
    with pytest.raises(DomainError):
        StructureTensor(2, 2, {(0, 5): {0: 1}})
    with pytest.raises(DomainError):
        StructureTensor(2, 2, {(0, 0): {7: 1}})
    t = StructureTensor(2, 2, {(0, 0): {1: 0}})  # zero coeffs dropped
    assert t.is_zero()


def test_apply_matches_table():
    nf3 = catalog_get("NF", {"n": 3})
    t = nf3.op("mul")
    x = [Fraction(1), Fraction(2), Fraction(0)]
    y = [Fraction(1), Fraction(0), Fraction(0)]
    # (e0 + 2 e1) * e0 = e1 + 2 e2
    assert t.apply([x, y]) == [0, 1, 2]


def _whole_table_apply(t, svecs):
    """Reference for apply_sparse: scan the whole table (the former path)."""
    dom = t.dom
    out = {}
    for args, coeffs in t.table.items():
        prod = dom.one()
        dead = False
        for v, i in zip(svecs, args):
            c = v.get(i)
            if c is None:
                dead = True
                break
            prod = prod * c
        if dead:
            continue
        for k, c in coeffs.items():
            s = out.get(k, dom.zero()) + prod * c
            if dom.is_zero(s):
                out.pop(k, None)
            else:
                out[k] = s
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_apply_sparse_matches_whole_table_scan(data):
    dom = data.draw(st.sampled_from([QQ, GF(7), QT]))
    dim = data.draw(st.integers(1, 4))
    arity = data.draw(st.integers(1, 3))
    # small coefficients, t-multiples over Q(t), so that sums often cancel
    scalar = st.builds(
        lambda a, k: dom.from_int(a) * (RatFunc.t_power(k) if dom is QT else 1),
        st.integers(-2, 2), st.integers(0, 1))
    index = st.integers(0, dim - 1)
    table = data.draw(st.dictionaries(
        st.tuples(*[index] * arity), st.dictionaries(index, scalar, max_size=3),
        max_size=dim ** arity))
    t = StructureTensor(dim, arity, table, dom)
    svecs = [data.draw(st.dictionaries(index, scalar.filter(lambda c: c)))
             for _ in range(arity)]
    got = t.apply_sparse(svecs)
    want = _whole_table_apply(t, svecs)
    assert set(got) == set(want)
    assert all(not dom.is_zero(c) and dom.is_zero(c - want[k])
               for k, c in got.items())


def test_change_basis_identity():
    sl2 = catalog_get("sl2")
    from nonassoc.linalg import identity_matrix
    assert change_basis(sl2, identity_matrix(3)).op("mul") == sl2.op("mul")


def test_change_basis_nf2_diag():
    # (P*mu)(e0,e0) = P mu(e0,e0) = 2 e1 for P = diag(1,2)
    nf2 = catalog_get("NF", {"n": 2})
    out = change_basis(nf2, [[1, 0], [0, 2]])
    assert out.op("mul").basis_product((0, 0)) == {1: Fraction(2)}


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_change_basis_round_trip(seed):
    rng = random.Random(seed)
    name = rng.choice(["NF", "sl2", "heis3"])
    params = {"n": 3} if rng.random() < 0.5 else {"n": 4}
    A = catalog_get(name, params if name == "NF" else {})
    P = _random_invertible(rng, A.dim)
    from nonassoc.linalg import inverse
    back = change_basis(change_basis(A, P), inverse(P, QQ))
    assert back.op("mul") == A.op("mul")


def _dense_change_basis(A, P):
    """change_basis before law tables: P mu(P^-1 e_i, ...) by a dense apply
    and mat_vec at every argument tuple."""
    dom = A.dom
    P = [[dom.coerce(x) for x in row] for row in P]
    Pinv = inverse(P, dom)
    cols = [[Pinv[i][j] for i in range(A.dim)] for j in range(A.dim)]
    new_ops = {}
    for name, t in A.ops.items():
        table = {}
        for args in itertools.product(range(A.dim), repeat=t.arity):
            out = mat_vec(P, t.apply([cols[i] for i in args]), dom)
            row = {k: c for k, c in enumerate(out) if not dom.is_zero(c)}
            if row:
                table[args] = row
        new_ops[name] = StructureTensor(A.dim, t.arity, table, dom)
    return new_ops


_CATALOG_PARAMS = {"abelian": {"n": 3}, "NF": {"n": 4}, "filiform1p": {"n": 5},
                   "R": {"seq": (2, 1)}, "matrix": {"n": 2}, "uppertri": {"n": 3},
                   "ternaryJordan": {"n": 3}, "A_n": {"n": 3}, "D": {"dim": 4},
                   "A_alpha": {"alpha": Fraction(2, 3), "arity": 3}, "zinbiel-free1": {"n": 4}}


def _seeded_basis(seed, n, dom=QQ, entries=range(-9, 10)):
    rng = random.Random(seed)
    while True:
        P = [[dom.coerce(rng.choice(entries)) for _ in range(n)] for _ in range(n)]
        if is_invertible(P, dom):
            return P


def _assert_same_algebra(B, ops):
    assert list(B.ops) == list(ops)
    for name, t in ops.items():
        assert B.ops[name].arity == t.arity and B.ops[name].table == t.table


@pytest.mark.parametrize("name", CATALOG_NAMES)
def test_change_basis_matches_dense_reference_on_the_catalog(name):
    """Every catalog entry (M8 and D3 are ternary on 8 dimensions, U2e has
    denominators) on seeded dense bases: equal tables, entry for entry."""
    A = catalog_get(name, _CATALOG_PARAMS.get(name))
    for seed in (1,) if A.dim ** max(t.arity for t in A.ops.values()) > 100 else (1, 2, 3):
        P = _seeded_basis(seed, A.dim)
        _assert_same_algebra(change_basis(A, P), _dense_change_basis(A, P))


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([QQ, GF(5), QT]), st.integers(1, 3), st.integers(1, 3),
       st.integers(0, 2**32))
def test_change_basis_matches_dense_reference_over_each_domain(dom, dim, arity, seed):
    rng = random.Random(seed)
    scalars = [dom.coerce(Fraction(c)) for c in ("1", "-1", "2", "1/2", "-3/2")]
    if dom is QT:
        scalars += [RatFunc.t_power(1), RatFunc.t_power(-1) + 1]
    table = {args: {k: rng.choice(scalars) for k in rng.sample(range(dim), rng.randint(1, dim))}
             for args in itertools.product(range(dim), repeat=arity) if rng.random() < 0.6}
    A = Algebra("rnd", dim, {"mul": StructureTensor(dim, arity, table, dom),
                             "sq": StructureTensor(dim, 2, {(0, 0): {dim - 1: scalars[3]}}, dom)},
                dom)
    P = _seeded_basis(seed, dim, dom, scalars + [dom.zero()])
    _assert_same_algebra(change_basis(A, P), _dense_change_basis(A, P))


def test_algebra_map_domain_converts_each_operation_and_keeps_unit_and_u():
    """Algebra.map_domain is StructureTensor.map_domain on each operation,
    with the name, unit and u kept; the form is not carried over."""
    tp4 = catalog_get("tp4")
    A = Algebra(tp4.name, tp4.dim, tp4.ops, QQ, unit=1, u=2,
                form=[[Fraction(int(i == j)) for j in range(4)] for i in range(4)])
    for dom, convert in ((GF(5), GF(5).coerce), (QT, RatFunc.const)):
        B = A.map_domain(dom, convert)
        assert (B.name, B.dim, B.dom, B.unit, B.u, B.form) == (A.name, 4, dom, 1, 2, None)
        assert B.op_names() == A.op_names()
        for name, t in A.ops.items():
            assert B.op(name).dom is dom and B.op(name) == t.map_domain(dom, convert)


def test_json_round_trip_exact():
    for name, params in [("sl2", {}), ("NF", {"n": 4}), ("tp4", {}),
                         ("M8", {}), ("octonions", {})]:
        A = catalog_get(name, params)
        doc = algebra_to_json(A)
        text = json.dumps(doc, sort_keys=True)
        B = algebra_from_json(json.loads(text))
        assert B.dim == A.dim and set(B.ops) == set(A.ops)
        for op in A.ops:
            assert B.op(op) == A.op(op)
        assert B.unit == A.unit
        # serialization is deterministic
        assert json.dumps(algebra_to_json(B), sort_keys=True) == text


def test_json_rational_strings():
    t = StructureTensor(2, 2, {(0, 1): {0: Fraction(1, 3)}})
    A = Algebra("x", 2, {"mul": t})
    doc = algebra_to_json(A)
    assert doc["ops"][0]["table"][0]["out"] == [[0, "1/3"]]


def test_gf_algebra_json():
    F = GF(3)
    t = StructureTensor(2, 2, {(0, 0): {1: F.from_int(2)}}, F)
    A = Algebra("x", 2, {"mul": t}, F)
    doc = algebra_to_json(A)
    assert doc["field"] == "GF(3)"
    B = algebra_from_json(doc)
    assert B.op("mul").basis_product((0, 0))[1].v == 2


def test_ops_share_dim():
    t2 = StructureTensor(2, 2, {})
    t3 = StructureTensor(3, 2, {})
    with pytest.raises(DomainError):
        Algebra("bad", 2, {"mul": t2, "bracket": t3})
