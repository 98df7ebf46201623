import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc.catalog import catalog_get, octonions
from nonassoc.identities import Identity
from nonassoc.linalg import identity_matrix, mat_mul, mat_sub
from nonassoc.operators import derivation_space
from nonassoc.scalars import GF, QQ, QT, DomainError, RatFunc
from nonassoc.structure import Algebra, StructureTensor, multiplication_operator
from nonassoc.varieties import (automorphism_identity, check_variety, filippov_identity,
                                hom_leibniz3_identity, list_varieties, minus_algebra,
                                nary_alternating_identities, nary_commutative_identities,
                                plus_algebra)

# catalog instances used for the containment web
CATALOG = [
    ("abelian3", catalog_get("abelian", {"n": 3})),
    ("NF3", catalog_get("NF", {"n": 3})),
    ("NF4", catalog_get("NF", {"n": 4})),
    ("filiform", catalog_get("filiform1p", {"n": 4, "theta": 1})),
    ("sl2", catalog_get("sl2")),
    ("heis3", catalog_get("heis3")),
    ("matrix2", catalog_get("matrix", {"n": 2})),
    ("uppertri2", catalog_get("uppertri", {"n": 2})),
    ("uppertri3", catalog_get("uppertri", {"n": 3})),
    ("quaternions", catalog_get("quaternions")),
    ("octonions", catalog_get("octonions")),
    ("M7", catalog_get("M7")),
    ("zinbiel4", catalog_get("zinbiel-free1", {"n": 4})),
    ("U2e", catalog_get("U2e")),
]


def _holds(A, name):
    return check_variety(A, name)["holds"]


def test_lie_containments():
    """Lie implies Malcev, binary Lie, symmetric Leibniz, anticommutative CD."""
    for label, A in CATALOG:
        if A.op().arity != 2:
            continue
        if _holds(A, "lie"):
            for bigger in ("malcev", "binary-lie", "symmetric-leibniz",
                           "cd-anticommutative"):
                assert _holds(A, bigger), (label, bigger)


def test_malcev_inside_binary_lie():
    for label, A in CATALOG:
        if A.op().arity != 2:
            continue
        if _holds(A, "malcev"):
            assert _holds(A, "binary-lie"), label


def test_associative_containments():
    for label, A in CATALOG:
        if A.op().arity != 2:
            continue
        if _holds(A, "associative"):
            for bigger in ("alternative", "noncommutative-jordan",
                           "weakly-associative", "assosymmetric"):
                assert _holds(A, bigger), (label, bigger)


def test_jordan_containments():
    for label, A in CATALOG:
        if A.op().arity != 2:
            continue
        if _holds(A, "jordan"):
            assert _holds(A, "almost-jordan"), label
            assert _holds(A, "noncommutative-jordan"), label


def test_plus_minus_functor_laws():
    # alternative^+ is Jordan; associative^- is Lie; assosymmetric^+ is
    # commutative CD (almost-Jordan)
    for label, A in CATALOG:
        if A.op().arity != 2:
            continue
        if _holds(A, "alternative"):
            assert _holds(plus_algebra(A), "jordan"), label
        if _holds(A, "associative"):
            assert _holds(minus_algebra(A), "lie"), label
        if _holds(A, "assosymmetric"):
            assert _holds(plus_algebra(A), "almost-jordan"), label


def test_octonion_commutator_is_malcev():
    assert _holds(minus_algebra(catalog_get("octonions")), "malcev")


def test_m8_is_not_3lie():
    rep = check_variety(catalog_get("M8"), "3-lie")
    assert rep["holds"] is False
    assert rep["failures"]


def test_nary_jordan_examples():
    assert _holds(catalog_get("ternaryJordan", {"n": 3}), "nary-jordan")
    # D3 is built from (x y*) z, not totally commutative
    rep = check_variety(catalog_get("D3"), "nary-jordan")
    assert rep["holds"] is False


def test_hom_leibniz3_nontrivial_automorphisms():
    d4 = catalog_get("D", {"dim": 4})
    # -I is an automorphism (the bracket is trilinear) and the twist cancels
    negI = [[Fraction(-1) if i == j else Fraction(0) for j in range(4)]
            for i in range(4)]
    assert check_variety(d4, "hom-leibniz-3", phi=negI)["holds"]
    # an even basis 3-cycle is an automorphism but breaks the twisted identity
    perm = [[Fraction(0)] * 4 for _ in range(4)]
    perm[1][0] = perm[2][1] = perm[0][2] = perm[3][3] = Fraction(1)
    rep = check_variety(d4, "hom-leibniz-3", phi=perm)
    assert rep["holds"] is False and not rep["preconditions"]


def test_hom_leibniz3():
    d4 = catalog_get("D", {"dim": 4})
    assert check_variety(d4, "hom-leibniz-3", phi=identity_matrix(4))["holds"]
    # a non-automorphism is rejected as a precondition failure
    bad = identity_matrix(4)
    bad[0][0] = Fraction(2)
    rep = check_variety(d4, "hom-leibniz-3", phi=bad)
    assert rep["holds"] is False
    assert rep["preconditions"]
    rep = check_variety(d4, "hom-leibniz-3")
    assert "automorphism phi required" in rep["preconditions"]


def test_unknown_variety():
    with pytest.raises(DomainError):
        check_variety(catalog_get("sl2"), "sagle")


def test_variety_list_stable():
    names = list_varieties()
    assert "zinbiel" in names and "terminal" in names and "n-lie" in names


def test_terminal_cross_check_on_randoms():
    """Identity route and conservativity-with-M* route agree (the check is
    wired inside check_variety and raises on any mismatch)."""
    rng = random.Random(99)
    hits = 0
    for _ in range(50):
        n = rng.choice([2, 3])
        table = {}
        for i in range(n):
            for j in range(n):
                row = {k: Fraction(rng.randint(-1, 1)) for k in range(n)}
                row = {k: c for k, c in row.items() if c}
                if row:
                    table[(i, j)] = row
        A = Algebra("rnd", n, {"mul": StructureTensor(n, 2, table, QQ)}, QQ)
        rep = check_variety(A, "terminal")
        assert rep["holds"] == rep["conservativity_terminal"]
        hits += rep["holds"]
    # sanity: both verdicts occur in the sample
    assert 0 < hits < 50


def test_tortkara_from_zinbiel():
    # Zinbiel algebras under the commutator give Tortkara algebras
    z = catalog_get("zinbiel-free1", {"n": 5})
    assert _holds(minus_algebra(z), "tortkara")


# ---------------------------------------------------------------------------
# the plus/minus functors and M7 against their former loops
# ---------------------------------------------------------------------------

def _looped_functor(A, op, sign):
    """plus_algebra (sign 1) or minus_algebra (sign -1) before law tables:
    xy and sign * yx added row by row at every basis pair."""
    t = A.op(op)
    dom = A.dom
    table = {}
    for i in range(A.dim):
        for j in range(A.dim):
            row = {}
            for k, c in t.basis_product((i, j)).items():
                row[k] = row.get(k, dom.zero()) + c
            for k, c in t.basis_product((j, i)).items():
                row[k] = row.get(k, dom.zero()) + (c if sign == 1 else -c)
            row = {k: c for k, c in row.items() if not dom.is_zero(c)}
            if row:
                table[(i, j)] = row
    return table


def _looped_m7():
    """M7 before law tables: the commutator of the imaginary octonion units,
    looped over basis pairs."""
    t = octonions().op("mul")
    table = {}
    for i in range(1, 8):
        for j in range(1, 8):
            row = {}
            for k, c in t.basis_product((i, j)).items():
                row[k] = row.get(k, Fraction(0)) + c
            for k, c in t.basis_product((j, i)).items():
                row[k] = row.get(k, Fraction(0)) - c
            row = {k - 1: c for k, c in row.items() if c and k >= 1}
            if row:
                table[(i - 1, j - 1)] = row
    return table


def _over(A, dom):
    return Algebra(A.name, A.dim, {n: t.map_domain(dom, dom.coerce) for n, t in A.ops.items()},
                   dom)


@pytest.mark.parametrize("label,A", CATALOG + [("tp4", catalog_get("tp4"))],
                         ids=[c[0] for c in CATALOG] + ["tp4"])
def test_functors_match_the_looped_reference(label, A):
    """Every operation of the containment catalog (tp4 has two), over Q,
    GF(5) and Q(t)."""
    for dom in (QQ, GF(5), QT):
        B = A if dom is QQ else _over(A, dom)
        if dom is QT:
            B.ops["mul"] = B.ops["mul"].scale(RatFunc.t_power(1) + 1)
        for op in B.op_names():
            for functor, sign, suffix in ((plus_algebra, 1, "+"), (minus_algebra, -1, "-")):
                got = functor(B, op)
                assert got.name == f"{A.name}^{suffix}" and got.dom is dom
                assert got.op().table == _looped_functor(B, op, sign)


def test_m7_matches_the_looped_reference():
    assert catalog_get("M7").op().table == _looped_m7()


# ---------------------------------------------------------------------------
# the n-ary laws as DSL text against their former term tuples, and the
# n-ary Jordan law against the former loop over multiplication operators
# ---------------------------------------------------------------------------

def _v(names):
    return tuple(("v", v) for v in names)


def _tupled_alternating(m):
    out = []
    for a in range(m):
        for b in range(a + 1, m):
            names, fresh = [], 0
            for s in range(m):
                if s == a or s == b:
                    names.append("x")
                else:
                    names.append(f"y{fresh}")
                    fresh += 1
            out.append(Identity([(1, ("[]", _v(names)))], {"[]": m}))
    return out


def _tupled_commutative(m):
    out = []
    base = [f"x{i}" for i in range(m)]
    for a in range(m - 1):
        sw = list(base)
        sw[a], sw[a + 1] = sw[a + 1], sw[a]
        out.append(Identity([(1, ("[]", _v(base))), (-1, ("[]", _v(sw)))], {"[]": m}))
    return out


def _tupled_filippov(m):
    xs = [f"x{i}" for i in range(m)]
    ys = [f"y{i}" for i in range(1, m)]
    terms = [(1, ("[]", (("[]", _v(xs)),) + _v(ys)))]
    for i in range(m):
        repl = ("[]", (("v", xs[i]),) + _v(ys))
        terms.append((-1, ("[]", tuple(repl if j == i else ("v", xs[j]) for j in range(m)))))
    return Identity(terms, {"[]": m})


def _tupled_hom_leibniz3():
    def P(v):
        return ("phi", (("v", v),))

    def V(v):
        return ("v", v)

    lhs = ("[]", (P("x1"), P("x2"), ("[]", (V("y1"), V("y2"), V("y3")))))
    r1 = ("[]", (("[]", (V("x1"), V("x2"), V("y1"))), P("y2"), P("y3")))
    r2 = ("[]", (P("y1"), ("[]", (V("x1"), V("x2"), V("y2"))), P("y3")))
    r3 = ("[]", (P("y1"), P("y2"), ("[]", (V("x1"), V("x2"), V("y3")))))
    return Identity([(1, lhs), (-1, r1), (-1, r2), (-1, r3)], {"[]": 3, "phi": 1})


def _tupled_automorphism(m):
    xs = _v(f"x{i}" for i in range(m))
    return Identity([(1, ("phi", (("[]", xs),))), (-1, ("[]", tuple(("phi", (x,)) for x in xs)))],
                    {"[]": m, "phi": 1})


def _content(idents):
    return [(ident.terms, ident.variables) for ident in idents]


@pytest.mark.parametrize("m", range(2, 9))
def test_nary_laws_are_the_former_term_tuples(m):
    assert _content(nary_alternating_identities(m)) == _content(_tupled_alternating(m))
    assert _content(nary_commutative_identities(m)) == _content(_tupled_commutative(m))
    assert _content([filippov_identity(m)]) == _content([_tupled_filippov(m)])
    assert _content([automorphism_identity(m)]) == _content([_tupled_automorphism(m)])
    assert _content([hom_leibniz3_identity()]) == _content([_tupled_hom_leibniz3()])


def _looped_nary_jordan(A):
    """check_variety(A, "nary-jordan") on a totally commutative A before the
    law: [R_x, R_y] tested against the derivation space for every pair of
    basis tuples x, y, R_u the multiplication operator w -> [w, u]."""
    m = A.op().arity
    der = derivation_space(A, delta=1, op=A.op_names()[0])
    report = {"variety": "nary-jordan", "holds": True, "failures": [], "preconditions": []}
    for left in itertools.product(range(A.dim), repeat=m - 1):
        R1 = multiplication_operator(A, left)
        for right in itertools.product(range(A.dim), repeat=m - 1):
            R2 = multiplication_operator(A, right)
            comm = mat_sub(mat_mul(R1, R2, A.dom), mat_mul(R2, R1, A.dom))
            if not der.contains_matrix(comm):
                report["failures"].append({"left_tuple": list(left), "right_tuple": list(right)})
                report["holds"] = False
                return report
    return report


def _totally_commutative(rows, arity, dim, dom=QQ):
    """The algebra whose operation takes each multiset of basis indices
    (a sorted key of ``rows``) to its row, in every order."""
    table = {perm: row for idx, row in rows.items() for perm in itertools.permutations(idx)}
    return Algebra("tc", dim, {"mul": StructureTensor(dim, arity, table, dom)}, dom)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_nary_jordan_matches_the_looped_reference(data):
    """Random totally commutative tables: arity 2-4, dims 2-3, over Q,
    GF(2), GF(3) and GF(7); the whole report is the reference's."""
    dom = data.draw(st.sampled_from([QQ, GF(2), GF(3), GF(7)]))
    arity = data.draw(st.integers(2, 4))
    dim = data.draw(st.integers(2, 3))
    row = st.dictionaries(st.integers(0, dim - 1), st.integers(-2, 2), max_size=dim)
    rows = {idx: data.draw(row)
            for idx in itertools.combinations_with_replacement(range(dim), arity)}
    A = _totally_commutative(rows, arity, dim, dom)
    assert check_variety(A, "nary-jordan") == _looped_nary_jordan(A)


def test_a_commutative_ternary_algebra_that_is_not_nary_jordan():
    """[e0,e0,e0] = e1 and [e0,e0,e1] = e0: [R_(0,0), R_(0,1)] is the first
    pair of basis tuples whose commutator is no derivation."""
    A = _totally_commutative({(0, 0, 0): {1: 1}, (0, 0, 1): {0: 1}}, 3, 2)
    rep = check_variety(A, "nary-jordan")
    assert rep == {"variety": "nary-jordan", "holds": False, "preconditions": [],
                   "failures": [{"left_tuple": [0, 0], "right_tuple": [0, 1]}]}
    assert rep == _looped_nary_jordan(A)
