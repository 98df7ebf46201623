import random
from fractions import Fraction

import pytest

from nonassoc.catalog import catalog_get, octonions
from nonassoc.linalg import identity_matrix
from nonassoc.scalars import GF, QQ, QT, DomainError, RatFunc
from nonassoc.structure import Algebra, StructureTensor
from nonassoc.varieties import (check_variety, list_varieties, minus_algebra,
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
