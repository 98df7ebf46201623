import itertools
import random
from fractions import Fraction

import pytest

from nonassoc.catalog import CATALOG_NAMES, _cd_conj_sign, catalog_get, cd_basis_mul
from nonassoc.scalars import DomainError
from nonassoc.varieties import check_variety


def test_nf3_table():
    A = catalog_get("NF", {"n": 3})
    t = A.op("mul")
    assert t.basis_product((0, 0)) == {1: 1}
    assert t.basis_product((1, 0)) == {2: 1}
    assert len(t.table) == 2


def test_d4_signs():
    A = catalog_get("D", {"dim": 4})
    t = A.op("mul")
    # [e1,e2,e3] = (-1)^{3+4+1} e4 = e4, and sign-alternating siblings
    assert t.basis_product((0, 1, 2)) == {3: 1}
    assert t.basis_product((1, 0, 2)) == {3: -1}
    # i=1 => sign (-1)^{3+1+1} = -1 on the base tuple (e2,e3,e4)
    assert t.basis_product((1, 2, 3)) == {0: -1}
    assert t.basis_product((2, 1, 3)) == {0: 1}


def test_d4_defining_sign_convention():
    # [e_1,...,^e_i,...,e_{n+1}] = (-1)^{n+i+1} e_i for each i (1-based)
    A = catalog_get("D", {"dim": 4})
    t = A.op("mul")
    n = 3
    for i in range(1, 5):
        base = tuple(j - 1 for j in range(1, 5) if j != i)
        want = Fraction((-1) ** (n + i + 1))
        assert t.basis_product(base) == {i - 1: want}


def test_an_table():
    A = catalog_get("A_n", {"n": 3})
    t = A.op("mul")
    assert t.basis_product((0, 1, 2)) == {0: 1}
    assert t.basis_product((1, 0, 2)) == {0: -1}
    assert t.basis_product((0, 0, 1)) == {}


def test_tp4_poisson_by_brute_force():
    """Independent oracle: scan every axiom on all basis triples."""
    P = catalog_get("tp4")
    mul, br = P.ops["mul"], P.ops["bracket"]
    n = P.dim

    def v(sparse):
        out = [Fraction(0)] * n
        for k, c in sparse.items():
            out[k] = c
        return out

    def prod(t, i, j):
        return v(t.basis_product((i, j)))

    def app(t, x, y):
        return t.apply([x, y])

    for i, j in itertools.product(range(n), repeat=2):
        assert prod(mul, i, j) == prod(mul, j, i)
        assert prod(br, i, j) == [-c for c in prod(br, j, i)]
    for i, j, k in itertools.product(range(n), repeat=3):
        ei, ej, ek = (P.basis_vector(a) for a in (i, j, k))
        # associativity of mul
        assert app(mul, app(mul, ei, ej), ek) == app(mul, ei, app(mul, ej, ek))
        # Jacobi for bracket
        jac = [a + b + c for a, b, c in zip(
            app(br, app(br, ei, ej), ek),
            app(br, app(br, ej, ek), ei),
            app(br, app(br, ek, ei), ej))]
        assert jac == [0] * n
        # Leibniz: {x, y z} = {x,y} z + y {x,z}
        lhs = app(br, ei, app(mul, ej, ek))
        rhs = [a + b for a, b in zip(app(mul, app(br, ei, ej), ek),
                                     app(mul, ej, app(br, ei, ek)))]
        assert lhs == rhs


def test_tp4_bracket_values():
    P = catalog_get("tp4")
    br = P.ops["bracket"]
    assert br.basis_product((1, 2)) == {0: 1}    # {x,y} = 1
    assert br.basis_product((1, 3)) == {1: 1}    # {x,xy} = x
    assert br.basis_product((2, 3)) == {2: -1}   # {y,xy} = -y


def test_octonion_facts():
    o = catalog_get("octonions")
    assert check_variety(o, "alternative")["holds"]
    assert not check_variety(o, "associative")["holds"]
    q = catalog_get("quaternions")
    assert check_variety(q, "associative")["holds"]
    assert not check_variety(q, "commutative")["holds"]


def test_catalog_defining_identities():
    cases = [
        ("abelian", {"n": 3}, "commutative-associative", True),
        ("NF", {"n": 3}, "leibniz", True),
        ("NF", {"n": 4}, "leibniz", True),
        ("filiform1p", {"n": 4, "theta": 1}, "leibniz", True),
        ("R", {"seq": (2, 1)}, "leibniz", True),
        ("sl2", {}, "lie", True),
        ("heis3", {}, "lie", True),
        ("matrix", {"n": 2}, "associative", True),
        ("uppertri", {"n": 3}, "associative", True),
        ("M7", {}, "malcev", True),
        ("M7", {}, "lie", False),
        ("M8", {}, "3-lie", False),
        ("A_n", {"n": 3}, "3-lie", True),
        ("D", {"dim": 4}, "3-lie", True),
        ("ternaryJordan", {"n": 3}, "nary-jordan", True),
        ("zinbiel-free1", {"n": 4}, "zinbiel", True),
    ]
    for name, params, variety, want in cases:
        A = catalog_get(name, params)
        assert check_variety(A, variety)["holds"] is want, (name, variety)


def test_a_alpha():
    A = catalog_get("A_alpha", {"alpha": Fraction(5), "arity": 3})
    assert A.dim == 1
    assert A.op("mul").basis_product((0, 0, 0)) == {0: 5}
    assert check_variety(A, "nary-commutative")["holds"]


def test_r_algebra_dimension():
    # R(n_1..n_k) lives in dimension n + k + 3
    for seq in [(1,), (2,), (2, 1), (3, 2, 1)]:
        A = catalog_get("R", {"seq": seq})
        assert A.dim == sum(seq) + len(seq) + 3
    with pytest.raises(DomainError):
        catalog_get("R", {"seq": (1, 2)})  # not decreasing


def test_unknown_and_invalid():
    with pytest.raises(DomainError):
        catalog_get("nope")
    with pytest.raises(DomainError):
        catalog_get("NF", {"n": 0})
    with pytest.raises(DomainError):
        catalog_get("D", {"dim": 2})


def test_u2e_from_catalog():
    A = catalog_get("U2e")
    assert A.dim == 8
    assert A.op("mul").basis_product((1, 2)) == {0: 2}   # e2 e3 = 2 e1
    assert A.op("mul").basis_product((0, 0)) == {0: -1}  # e1 e1 = -e1
    for j in range(8):
        assert A.op("mul").basis_product((3, j)) == {}   # e4 row is zero


def test_catalog_names_all_constructible():
    params = {"abelian": {"n": 2}, "NF": {"n": 3}, "filiform1p": {"n": 4},
              "R": {"seq": (2, 1)}, "matrix": {"n": 2}, "uppertri": {"n": 2},
              "ternaryJordan": {"n": 3}, "A_n": {"n": 3}, "D": {"dim": 4},
              "A_alpha": {"alpha": 2}, "zinbiel-free1": {"n": 3}}
    for name in CATALOG_NAMES:
        A = catalog_get(name, params.get(name, {}))
        assert A.dim >= 1


def _m8_table_reference():
    """The M8 table as built before StructureTensor dropped the zeros."""
    table = {}
    for i in range(8):
        for j in range(8):
            s1, mid = cd_basis_mul(i, j, 8)
            s1 *= _cd_conj_sign(j)
            for k in range(8):
                row = {}
                s2, out = cd_basis_mul(mid, k, 8)
                row[out] = row.get(out, Fraction(0)) + s1 * s2
                if j == k:
                    row[i] = row.get(i, Fraction(0)) - 1
                if i == k:
                    row[j] = row.get(j, Fraction(0)) + 1
                if i == j:
                    row[k] = row.get(k, Fraction(0)) - 1
                row = {a: c for a, c in row.items() if c}
                if row:
                    table[(i, j, k)] = row
    return table


def _ternary_jordan_table_reference(n, form):
    """The ternaryJordan table as built before StructureTensor dropped the
    zeros."""
    table = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = {}
                row[i] = row.get(i, Fraction(0)) + form[j][k]
                row[j] = row.get(j, Fraction(0)) + form[i][k]
                row[k] = row.get(k, Fraction(0)) + form[i][j]
                row = {a: c for a, c in row.items() if c}
                if row:
                    table[(i, j, k)] = row
    return table


def test_m8_and_ternary_jordan_match_reference():
    M8 = catalog_get("M8")
    assert M8.op().table == _m8_table_reference()
    assert M8.form == [[Fraction(int(a == b)) for b in range(8)] for a in range(8)]
    rng = random.Random(4)
    form = [[0] * 4 for _ in range(4)]
    for a in range(4):
        for b in range(a, 4):
            form[a][b] = form[b][a] = Fraction(rng.randint(-2, 2))
    A = catalog_get("ternaryJordan", {"n": 4, "form": form})
    assert A.op().table == _ternary_jordan_table_reference(4, form)
