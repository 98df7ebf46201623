import random
from fractions import Fraction

import pytest

from nonassoc.catalog import catalog_get
from nonassoc.identities import (ParseError, check_identity, parse_identity,
                                 polarize, symbolic_check, eval_identity_sparse,
                                 default_opmap)
from nonassoc.scalars import GF, QQ, DomainError
from nonassoc.structure import Algebra, StructureTensor
from nonassoc.varieties import BINARY_VARIETIES, variety_identities


def test_parse_basic():
    ident = parse_identity("(x*y)*z - x*(y*z)")
    assert ident.variables == ("x", "y", "z")
    assert ident.is_multilinear()
    assert len(ident.terms) == 2


def test_parse_zinbiel_form():
    ident = parse_identity("(x*y)*z = x*((y*z)+(z*y))")
    # (xy)z - x(yz) - x(zy): three expanded terms
    assert len(ident.terms) == 3


def test_parse_associator_macro():
    a = parse_identity("(x,y,z)")
    b = parse_identity("(x*y)*z - x*(y*z)")
    assert a.terms == b.terms


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse_identity("[x,y]*[z,w")
    assert "column 11" in str(exc.value)
    with pytest.raises(ParseError):
        parse_identity("x**y")
    with pytest.raises(ParseError):
        parse_identity("3")


def test_parse_nary_and_unary():
    ident = parse_identity("[x,y,z] - [y,x,z]")
    assert ident.signature["[]"] == 3
    dd = parse_identity("D(x*y) - D(x)*y - x*D(y)")
    assert dd.signature["D"] == 1


def test_parse_coefficients():
    ident = parse_identity("2 x*y - 1/2 y*x")
    coeffs = sorted(c for c, _ in ident.terms)
    assert coeffs == [Fraction(-1, 2), Fraction(2)]
    ident2 = parse_identity("2*x*y")  # coefficient with explicit star
    assert ident2.terms[0][0] == 2


def test_arity_mismatch():
    with pytest.raises(ParseError):
        parse_identity("[x,y] + [x,y,z]")


def test_polarize_multilinear_passthrough():
    ident = parse_identity("x*y - y*x")
    out = polarize(ident)
    assert out == [ident] or (len(out) == 1 and out[0].terms == ident.terms)
    assert out[0].restitution_scale == 1


def test_polarize_leaves_its_input_alone():
    ident = parse_identity("x*y - y*x")
    out = polarize(ident)
    assert out[0].restitution_scale == 1
    assert out[0] is not ident
    assert not hasattr(ident, "restitution_scale")


def test_polarize_jordan_shape():
    jordan = parse_identity("((x*x)*y)*x - (x*x)*(y*x)")
    out = polarize(jordan)
    assert len(out) == 1
    lin = out[0]
    assert sorted(lin.variables) == ["x1", "x2", "x3", "y"]
    assert lin.restitution_scale == 6
    assert lin.is_multilinear()


def test_polarize_malcev():
    # the Malcev identity has x-degree 2: full linearization produces one
    # multilinear identity in 4 variables (x1, x2, y, z), scale 2
    from nonassoc.varieties import variety_identities
    malcev = variety_identities("malcev")[1]
    out = polarize(malcev)
    assert len(out) == 1
    assert sorted(out[0].variables) == ["x1", "x2", "y", "z"]
    assert out[0].restitution_scale == 2


def test_polarize_char_guard():
    jordan = parse_identity("((x*x)*y)*x - (x*x)*(y*x)")
    with pytest.raises(DomainError):
        polarize(jordan, char=3)
    # multilinear identities pass through in any characteristic
    assert polarize(parse_identity("(x*y)*z - x*(y*z)"), char=3)


def _random_algebra(rng, n, commutative=False):
    table = {}
    for i in range(n):
        for j in range(i, n) if commutative else range(n):
            row = {k: Fraction(rng.randint(-2, 2)) for k in range(n)}
            row = {k: c for k, c in row.items() if c}
            if row:
                table[(i, j)] = row
                if commutative and i != j:
                    table[(j, i)] = dict(row)
    return Algebra("rnd", n, {"mul": StructureTensor(n, 2, table, QQ)}, QQ)


def test_polarization_soundness_vs_symbolic():
    """Tuple-scan verdict must equal the fully symbolic verdict on
    random small algebras, for the non-multilinear catalog identities."""
    nonlinear = []
    for name, texts in BINARY_VARIETIES.items():
        for ident in variety_identities(name):
            if not ident.is_multilinear():
                nonlinear.append((name, ident))
    # dedupe by term structure
    seen = set()
    idents = []
    for name, ident in nonlinear:
        key = tuple((str(c), str(t)) for c, t in ident.terms)
        if key not in seen:
            seen.add(key)
            idents.append(ident)
    assert idents, "expected some non-multilinear catalog identities"
    rng = random.Random(5)
    checked = 0
    for trial in range(100):
        A = _random_algebra(rng, rng.choice([2, 3]))
        ident = idents[trial % len(idents)]
        fast = check_identity(A, ident)[0]
        slow = symbolic_check(A, ident)
        assert fast == slow, (trial, ident)
        checked += 1
    assert checked == 100


def test_check_identity_witness_order():
    nf3 = catalog_get("NF", {"n": 3})
    ok, wit = check_identity(nf3, parse_identity("x*y - y*x"))
    assert not ok
    assert wit["tuple"] == [0, 1]
    assert wit["defect"][2] == -1


def test_check_identity_basis_independent():
    from nonassoc.linalg import is_invertible
    from nonassoc.structure import change_basis
    rng = random.Random(17)
    leib = parse_identity("(x*y)*z - (x*z)*y - x*(y*z)")
    comm = parse_identity("x*y - y*x")
    for _ in range(10):
        A = catalog_get("NF", {"n": 3})
        while True:
            P = [[Fraction(rng.randint(-2, 2)) for _ in range(3)]
                 for _ in range(3)]
            if is_invertible(P):
                break
        B = change_basis(A, P)
        assert check_identity(B, leib)[0]
        assert check_identity(B, comm)[0] == check_identity(A, comm)[0]


def test_nary_identity_binds_without_binary_op():
    # a bracket-only identity must not demand a binary operation
    m8 = catalog_get("M8")
    ok, _ = check_identity(m8, parse_identity("[x,y,z] + [y,x,z]"))
    assert ok
    ok, wit = check_identity(m8, parse_identity("[x,y,z] - [y,x,z]"))
    assert not ok and wit is not None


def test_check_identity_over_gf():
    F = GF(5)
    t = StructureTensor(2, 2, {(0, 0): {1: F.from_int(1)}}, F)
    A = Algebra("x", 2, {"mul": t}, F)
    ok, _ = check_identity(A, parse_identity("(x*y)*z - x*(y*z)"))
    assert ok


def test_restitution_scale_law():
    jordan = parse_identity("((x*x)*y)*x - (x*x)*(y*x)")
    lin = polarize(jordan)[0]
    rng = random.Random(2)
    A = _random_algebra(rng, 3, commutative=True)
    om = default_opmap(A, jordan.signature)
    for _ in range(10):
        x = {i: Fraction(rng.randint(-3, 3)) for i in range(3)}
        y = {i: Fraction(rng.randint(-3, 3)) for i in range(3)}
        x = {i: c for i, c in x.items() if c}
        y = {i: c for i, c in y.items() if c}
        orig = eval_identity_sparse(A, jordan, {"x": x, "y": y}, om)
        pol = eval_identity_sparse(A, lin, {"x1": x, "x2": x, "x3": x, "y": y}, om)
        assert pol == {k: lin.restitution_scale * c for k, c in orig.items()}
