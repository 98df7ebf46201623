import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonassoc import identities
from nonassoc.catalog import CATALOG_NAMES, catalog_get
from nonassoc.identities import (MAX_POLARIZATION_COPIES, Identity, ParseError, _bind,
                                 check_identity, parse_identity,
                                 polarize, symbolic_check, eval_identity_sparse,
                                 default_opmap, law_table, term_vars)
from nonassoc.scalars import GF, QQ, QT, DomainError, Fp, Poly, PolyRing, RatFunc
from nonassoc.structure import Algebra, StructureTensor, linear_map
from nonassoc.incidence import HigherDerivationSeq, higher_derivation_check
from nonassoc.operators import derivation_space
from nonassoc.poisson import CustomaryIdentity, check_poisson_family, customary_check
from nonassoc.varieties import BINARY_VARIETIES, check_variety, plus_algebra, variety_identities
from test_linear_conditions import _odd_scalar, _signed_tensor, bind_maps


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


def test_multilinear_identity_is_split_by_variable_set():
    """x*y - x is multilinear but not multihomogeneous: on the field Q it
    vanishes on the basis tuple (e0, e0) yet fails at (e0, 2 e0), so each
    multihomogeneous component is scanned on its own."""
    field = Algebra("Q", 1, {"mul": StructureTensor(1, 2, {(0, 0): {0: 1}})})
    ident = parse_identity("x*y - x")
    assert [c.variables for c in polarize(ident)] == [("x",), ("x", "y")]
    assert not symbolic_check(field, ident)
    assert check_identity(field, ident) == (
        False, {"variables": ["x"], "tuple": [0], "defect": [Fraction(-1)]})


def _symbolic_by_hand(A, identity, opmap):
    """symbolic_check with A lifted to Q[generic coordinates] operation by
    operation, as before Algebra.map_domain."""
    ring = PolyRing(len(identity.variables) * A.dim)
    gens = ring.gens()
    symA = Algebra(A.name, A.dim, {name: t.map_domain(ring, lambda c: Poly.const(ring.n, c))
                                   for name, t in A.ops.items()}, ring, unit=A.unit, u=A.u)
    assignment = {v: {i: gens[a * A.dim + i] for i in range(A.dim)}
                  for a, v in enumerate(identity.variables)}
    return not eval_identity_sparse(symA, identity, assignment, opmap)


def test_symbolic_check_lifts_through_map_domain():
    for name, params in (("sl2", {}), ("heis3", {}), ("NF", {"n": 3}), ("gp2", {})):
        A = catalog_get(name, params)
        for op in A.op_names():
            for text in ("x*y - y*x", "x*x", "(x*y)*z - x*(y*z)", "(x*y)*z + (y*z)*x + (z*x)*y"):
                ident, opmap = parse_identity(text), {"*": op}
                got = symbolic_check(A, ident, opmap)
                assert got == _symbolic_by_hand(A, ident, opmap), (name, op, text)
                assert got == check_identity(A, ident, opmap)[0], (name, op, text)


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


def test_polarize_names_copies_apart_from_existing_variables():
    """The copies of x are not named after the identity's own x1: on the
    algebra e1*e0 = 2 e0, x*(x*x1) - (x*x)*x1 fails (the old names made the
    scan report that it holds), and (x*x)*(x1*x1) no longer raises."""
    A = Algebra("a", 2, {"mul": StructureTensor(2, 2, {(1, 0): {0: Fraction(2)}}, QQ)}, QQ)
    law = parse_identity("x*(x*x1) - (x*x)*x1")
    assert [lin.variables for lin in polarize(law)] == [("x01", "x02", "x1")]
    assert not symbolic_check(A, law)
    assert check_identity(A, law) == _per_tuple_check(A, law, {"*": "mul"})
    assert not check_identity(A, law)[0]
    both = parse_identity("(x*x)*(x1*x1) + x0*x")
    assert [lin.variables for lin in polarize(both)] == [("x", "x0"),
                                                         ("x01", "x02", "x11", "x12")]
    assert check_identity(A, both) == _per_tuple_check(A, both, {"*": "mul"})
    assert [lin.variables for lin in polarize(parse_identity("(x*x)*(x01*x1)"))] == [
        ("x001", "x002", "x01", "x1")]
    # without a clash the copies keep their names
    assert polarize(parse_identity("(x*x)*y - y*(x*x)"))[0].variables == ("x1", "x2", "y")


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2**32))
def test_polarize_with_copy_named_variables_matches_symbolic_check(seed):
    """Identities mixing x with x1 and x2, repeated or not, on small random
    algebras: the scan verdict equals the symbolic one."""
    rng = random.Random(seed)
    dim = rng.choice([1, 2, 2])
    A = Algebra("rnd", dim, {"mul": _random_tensor(rng, QQ, dim, 2, rng.choice([0.3, 0.7]))},
                QQ)
    base = [rng.choice(["x", "x", "x1", "x2"]) for _ in range(rng.randint(2, 4))]
    terms = [(Fraction(rng.choice(_COEFFS)), _random_tree(rng, list(base), False, False))
             for _ in range(rng.randint(1, 3))]
    ident = Identity(terms, {"*": 2})
    assert check_identity(A, ident)[0] == symbolic_check(A, ident)


def _term_key(term):
    """Reference: a term in tuple form, the key ``Identity`` merged terms by
    before it keyed them by the terms themselves."""
    if term[0] == "v":
        return ("v", term[1])
    return (term[0], tuple(_term_key(c) for c in term[1]))


def _reference_identity(terms):
    """(terms, variables, symbols) of an identity with terms merged under
    ``_term_key`` and the symbols walked on demand from the merged terms."""
    merged, keyed = {}, {}
    for c, t in terms:
        k = _term_key(t)
        keyed[k] = t
        merged[k] = merged.get(k, Fraction(0)) + Fraction(c)
    out = [(c, keyed[k]) for k, c in sorted(merged.items()) if c != 0]
    names, symbols = set(), {}

    def walk(t):
        if t[0] == "v":
            names.add(t[1])
            return
        symbols[t[0]] = len(t[1])
        for ch in t[1]:
            walk(ch)

    for _, t in out:
        walk(t)
    return out, tuple(sorted(names)), symbols


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32))
def test_identity_terms_and_symbols_match_the_term_key_reference(seed):
    """Random terms drawn from a small pool, so that equal terms merge and
    some cancel: ``Identity`` keeps the reference's terms, variables and
    symbols, and ``used_symbols`` hands out a copy of ``symbols``."""
    rng = random.Random(seed)
    leaves = ["x", "y", "z", "w"][:rng.randint(1, 4)]
    pool = [_random_tree(rng, [rng.choice(leaves) for _ in range(rng.randint(1, 4))],
                         rng.random() < 0.5, rng.random() < 0.5) for _ in range(3)]
    terms = [(Fraction(rng.choice(_COEFFS)), rng.choice(pool)) for _ in range(rng.randint(0, 6))]
    ident = Identity(terms, {"*": 2, "[]": 3, "D": 1})
    assert (ident.terms, ident.variables, ident.symbols) == _reference_identity(terms)
    used = ident.used_symbols()
    assert used == ident.symbols and used is not ident.symbols


def test_polarize_char_guard():
    jordan = parse_identity("((x*x)*y)*x - (x*x)*(y*x)")
    with pytest.raises(DomainError):
        polarize(jordan, char=3)
    # multilinear identities pass through in any characteristic
    assert polarize(parse_identity("(x*y)*z - x*(y*z)"), char=3)


_GF3 = GF(3)
# laws whose variables each have degree at most 2 but whose total degree is
# 3 or 4 (left and right alternativity, flexibility, Malcev), and two with a
# variable of degree 3 (Jordan, and (x,x,x) times y)
_DEGREE_LAWS = ["(x*x)*y - x*(x*y)", "(y*x)*x - y*(x*x)", "(x*y)*x - x*(y*x)",
                "(x*x)*(y*y) - (x*y)*(x*y)", BINARY_VARIETIES["malcev"][1],
                "((x*x)*y)*x - (x*x)*(y*x)", "((x*x)*x)*y - (x*(x*x))*y"]


def _degree_case(seed):
    """A random product on GF(3)^2, anticommutative half the time, and a
    law from ``_DEGREE_LAWS`` or a random one whose terms are trees over
    x, x, y or x, x, y, y."""
    rng = random.Random(seed)
    anti = rng.random() < 0.5
    table = {}
    for i, j in itertools.product(range(2), repeat=2):
        if anti and i >= j:
            continue
        row = {k: _GF3.from_int(rng.randint(1, 2)) for k in range(2) if rng.random() < 0.6}
        if row:
            table[(i, j)] = row
            if anti:
                table[(j, i)] = {k: -c for k, c in row.items()}
    A = Algebra("t", 2, {"mul": StructureTensor(2, 2, table, _GF3)}, _GF3)
    if rng.random() < 0.5:
        return A, parse_identity(rng.choice(_DEGREE_LAWS))
    leaves = rng.choice([["x", "x", "y"], ["x", "x", "y", "y"]])
    terms = [(Fraction(rng.choice([1, -1, 2])), _random_tree(rng, leaves, False, False))
             for _ in range(rng.randint(1, 3))]
    return A, Identity(terms, {"*": 2})


def _vanishes_at_every_point(A, law):
    """The law at every point of GF(p)^N, N = dim times the number of
    variables: each variable any vector, not only a basis vector.  When
    every variable has degree below p, each coordinate polynomial has degree
    below p in each coordinate, so it is zero exactly when it vanishes at
    every point."""
    field = [A.dom.from_int(a) for a in range(A.dom.p)]
    vectors = [{k: c for k, c in enumerate(v) if c}
               for v in itertools.product(field, repeat=A.dim)]
    return all(not eval_identity_sparse(A, law, dict(zip(law.variables, point)), {"*": "mul"})
               for point in itertools.product(vectors, repeat=len(law.variables)))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32))
@example(5912)   # random terms that cancel: the zero law, which holds
def test_polarization_guard_is_the_largest_degree_of_one_variable(seed):
    """Over GF(3) a law is polarized whenever each variable has degree at
    most 2, whatever its total degree, and the verdict is that of the
    unpolarized law at every point; a witness names a polarized component
    and a basis tuple where that component is nonzero.  A variable of
    degree 3 is refused."""
    A, law = _degree_case(seed)
    top = max((d for _, t in law.terms for d in term_vars(t).values()), default=0)
    if top >= 3:
        with pytest.raises(DomainError, match="> 3, got 3"):
            check_identity(A, law, {"*": "mul"})
        return
    holds, wit = check_identity(A, law, {"*": "mul"})
    assert holds == _vanishes_at_every_point(A, law)
    if not holds:
        one = _GF3.one()
        defects = [eval_identity_sparse(A, lin, {v: {i: one} for v, i in
                                                 zip(lin.variables, wit["tuple"])}, {"*": "mul"})
                   for lin in polarize(law, char=3) if list(lin.variables) == wit["variables"]]
        want = {k: c for k, c in enumerate(wit["defect"]) if c}
        assert want and want in defects


def test_polarization_guard_cases_reach_both_verdicts():
    """The seeded cases of the guard test hold on nonzero tables, fail, and
    are refused, and both verdicts come from laws of total degree 3 or 4."""
    seen = set()
    for seed in range(80):
        A, law = _degree_case(seed)
        try:
            holds = check_identity(A, law, {"*": "mul"})[0]
        except DomainError:
            holds = None
        total = max(sum(term_vars(t).values()) for _, t in law.terms)
        seen.add((holds, A.op("mul").is_zero(), total >= 3))
    assert {(True, False, True), (False, False, True), (None, False, True)} <= seen


def test_polarization_copies_are_bounded_before_any_is_built(monkeypatch):
    """One variable of degree 7 makes 7! = MAX_POLARIZATION_COPIES copies
    and is polarized and checked.  Degree 8 (8! copies), two terms of
    degrees (6, 3) (2 * 6! * 3!) and degrees (4, 4, 4) ((4!)^3) count their
    copies first and are refused without building one."""
    assert MAX_POLARIZATION_COPIES == 5040
    seven = parse_identity("x*x*x*x*x*x*x")
    lin, = polarize(seven)
    assert len(lin.variables) == 7 and lin.restitution_scale == 5040
    assert check_identity(catalog_get("abelian", {"n": 2}), seven) == (True, None)
    built = []
    monkeypatch.setattr(identities, "_substitute_occurrence",
                        lambda *args: built.append(args))
    for text in ("x*x*x*x*x*x*x*x", "(x*x*x*x*x*x)*(y*y*y) - (y*y*y)*(x*x*x*x*x*x)",
                 "(x*x*x*x)*(y*y*y*y)*(z*z*z*z)"):
        with pytest.raises(DomainError, match="5040"):
            polarize(parse_identity(text))
    assert built == []


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


# ---------------------------------------------------------------------------
# the compiled scan against the former per-tuple scan and against
# symbolic_check
# ---------------------------------------------------------------------------

def _eval_term_matrix(A, term, assignment, opmap, unary_maps=None):
    """``identities.eval_term_sparse`` as it was when a law could bind a
    symbol to a dense matrix (``unary_maps``) as well as to an operation:
    the reference for the binding of every map as an arity-1 operation."""
    if term[0] == "v":
        return assignment[term[1]]
    sym = term[0]
    if unary_maps and sym in unary_maps:
        mat = unary_maps[sym]
        v = _eval_term_matrix(A, term[1][0], assignment, opmap, unary_maps)
        dom = A.dom
        out = {}
        for j, c in v.items():
            for i in range(A.dim):
                m = mat[i][j]
                if dom.is_zero(m):
                    continue
                s = out.get(i, dom.zero()) + m * c
                if dom.is_zero(s):
                    out.pop(i, None)
                else:
                    out[i] = s
        return out
    tensor = A.op(opmap[sym])
    children = [_eval_term_matrix(A, c, assignment, opmap, unary_maps)
                for c in term[1]]
    return tensor.apply_sparse(children)


def _eval_identity_matrix(A, identity, assignment, opmap, unary_maps=None):
    """``identities.eval_identity_sparse`` with ``unary_maps``, as it was."""
    dom = A.dom
    total = {}
    for c, t in identity.terms:
        val = _eval_term_matrix(A, t, assignment, opmap, unary_maps)
        for k, x in val.items():
            s = total.get(k, dom.zero()) + dom.coerce(c) * x
            if dom.is_zero(s):
                total.pop(k, None)
            else:
                total[k] = s
    return total


def _bound(A, opmap, maps):
    """(algebra, opmap) binding the matrices of maps as arity-1 operations
    (``bind_maps``); A and opmap themselves when there are none."""
    return bind_maps(A, opmap, maps) if maps else (A, opmap)


def _check(A, identity, opmap, maps):
    """``check_identity`` with the matrices of maps bound as operations."""
    B, opmap = _bound(A, opmap, maps)
    return check_identity(B, identity, opmap)


def _table(A, identity, opmap, maps):
    """``law_table`` with the matrices of maps bound as operations."""
    B, opmap = _bound(A, opmap, maps)
    return law_table(B, identity, opmap)


def _per_tuple_check(A, identity, opmap, unary_maps=None):
    """check_identity before the compiled scan: every term re-evaluated from
    scratch at every basis tuple by the matrix path (``_eval_identity_matrix``)."""
    dom = A.dom
    for lin in polarize(identity, char=dom.char or 0):
        vs = lin.variables
        one = dom.one()
        for combo in itertools.product(range(A.dim), repeat=len(vs)):
            assignment = {v: {i: one} for v, i in zip(vs, combo)}
            defect = _eval_identity_matrix(A, lin, assignment, opmap, unary_maps)
            if defect:
                vec = [dom.zero()] * A.dim
                for k, c in defect.items():
                    vec[k] = c
                return False, {"variables": list(vs), "tuple": list(combo),
                               "defect": vec}
    return True, None


_COEFFS = ["1", "-1", "2", "1/2", "-1/3", "3/2"]


def _scalar(rng, dom):
    c = Fraction(rng.choice(_COEFFS))
    if dom is QT:
        return QT.coerce(c) * rng.choice(
            [1, RatFunc.t_power(1), RatFunc.t_power(-1) + 1])
    if isinstance(dom, PolyRing):
        x0, x1 = dom.gens()[:2]
        return dom.coerce(c) * rng.choice([1, x0, x1 + 1])
    return dom.coerce(c)


def _random_tensor(rng, dom, dim, arity, density):
    table = {}
    for args in itertools.product(range(dim), repeat=arity):
        if rng.random() < density:
            table[args] = {k: _scalar(rng, dom) for k in
                           rng.sample(range(dim), rng.randint(1, dim))}
    return StructureTensor(dim, arity, table, dom)


def _random_tree(rng, leaves, ternary, unary):
    """A random term whose leaves are the given variables, in random order."""
    parts = [("v", v) for v in leaves]
    rng.shuffle(parts)
    while True:
        if unary and rng.random() < 0.25:
            i = rng.randrange(len(parts))
            parts[i] = ("D", (parts[i],))
        if len(parts) == 1:
            return parts[0]
        arity = 3 if ternary and len(parts) >= 3 and rng.random() < 0.5 else 2
        i = rng.randrange(len(parts) - arity + 1)
        sym = "[]" if arity == 3 else "*"
        parts[i:i + arity] = [(sym, tuple(parts[i:i + arity]))]


def _variant(rng, term, counts):
    """term with D wrapped around random subterms and random (a*b)*c
    replaced by [a,b,c]; counts[0] and counts[1] count the two changes."""
    if term[0] == "v":
        out = term
    else:
        kids = tuple(_variant(rng, c, counts) for c in term[1])
        out = (term[0], kids)
        if term[0] == "*" and kids[0][0] == "*" and rng.random() < 0.5:
            out = ("[]", (kids[0][1][0], kids[0][1][1], kids[1]))
            counts[1] += 1
    if rng.random() < 0.3:
        out = ("D", (out,))
        counts[0] += 1
    return out


def _planted_case(rng, dom, dim, density):
    """An identity that holds by cancellation between terms of different
    weights: D = c * identity and [a,b,c] = s * (a*b)*c on a random mul with
    denominators, and two variants of one term weighted to cancel; the
    second coefficient is sometimes perturbed so that it fails instead."""
    mul = _random_tensor(rng, dom, dim, 2, density)
    c, s = (Fraction(rng.choice(["1/3", "2", "-1/2"])),
            Fraction(rng.choice(["1/2", "3"])))
    unit = [{i: dom.one()} for i in range(dim)]
    tern = StructureTensor(dim, 3, {
        args: {k: dom.coerce(s) * v for k, v in mul.apply_sparse(
            [mul.apply_sparse([unit[args[0]], unit[args[1]]]),
             unit[args[2]]]).items()}
        for args in itertools.product(range(dim), repeat=3)}, dom)
    maps = {"D": [[dom.coerce(c) if i == j else dom.zero() for j in range(dim)]
                  for i in range(dim)]}
    leaves = [rng.choice("xyz") for _ in range(rng.randint(2, 4))]
    base = _random_tree(rng, leaves, False, False)
    terms = []
    for sign in (1, -1):
        counts = [0, 0]
        t = _variant(rng, base, counts)
        terms.append((sign / (c ** counts[0] * s ** counts[1]), t))
    if rng.random() < 0.3:
        terms[1] = (terms[1][0] * Fraction(rng.choice(["2", "-1", "1/2"])),
                    terms[1][1])
    A = Algebra("planted", dim, {"mul": mul, "t": tern}, dom)
    return A, Identity(terms, {"*": 2, "[]": 3, "D": 1}), maps


def _random_case(seed, dom):
    """A small random algebra over dom (binary mul, maybe a ternary op and a
    unary map D, sparse tables with denominators) and a random identity:
    up to four terms over sub-multisets of one leaf multiset, so variables
    may repeat (the scan then sees polarized components) or be missing from
    some terms.  A third of the cases are planted (``_planted_case``)."""
    rng = random.Random(seed)
    dim = rng.choice([1, 2, 2, 3, 3])
    density = rng.choice([0.15, 0.35, 0.7])
    if rng.random() < 0.35:
        return _planted_case(rng, dom, dim, density)
    density = rng.choice([0.15, 0.35, 0.7])
    ternary = rng.random() < 0.35
    unary = rng.random() < 0.5
    ops = {"mul": _random_tensor(rng, dom, dim, 2, density)}
    signature = {"*": 2}
    if ternary:
        ops["t"] = _random_tensor(rng, dom, dim, 3, density)
        signature["[]"] = 3
    maps = None
    if unary:
        maps = {"D": [[_scalar(rng, dom) if rng.random() < 0.4 else dom.zero()
                       for _ in range(dim)] for _ in range(dim)]}
        signature["D"] = 1
    A = Algebra("rnd", dim, ops, dom)
    nleaves = rng.randint(2, 4)
    base = [rng.choice("xyz"[:rng.randint(1, 3)]) for _ in range(nleaves)]
    terms = []
    for _ in range(rng.randint(1, 4)):
        leaves = [v for v in base if rng.random() < 0.85] or base[:1]
        terms.append((Fraction(rng.choice(_COEFFS)),
                      _random_tree(rng, leaves, ternary, unary)))
    return A, Identity(terms, signature), maps


@settings(max_examples=250, deadline=None)
@given(st.sampled_from([QQ, GF(7), QT, PolyRing(2)]), st.integers(0, 2**32))
def test_compiled_scan_matches_per_tuple_scan(dom, seed):
    A, ident, maps = _random_case(seed, dom)
    opmap = {"*": "mul", "[]": "t"}
    assert (_check(A, ident, opmap, maps)
            == _per_tuple_check(A, ident, opmap, maps))


def test_compiled_scan_cases_cover_both_verdicts():
    """The random cases above reach true verdicts and late witnesses, so the
    caches and the integer scaling are exercised beyond the first tuple."""
    verdicts, late = set(), 0
    for seed in range(120):
        A, ident, maps = _random_case(seed, QQ)
        holds, wit = _check(A, ident, {"*": "mul", "[]": "t"}, maps)
        verdicts.add(holds)
        late += bool(wit and any(wit["tuple"]))
    assert verdicts == {True, False} and late >= 10


@settings(max_examples=60, deadline=None)
@example(seed=11969)   # -1/3 x*y - 1/2 x + 1/2 y: components of different degree
@given(st.integers(0, 2**32))
def test_compiled_scan_matches_symbolic_check(seed):
    rng = random.Random(seed)
    A, ident, _ = _random_case(rng.randrange(2**32), QQ)
    while ident.used_symbols().get("D") or A.dim ** len(ident.variables) > 27:
        A, ident, _ = _random_case(rng.randrange(2**32), QQ)
    opmap = {"*": "mul", "[]": "t"}
    assert check_identity(A, ident, opmap=opmap)[0] == symbolic_check(A, ident, opmap)


def _rename(term, names):
    if term[0] == "v":
        return ("v", names.get(term[1], term[1]))
    return (term[0], tuple(_rename(c, names) for c in term[1]))


def _swap_children(rng, term):
    """term with the two children of one random product swapped."""
    products = []

    def walk(t, path):
        if t[0] != "v":
            if t[0] == "*":
                products.append(path)
            for i, c in enumerate(t[1]):
                walk(c, path + (i,))

    def swap(t, path):
        if not path:
            return (t[0], t[1][::-1])
        i = path[0]
        return (t[0], t[1][:i] + (swap(t[1][i], path[1:]),) + t[1][i + 1:])

    walk(term, ())
    return swap(term, rng.choice(products)) if products else term


def _symmetric_case(seed, dom):
    """A multilinear law summed over every order of a copy group x1..xg,
    between variables a and y that it is not symmetric in, on an algebra
    whose products sit only at unsorted argument pairs (i > j), or mirrored
    so that the table is symmetric.  The kind "coefficient" perturbs one
    term's coefficient and "order" swaps the children of one product, so
    that the symmetry may no longer hold."""
    rng = random.Random(seed)
    dim = rng.choice([2, 2, 3])
    symmetric = rng.random() < 0.4
    table = {}
    for i, j in itertools.product(range(dim), repeat=2):
        if (i > j or symmetric and i == j) and rng.random() < 0.6:
            table[(i, j)] = {k: _scalar(rng, dom)
                             for k in rng.sample(range(dim), rng.randint(1, dim))}
            if symmetric:
                table[(j, i)] = table[(i, j)]
    unary = rng.random() < 0.3
    maps = None
    if unary:
        maps = {"D": [[_scalar(rng, dom) if rng.random() < 0.5 else dom.zero()
                       for _ in range(dim)] for _ in range(dim)]}
    A = Algebra("sym", dim, {"mul": StructureTensor(dim, 2, table, dom)}, dom)
    group = [f"x{j}" for j in range(1, rng.randint(2, 3) + 1)]
    others = [v for v in ("a", "y") if rng.random() < 0.4]
    terms = []
    for _ in range(rng.randint(1, 2)):
        tree = _random_tree(rng, group + others, False, unary)
        c = Fraction(rng.choice(_COEFFS))
        terms += [(c, _rename(tree, dict(zip(group, perm))))
                  for perm in itertools.permutations(group)]
    kind = rng.choice(["symmetric", "coefficient", "order"])
    i = rng.randrange(len(terms))
    if kind == "coefficient":
        terms[i] = (terms[i][0] + rng.choice([1, -2]), terms[i][1])
    elif kind == "order":
        terms[i] = (terms[i][0], _swap_children(rng, terms[i][1]))
    return A, Identity(terms, {"*": 2, "D": 1}), maps, kind


def _compiled_law(A, lin, opmap, maps):
    """(nodes, specs, top_coef, scale, runs): the compiled DAG of lin on A
    with its symbols bound by opmap and maps (``_bound``), as ``law_table``
    builds it."""
    B, opmap = _bound(A, opmap, maps)
    opmap = _bind(B, lin, opmap)
    return identities._compile(B, lin.terms, lin.variables,
                               identities._scan_forms(B, lin.used_symbols(), opmap))


def _run_kinds(A, ident, maps):
    """The (length, kind) runs of ``_symmetric_runs`` of ident's one
    polarized component."""
    lin, = polarize(ident)
    return list(_compiled_law(A, lin, {"*": "mul"}, maps)[4])


def _runs(A, ident, maps):
    return [length for length, _ in _run_kinds(A, ident, maps)]


@settings(max_examples=250, deadline=None)
@given(st.sampled_from([QQ, GF(7), QT]), st.integers(0, 2**32))
def test_representative_scan_matches_per_tuple_scan(dom, seed):
    """The scan of orbit representatives gives the verdict and the first
    witness of the scan of every tuple, on laws that are symmetric in a copy
    group and on near-symmetric ones the proof must reject."""
    A, ident, maps, _ = _symmetric_case(seed, dom)
    assert (_check(A, ident, {"*": "mul"}, maps)
            == _per_tuple_check(A, ident, {"*": "mul"}, maps))


def test_representative_scan_cases_cover_runs_and_verdicts():
    """The seeded symmetric cases reach proven runs longer than one,
    failures at late and at repeated-index tuples, true verdicts, and
    perturbed laws whose symmetry is rejected."""
    seen = {"run": 0, "late": 0, "repeated": 0, "holds": 0, "rejected": 0}
    for seed in range(150):
        A, ident, maps, kind = _symmetric_case(seed, QQ)
        runs = _runs(A, ident, maps)
        holds, wit = _check(A, ident, {"*": "mul"}, maps)
        seen["run"] += max(runs) > 1
        seen["holds"] += holds
        seen["late"] += bool(wit and wit["tuple"][0])
        seen["repeated"] += bool(wit and len(set(wit["tuple"])) < len(wit["tuple"]))
        seen["rejected"] += kind != "symmetric" and max(runs) == 1
    assert min(seen.values()) >= 10, seen


def test_symmetric_runs_of_the_polarized_laws():
    """Jordan is symmetric in its three copies of x, Malcev in its two; a
    changed coefficient or child order is rejected; the products of a
    commutative table share one node whichever order they come in."""
    A = plus_algebra(catalog_get("matrix", {"n": 2}))
    jordan = parse_identity("((x*x)*y)*x - (x*x)*(y*x)")
    assert _runs(A, jordan, None) == [3, 1]
    malcev = variety_identities("malcev")[1]
    assert _runs(A, malcev, None) == [2, 1, 1]
    assert _runs(A, parse_identity("x1*(x2*y) + x2*(x1*y)"), None) == [2, 1]
    assert _runs(A, parse_identity("x1*(x2*y) + 2 x2*(x1*y)"), None) == [1, 1, 1]
    assert _runs(A, parse_identity("(x1*x2)*(x3*x4)"), None) == [2, 2]
    B = catalog_get("matrix", {"n": 2})
    assert _runs(B, parse_identity("(x1*x2)*(x3*x4)"), None) == [1, 1, 1, 1]
    assert _runs(B, parse_identity("x1*(x2*y) + x2*(y*x1)"), None) == [1, 1, 1]
    lin, = polarize(jordan)
    sizes = [len(_compiled_law(C, lin, {"*": "mul"}, None)[0]) for C in (A, B)]
    assert sizes[0] < sizes[1]


def _signed_case(seed, dom):
    """A multilinear law in a copy group x1..xg and maybe variables a and y:
    summed over every order of the group with the sign kind ** inversions,
    so that it is symmetric or antisymmetric in the group whatever the
    tables, or one or two random terms, (anti)symmetric only through the
    tables.  The binary * and ternary [] are exactly
    symmetric or antisymmetric, or (kind "near") antisymmetric but for one
    entry, or (kind "lower") hold products only at arguments whose first
    index exceeds the second.  The kind "coefficient" adds 1 to one term's
    coefficient and
    "order" swaps the children of one product, so that the law's symmetry
    may fail and its first failure may sit at a tuple unsorted on the
    group.  Scalars have odd denominators, so the cases exist over GF(2)."""
    rng = random.Random(seed)
    dim = rng.choice([2] if dom is QT else [2, 2, 3])
    ops = {}
    for name, arity in (("mul", 2), ("t", 3)):
        table_kind = rng.choice([1, -1, "near", "lower"])
        T = _signed_tensor(rng, dom, dim, arity, 1 if table_kind == 1 else -1, 0.7)
        table = dict(T.table)
        if table_kind == "near" and table:
            args = rng.choice(sorted(table))
            table[args] = {k: c + dom.one() for k, c in table[args].items()}
        elif table_kind == "lower":
            table = {args: row for args, row in table.items() if args[0] > args[1]}
        ops[name] = StructureTensor(dim, arity, table, dom)
    unary = rng.random() < 0.3
    maps = None
    if unary:
        maps = {"D": [[_odd_scalar(rng, dom) if rng.random() < 0.5 else dom.zero()
                       for _ in range(dim)] for _ in range(dim)]}
    A = Algebra("signed", dim, ops, dom)
    group = [f"x{j}" for j in range(1, rng.randint(2, 3) + 1)]
    others = [v for v in ("a", "y") if rng.random() < 0.35]
    # summed over the group's orders, or symmetric only through the tables
    # (in characteristic 2 a sum over the orders vanishes at repeated indices)
    signs = [rng.choice([1, -1])] if rng.random() < 0.6 else []
    orders = list(itertools.permutations(range(len(group)))) if signs else [range(len(group))]
    terms = []
    for _ in range(rng.randint(1, 2)):
        tree = _random_tree(rng, group + others, True, unary)
        c = Fraction(rng.choice(["1", "-1", "2", "-1/3", "3/5"]))
        for perm in orders:
            inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(len(group)), 2))
            terms.append((c * (signs or [1])[0] ** inversions,
                          _rename(tree, {group[i]: group[p] for i, p in enumerate(perm)})))
    kind = rng.choice(["signed", "coefficient", "order"])
    i = rng.randrange(len(terms))
    if kind == "coefficient":
        terms[i] = (terms[i][0] + 1, terms[i][1])
    elif kind == "order":
        terms[i] = (terms[i][0], _swap_children(rng, terms[i][1]))
    return A, Identity(terms, {"*": 2, "[]": 3, "D": 1}), maps, kind


_OPMAP = {"*": "mul", "[]": "t"}


@settings(max_examples=250, deadline=None)
# laws a proof that matched coefficients without the image's sign got wrong
@example(dom=QQ, seed=570)
@example(dom=GF(7), seed=648)
@example(dom=QQ, seed=1427)
@given(st.sampled_from([QQ, GF(7), GF(2), QT]), st.integers(0, 2**32))
def test_signed_scan_matches_per_tuple_scan(dom, seed):
    """On (anti)symmetric tables of arity 2 and 3 and laws signed in a copy
    group, the verdict and first witness of ``check_identity`` are those of
    the scan of every tuple, and ``law_table`` is the law at every tuple."""
    A, ident, maps, _ = _signed_case(seed, dom)
    assert (_check(A, ident, _OPMAP, maps)
            == _per_tuple_check(A, ident, _OPMAP, maps))
    assert _table(A, ident, _OPMAP, maps) == _law_table_by_tuples(A, ident, _OPMAP, maps)


def test_signed_cases_cover_runs_witnesses_and_merges():
    """The seeded signed cases prove symmetric and antisymmetric runs (over
    GF(2) symmetric only), merge nodes with a sign, and fail first at tuples
    unsorted on the copy group, at strictly increasing ones and at repeated
    indices (over GF(2) too)."""
    seen = {"symmetric": 0, "antisymmetric": 0, "merged": 0, "unsorted": 0,
            "increasing": 0, "repeated": 0, "gf2 repeated": 0, "holds": 0}
    for seed in range(150):
        for dom in (QQ, GF(2)):
            A, ident, maps, kind = _signed_case(seed, dom)
            if ident.is_trivial():   # a swapped product cancelled every term
                continue
            lin, = polarize(ident)
            nodes, _, top_coef, _, runs = _compiled_law(A, lin, _OPMAP, maps)
            g = sum(v.startswith("x") for v in lin.variables)
            start = lin.variables.index("x1")
            holds, wit = _check(A, ident, _OPMAP, maps)
            seen["symmetric"] += any(r > 1 and k > 0 for r, k in runs)
            seen["antisymmetric"] += any(r > 1 and k < 0 for r, k in runs)
            assert dom is QQ or all(k > 0 for _, k in runs)
            seen["merged"] += len(top_coef) < len({t for _, t in lin.terms})
            seen["holds"] += holds
            if wit:
                part = wit["tuple"][start:start + g]
                seen["unsorted"] += part != sorted(part)
                seen["increasing"] += all(a < b for a, b in zip(part, part[1:]))
                repeated = len(set(part)) < len(part)
                seen["repeated"] += repeated
                seen["gf2 repeated"] += repeated and dom is not QQ
    assert min(seen.values()) >= 10, seen


def test_near_antisymmetric_table_is_not_marked():
    """sl2's bracket is antisymmetric: x1*x2 + x2*x1 is one node whose
    terms cancel, and polarized Jacobi is one antisymmetric run.  Changed
    at one entry, the table gets no mark: no node merges and no run is
    antisymmetric."""
    sl2 = catalog_get("sl2")
    table = {args: dict(row) for args, row in sl2.op().table.items()}
    args = next(iter(table))
    table[args] = {k: 2 * c for k, c in table[args].items()}
    near = Algebra("near", 3, {"mul": StructureTensor(3, 2, table, QQ)}, QQ)
    skew = parse_identity("x1*x2 + x2*x1")
    jacobi = parse_identity("x*(y*z) + y*(z*x) + z*(x*y)")
    nodes, _, top_coef, _, runs = _compiled_law(sl2, skew, {"*": "mul"}, None)
    assert len(nodes) == 3 and top_coef == {} and runs == ((2, 1),)
    assert check_identity(sl2, skew) == (True, None)
    nodes, _, top_coef, _, runs = _compiled_law(near, skew, {"*": "mul"}, None)
    assert len(nodes) == 4 and len(top_coef) == 2 and runs == ((2, 1),)
    assert _run_kinds(sl2, jacobi, None) == [(3, -1)]
    assert all(k > 0 for _, k in _run_kinds(near, jacobi, None))
    # z*x is keyed as x*z (with sign -1) on sl2 only
    kids = {C.name: [k for sym, k, _ in _compiled_law(C, jacobi, {"*": "mul"}, None)[0] if sym]
            for C in (sl2, near)}
    assert all(list(k) == sorted(k) for k in kids["sl2"])
    assert any(list(k) != sorted(k) for k in kids["near"])
    assert check_identity(near, jacobi) == _per_tuple_check(near, jacobi, {"*": "mul"})


def test_malcev_is_not_antisymmetric_in_y_and_z():
    """On sl2, polarized Malcev is symmetric in the two copies of x and no
    swap of y and z is proven: the law is not antisymmetric in them."""
    malcev = variety_identities("malcev")[1]
    lin, = polarize(malcev)
    assert lin.variables == ("x1", "x2", "y", "z")
    assert _run_kinds(catalog_get("sl2"), malcev, None) == [(2, 1), (1, 1), (1, 1)]


def test_integer_scan_weights_terms_with_different_scales():
    """Terms carrying different numbers of scaled tables and maps: the mul
    table has denominators 2 and D has denominators 3, so each term is
    weighted differently in the integer scan."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    mul = StructureTensor(2, 2, {(0, 0): {0: half}, (0, 1): {1: half},
                                 (1, 0): {1: half}}, QQ)
    A = Algebra("a", 2, {"mul": mul}, QQ)
    D = [[third, 0], [0, 2 * third]]
    sig = {"*": 2, "D": 1}
    x, y = ("v", "x"), ("v", "y")
    # D(x*y) = 1/3 x*y on e0*e0 and 2/3 on the rest: a derivation test
    # against the exact answer of the per-tuple scan
    for terms in ([(1, ("D", (("*", (x, y)),))), (-1, ("*", (("D", (x,)), y))),
                   (-1, ("*", (x, ("D", (y,)))))],
                  [(1, ("D", (("D", (x,)),))), (Fraction(-1, 9), x)],
                  [(3, ("D", (x,))), (-1, x)],
                  [(1, ("*", (("D", (x,)), ("D", (y,))))),
                   (Fraction(-1, 3), ("D", (("*", (x, y)),)))]):
        ident = Identity(terms, sig)
        got = _check(A, ident, {"*": "mul"}, {"D": D})
        assert got == _per_tuple_check(A, ident, {"*": "mul"}, {"D": D})


# ---------------------------------------------------------------------------
# the generic last variable: one linear form per prefix tuple
# ---------------------------------------------------------------------------

_LAST_DOMAINS = [QQ, GF(7), GF(2), QT, PolyRing(2)]


def _last_scalar(rng, dom):
    """A random scalar with an odd denominator (so that it exists in GF(2));
    over Q(t) and Q[c] sometimes a nonconstant one."""
    c = _odd_scalar(rng, dom)
    if isinstance(dom, PolyRing):
        return c * rng.choice([1, dom.gens()[0], dom.gens()[1] + 1])
    return c


def _one_orbit_tensor(dom, dim, support, kind, row):
    """The table that is ``row`` at the index tuple ``support``, copied to
    its permutations with the sign kind ** inversions, and zero elsewhere:
    exactly symmetric (kind 1) or antisymmetric (kind -1)."""
    arity = len(support)
    table = {}
    for perm in itertools.permutations(range(arity)):
        inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(arity), 2))
        table[tuple(support[p] for p in perm)] = {k: dom.coerce(kind ** inversions) * c
                                                  for k, c in row.items()}
    return StructureTensor(dim, arity, table, dom)


def _last_run_case(seed, dom):
    """A multilinear law whose last variables z1..zL are a run it is proven
    symmetric (L = 2, 3) or antisymmetric (L = 2, 3, 4) in, before which sit
    up to two variables a, b, with a binary mul, an L-ary bracket [] and
    maybe a unary map D.  The law is a random tree summed over the orders
    of the z with the sign kind ** inversions (L <= 3), or a random tree
    holding the bracket [z1, ..., zL] of an exactly (anti)symmetric table,
    or both.  The plant "repeated" makes the bracket nonzero only at
    (i, ..., i) on a symmetric run, so that the law fails only where the run
    repeats an index; "edge" makes it nonzero only at the permutations of
    one sorted tuple (..., dim-2, dim-1), so that the law fails only at
    prefixes ending at dim-2, on an antisymmetric run the last that the
    prefixes keep."""
    rng = random.Random(seed)
    kind = rng.choice([1, -1])
    length = rng.choice([2, 3] if kind > 0 else [2, 3, 4])
    dim = max(length, rng.choice([2, 2, 3]))
    plant = rng.choice(["none", "none", "repeated" if kind > 0 else "edge", "edge"])
    unary = rng.random() < 0.35
    maps = None
    if unary:
        maps = {"D": [[_last_scalar(rng, dom) if rng.random() < 0.5 else dom.zero()
                       for _ in range(dim)] for _ in range(dim)]}
    row = {k: _last_scalar(rng, dom) for k in rng.sample(range(dim), rng.randint(1, dim))}
    if plant == "repeated":
        bracket = _one_orbit_tensor(dom, dim, (rng.randrange(dim),) * length, 1, row)
    elif plant == "edge":
        support = ((dim - 2,) * (length - 1) + (dim - 1,) if kind > 0
                   else tuple(range(dim - length, dim)))
        bracket = _one_orbit_tensor(dom, dim, support, kind, row)
    else:
        bracket = _signed_tensor(rng, dom, dim, length, kind, 0.6)
    density = rng.choice([0.4, 0.8])
    mul = StructureTensor(dim, 2, {
        args: {k: _last_scalar(rng, dom) for k in rng.sample(range(dim), rng.randint(1, dim))}
        for args in itertools.product(range(dim), repeat=2) if rng.random() < density}, dom)
    A = Algebra("last", dim, {"mul": mul, "t": bracket}, dom)
    group = [f"z{j}" for j in range(1, length + 1)]
    others = [v for v in ("a", "b") if rng.random() < (0.5 if length < 4 else 0.25)]
    terms = []
    if plant == "none" and length <= 3 and rng.random() < 0.6:
        tree = _random_tree(rng, others + group, False, unary)
        c = Fraction(rng.choice(["1", "-1", "2", "-1/3", "3/5"]))
        for perm in itertools.permutations(range(length)):
            inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(length), 2))
            terms.append((c * kind ** inversions,
                          _rename(tree, {group[i]: group[p] for i, p in enumerate(perm)})))
    if not terms or rng.random() < 0.5:
        bracket_term = ("[]", tuple(("v", z) for z in group))
        if unary and rng.random() < 0.3:
            bracket_term = ("D", (bracket_term,))
        tree = _random_tree(rng, others + ["g"], False, unary)
        terms.append((Fraction(rng.choice(["1", "-1", "3/5"])),
                      _substitute(tree, "g", bracket_term)))
    return A, Identity(terms, {"*": 2, "[]": length, "D": 1}), maps, kind, plant


def _substitute(term, name, sub):
    if term[0] == "v":
        return sub if term[1] == name else term
    return (term[0], tuple(_substitute(c, name, sub) for c in term[1]))


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(_LAST_DOMAINS), st.integers(0, 2**32))
def test_generic_last_variable_matches_per_tuple_scan(dom, seed):
    """With the last variable generic, the verdict, the first witness tuple
    and its defect are those of the scan of every tuple, on laws whose last
    run is symmetric or antisymmetric, with failures planted where only the
    bounds of the generic element's columns and of the prefixes reach."""
    A, ident, maps, _, _ = _last_run_case(seed, dom)
    assert (_check(A, ident, _OPMAP, maps)
            == _per_tuple_check(A, ident, _OPMAP, maps))


def test_generic_last_variable_cases_cover_runs_and_plants():
    """The seeded cases prove symmetric last runs of length 2 and 3 and
    antisymmetric ones of length 2 to 4, with unary maps, and fail first at
    a repeated index of a symmetric last run, at a prefix ending at dim-2
    before the last index dim-1 (on antisymmetric last runs too), and
    elsewhere; the witnesses equal those of the scan of every tuple."""
    seen = {"holds": 0, "unary": 0, "repeated": 0, "edge": 0, "antisymmetric edge": 0}
    runs_seen = set()
    for seed in range(160):
        dom = _LAST_DOMAINS[seed % 3]   # Q, GF(7) and GF(2)
        A, ident, maps, kind, plant = _last_run_case(seed, dom)
        got = _check(A, ident, _OPMAP, maps)
        assert got == _per_tuple_check(A, ident, _OPMAP, maps), seed
        lin, = polarize(ident)
        runs = _compiled_law(A, lin, _OPMAP, maps)[4]
        length, run_kind = runs[-1]
        runs_seen.add((length, run_kind))
        holds, wit = got
        seen["holds"] += holds
        seen["unary"] += maps is not None
        if wit:
            last = wit["tuple"][-length:]
            seen["repeated"] += plant == "repeated" and len(set(last)) < length
            edge = plant == "edge" and last[-2:] == [A.dim - 2, A.dim - 1]
            seen["edge"] += edge
            seen["antisymmetric edge"] += edge and run_kind < 0
    assert {(2, 1), (3, 1), (2, -1), (3, -1), (4, -1)} <= runs_seen, runs_seen
    assert min(seen.values()) >= 8, seen


@pytest.mark.parametrize("dom", _LAST_DOMAINS, ids=lambda d: d.name)
def test_law_without_variables_holds(dom):
    """x = x polarizes to one component with no terms and no variables,
    which holds on every domain."""
    A = _over(catalog_get("sl2"), dom, {})
    assert check_identity(A, parse_identity("x=x")) == (True, None)
    assert check_identity(A, parse_identity("x*y = x*y")) == (True, None)


@pytest.mark.parametrize("dim", [1, 2, 3, 4])
@pytest.mark.parametrize("runs", [[(1, 1)], [(2, 1)], [(3, -1)], [(2, 1), (1, 1), (1, 1)],
                                  [(1, 1), (3, 1)], [(3, -1), (2, -1)], [(2, -1), (4, -1)]])
def test_prefixes_and_generic_columns_are_the_representatives(dim, runs):
    """Each prefix of ``_prefixes`` followed by each column the generic
    element takes after its last index is one orbit representative, and in
    that order they are all of them, in lexicographic order."""
    length, kind = runs[-1]
    visited = []
    for prefix in identities._prefixes(dim, runs):
        out = {}
        identities._add_generic((dim, kind), [{prefix[-1]: 1}] if length > 1 else [], out, 1, 1)
        visited += [prefix + (c,) for c in out]
    assert visited == list(identities._representatives(dim, runs))


@pytest.mark.parametrize("algebra, law, reps", [
    (catalog_get("sl2"), "x*(y*z) + y*(z*x) + z*(x*y)", 1),
    # Jordan with the copies of z last: runs (1, 3) on M_2^+, 4 * C(4+2, 3)
    (plus_algebra(catalog_get("matrix", {"n": 2})), "((z*z)*a)*z - (z*z)*(a*z)", 80),
    (catalog_get("D", {"dim": 4}), "[[x0,x1,x2],y1,y2] - [[x0,y1,y2],x1,x2]"
     " - [x0,[x1,y1,y2],x2] - [x0,x1,[x2,y1,y2]]", 4 * 6),
])
def test_generic_scan_computes_one_value_per_representative(monkeypatch, algebra, law, reps):
    """On laws that hold, the scan computes one value per orbit
    representative: the number of prefixes times the generic element's
    columns at each is 1 for sl2's Jacobi identity (not the 9 of every
    column at every prefix), dim * C(dim+2, 3) for Jordan and C(4, 3) * C(4, 2)
    for the 3-Lie law of D(4)."""
    columns, prefixes = {}, []
    add_generic, make_prefixes = identities._add_generic, identities._prefixes

    def recording_generic(data, args, out, coef, one):
        add_generic(data, args, out, coef, one)
        columns[next(iter(args[0])) if args else None] = len(out)

    def recording_prefixes(dim, runs):
        prefixes.extend(make_prefixes(dim, runs))
        return prefixes

    monkeypatch.setattr(identities, "_add_generic", recording_generic)
    monkeypatch.setattr(identities, "_prefixes", recording_prefixes)
    assert check_identity(algebra, parse_identity(law)) == (True, None)
    assert sum(columns[None] if None in columns else columns[p[-1]] for p in prefixes) == reps


def test_scan_leaves_no_reference_cycles():
    """The scan's caches are freed by reference counting when it returns."""
    A = plus_algebra(catalog_get("matrix", {"n": 2}))
    jordan = parse_identity("((x*x)*y)*x - (x*x)*(y*x)")
    gc.collect()
    gc.disable()
    try:
        assert check_identity(A, jordan)[0]
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# witnesses without the reference evaluator
# ---------------------------------------------------------------------------

def _over(A, dom, scaled):
    """A with its entries in dom, every entry of the operation named n
    multiplied by ``scaled[n]`` when it is given."""
    return Algebra(A.name, A.dim,
                   {n: T.map_domain(dom, lambda c, s=scaled.get(n, dom.one()): dom.coerce(c) * s)
                    for n, T in A.ops.items()}, dom, unit=A.unit)


def _unital_pair(seed, dom, t):
    """The unital algebra e_i e_j = e_{i+j} (zero from index dim on) with a
    seeded antisymmetric bracket times t: the preconditions of a
    generalized Poisson pair hold, with D(a) = {a,1} nonzero, and its
    axioms may fail."""
    rng = random.Random(seed)
    dim = 3 + seed % 2
    mul = {(i, j): {i + j: dom.one()} for i in range(dim) for j in range(dim) if i + j < dim}
    bracket = {}
    for i, j in itertools.combinations(range(dim), 2):
        row = {k: dom.from_int(c) * t for k in range(dim) if (c := rng.randint(-3, 3))}
        if row:
            bracket[(i, j)] = row
            bracket[(j, i)] = {k: -c for k, c in row.items()}
    return Algebra(f"pair{seed}", dim, {"mul": StructureTensor(dim, 2, mul, dom),
                                       "bracket": StructureTensor(dim, 2, bracket, dom)},
                   dom, unit=0)


def _refuting_checks(dom):
    """Library checks whose laws fail on basis tuples over dom, each a
    callable: varieties, the generalized Poisson axioms (unary D),
    customary identities, a higher derivation and hom-Leibniz-3.  Over Q(t)
    the operations carry a factor t."""
    t = RatFunc.t_power(1) if dom is QT else dom.one()
    sl2 = _over(catalog_get("sl2"), dom, {"mul": t})
    m2 = _over(catalog_get("matrix", {"n": 2}), dom, {"mul": t})
    gp2 = _over(catalog_get("gp2"), dom, {"bracket": t})
    d4 = _over(catalog_get("D", {"dim": 4}), dom, {"mul": t})
    ut2 = _over(catalog_get("uppertri", {"n": 2}), dom, {})
    perm = [[dom.zero()] * 4 for _ in range(4)]
    perm[1][0] = perm[2][1] = perm[0][2] = perm[3][3] = dom.one()
    e11 = [[t if i == j == 0 else dom.zero() for j in range(3)] for i in range(3)]
    seq = HigherDerivationSeq(ut2, [[[dom.one() if i == j else dom.zero() for j in range(3)]
                                     for i in range(3)], e11, [[dom.zero()] * 3] * 3])
    return ([lambda v=v: check_variety(sl2, v) for v in ("associative", "jordan", "alternative")]
            + [lambda v=v: check_variety(m2, v) for v in ("lie", "jordan", "malcev")]
            + [lambda s=s: check_poisson_family(_unital_pair(s, dom, t), "generalized")
               for s in range(4)]
            + [lambda m=m, terms=terms: customary_check(gp2, CustomaryIdentity(m, terms))
               for m, terms in [(1, [(1, [], [1])]),
                                (4, [(2, [], [3]), (1, [], []), (1, [(4, 2)], [3, 1])])]]
            + [lambda: higher_derivation_check(ut2, seq),
               lambda: check_variety(d4, "hom-leibniz-3", phi=perm)])


@pytest.mark.parametrize("dom", [QQ, GF(7), QT], ids=lambda d: d.name)
def test_refuting_checks_never_call_the_reference_evaluator(dom, monkeypatch):
    """Every witness, defect included, comes from the compiled scan: with
    the reference evaluator raising, the refuting checks answer as before."""
    want = [check() for check in _refuting_checks(dom)]
    assert not any(r["holds"] if isinstance(r, dict) else r[0] for r in want)

    def refuse(*args, **kwargs):
        raise AssertionError("reference evaluator called")

    monkeypatch.setattr(identities, "eval_identity_sparse", refuse)
    monkeypatch.setattr(identities, "eval_term_sparse", refuse)
    assert [check() for check in _refuting_checks(dom)] == want


def test_parse_leaves_no_reference_cycles():
    """The parser is module-level, so a parse (or a parse error) leaves
    nothing for the cyclic garbage collector."""
    texts = ["((x1*x2)*y)*x3 + ((x2*x1)*y)*x3 - (x1*x2)*(y*x3) - (x2*x1)*(y*x3)",
             "2 D([x,y,z]) - 1/2 (x,y,z) = x*D(y*z)"]
    gc.collect()
    gc.disable()
    try:
        for text in texts:
            parse_identity(text)
        try:
            parse_identity("[x,y]*[z,w")
        except ParseError:
            pass
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# law_table against eval_identity_sparse at every basis tuple
# ---------------------------------------------------------------------------

_LAW_DOMAINS = [QQ, GF(5), QT, PolyRing(2)]
_ELEMENT_TYPES = {QQ: Fraction, GF(5): Fp, QT: RatFunc}


def _law_table_by_tuples(A, identity, opmap, unary_maps=None):
    """Reference for law_table: the law evaluated from scratch by the matrix
    path (``_eval_identity_matrix``) at every basis tuple of its variables."""
    one = A.dom.one()
    vs = identity.variables
    out = {}
    for combo in itertools.product(range(A.dim), repeat=len(vs)):
        val = _eval_identity_matrix(A, identity, {v: {i: one} for v, i in zip(vs, combo)},
                                    opmap, unary_maps)
        if val:
            out[combo] = val
    return out


def _assert_law_table(A, identity, maps):
    opmap = {"*": "mul", "[]": "t"}
    got = _table(A, identity, opmap, maps)
    want = _law_table_by_tuples(A, identity, opmap, maps)
    assert list(got) == list(want)
    assert got == want
    kind = _ELEMENT_TYPES.get(A.dom, Poly)
    assert all(type(c) is kind for row in got.values() for c in row.values())
    return got


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_LAW_DOMAINS), st.integers(0, 2**32))
def test_law_table_matches_per_tuple_evaluation(dom, seed):
    _assert_law_table(*_random_case(seed, dom))


@pytest.mark.parametrize("dom", _LAW_DOMAINS, ids=lambda d: d.name)
def test_law_table_cases_reach_every_node_kind(dom):
    """Seeded cases with unary maps, ternary operations, repeated and
    missing variables and planted cancellations, over every domain; the
    tables are nonzero often enough to compare values, not only zeros."""
    nonzero = unary = ternary = 0
    for seed in range(60):
        A, identity, maps = _random_case(seed, dom)
        nonzero += bool(_assert_law_table(A, identity, maps))
        unary += "D" in identity.used_symbols()
        ternary += "[]" in identity.used_symbols()
    assert nonzero >= 30 and unary >= 10 and ternary >= 10


_GENERIC_RING = PolyRing(3)
_GENERIC_LAWS = ["(x*y)*z - x*(y*z)", "(x*y)*x - x*(y*x)", "2/3 x*y - 2/3 y*x",
                 "1/2 (x*y)*z + 3/4 z*(y*x) - 5 (z*x)*y"]


def _generic_case(seed):
    """A product over Q[c0, c1, c2] like the generic product of the
    transposed-Poisson obstructions: each entry is a linear form in the c_a
    with coefficients of denominators 1 to 6, plus a constant, so the scan
    form is scaled by several denominators and unscaled at the end.  Half
    the tables are commutative; on those the flexible law and x*y - y*x
    cancel at every tuple, and the other laws cancel monomials."""
    rng = random.Random(seed)
    dim = rng.choice([1, 2, 2, 3])
    commutative = rng.random() < 0.5
    gens = _GENERIC_RING.gens()
    table = {}
    for args in itertools.product(range(dim), repeat=2):
        if commutative and args[0] > args[1] or rng.random() < 0.4:
            continue
        row = {}
        for k in rng.sample(range(dim), rng.randint(1, dim)):
            row[k] = sum((Fraction(rng.randint(-6, 6), rng.randint(1, 6)) * g
                          for g in rng.sample(gens, rng.randint(1, 3))),
                         _GENERIC_RING.from_int(rng.randint(-1, 1)))
        table[args] = row
        if commutative:
            table[args[::-1]] = row
    A = Algebra("generic", dim, {"mul": StructureTensor(dim, 2, table, _GENERIC_RING)},
                _GENERIC_RING)
    return A, parse_identity(rng.choice(_GENERIC_LAWS))


def _assert_generic_law_table(A, law):
    got = law_table(A, law, {"*": "mul"})
    want = _law_table_by_tuples(A, law, {"*": "mul"})
    assert list(got) == list(want)
    assert got == want
    # the exact strings of each coordinate; a row's key order is not part
    # of the table (no caller reads it)
    assert [{k: str(p) for k, p in row.items()} for row in got.values()] == \
        [{k: str(p) for k, p in row.items()} for row in want.values()]
    assert all(type(c) is Fraction for row in got.values() for p in row.values()
               for c in p.terms.values())
    return got


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
@example(9072)
@example(10409)
@example(18341)
def test_law_table_over_q_c_matches_per_tuple_evaluation(seed):
    """The integer scan form over Q[c] against the per-tuple evaluation in
    Fraction-coefficient polynomials at every tuple."""
    _assert_generic_law_table(*_generic_case(seed))


def test_law_table_over_q_c_cases_cancel_and_scale():
    """The seeded cases reach nonzero tables, tables that cancel to nothing
    on a nonzero product, and tables with denominators, which the scan form
    scales away."""
    nonzero = cancelled = scaled = 0
    for seed in range(60):
        A, law = _generic_case(seed)
        got = _assert_generic_law_table(A, law)
        nonzero += bool(got)
        cancelled += not got and not A.op("mul").is_zero()
        scaled += any(c.denominator > 1 for row in A.op("mul").table.values()
                      for p in row.values() for c in p.terms.values())
    assert nonzero >= 20 and cancelled >= 5 and scaled >= 20


def test_law_table_divides_by_the_scale():
    """Denominators in the table, the unary map and the coefficients: the
    values come back exact, not scaled."""
    half, third = Fraction(1, 2), Fraction(1, 3)
    A = Algebra("a", 2, {"mul": StructureTensor(2, 2, {(0, 1): {1: half}, (1, 1): {0: third}}, QQ)},
                QQ)
    x, y = ("v", "x"), ("v", "y")
    law = Identity([(Fraction(3, 4), ("D", (("*", (x, y)),))), (-1, ("*", (("D", (x,)), y)))],
                   {"*": 2, "D": 1})
    D = [[Fraction(2, 5), 0], [0, 1]]
    assert _table(A, law, {"*": "mul"}, {"D": D}) == {
        (0, 1): {1: Fraction(3, 8) - Fraction(1, 5)},
        (1, 1): {0: Fraction(3, 4) * third * Fraction(2, 5) - third}}


# ---------------------------------------------------------------------------
# one linear-form kernel, and the scan forms held on the tensors
# ---------------------------------------------------------------------------

def _add_product(data, args, out, coef, one):
    """Add coef times an operation at one linear form (slot s) and constant
    vectors (the other slots) to the form ``out``."""
    index, s = data
    form = args[s]
    others = args[:s] + args[s + 1:]
    for idx in itertools.product(*others):
        f0 = coef
        for v, i in zip(others, idx):
            f0 = f0 * v[i]
        for a, row in index.get(idx, ()):
            fa = form.get(a)
            if fa:
                for r, c in row.items():
                    f = f0 * c
                    tgt = out.setdefault(r, {})
                    for j, x in fa.items():
                        tgt[j] = tgt.get(j, 0) + f * x


def _add_linear_lookup(data, args, out, coef, one):
    """Add coef times an operation at one linear form (slot s) and constant
    vectors (the other slots) to the form ``out``.  Each product is looked
    up in the scan table itself: a per-law index of the table costs more
    than the scan on a large n-ary table.  A binary operation, the hot
    case, has a loop of its own whose keys are built from one index: a
    shared loop, or a call per product, made the Malcev check of the
    octonions' commutator algebra 7-16% slower (in-process, 2-vCPU x86)."""
    table, s = data
    form = args[s]
    if not form:
        return
    if len(args) == 2:
        for i, y in args[1 - s].items():
            f0 = coef * y
            for a, fa in form.items():
                row = table.get((i, a) if s else (a, i))
                if row is not None:
                    for r, c in row.items():
                        f = f0 * c
                        tgt = out.get(r)
                        if tgt is None:
                            out[r] = {j: f * x for j, x in fa.items()}
                        else:
                            for j, x in fa.items():
                                prev = tgt.get(j)
                                tgt[j] = f * x if prev is None else prev + f * x
        return
    others = args[:s] + args[s + 1:]
    for idx in itertools.product(*others):
        f0 = coef
        for v, i in zip(others, idx):
            f0 = f0 * v[i]
        head, tail = idx[:s], idx[s:]
        for a, fa in form.items():
            row = table.get(head + (a,) + tail)
            if row is not None:
                for r, c in row.items():
                    f = f0 * c
                    tgt = out.get(r)
                    if tgt is None:
                        out[r] = {j: f * x for j, x in fa.items()}
                    else:
                        for j, x in fa.items():
                            prev = tgt.get(j)
                            tgt[j] = f * x if prev is None else prev + f * x


def _scan_scalar(rng, dom):
    """A random scan-form value, maybe zero: an int over Q, a residue over
    GF(7), a Poly of int coefficients over Q[c]."""
    if isinstance(dom, PolyRing):
        return Poly(dom.n, {dom.pack((a, b)): rng.randint(-3, 3) for a in range(2)
                            for b in range(2) if rng.random() < 0.5})
    return rng.randrange(dom.p) if dom.char else rng.randint(-4, 4)


def _pruned_form(form, prune):
    return {r: row for r, f in form.items() if (row := prune(f))}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, GF(7), PolyRing(2)]), st.sampled_from([2, 3]),
       st.integers(0, 2**32))
def test_indexed_kernel_matches_the_replaced_kernels(dom, arity, seed):
    """``_add_linear`` over the slot indexes of one scan form gives the
    pruned forms of the per-call index kernel and of the direct-lookup
    kernel it replaced, on random binary and ternary tables, forms and
    vectors, in every slot in turn.  A third of the tables are symmetric
    and a third antisymmetric, marked so, whose slots share one index."""
    rng = random.Random(seed)
    _, _, prune, one, _ = identities._scan_domain(dom)
    dim = rng.randint(1, 4)
    mark = rng.choice([None, 1, -1])

    def scalars(support):
        return {i: _scan_scalar(rng, dom) for i in support}

    def sample():
        return rng.sample(range(dim), rng.randint(0, dim))

    def signed(row, sign):
        return row if sign > 0 else {k: -c % dom.p if dom.char else -c for k, c in row.items()}

    table = {}
    base = (itertools.product(range(dim), repeat=arity) if mark is None
            else itertools.combinations(range(dim), arity) if mark < 0
            else itertools.combinations_with_replacement(range(dim), arity))
    for args in base:
        if rng.random() < 0.6:
            row = scalars(rng.sample(range(dim), rng.randint(1, dim)))
            for perm in itertools.permutations(range(arity)) if mark else [range(arity)]:
                inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(arity), 2))
                table[tuple(args[p] for p in perm)] = signed(row, (mark or 1) ** inversions)
    form = (table, 1, mark, {})
    for s in range(arity):
        args = [prune(scalars(sample())) for _ in range(arity)]
        args[s] = {r: scalars(sample()) for r in sample()}
        coef = _scan_scalar(rng, dom) or one
        index = {}
        for idx, row in table.items():
            index.setdefault(idx[:s] + idx[s + 1:], []).append((idx[s], row))
        new, indexed, looked_up = {}, {}, {}
        identities._add_linear(identities._index(form, s), args, new, coef, one)
        _add_product((index, s), args, indexed, coef, one)
        _add_linear_lookup((table, s), args, looked_up, coef, one)
        assert (_pruned_form(new, prune) == _pruned_form(indexed, prune)
                == _pruned_form(looked_up, prune))


_FORM_DOMAINS = [QQ, GF(2), GF(7), QT]
_CATALOG_PARAMS = {"abelian": {"n": 2}, "NF": {"n": 3}, "filiform1p": {"n": 4},
                   "R": {"seq": (2, 1)}, "matrix": {"n": 2}, "uppertri": {"n": 2},
                   "ternaryJordan": {"n": 3}, "A_n": {"n": 3}, "D": {"dim": 5},
                   "A_alpha": {"alpha": 2}, "zinbiel-free1": {"n": 3}}


def _form_of(A, op):
    return identities._scan_forms(A, [op], {op: op})[op]


def test_cached_scan_forms_equal_fresh_ones_on_every_catalog_operation():
    """Every catalog operation holds one scan form per scan domain, with
    every slot indexed: the rational tensor one each over Q, GF(2), GF(7)
    and Q(t), its copy over Q[c] (whose scan takes polynomial entries) one
    over Q[c].  Each equals (table, factor, mark and indexes) the form of a
    fresh copy of its tensor scanned over that domain alone."""
    checked = set()
    ring = PolyRing(2)
    for name in CATALOG_NAMES:
        A = catalog_get(name, _CATALOG_PARAMS.get(name, {}))
        for op, tensor in A.ops.items():
            over = []
            for dom in _FORM_DOMAINS:
                try:
                    for row in tensor.table.values():
                        for c in row.values():
                            dom.coerce(c)
                except DomainError:   # a denominator divisible by the characteristic
                    continue
                over.append(Algebra(A.name, A.dim, {op: tensor}, dom))
            polys = tensor.map_domain(ring, lambda c: Poly.const(ring.n, c))
            over.append(Algebra(A.name, A.dim, {op: polys}, ring))
            for B in over:
                form = _form_of(B, op)
                for s in range(tensor.arity):
                    identities._index(form, s)
            assert len(tensor.scan_forms) == len(over) - 1 and len(polys.scan_forms) == 1
            for B in over:
                cached = _form_of(B, op)
                T = B.op(op)
                fresh = StructureTensor(A.dim, T.arity, T.table, T.dom)
                want = _form_of(Algebra(A.name, A.dim, {op: fresh}, B.dom), op)
                for s in range(tensor.arity):
                    identities._index(want, s)
                assert cached == want, (name, op, B.dom.name)
                assert _form_of(B, op) is cached
                checked.add((name, op, B.dom.name))
    assert len(checked) >= 5 * len(CATALOG_NAMES) - 10, len(checked)
    assert {dom for _, _, dom in checked} == {dom.name for dom in _FORM_DOMAINS + [ring]}


@pytest.mark.parametrize("order", [[QQ, GF(2)], [GF(2), QQ]], ids=["Q first", "GF(2) first"])
def test_one_tensor_checked_over_q_and_over_gf2(order):
    """sl2's bracket, one tensor in an algebra over Q and in one over GF(2),
    in either order: the bracket is antisymmetric (mark -1) over Q and
    symmetric (mark 1) over GF(2), where it is commutative, and every
    verdict and witness equals that of a fresh tensor."""
    laws = [parse_identity(law) for law in (
        "x*y - y*x", "x*y + y*x", "x*(y*z) + y*(z*x) + z*(x*y)", "(x*y)*z - x*(y*z)",
        "x*y", "((x*y)*z)*w - (x*y)*(z*w)")]
    bracket = catalog_get("sl2").op()
    for dom in order:
        shared = Algebra("sl2", 3, {"mul": bracket}, dom)
        fresh = Algebra("sl2", 3, {"mul": StructureTensor(3, 2, bracket.table, QQ)}, dom)
        verdicts = [check_identity(shared, law) for law in laws]
        assert verdicts == [check_identity(fresh, law) for law in laws]
        assert verdicts[0][0] == (dom is not QQ) and verdicts[1][0] and verdicts[2][0]
        assert _form_of(shared, "mul")[2] == (-1 if dom is QQ else 1)
    assert len(bracket.scan_forms) == 2


def test_a_pair_keeps_one_mark_per_operation():
    """The commutative product of a Poisson-type pair is marked 1 and its
    antisymmetric bracket -1, and laws mixing them (the Leibniz rule,
    commutativity of each) give the verdicts and witnesses of the scan of
    every tuple, twice on the same tensors."""
    laws = [parse_identity(law) for law in (
        "[x, y*z] - [x, y]*z - y*[x, z]", "x*y - y*x", "[x, y] - [y, x]", "[x, y] + [y, x]",
        "[x*y, z] - [y*x, z]", "[x, y]*z - [y, x]*z")]
    opmap = {"*": "mul", "[]": "bracket"}
    marks = set()
    for seed in range(6):
        pair = _unital_pair(seed, QQ, QQ.one())
        for _ in range(2):
            for law in laws:
                assert (check_identity(pair, law, opmap=opmap)
                        == _per_tuple_check(pair, law, opmap)), (seed, law)
        marks.add((_form_of(pair, "mul")[2], _form_of(pair, "bracket")[2]))
    assert marks == {(1, -1)}


# ---------------------------------------------------------------------------
# one binding: a linear map is an arity-1 operation
# ---------------------------------------------------------------------------

_BINDING_DOMAINS = [QQ, GF(2), GF(7), QT, PolyRing(2)]


def _binding_scalar(rng, dom):
    """``_scalar``, with odd denominators only over GF(2)."""
    return _odd_scalar(rng, dom) if dom.char == 2 else _scalar(rng, dom)


def _with_e(rng, term):
    """term with each D renamed E at random."""
    if term[0] == "v":
        return term
    sym = "E" if term[0] == "D" and rng.random() < 0.5 else term[0]
    return (sym, tuple(_with_e(rng, c) for c in term[1]))


def _map_case(seed, dom):
    """A random binary mul over dom and two matrices D and E (entries in dom,
    some zero, with denominators outside GF(2)), and a law of up to three
    ``_random_tree`` terms holding D or E, over one to three variables that
    may repeat, with ``_COEFFS`` coefficients (odd denominators over GF(2))."""
    rng = random.Random(seed)
    dim = rng.choice([1, 2, 2, 3])
    table = {args: {k: _binding_scalar(rng, dom) for k in rng.sample(range(dim), rng.randint(1, dim))}
             for args in itertools.product(range(dim), repeat=2) if rng.random() < 0.5}
    A = Algebra("maps", dim, {"mul": StructureTensor(dim, 2, table, dom)}, dom)
    maps = {sym: [[_binding_scalar(rng, dom) if rng.random() < 0.6 else dom.zero()
                   for _ in range(dim)] for _ in range(dim)] for sym in "DE"}
    coeffs = [c for c in _COEFFS if dom.char != 2 or Fraction(c).denominator % 2]
    leaves = [rng.choice("xyz"[:rng.randint(1, 3)]) for _ in range(rng.randint(1, 3))]
    terms = []
    while not terms or not any(sym in ("D", "E") for _, t in terms
                               for sym, _ in identities._op_nodes(t)):
        terms = [(Fraction(rng.choice(coeffs)), _with_e(rng, _random_tree(rng, leaves, False, True)))
                 for _ in range(rng.randint(1, 3))]
    return A, Identity(terms, {"*": 2, "D": 1, "E": 1}), maps


def _outcome(f, *args):
    try:
        return f(*args)
    except DomainError as exc:   # polarization in too small a characteristic
        return "DomainError", str(exc)


@settings(max_examples=250, deadline=None)
@given(st.sampled_from(_BINDING_DOMAINS), st.integers(0, 2**32))
def test_maps_bound_as_operations_match_the_matrix_path(dom, seed):
    """Each matrix bound as an arity-1 operation (``bind_maps``) gives the
    verdict, witness tuple and defect of ``check_identity`` and the
    ``law_table`` of the matrix path it replaced (``_eval_term_matrix``,
    at every basis tuple)."""
    A, ident, maps = _map_case(seed, dom)
    opmap = {"*": "mul"}
    assert (_outcome(_check, A, ident, opmap, maps)
            == _outcome(_per_tuple_check, A, ident, opmap, maps))
    assert _table(A, ident, opmap, maps) == _law_table_by_tuples(A, ident, opmap, maps)


def test_map_cases_reach_both_verdicts_and_both_maps():
    """The seeded map cases hold and fail over every domain, use D and E in
    one law, and fail at tuples past the first."""
    seen = set()
    for seed in range(200):
        dom = _BINDING_DOMAINS[seed % len(_BINDING_DOMAINS)]
        A, ident, maps = _map_case(seed, dom)
        holds, wit = _outcome(_check, A, ident, {"*": "mul"}, maps)
        if holds in (True, False):
            seen.add((dom.name, holds))
            seen.add(("late", bool(wit and any(wit["tuple"]))))
        seen.add(("both", {"D", "E"} <= set(ident.used_symbols())))
    assert {(dom.name, v) for dom in _BINDING_DOMAINS for v in (True, False)} <= seen
    assert {("late", True), ("both", True)} <= seen


@pytest.mark.parametrize("dom", [QQ, GF(7), QT, PolyRing(2)], ids=lambda d: d.name)
def test_linear_map_applies_its_matrix(dom):
    """The arity-1 tensor of a matrix of rationals maps v to M v in dom,
    with every entry coerced into dom; M is not symmetric."""
    rng = random.Random(3)
    for n in (1, 2, 3):
        M = [[Fraction(rng.choice(_COEFFS)) if rng.random() < 0.7 else Fraction(0)
              for _ in range(n)] for _ in range(n)]
        if n > 1:
            M[0][1], M[1][0] = Fraction(2), Fraction(-1, 3)
        T = linear_map(M, dom)
        assert (T.dim, T.arity, T.dom) == (n, 1, dom)
        assert all(c == dom.coerce(c) and type(c) is type(dom.one())
                   for row in T.table.values() for c in row.values())
        for _ in range(5):
            v = [_scalar(rng, dom) for _ in range(n)]
            want = [sum((dom.coerce(M[i][j]) * v[j] for j in range(n)), dom.zero())
                    for i in range(n)]
            assert T.apply([v]) == want


def test_symbolic_check_binds_maps_as_operations():
    """``symbolic_check`` has no code for unary maps: with D bound as an
    arity-1 operation it agrees with ``check_identity`` on the derivation
    law, for each derivation of sl2 (holds) and for D = 1 (fails)."""
    A = catalog_get("sl2")
    law = parse_identity("D(x*y) - D(x)*y - x*D(y)")
    one = [[QQ.one() if i == j else QQ.zero() for j in range(3)] for i in range(3)]
    for M, holds in [(M, True) for M in derivation_space(A).matrices()] + [(one, False)]:
        B, opmap = bind_maps(A, {"*": "mul"}, {"D": M})
        assert symbolic_check(B, law, opmap) is holds
        assert check_identity(B, law, opmap)[0] is holds


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32))
def test_symbolic_check_matches_the_scan_with_maps(seed):
    """Random laws with D on random algebras, D bound as an operation:
    ``symbolic_check`` and ``check_identity`` agree."""
    rng = random.Random(seed)
    A, ident, maps = _map_case(rng.randrange(2**32), QQ)
    while A.dim ** len(ident.variables) > 27:
        A, ident, maps = _map_case(rng.randrange(2**32), QQ)
    B, opmap = bind_maps(A, {"*": "mul"}, maps)
    assert check_identity(B, ident, opmap)[0] == symbolic_check(B, ident, opmap)
