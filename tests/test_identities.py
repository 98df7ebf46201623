import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonassoc import identities
from nonassoc.catalog import catalog_get
from nonassoc.identities import (MAX_POLARIZATION_COPIES, Identity, ParseError, _bind,
                                 check_identity, parse_identity,
                                 polarize, symbolic_check, eval_identity_sparse,
                                 default_opmap, law_table)
from nonassoc.scalars import GF, QQ, QT, DomainError, Fp, Poly, PolyRing, RatFunc
from nonassoc.structure import Algebra, StructureTensor
from nonassoc.incidence import HigherDerivationSeq, higher_derivation_check
from nonassoc.poisson import CustomaryIdentity, check_poisson_family, customary_check
from nonassoc.varieties import BINARY_VARIETIES, check_variety, plus_algebra, variety_identities
from test_linear_conditions import _odd_scalar, _signed_tensor


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


def test_polarize_char_guard():
    jordan = parse_identity("((x*x)*y)*x - (x*x)*(y*x)")
    with pytest.raises(DomainError):
        polarize(jordan, char=3)
    # multilinear identities pass through in any characteristic
    assert polarize(parse_identity("(x*y)*z - x*(y*z)"), char=3)


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

def _per_tuple_check(A, identity, opmap, unary_maps=None):
    """check_identity before the compiled scan: every term re-evaluated from
    scratch by eval_identity_sparse at every basis tuple."""
    dom = A.dom
    for lin in polarize(identity, char=dom.char or 0):
        vs = lin.variables
        one = dom.one()
        for combo in itertools.product(range(A.dim), repeat=len(vs)):
            assignment = {v: {i: one} for v, i in zip(vs, combo)}
            defect = eval_identity_sparse(A, lin, assignment, opmap, unary_maps)
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
    assert (check_identity(A, ident, opmap=opmap, unary_maps=maps)
            == _per_tuple_check(A, ident, opmap, maps))


def test_compiled_scan_cases_cover_both_verdicts():
    """The random cases above reach true verdicts and late witnesses, so the
    caches and the integer scaling are exercised beyond the first tuple."""
    verdicts, late = set(), 0
    for seed in range(120):
        A, ident, maps = _random_case(seed, QQ)
        holds, wit = check_identity(A, ident, opmap={"*": "mul", "[]": "t"},
                                    unary_maps=maps)
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
    """(nodes, specs, top_coef, scale, prove): the compiled DAG of lin on A
    with its symbols bound by opmap and maps, as ``identities._values``
    builds it."""
    lcm, convert, *_ = identities._scan_domain(A.dom)
    tables = {sym: identities._scan_table(A, sym, opmap, maps, lcm, convert)
              for sym in lin.used_symbols()}
    return identities._compile(A, lin.terms, lin.variables, tables)


def _run_kinds(A, ident, maps):
    """The (length, kind) runs of ``_symmetric_runs`` of ident's one
    polarized component."""
    lin, = polarize(ident)
    opmap = _bind(A, lin, {"*": "mul"}, maps)
    return _compiled_law(A, lin, opmap, maps)[4]()


def _runs(A, ident, maps):
    return [length for length, _ in _run_kinds(A, ident, maps)]


@settings(max_examples=250, deadline=None)
@given(st.sampled_from([QQ, GF(7), QT]), st.integers(0, 2**32))
def test_representative_scan_matches_per_tuple_scan(dom, seed):
    """The scan of orbit representatives gives the verdict and the first
    witness of the scan of every tuple, on laws that are symmetric in a copy
    group and on near-symmetric ones the proof must reject."""
    A, ident, maps, _ = _symmetric_case(seed, dom)
    assert (check_identity(A, ident, opmap={"*": "mul"}, unary_maps=maps)
            == _per_tuple_check(A, ident, {"*": "mul"}, maps))


def test_representative_scan_cases_cover_runs_and_verdicts():
    """The seeded symmetric cases reach proven runs longer than one,
    failures at late and at repeated-index tuples, true verdicts, and
    perturbed laws whose symmetry is rejected."""
    seen = {"run": 0, "late": 0, "repeated": 0, "holds": 0, "rejected": 0}
    for seed in range(150):
        A, ident, maps, kind = _symmetric_case(seed, QQ)
        runs = _runs(A, ident, maps)
        holds, wit = check_identity(A, ident, opmap={"*": "mul"}, unary_maps=maps)
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
    assert (check_identity(A, ident, opmap=_OPMAP, unary_maps=maps)
            == _per_tuple_check(A, ident, _OPMAP, maps))
    assert law_table(A, ident, _OPMAP, maps) == _law_table_by_tuples(A, ident, _OPMAP, maps)


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
            opmap = _bind(A, lin, _OPMAP, maps)
            nodes, _, top_coef, _, prove = _compiled_law(A, lin, opmap, maps)
            runs = prove()
            g = sum(v.startswith("x") for v in lin.variables)
            start = lin.variables.index("x1")
            holds, wit = check_identity(A, ident, opmap=_OPMAP, unary_maps=maps)
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
    nodes, _, top_coef, _, prove = _compiled_law(sl2, skew, {"*": "mul"}, None)
    assert len(nodes) == 3 and top_coef == {} and prove() == [(2, 1)]
    assert check_identity(sl2, skew) == (True, None)
    nodes, _, top_coef, _, prove = _compiled_law(near, skew, {"*": "mul"}, None)
    assert len(nodes) == 4 and len(top_coef) == 2 and prove() == [(2, 1)]
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
        got = check_identity(A, ident, opmap={"*": "mul"}, unary_maps={"D": D})
        assert got == _per_tuple_check(A, ident, {"*": "mul"}, {"D": D})


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
    """Reference for law_table: the law evaluated from scratch by
    eval_identity_sparse at every basis tuple of its variables."""
    one = A.dom.one()
    vs = identity.variables
    out = {}
    for combo in itertools.product(range(A.dim), repeat=len(vs)):
        val = eval_identity_sparse(A, identity, {v: {i: one} for v, i in zip(vs, combo)},
                                   opmap, unary_maps)
        if val:
            out[combo] = val
    return out


def _assert_law_table(A, identity, maps):
    opmap = {"*": "mul", "[]": "t"}
    got = law_table(A, identity, opmap, maps)
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
    assert [[str(p) for p in row.values()] for row in got.values()] == \
        [[str(p) for p in row.values()] for row in want.values()]
    assert all(type(c) is Fraction for row in got.values() for p in row.values()
               for c in p.terms.values())
    return got


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32))
def test_law_table_over_q_c_matches_per_tuple_evaluation(seed):
    """The integer scan form over Q[c] against eval_identity_sparse in
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
    assert law_table(A, law, {"*": "mul"}, {"D": D}) == {
        (0, 1): {1: Fraction(3, 8) - Fraction(1, 5)},
        (1, 1): {0: Fraction(3, 4) * third * Fraction(2, 5) - third}}
