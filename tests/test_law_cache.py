"""The law caches of ``identities``: each identity is polarized once per
characteristic (``_polarized``) and each law compiled once per mark pattern
and characteristic (``_law``).  Every answer from a cold cache equals the one
from a warm cache, a key that left out the marks, the characteristic or the
unknown symbols would give a wrong answer here, and nothing cached keeps an
algebra alive."""

import gc
import random
import weakref
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import identities
from nonassoc.catalog import catalog_get
from nonassoc.identities import (Identity, check_identity, law_rows, law_table, linear_conditions,
                                 parse_identity)
from nonassoc.scalars import GF, QQ, DomainError, PolyRing
from nonassoc.structure import Algebra, StructureTensor
from test_identities import (_CATALOG_PARAMS, _COEFFS, _bound, _check, _over, _random_tree,
                             _rename, _table)

_RING = PolyRing(2)
_DOMAINS = [QQ, GF(2), GF(7), _RING]
# the catalog algebras with a binary operation and dimension at most 4
_SMALL = ["abelian", "NF", "filiform1p", "sl2", "heis3", "matrix", "uppertri", "quaternions",
          "A_alpha", "tp4", "gp2", "zinbiel-free1"]


def _clear():
    identities._polarized.cache_clear()
    identities._law.cache_clear()


def _cold(f, *args):
    """f(*args) with the caches emptied first."""
    _clear()
    return f(*args)


def _outcome(f, *args, **kwargs):
    """f's value, or the DomainError it raises."""
    try:
        return f(*args, **kwargs)
    except DomainError as exc:
        return "DomainError", str(exc)


def _copies(name):
    """The catalog algebra over each domain its entries coerce into; over
    Q[c] every product is scaled by c0 + 1."""
    A = catalog_get(name, _CATALOG_PARAMS.get(name, {}))
    scale = {_RING: {op: _RING.gens()[0] + 1 for op in A.ops}}
    out = []
    for dom in _DOMAINS:
        try:
            out.append(_over(A, dom, scale.get(dom, {})))
        except DomainError:   # a denominator divisible by the characteristic
            pass
    return out


def _swapped(rng, terms):
    """terms, and half the time plus their images under x <-> y times +-1,
    so that the law is symmetric or antisymmetric in x and y."""
    if rng.random() < 0.5:
        sign = rng.choice([1, -1])
        terms = terms + [(sign * c, _rename(t, {"x": "y", "y": "x"})) for c, t in terms]
    return terms


def _identity_case(rng):
    """A random identity in x, y, z, repeated or not, maybe with a unary D."""
    unary = rng.random() < 0.3
    base = [rng.choice("xyz"[:rng.randint(1, 3)]) for _ in range(rng.randint(2, 4))]
    terms = [(Fraction(rng.choice(_COEFFS)),
              _random_tree(rng, [v for v in base if rng.random() < 0.85] or base[:1], False, unary))
             for _ in range(rng.randint(1, 3))]
    return Identity(_swapped(rng, terms), {"*": 2, "D": 1} if unary else {"*": 2}), unary


def _with_unknown(term, target, seen):
    """term with '*' read as the operation mul and the unknown <D> around its
    subterm number ``target`` in preorder."""
    index = seen[0]
    seen[0] += 1
    if term[0] != "v":
        term = ("mul", tuple(_with_unknown(c, target, seen) for c in term[1]))
    return ("<D>", (term,)) if index == target else term


def _conditions_case(rng):
    """A random multilinear law with one unary unknown <D> per term."""
    variables = ("x", "y", "z")[:rng.randint(2, 3)]
    terms = []
    for _ in range(rng.randint(1, 3)):
        tree = _random_tree(rng, list(variables), False, False)
        size = 2 * len(variables) - 1
        terms.append((Fraction(rng.choice(_COEFFS)),
                      _with_unknown(tree, rng.randrange(size), [0])))
    return _swapped(rng, terms), variables


def _answers(cases, ident, unary, terms, variables):
    """The outcomes of check_identity and law_table of ident, and of
    law_rows and linear_conditions of terms, on each algebra of cases."""
    out = []
    for A in cases:
        dom, n = A.dom, A.dim
        maps = {"D": [[dom.coerce(Fraction((i + 2 * j) % 3 - 1, 3)) for j in range(n)]
                      for i in range(n)]} if unary else None
        unknowns = {"<D>": (n, lambda r, i, n=n: r * n + i)}
        out.append((_outcome(_check, A, ident, {"*": "mul"}, maps),
                    _outcome(_table, A, ident, {"*": "mul"}, maps),
                    _outcome(law_rows, A, terms, variables, unknowns),
                    _outcome(linear_conditions, A, terms, variables, unknowns)))
    return out


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(_SMALL), st.integers(0, 2**32))
def test_cold_and_warm_caches_give_equal_answers(name, seed):
    """A random law on a catalog algebra over Q, GF(2), GF(7) and Q[c]:
    check_identity (verdict, witness tuple and defect), law_table, law_rows
    and linear_conditions give the same answers computed with the caches
    emptied before each algebra as with the caches holding the law compiled
    for every algebra, in either order."""
    rng = random.Random(seed)
    cases = _copies(name)
    ident, unary = _identity_case(rng)
    terms, variables = _conditions_case(rng)
    cold = []
    for A in cases:
        _clear()
        cold += _answers([A], ident, unary, terms, variables)
    assert _answers(cases, ident, unary, terms, variables) == cold
    assert _answers(cases[::-1], ident, unary, terms, variables) == cold[::-1]


def _longest_run(A, ident, maps):
    """The longest proven run of ident's polarized components on A."""
    B, opmap = _bound(A, {"*": "mul"}, maps)
    return max((length for lin in identities.polarize(ident, A.dom.char or 0)
                for length, _ in identities._compile(
                    B, lin.terms, lin.variables,
                    identities._scan_forms(B, lin.used_symbols(), opmap), generic=True)[4]),
               default=0)


def test_cold_and_warm_cases_cover_the_domains_and_verdicts():
    """The cases above reach every domain, both verdicts, coefficients that
    do not coerce (over GF(2)) and proven runs longer than one."""
    verdicts, doms, runs = set(), set(), 0
    for seed in range(60):
        rng = random.Random(seed)
        ident, unary = _identity_case(rng)
        for A in _copies(_SMALL[seed % len(_SMALL)]):
            maps = {"D": [[A.dom.one()] * A.dim] * A.dim} if unary else None
            verdicts.add(_outcome(_check, A, ident, {"*": "mul"}, maps)[0])
            doms.add(A.dom.name)
            runs += _outcome(_longest_run, A, ident, maps) in (2, 3)
    assert doms == {dom.name for dom in _DOMAINS}
    assert verdicts == {True, False, "DomainError"} and runs >= 10, (verdicts, runs)


def test_law_key_holds_the_marks():
    """x*y - y*x is one node with cancelling terms on a commutative table
    (mark 1); the same law on a table with no mark fails."""
    law = parse_identity("x*y - y*x")
    commutative = Algebra("c", 2, {"mul": StructureTensor(
        2, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}, (1, 0): {1: 1}}, QQ)}, QQ)
    noncommutative = Algebra("n", 2, {"mul": StructureTensor(
        2, 2, {(0, 0): {0: 1}, (0, 1): {1: 1}}, QQ)}, QQ)
    want = (False, {"variables": ["x", "y"], "tuple": [0, 1], "defect": [0, 1]})
    _clear()
    assert check_identity(commutative, law) == (True, None)
    assert check_identity(noncommutative, law) == want
    _clear()
    assert check_identity(noncommutative, law) == want


def test_law_key_holds_the_characteristic():
    """3 x*y vanishes over GF(3) only.  x*y + 4 y*x is symmetric in x and y
    over GF(3), where 4 = 1, and not over Q or GF(7): there it must be
    scanned at (1, 0), its first failing tuple, which a symmetric scan
    skips.  The table has no mark over any of the three."""
    table = {(0, 1): {0: -4}, (1, 0): {0: 1}, (2, 2): {0: 1}}
    algebras = {dom: Algebra("a", 3, {"mul": StructureTensor(3, 2, table, QQ)}, dom)
                for dom in (QQ, GF(3), GF(7))}
    three, skew = parse_identity("3 x*y"), parse_identity("x*y + 4 y*x")
    _clear()
    assert check_identity(algebras[QQ], three)[0] is False
    assert check_identity(algebras[GF(3)], three) == (True, None)
    for first in (GF(3), QQ, GF(7)):
        _clear()
        check_identity(algebras[first], skew)
        for dom, A in algebras.items():
            holds, wit = check_identity(A, skew)
            assert holds is False
            assert wit["tuple"] == ([2, 2] if dom == GF(3) else [1, 0]), (first, dom)
            assert (holds, wit) == _cold(check_identity, A, skew)


def test_law_key_holds_the_unknown_symbols():
    """The terms f(g(x)) - g(f(x)) are linear in f and in g: their rows with
    f unknown, after those with g unknown, are the rows of a cold cache."""
    f = StructureTensor(2, 1, {(0,): {1: 1}, (1,): {0: 2}}, QQ)
    g = StructureTensor(2, 1, {(0,): {0: 3}, (1,): {0: 1, 1: 1}}, QQ)
    A = Algebra("fg", 2, {"f": f, "g": g}, QQ)
    x = ("v", "x")
    terms = [(1, ("f", (("g", (x,)),))), (-1, ("g", (("f", (x,)),)))]
    columns = (2, lambda r, i: 2 * r + i)
    _clear()
    for unknown in ("g", "f"):
        rows = linear_conditions(A, terms, ("x",), {unknown: columns})
        assert rows == _cold(linear_conditions, A, terms, ("x",), {unknown: columns})
        assert rows


def test_caches_keep_no_algebra_alive():
    """After check_identity, law_table, law_rows and linear_conditions on a
    fresh algebra, the algebra and its tensor are freed once the caller
    drops them: no cache holds an algebra, a tensor or a scan form."""
    A = Algebra("r", 2, {"mul": StructureTensor(
        2, 2, {(0, 1): {1: Fraction(1, 2)}, (1, 1): {0: 3}}, QQ)}, QQ)
    refs = [weakref.ref(A), weakref.ref(A.op("mul"))]
    x, y = ("v", "x"), ("v", "y")
    terms = [(1, ("<D>", (("mul", (x, y)),))), (-1, ("mul", (("<D>", (x,)), y))),
             (-1, ("mul", (x, ("<D>", (y,)))))]
    unknowns = {"<D>": (2, lambda r, i: 2 * r + i)}
    assert not check_identity(A, parse_identity("(x*y)*x - x*(y*x)"))[0]
    assert law_table(A, parse_identity("x*y - y*x"), {"*": "mul"})
    assert law_rows(A, terms, ("x", "y"), unknowns)
    assert linear_conditions(A, terms, ("x", "y"), unknowns)
    del A
    gc.collect()
    assert [ref() for ref in refs] == [None, None]


def test_editing_a_polarize_copy_leaves_the_cached_component_alone():
    """``polarize`` hands out copies: a caller that rewrites a copy's
    symbols, terms and signature reaches neither the cached component nor
    a later check."""
    A = catalog_get("sl2")
    law = parse_identity("(x*y)*x - x*(y*x)")
    _clear()
    want = check_identity(A, law)
    for lin in identities.polarize(law):
        lin.symbols["*"] = 3
        lin.symbols["E"] = 1
        lin.terms.clear()
        lin.signature.clear()
    cached = identities._polarized(*identities._identity_key(law), 0)
    assert [lin.symbols for lin in cached] == [{"*": 2}] * len(cached)
    assert all(lin.terms and lin.signature == {"*": 2} for lin in cached)
    assert check_identity(A, law) == want


def test_law_caches_are_bounded():
    """More distinct laws than the cache holds leave it full, not larger."""
    A = catalog_get("sl2")
    size = identities._law.cache_info().maxsize
    for k in range(size + 5):
        check_identity(A, parse_identity(f"{k + 1} x*y + y*x"))
    assert identities._law.cache_info().currsize == size
    assert identities._polarized.cache_info().currsize == identities._polarized.cache_info().maxsize


def test_scan_coerces_a_tensor_over_another_domain():
    """A tensor over Q in an algebra over Q[c] is scanned over Q[c]; one
    over GF(5) in an algebra over Q cannot be, and says so."""
    half = Fraction(1, 2)
    commutative = StructureTensor(2, 2, {(0, 0): {0: 1}, (0, 1): {1: half},
                                         (1, 0): {1: half}}, QQ)
    A = Algebra("a", 2, {"mul": commutative}, PolyRing(1))
    assert check_identity(A, parse_identity("x*y - y*x")) == (True, None)
    B = Algebra("b", 2, {"mul": StructureTensor(2, 2, {(0, 0): {0: 1}}, GF(5))}, QQ)
    assert _outcome(check_identity, B, parse_identity("x*y - y*x"))[0] == "DomainError"
