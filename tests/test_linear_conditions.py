"""The linear-condition builder behind every operator space.

Each basis map the solvers return is checked against its defining law with
``check_identity``, the map bound as an arity-1 operation (``bind_maps``):
an evaluator that shares no code with ``linear_conditions``.  The dimensions were recorded from the
hand-written row loops the builder replaced.
"""

import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import identities, kantor
from nonassoc.catalog import catalog_get
from nonassoc.identities import check_identity, law_rows, linear_conditions, parse_identity
from nonassoc.linalg import is_invertible, kernel
from nonassoc.operators import centroid, commuting_map_space, derivation_space
from nonassoc.poisson import transposed_compatible_space
from nonassoc.scalars import GF, QQ, QT, DomainError, PrimeField, RatFunc
from nonassoc.structure import Algebra, StructureTensor, change_basis, linear_map
from nonassoc.varieties import minus_algebra

ALGEBRAS = [("sl2", None), ("heis3", None), ("NF", {"n": 3}),
            ("matrix", {"n": 2}), ("quaternions", None), ("uppertri", {"n": 2})]

# (Der, 1/2-Der, centroid, commuting maps), the same in every basis
DIMS = {"sl2": (3, 1, 1, 1), "heis3": (6, 6, 3, 4), "NF": (3, 3, 2, 4),
        "matrix": (3, 1, 1, 5), "quaternions": (3, 1, 1, 5),
        "uppertri": (2, 1, 1, 4)}

LAWS = {
    "der": ["D(x*y) - D(x)*y - x*D(y)"],
    "half": ["D(x*y) - 1/2 D(x)*y - 1/2 x*D(y)"],
    "centroid": ["D(x*y) - D(x)*y", "D(x*y) - x*D(y)"],
    "commuting": ["D(x)*x - x*D(x)"],
}


def bind_maps(A, opmap, maps):
    """(algebra, opmap): the operations of A that opmap names (those A has)
    and each matrix of maps as an arity-1 operation (``linear_map``), in one
    algebra keyed by the law's symbols, and the opmap binding each symbol to
    its own."""
    ops = {sym: A.ops[name] for sym, name in opmap.items() if name in A.ops}
    ops.update((sym, linear_map(M, A.dom)) for sym, M in maps.items())
    return Algebra(A.name, A.dim, ops, A.dom), dict(zip(ops, ops))


def _rebased(A, seed):
    rng = random.Random(seed)
    while True:
        P = [[Fraction(rng.randint(-3, 3)) for _ in range(A.dim)]
             for _ in range(A.dim)]
        if is_invertible(P):
            return change_basis(A, P)


@pytest.mark.parametrize("name,params", ALGEBRAS)
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_every_basis_map_satisfies_its_law(name, params, seed):
    A = catalog_get(name, params)
    if seed is not None:
        A = _rebased(A, seed)
    spaces = {"der": derivation_space(A),
              "half": derivation_space(A, Fraction(1, 2)),
              "centroid": centroid(A),
              "commuting": commuting_map_space(A)}
    assert tuple(s.dim for s in spaces.values()) == DIMS[name]
    for kind, space in spaces.items():
        laws = [parse_identity(text) for text in LAWS[kind]]
        for M in space.matrices():
            bound, opmap = bind_maps(A, {"*": "mul"}, {"D": M})
            for law in laws:
                holds, witness = check_identity(bound, law, opmap)
                assert holds, (name, seed, kind, witness)


def test_rows_are_keyed_tuple_major_coordinate_ascending():
    A = catalog_get("sl2")
    n = A.dim
    x, y = ("v", "x"), ("v", "y")
    terms = [(1, ("<D>", (("mul", (x, y)),))),
             (-1, ("mul", (("<D>", (x,)), y))),
             (-1, ("mul", (x, ("<D>", (y,)))))]
    rows = linear_conditions(A, terms, ("x", "y"), {"<D>": (n, lambda r, a: r * n + a)})
    assert all(type(c) is int for row in rows.values() for c in row.values())
    keys = list(rows)
    assert keys == sorted(keys)
    assert all(rows.values())
    assert {combo for combo, _ in keys} <= {(i, j) for i in range(n) for j in range(n)}


def test_every_term_needs_exactly_one_unknown():
    A = catalog_get("sl2")
    x, y = ("v", "x"), ("v", "y")
    unknowns = {"<D>": (A.dim, lambda r, a: r * A.dim + a)}
    with pytest.raises(DomainError):
        linear_conditions(A, [(1, ("mul", (x, y)))], ("x", "y"), unknowns)
    with pytest.raises(DomainError):
        linear_conditions(A, [(1, ("mul", (("<D>", (x,)), ("<D>", (y,)))))],
                          ("x", "y"), unknowns)
    for terms in ([(1, ("mul", (x, y)))], [(1, ("mul", (("<D>", (x,)), ("<D>", (y,)))))]):
        with pytest.raises(DomainError, match="every term needs exactly one unknown"):
            law_rows(A, terms, ("x", "y"), unknowns)


# ---------------------------------------------------------------------------
# the compiled builder against the closure builder it replaced
# ---------------------------------------------------------------------------

def _closure_linear_conditions(A, terms, variables, unknowns):
    """linear_conditions before the compiled DAG: every term compiled into
    recursive closures evaluated in the domain's own arithmetic, and each
    unknown's form rebuilt at every basis tuple.  Returns the rows only
    (their scale is 1)."""
    dom = A.dom
    one = dom.one()
    minus = -one

    def count(term):
        if term[0] == "v":
            return 0
        return (term[0] in unknowns) + sum(count(c) for c in term[1])

    if any(count(t) != 1 for _, t in terms):
        raise DomainError("every term needs exactly one unknown")

    def add(form, key, x):
        y = form.get(key)
        form[key] = x if y is None else y + x

    def times(a, b):
        if a is one:
            return b
        if b is one:
            return a
        return -b if a is minus else a * b

    def supports(vecs):
        out = [((), one)]
        for v in vecs:
            out = [(idx + (i,), times(coef, c)) for idx, coef in out for i, c in v.items()]
        return out

    def constant(term):
        if term[0] == "v":
            name = term[1]
            return lambda env: env[name]
        table = A.op(term[0]).table
        kids = [constant(k) for k in term[1]]

        def product(env):
            out = {}
            for idx, coef in supports([k(env) for k in kids]):
                for r, c in table.get(idx, {}).items():
                    add(out, r, times(coef, c))
            return out
        return product

    def linear(term):
        sym, kids = term
        if sym in unknowns:
            dim, col = unknowns[sym]
            args = [constant(k) for k in kids]

            def unknown(env, scale, out):
                for idx, coef in supports([f(env) for f in args]):
                    f = times(scale, coef)
                    for r in range(dim):
                        add(out.setdefault(r, {}), col(r, *idx), f)
            return unknown
        s = next(i for i, k in enumerate(kids) if count(k))
        inner = linear(kids[s])
        others = [constant(k) for i, k in enumerate(kids) if i != s]
        index = {}
        for idx, row in A.op(sym).table.items():
            index.setdefault(idx[:s] + idx[s + 1:], []).append((idx[s], row))

        def node(env, scale, out):
            val = {}
            inner(env, one, val)
            for idx, coef in supports([f(env) for f in others]):
                f0 = times(scale, coef)
                for a, row in index.get(idx, ()):
                    form = val.get(a)
                    if form:
                        for r, c in row.items():
                            f = times(f0, c)
                            tgt = out.setdefault(r, {})
                            for key, x in form.items():
                                x = f if x is one else x if f is one else f * x
                                y = tgt.get(key)
                                tgt[key] = x if y is None else y + x
        return node

    compiled = []
    for c, t in terms:
        c = dom.coerce(c)
        compiled.append((one if c == one else minus if c == minus else c, linear(t)))
    rows = {}
    for combo in itertools.product(range(A.dim), repeat=len(variables)):
        env = {v: {i: one} for v, i in zip(variables, combo)}
        total = {}
        for c, fn in compiled:
            fn(env, c, total)
        for r in sorted(total):
            row = {k: x for k, x in total[r].items() if not dom.is_zero(x)}
            if row:
                rows[(combo, r)] = row
    return rows


def _assert_scaled_rows(A, terms, variables, unknowns):
    """The compiled rows (``_conditions``) are scale times the closure
    builder's rows, with the same keys in the same order; over Q and GF(p)
    they are ints.  ``linear_conditions`` divides them by the scale: over
    Q it gives the closure builder's rows, elsewhere the compiled ones."""
    dom = A.dom
    rows, scale = identities._conditions(A, terms, variables, unknowns, every=True)
    rows = dict(rows)
    old = _closure_linear_conditions(A, terms, variables, unknowns)
    assert list(rows) == list(old)
    if dom is QQ:
        assert isinstance(scale, int) and scale > 0
        want = {key: {j: scale * c for j, c in row.items()} for key, row in old.items()}
    elif isinstance(dom, PrimeField):
        assert scale == 1
        want = {key: {j: c.v for j, c in row.items()} for key, row in old.items()}
    else:
        assert scale == 1
        want = old
    if dom is QQ or isinstance(dom, PrimeField):
        assert all(type(c) is int for row in rows.values() for c in row.values())
    assert rows == want
    assert linear_conditions(A, terms, variables, unknowns) == (old if dom is QQ else want)


_COEFFS = ["1", "-1", "2", "1/2", "-1/3", "3/2", "5/4"]


def _scalar(rng, dom):
    c = Fraction(rng.choice(_COEFFS))
    if dom is QT:
        return QT.coerce(c) * rng.choice([1, RatFunc.t_power(1), RatFunc.t_power(-1) + 1])
    return dom.coerce(c)


def _random_tensor(rng, dom, dim, arity, density):
    table = {}
    for args in itertools.product(range(dim), repeat=arity):
        if rng.random() < density:
            table[args] = {k: _scalar(rng, dom)
                           for k in rng.sample(range(dim), rng.randint(1, dim))}
    return StructureTensor(dim, arity, table, dom)


def _constant_tree(rng, variables, ternary, depth):
    """A random term without unknowns over the given variables."""
    if depth == 0 or rng.random() < 0.45:
        return ("v", rng.choice(variables))
    if ternary and rng.random() < 0.3:
        return ("t", tuple(_constant_tree(rng, variables, ternary, depth - 1)
                           for _ in range(3)))
    return ("mul", (_constant_tree(rng, variables, ternary, depth - 1),
                    _constant_tree(rng, variables, ternary, depth - 1)))


def _random_law(seed, dom):
    """A random algebra (binary mul with denominators, maybe a ternary t)
    and a law linear in one or two unknowns of arity 0, 1 or 2: each term
    is an unknown applied to constant subterms, put up to three products
    deep among further constant subterms."""
    rng = random.Random(seed)
    # Q(t) arithmetic is slow: keep its cases to dimension 2
    dim = rng.choice([1, 2] if dom is QT else [1, 2, 2, 3])
    ternary = rng.random() < 0.3
    ops = {"mul": _random_tensor(rng, dom, dim, 2, rng.choice([0.3, 0.6, 0.9]))}
    if ternary:
        ops["t"] = _random_tensor(rng, dom, dim, 3, 0.4)
    A = Algebra("rnd", dim, ops, dom)
    variables = ("x", "y", "z")[:rng.randint(1, 3)]
    unknowns, offset = {}, 0
    for name in ("<U>", "<V>")[:rng.randint(1, 2)]:
        arity = rng.choice([0, 1, 1, 2])
        out_dim = rng.choice([dim, dim, 1])
        width = dim ** arity
        if arity == 2 and rng.random() < 0.5:
            # a symmetric unknown: columns of (i, j) and (j, i) coincide
            def col(r, i, j, off=offset, w=width):
                return off + r * w + min(i, j) * dim + max(i, j)
        else:
            def col(r, *idx, off=offset, w=width):
                return off + r * w + sum(i * dim ** p for p, i in enumerate(idx))
        unknowns[name] = (out_dim, col, arity)
        offset += out_dim * width
    terms = []
    for _ in range(rng.randint(1, 4)):
        name = rng.choice(list(unknowns))
        out_dim, _, arity = unknowns[name]
        term = (name, tuple(_constant_tree(rng, variables, ternary, 2) for _ in range(arity)))
        if out_dim == dim:
            for _ in range(rng.choice([0, 1, 2, 3])):
                other = _constant_tree(rng, variables, ternary, 1)
                if ternary and rng.random() < 0.3:
                    kids = [other, _constant_tree(rng, variables, ternary, 1)]
                    kids.insert(rng.randrange(3), term)
                    term = ("t", tuple(kids))
                else:
                    term = ("mul", (term, other) if rng.random() < 0.5 else (other, term))
        terms.append((_scalar(rng, dom), term))
    return A, terms, variables, {k: (d, c) for k, (d, c, _) in unknowns.items()}


@settings(max_examples=250, deadline=None)
@given(st.sampled_from([QQ, GF(7), QT]), st.integers(0, 2**32))
def test_compiled_rows_are_scaled_closure_rows(dom, seed):
    _assert_scaled_rows(*_random_law(seed, dom))


def test_random_laws_cover_the_builder():
    """The random laws reach every shape the builder distinguishes: nullary,
    unary and binary unknowns, two unknowns in one law, an unknown two
    products deep, and a scale above 1."""
    seen = set()
    for seed in range(200):
        A, terms, variables, unknowns = _random_law(seed, QQ)
        _, scale = identities._conditions(A, terms, variables, unknowns, every=True)
        seen.add(f"scale>1:{scale > 1}")
        seen.add(f"unknowns:{len(unknowns)}")
        for _, t in terms:
            depth = 0
            while t[0] not in unknowns:
                t = next(k for k in t[1] if k[0] != "v" and _holds_unknown(k, unknowns))
                depth += 1
            seen.add(f"arity:{len(t[1])}")
            seen.add(f"deep:{depth >= 2}")
    assert seen >= {"scale>1:True", "unknowns:2", "arity:0", "arity:1", "arity:2",
                    "deep:True"}


def _holds_unknown(term, unknowns):
    return term[0] != "v" and (term[0] in unknowns
                               or any(_holds_unknown(k, unknowns) for k in term[1]))


@pytest.mark.parametrize("dom", [QQ, GF(7), QT])
def test_compiled_rows_of_the_solver_laws(dom):
    """The laws the solvers build, on a random algebra with denominators:
    derivations, the 4-ary derivations (three unknown slots), a form with a
    symmetric column map, and Kantor's double bracket (the nullary unknown
    two products deep), all with fractional coefficients."""
    rng = random.Random(3)
    n = 3
    A = Algebra("rnd", n, {"mul": _random_tensor(rng, dom, n, 2, 0.6)}, dom)
    x, y, z = ("v", "x"), ("v", "y"), ("v", "z")
    half = Fraction(1, 2)
    der = [(1, ("<D>", (("mul", (x, y)),))), (-half, ("mul", (("<D>", (x,)), y))),
           (-half, ("mul", (x, ("<D>", (y,)))))]
    _assert_scaled_rows(A, der, ("x", "y"), {"<D>": (n, lambda r, a: r * n + a)})
    four = [(1, ("mul", (("<D0>", (x,)), y))), (1, ("mul", (x, ("<D1>", (y,))))),
            (Fraction(-3, 2), ("<D2>", (("mul", (x, y)),)))]
    _assert_scaled_rows(A, four, ("x", "y"),
                        {f"<D{i}>": (n, lambda r, a, i=i: (i * n + r) * n + a) for i in range(3)})
    dot = [(2, ("<dot>", (z, ("mul", (x, y))))), (-1, ("mul", (("<dot>", (z, x)), y))),
           (Fraction(-1, 3), ("mul", (x, ("<dot>", (z, y)))))]
    _assert_scaled_rows(A, dot, ("x", "y", "z"),
                        {"<dot>": (n, lambda r, i, j: (min(i, j) * n + max(i, j)) * n + r)})
    a, b = ("<a>", ()), ("v", "b")
    terms = [(c, ("mul", (a, t))) for c, t in kantor._bracket_terms("mul", b, x, y)]
    terms += [(-c, t) for c, t in kantor._bracket_terms("mul", b, ("mul", (a, x)), y)
              + kantor._bracket_terms("mul", b, x, ("mul", (a, y)))]
    _assert_scaled_rows(A, terms, ("b", "x", "y"), {"<a>": (n, lambda r: r)})


def _random_kantor_algebra(seed):
    rng = random.Random(seed)
    dim = rng.choice([2, 2, 3])
    return Algebra(f"rnd{seed}", dim, {"mul": _random_tensor(rng, QQ, dim, 2, 0.6)}, QQ)


def _kantor_results(A):
    report = kantor.conservativity_test(A)
    return (kantor._k_rows(A), kantor._double_brackets(A), report.feasible,
            report.particular, report.homogeneous, report.terminal)


@pytest.mark.parametrize("which", ["U2"] + [f"seed{s}" for s in range(20)])
def test_kantor_matrices_match_the_closure_builder(which, monkeypatch):
    """K's sparse rows, the double brackets and the conservativity verdict
    from the compiled rows (each divided by its own scale) equal those of
    the closure builder: on U(2), and on random algebras with denominators,
    where K and the double brackets carry different scales."""
    A = kantor.build_U(2) if which == "U2" else _random_kantor_algebra(int(which[4:]))
    got = _kantor_results(A)
    monkeypatch.setattr(kantor, "linear_conditions", _closure_linear_conditions)
    assert got == _kantor_results(A)


def test_linear_conditions_leave_no_reference_cycles():
    """The compiled builder's caches and forms are freed by reference
    counting when it returns."""
    A = _rebased(catalog_get("sl2"), 1)
    gc.collect()
    gc.disable()
    try:
        assert derivation_space(A).dim == 3
        assert gc.collect() == 0
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# law_rows: one basis tuple per proven orbit, against every tuple
# ---------------------------------------------------------------------------

def _odd_scalar(rng, dom):
    """A random scalar whose denominator is odd, so that it exists in GF(2)."""
    c = Fraction(rng.choice(["1", "-1", "2", "-1/3", "3/5", "7/3"]))
    if dom is QT:
        return QT.coerce(c) * rng.choice([1, RatFunc.t_power(1), RatFunc.t_power(-1) + 1])
    return dom.coerce(c)


def _signed_tensor(rng, dom, dim, arity, kind, density):
    """A random table that is exactly symmetric (kind 1) or antisymmetric
    (kind -1): an entry at each chosen non-decreasing (strictly increasing
    for kind -1) tuple, copied to its permutations with the sign."""
    table = {}
    base = (itertools.combinations if kind < 0 else itertools.combinations_with_replacement)
    for args in base(range(dim), arity):
        if rng.random() < density:
            row = {k: _odd_scalar(rng, dom) for k in rng.sample(range(dim), rng.randint(1, dim))}
            for perm in itertools.permutations(range(arity)):
                inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(arity), 2))
                sign = kind ** inversions
                table[tuple(args[p] for p in perm)] = {k: sign * c for k, c in row.items()}
    return StructureTensor(dim, arity, table, dom)


def _signed_law(seed, dom):
    """A law linear in the unknown D, on an algebra whose binary mul and
    ternary t are exactly symmetric or antisymmetric: summed over every
    order of a group x1..xg of variables with the sign kind ** inversions
    (so it is symmetric or antisymmetric in the group whatever the tables),
    or one or two random terms, (anti)symmetric only through the tables.  One
    variable "a" may sit outside the group; a tripled coefficient breaks the
    law's symmetry in a third of the cases."""
    rng = random.Random(seed)
    dim = rng.choice([2] if dom is QT else [2, 3, 3])
    ops = {"mul": _signed_tensor(rng, dom, dim, 2, rng.choice([1, -1]), 0.7),
           "t": _signed_tensor(rng, dom, dim, 3, rng.choice([1, -1]), 0.7)}
    A = Algebra("signed", dim, ops, dom)
    group = [f"x{j}" for j in range(1, rng.randint(2, 3) + 1)]
    leaves = group + (["a"] if rng.random() < 0.4 else [])
    variables = tuple(sorted(leaves))
    kind = rng.choice([1, -1])
    # summed over the group's orders, or symmetric only through the tables
    # (in characteristic 2 a sum over the orders vanishes at repeated indices)
    summed = rng.random() < 0.6
    orders = list(itertools.permutations(range(len(group)))) if summed else [range(len(group))]
    terms = []
    for _ in range(rng.randint(1, 2)):
        tree = _linear_tree(rng, leaves)
        c = _odd_scalar(rng, dom)
        for perm in orders:
            inversions = sum(perm[a] > perm[b] for a, b in itertools.combinations(range(len(group)), 2))
            names = {group[i]: group[p] for i, p in enumerate(perm)}
            terms.append((c * kind ** inversions, _rename(tree, names)))
    if rng.random() < 1 / 3:
        i = rng.randrange(len(terms))
        terms[i] = (terms[i][0] * 3, terms[i][1])
    n = dim
    return A, terms, variables, {"<D>": (n, lambda r, a: r * n + a)}


def _linear_tree(rng, leaves):
    """A random term over the given leaves, each used once, with D applied
    to one leaf or to the whole product."""
    parts = [("v", v) for v in leaves]
    rng.shuffle(parts)
    unknown_at = rng.randrange(len(parts) + 1)
    if unknown_at < len(parts):
        parts[unknown_at] = ("<D>", (parts[unknown_at],))
    while len(parts) > 1:
        arity = 3 if len(parts) >= 3 and rng.random() < 0.4 else 2
        i = rng.randrange(len(parts) - arity + 1)
        parts[i:i + arity] = [("t" if arity == 3 else "mul", tuple(parts[i:i + arity]))]
    return parts[0] if unknown_at < len(leaves) else ("<D>", (parts[0],))


def _rename(term, names):
    if term[0] == "v":
        return ("v", names.get(term[1], term[1]))
    return (term[0], tuple(_rename(c, names) for c in term[1]))


def _reference_conditions(A, terms, variables, unknowns, every):
    """``identities._conditions`` as it was when ``law_rows`` kept every
    row, verbatim but for the module prefix: keyed rows at every tuple or
    at one per orbit."""
    prune = identities._scan_domain(A.dom)[2]
    if any(sum(sym in unknowns for sym, _ in identities._op_nodes(t)) != 1 for _, t in terms):
        raise DomainError("every term needs exactly one unknown")
    syms = {sym for _, t in terms for sym, _ in identities._op_nodes(t)} - set(unknowns)
    _, specs, top_coef, scale, runs = identities._compile(
        A, terms, variables, identities._scan_forms(A, syms, dict(zip(syms, syms))), unknowns)
    tuples = (itertools.product(range(A.dim), repeat=len(variables)) if every
              else identities._representatives(A.dim, runs))

    def keyed_rows():
        for combo, total in identities._totals(A, tuples, specs, top_coef,
                                               identities._merge_form):
            for r in sorted(total):
                row = prune(total[r])
                if row:
                    yield (combo, r), row
    return keyed_rows(), scale


def _reference_law_rows(A, terms, variables, unknowns):
    """``law_rows`` as it was when it kept every row, verbatim."""
    return [row for _, row in _reference_conditions(A, terms, variables, unknowns, every=False)[0]]


def _singles_once(rows):
    """rows with each single-entry row after its first occurrence left
    out, the others in order."""
    out, seen = [], []
    for row in rows:
        if len(row) == 1:
            if row in seen:
                continue
            seen.append(row)
        out.append(row)
    return out


def _orbit_rows(A, terms, variables, unknowns):
    """The rows of ``law_rows`` before repeated single-entry rows were left
    out, keyed as in ``linear_conditions``, and the runs they were built
    from."""
    rows, _ = _reference_conditions(A, terms, variables, unknowns, every=False)
    syms = {sym for _, t in terms for sym, _ in identities._op_nodes(t)} - set(unknowns)
    forms = identities._scan_forms(A, syms, dict(zip(syms, syms)))
    return dict(rows), identities._compile(A, terms, variables, forms, unknowns)[4]


def _law_rows_vs_every_tuple(A, terms, variables, unknowns):
    """(keyed orbit rows, runs, every row): the orbit rows are the rows of
    every tuple at their keys, scaled alike, and have the kernel of the
    exact rows of ``linear_conditions``; ``law_rows`` are the orbit rows in
    order, each single-entry row once."""
    rows = law_rows(A, terms, variables, unknowns)
    every, _ = identities._conditions(A, terms, variables, unknowns, every=True)
    every = dict(every)
    keyed, runs = _orbit_rows(A, terms, variables, unknowns)
    assert rows == _singles_once(list(keyed.values()))
    assert all(every[key] == row for key, row in keyed.items())
    exact = linear_conditions(A, terms, variables, unknowns)
    assert list(exact) == list(every)
    ncols = A.dim ** 2
    assert kernel(rows, ncols, A.dom) == kernel(list(exact.values()), ncols, A.dom)
    return keyed, runs, every


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, GF(7), GF(2), QT]), st.integers(0, 2**32))
def test_orbit_rows_have_the_kernel_of_every_row(dom, seed):
    _law_rows_vs_every_tuple(*_signed_law(seed, dom))


def test_signed_laws_reach_both_kinds_of_orbit():
    """The seeded signed laws drop rows at symmetric and at antisymmetric
    runs, over GF(2) too, and keep every row where no symmetry is proven."""
    seen = {"symmetric": 0, "antisymmetric": 0, "gf2": 0, "kept": 0}
    for seed in range(100):
        for dom in (QQ, GF(2)):
            keyed, runs, every = _law_rows_vs_every_tuple(*_signed_law(seed, dom))
            dropped = len(keyed) < len(every)
            seen["symmetric"] += dropped and any(r > 1 and k > 0 for r, k in runs)
            seen["antisymmetric"] += dropped and any(r > 1 and k < 0 for r, k in runs)
            seen["gf2"] += dropped and dom is not QQ
            seen["kept"] += all(r == 1 for r, _ in runs) and len(every) > 0
    assert min(seen.values()) >= 10, seen


def test_law_rows_hand_each_single_entry_row_over_once():
    """Der of M_3: the orbit rows repeat single-entry rows many times;
    ``law_rows`` keeps the first of each, the other rows in order, and the
    kernel is Der M_3 (dimension 8)."""
    A = catalog_get("matrix", {"n": 3})
    n = A.dim
    x, y = ("v", "x"), ("v", "y")
    terms = [(1, ("<D>", (("mul", (x, y)),))),
             (-1, ("mul", (("<D>", (x,)), y))),
             (-1, ("mul", (x, ("<D>", (y,)))))]
    unknowns = {"<D>": (n, lambda r, a: r * n + a)}
    before = _reference_law_rows(A, terms, ("x", "y"), unknowns)
    rows = law_rows(A, terms, ("x", "y"), unknowns)
    singles = [tuple(row.items()) for row in rows if len(row) == 1]
    assert len(set(singles)) == len(singles) < sum(len(row) == 1 for row in before)
    assert rows == _singles_once(before)
    assert kernel(rows, n * n) == kernel(before, n * n) and kernel(rows, n * n).dim == 8


def _unknowns(n):
    """The unknowns of ``_unknown_law``: a nullary element <c>, a unary map
    <D>, a binary map <B> into the field and a symmetric binary map <S>
    into A (one column per unordered pair of arguments)."""
    pairs = {p: k for k, p in enumerate(itertools.combinations_with_replacement(range(n), 2))}
    return {"<c>": (n, lambda r: r),
            "<D>": (n, lambda r, a: r * n + a),
            "<B>": (1, lambda r, a, b: a * n + b),
            "<S>": (n, lambda r, a, b: pairs[min(a, b), max(a, b)] * n + r)}


def _unknown_tree(rng, leaves, unknown):
    """A random term over the given leaves, each used once, holding the
    unknown once: <c> as an argument of a product, <D> around a leaf or a
    product, <B> and <S> joining two subterms."""
    parts = [("v", v) for v in leaves]
    rng.shuffle(parts)
    if unknown == "<c>":
        parts.insert(rng.randrange(len(parts) + 1), ("<c>", ()))
    elif unknown == "<D>" and rng.random() < 0.5:
        i = rng.randrange(len(parts))
        parts[i] = ("<D>", (parts[i],))
    wrap = unknown == "<D>" and all(p[0] != "<D>" for p in parts)
    join = unknown in ("<B>", "<S>")
    while len(parts) > 1 or wrap:
        if wrap and (len(parts) == 1 or rng.random() < 0.4):
            i = rng.randrange(len(parts))
            parts[i], wrap = ("<D>", (parts[i],)), False
        elif join and (len(parts) == 2 or rng.random() < 0.4):
            i = rng.randrange(len(parts) - 1)
            parts[i:i + 2], join = [(unknown, tuple(parts[i:i + 2]))], False
        else:
            arity = 3 if len(parts) >= 3 + join and rng.random() < 0.3 else 2
            i = rng.randrange(len(parts) - arity + 1)
            parts[i:i + arity] = [("t" if arity == 3 else "mul", tuple(parts[i:i + arity]))]
    return parts[0]


def _unknown_law(seed, dom):
    """A law linear in one of the unknowns of ``_unknowns``, each term
    multilinear, on an algebra whose mul and t are exactly symmetric or
    antisymmetric: as in ``_signed_law``, summed over the orders of a group
    of variables with the sign kind ** inversions, or not, so that its last
    run is symmetric, antisymmetric or of length 1."""
    rng = random.Random(seed)
    dim = rng.choice([2] if dom is QT else [2, 3])
    ops = {"mul": _signed_tensor(rng, dom, dim, 2, rng.choice([1, -1]), 0.7),
           "t": _signed_tensor(rng, dom, dim, 3, rng.choice([1, -1]), 0.7)}
    A = Algebra("unknowns", dim, ops, dom)
    group = [f"x{j}" for j in range(1, rng.randint(2, 3) + 1)]
    leaves = (["a"] if rng.random() < 0.4 else []) + group
    kind = rng.choice([1, -1])
    orders = (list(itertools.permutations(range(len(group)))) if rng.random() < 0.6
              else [range(len(group))])
    terms = []
    for _ in range(rng.randint(1, 2)):
        tree = _unknown_tree(rng, leaves, rng.choice(["<c>", "<D>", "<D>", "<B>", "<S>"]))
        c = _odd_scalar(rng, dom)
        for perm in orders:
            inversions = sum(perm[a] > perm[b]
                             for a, b in itertools.combinations(range(len(group)), 2))
            terms.append((c * kind ** inversions,
                          _rename(tree, {group[i]: group[p] for i, p in enumerate(perm)})))
    return A, terms, tuple(sorted(leaves)), _unknowns(dim)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([QQ, GF(7), GF(2), QT]), st.integers(0, 2**32))
def test_law_rows_equal_the_rows_of_every_orbit_tuple(dom, seed):
    """``law_rows``, which scans one prefix per orbit with the last variable
    generic, returns the list of the per-tuple scan, ``_reference_conditions``
    at every orbit representative with each single-entry row once: the same
    rows in the same order, for nullary, unary, binary and symmetric binary
    unknowns, an unknown over the generic element, and the generic element
    and an unknown in one product."""
    A, terms, variables, unknowns = _unknown_law(seed, dom)
    try:
        want = _singles_once(_reference_law_rows(A, terms, variables, unknowns))
    except DomainError:
        with pytest.raises(DomainError):
            law_rows(A, terms, variables, unknowns)
        return
    assert law_rows(A, terms, variables, unknowns) == want


def test_unknown_laws_reach_every_case():
    """The laws of ``_unknown_law`` reach each unknown, an unknown over the
    generic element, the generic element and an unknown in one product, and
    last runs of each kind, with rows."""
    seen = {"<c>": 0, "<D>": 0, "<B>": 0, "<S>": 0, "unknown over X": 0, "X and unknown": 0,
            "symmetric": 0, "antisymmetric": 0, "single": 0}
    for seed in range(200):
        A, terms, variables, unknowns = _unknown_law(seed, QQ)
        if not law_rows(A, terms, variables, unknowns):
            continue
        for sym in unknowns:
            seen[sym] += any(s == sym for _, t in terms for s, _ in identities._op_nodes(t))
        syms = {s for _, t in terms for s, _ in identities._op_nodes(t)} - set(unknowns)
        _, specs, _, _, runs = identities._compile(
            A, terms, variables, identities._scan_forms(A, syms, dict(zip(syms, syms))),
            unknowns, generic=True)
        adds = {spec[0] for spec in specs}
        seen["unknown over X"] += identities._add_unknown_generic in adds
        seen["X and unknown"] += identities._add_outer in adds
        length, kind = runs[-1]
        seen["single" if length == 1 else "symmetric" if kind > 0 else "antisymmetric"] += 1
    assert min(seen.values()) >= 10, seen


def test_law_rows_refuse_a_last_variable_not_in_every_term_once():
    """``law_rows`` takes its last variable generic, so each term must hold
    it exactly once; the one-unknown check comes first, with its message."""
    A = catalog_get("sl2")
    x, y = ("v", "x"), ("v", "y")
    unknowns = {"<D>": (3, lambda r, a: r * 3 + a)}
    once = (-1, ("mul", (x, ("<D>", (y,)))))
    for bad in [(1, ("<D>", (x,))), (1, ("mul", (("<D>", (y,)), y)))]:
        with pytest.raises(DomainError, match="last variable in every term exactly once"):
            law_rows(A, [once, bad], ("x", "y"), unknowns)
        assert linear_conditions(A, [once, bad], ("x", "y"), unknowns) is not None
    with pytest.raises(DomainError, match="^every term needs exactly one unknown$"):
        law_rows(A, [once, (1, ("mul", (x, x)))], ("x", "y"), unknowns)


def _commuting_reference(A):
    """``commuting_map_space`` before ``law_rows``: every row built, then
    the rows of ordered pairs i <= j kept by hand."""
    n = A.dim
    terms = [(1, ("mul", (("<D>", (("v", "x0"),)), ("v", "x1")))),
             (1, ("mul", (("<D>", (("v", "x1"),)), ("v", "x0"))))]
    conds = linear_conditions(minus_algebra(A), terms, ("x0", "x1"),
                              {"<D>": (n, lambda r, a: r * n + a)})
    rows = [row for ((i, j), _), row in conds.items() if i <= j]
    return kernel(rows, n * n, A.dom)


def _transposed_law(L):
    """The law of ``transposed_compatible_space``: (terms, variables,
    unknowns, number of columns)."""
    n = L.dim
    op = "bracket" if "bracket" in L.ops else L.op_names()[0]
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pidx = {p: a for a, p in enumerate(pairs)}
    dot = {"<dot>": (n, lambda r, i, j: pidx[(i, j) if i <= j else (j, i)] * n + r)}
    x, y, z = ("v", "x"), ("v", "y"), ("v", "z")
    terms = [(2, ("<dot>", (z, (op, (x, y))))),
             (-1, (op, (("<dot>", (z, x)), y))),
             (-1, (op, (x, ("<dot>", (z, y)))))]
    return terms, ("x", "y", "z"), dot, len(pairs) * n


def _transposed_reference(L):
    """The space S of ``transposed_compatible_space`` before ``law_rows``:
    every row built, then the rows of x <= y kept by hand."""
    terms, variables, dot, ncols = _transposed_law(L)
    conds = linear_conditions(L, terms, variables, dot)
    rows = [row for ((i, j, _), _), row in conds.items() if i <= j]
    return kernel(rows, ncols, L.dom)


def _over(A, dom):
    return Algebra(A.name, A.dim, {k: t.map_domain(dom, dom.coerce) for k, t in A.ops.items()},
                   dom)


@pytest.mark.parametrize("dom", [QQ, GF(7)])
@pytest.mark.parametrize("name,params", [("sl2", None), ("heis3", None), ("matrix", {"n": 2}),
                                         ("matrix", {"n": 3}), ("matrix", {"n": 4}),
                                         ("quaternions", None), ("octonions", None)])
def test_orbit_spaces_match_the_hand_filtered_rows(name, params, dom):
    """Commuting maps and transposed-compatible products (on the
    commutator algebra where A is not Lie) equal the spaces of the
    hand-filtered rows they replaced.  Over GF(7) the products are compared
    as the kernel of their law's rows: the obstruction polynomials of
    ``transposed_compatible_space`` have rational coefficients only."""
    A = _over(catalog_get(name, params), dom)
    assert commuting_map_space(A).subspace == _commuting_reference(A)
    L = A if name in ("sl2", "heis3") else minus_algebra(A)
    if name == "octonions":   # its commutator algebra is Malcev, not Lie
        with pytest.raises(DomainError):
            transposed_compatible_space(L)
    elif dom is QQ:
        n = L.dim
        pairs = [(i, j) for i in range(n) for j in range(i, n)]
        vectors = [[S.table.get(p, {}).get(k, 0) for p in pairs for k in range(n)]
                   for S in transposed_compatible_space(L)["basis"]]
        assert vectors == _transposed_reference(L).basis
    else:
        terms, variables, dot, ncols = _transposed_law(L)
        rows = law_rows(L, terms, variables, dot)
        assert kernel(rows, ncols, dom) == _transposed_reference(L)


def test_der_of_filippov_d6_is_built_at_six_tuples():
    """Der of the 5-Lie algebra D(6) takes its rows at the 6 strictly
    increasing basis tuples (6^5 = 7,776 before) and is so(6)."""
    A = catalog_get("D", {"dim": 6})
    n, m = A.dim, A.op(A.op_names()[0]).arity
    opn = A.op_names()[0]
    xs = tuple(f"x{i}" for i in range(m))
    product = (opn, tuple(("v", v) for v in xs))
    terms = [(1, ("<D>", (product,)))]
    terms += [(-1, (opn, tuple(("<D>", (("v", v),)) if v == w else ("v", v) for v in xs)))
              for w in xs]
    keyed, runs = _orbit_rows(A, terms, xs, {"<D>": (n, lambda r, a: r * n + a)})
    assert runs == ((5, -1),)
    assert len({combo for combo, _ in keyed}) <= 6
    assert derivation_space(A).dim == 15


def test_centroid_slot_laws_put_the_other_slots_in_one_run(monkeypatch):
    """Each slot law of ``centroid`` lists its slot's variable first, so on
    the skew ternary D(4) the other two form one antisymmetric run: the
    middle slot's law too, whose skew pair (x0, x2) is not adjacent in
    slot order."""
    seen = []
    prefixes = identities._prefixes

    def record(dim, runs):
        seen.append(runs)
        return prefixes(dim, runs)
    monkeypatch.setattr(identities, "_prefixes", record)
    assert centroid(catalog_get("D", {"dim": 4})).dim == 1
    assert seen == [((1, 1), (2, -1))] * 3
