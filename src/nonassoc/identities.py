"""Formal non-associative polynomials and exact identity checking.

Terms are trees; identities are stored fully expanded as lists of
(coefficient, term) pairs with the associator macro already eliminated.
Identities are split into multihomogeneous components and fully polarized
(at most ``MAX_POLARIZATION_COPIES`` term copies), then each component is
scanned over basis tuples; this is exact over domains of characteristic
zero (or larger than the degree).

A law is evaluated on an algebra through one binding: ``opmap`` names, for
each of its symbols, an operation of the algebra of that symbol's arity.  A
linear map such as D(a) = {a,1}, a higher derivation d_i or Kantor's
L = A(u, .) is an arity-1 operation (``structure.linear_map``), and a
caller binding matrices puts them, with the products they meet, in a small
algebra holding exactly the law's operations.

The module imports nothing from ``structure``, which imports it: it owns
``add_products``, the product kernel that ``StructureTensor.apply_sparse``
shares, and builds no algebra of its own (``symbolic_check`` lifts one with
``Algebra.map_domain``).

Every value of a law at basis tuples comes from one loop, ``_totals``: the
law is compiled (``_compile``) into a DAG of its distinct subterms.  Each
law is compiled once per mark pattern and characteristic; each table's
scan form once per tensor.  The part of a compiled law that reads no table
(its DAG, each term's node and sign, its proven runs) is cached by content
(``_law``), as are the polarized components of each identity
(``_polarized``); both caches are bounded and hold no algebra, domain,
tensor or scan form, so only weights, scale and fresh caches are built per
call.
Each operation is read through its scan form (``_scan_forms``), built once
per scan domain and held on its ``StructureTensor``, so that every law over
one tensor, such as each of the C(n, 2) + 1 laws of an n-Lie check, shares
it: the table scaled to Python ints over Q and Q[c] (terms are weighted to
match, so each total is one fixed multiple of the exact value), the
table's symmetry mark and its slot indexes.  An operation marked
symmetric or antisymmetric, of any arity, has its arguments keyed in
sorted order, so x*y and y*x are one node (with sign -1 on a skew table,
folded into the term's coefficient).  A subterm missing some of the k
variables is cached per basis tuple of its own variables (at most #nodes x
dim^(k-1) entries, freed with the loop), so only the products holding
every variable are formed per tuple.  The DAG also proves which runs of
adjacent variables the law is symmetric or antisymmetric in
(``_symmetric_runs``), such as the copies of a polarized variable or the
arguments of a Lie or n-Lie bracket; permuting such a run maps the law's
value to +-1 times itself.

A node's value is one of three kinds: a sparse vector {coordinate:
value}; a linear form {coordinate: {column: coefficient}} when it holds the
generic element of ``check_identity`` (column c: generic column c) or an
unknown of ``_conditions`` (column j: the unknown's column j); or, when it
holds both, as in ``law_rows``, a form whose column j * dim + c pairs
unknown column j with generic column c.  ``_law`` decides which in its one
pass.  One kernel, ``_add_linear``, multiplies an operation by a form of
any kind (it never reads a column); an unknown over a generic form
(``_add_unknown_generic``) and an operation at a generic form and an
unknown's form (``_add_outer``) make the paired columns.  The entry points
differ in that and in the basis tuples the loop is given:

* ``check_identity`` compiles each polarized component with its last
  variable generic, X = sum_c X_c e_c, and scans only the first k-1
  positions: column c of the law's form at a prefix p is its value at the
  tuple (p, c).  The first tuple with a nonzero value is the witness, and
  that value its defect.  It checks every law the library checks on basis
  tuples (varieties, the Poisson-type axioms with D(a) = {a,1} as the
  unary map D, customary identities, higher derivations, the hom-Leibniz
  automorphism condition, each map an arity-1 operation), at one tuple
  per orbit of the proven runs:
  C(n+2, 3)·n tuples instead of n^4 for Jordan, in C(n+2, 3) prefixes, and
  only strictly increasing ones on an antisymmetric run;
* ``law_table`` returns the exact table of a multilinear law at every
  tuple, from vectors only: ``structure.change_basis``, the Kantor
  product, the plus/minus functors, ``M7`` and the transposed-Poisson
  obstructions.

``_conditions`` plugs in linear forms for unknown maps and turns a law
linear in them into rows of a linear system:

* ``law_rows`` gives integer rows at one tuple per orbit, with the kernel
  of the rows at every tuple: every operator space, the cocycle,
  transposed-product and annihilator systems.  It compiles the law with
  its last variable generic, as ``check_identity`` does, scans one prefix
  per orbit and splits each prefix's paired form into the rows of its
  tuples, so each term must hold the last variable exactly once;
* ``linear_conditions`` gives the exact rows at every tuple, keyed by tuple
  and coordinate, for the systems ``linalg.solve`` solves against
  right-hand sides built elsewhere (Kantor's K and double brackets).

``eval_term_sparse`` and ``eval_identity_sparse`` are the reference
evaluator.  They serve only ``symbolic_check`` (the slow oracle) and tests.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import operator
import re
from fractions import Fraction

from .scalars import DomainError, Poly, PolyRing, PrimeField, RationalDomain


class ParseError(ValueError):
    pass


# the most term copies ``polarize`` builds for one identity: 7!, one
# variable of degree 7 (a Jordan-type check of that size takes seconds)
MAX_POLARIZATION_COPIES = 5040


# a term is ("v", name) or (opsym, (child, child, ...))
def term_vars(term, acc=None):
    acc = acc if acc is not None else {}
    if term[0] == "v":
        acc[term[1]] = acc.get(term[1], 0) + 1
    else:
        for ch in term[1]:
            term_vars(ch, acc)
    return acc


def _op_nodes(term):
    """(opsym, number of arguments) of each operation node, depth first."""
    if term[0] != "v":
        yield term[0], len(term[1])
        for c in term[1]:
            yield from _op_nodes(c)


class Identity:
    """A finite rational combination of terms, meaning "= 0".  ``symbols``
    maps each operation symbol its terms use to its arity."""

    def __init__(self, terms, signature):
        # terms: iterable of (Fraction coeff, term); signature: opsym -> arity
        self.signature = dict(signature)
        merged = {}
        for c, t in terms:
            merged[t] = merged.get(t, Fraction(0)) + Fraction(c)
        self.terms = [(c, t) for t, c in sorted(merged.items()) if c != 0]
        self.variables = tuple(sorted({v for _, t in self.terms for v in term_vars(t)}))
        self._validate()

    def _validate(self):
        self.symbols = {}
        for _, t in self.terms:
            for sym, n in _op_nodes(t):
                ar = self.signature.get(sym)
                if ar is None:
                    raise ParseError(f"unknown operation {sym!r}")
                if n != ar:
                    raise ParseError(f"operation {sym!r} expects {ar} arguments")
                self.symbols[sym] = n

    def used_symbols(self):
        return dict(self.symbols)

    def is_multilinear(self):
        for _, t in self.terms:
            tv = term_vars(t)
            if any(d > 1 for d in tv.values()):
                return False
        return True

    def is_trivial(self):
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "Identity(0)"
        return f"Identity({' + '.join(f'{c}*{t}' for c, t in self.terms)})"


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

_TOKEN = re.compile(r"\s*(\d+/\d+|\d+|[a-z][a-z0-9]*|[A-Z][A-Za-z0-9]*|\*|\+|-|,|\(|\)|\[|\]|=)")


def _tokenize(text):
    toks, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip() == "":
                break
            raise ParseError(f"parse error at column {pos + 1}: {text[pos:]!r}")
        toks.append((m.group(1), m.start(1)))
        pos = m.end()
    return toks


def _combo_mul(a, b):
    """Product of two linear combinations of terms, lists of (coeff, term)."""
    return [(ca * cb, ("*", (ta, tb))) for ca, ta in a for cb, tb in b]


class _Parser:
    """Recursive descent over the tokens of one text; see ``parse_identity``.

    Each rule returns a linear combination, a list of (coeff, term).  The
    signature is extended in place as brackets and unary calls are met.
    """

    def __init__(self, text, signature):
        self.text = text
        self.signature = signature
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i][0] if self.i < len(self.toks) else None

    def take(self):
        self.i += 1
        return self.toks[self.i - 1][0]

    def fail(self, msg):
        col = self.toks[self.i][1] + 1 if self.i < len(self.toks) else len(self.text) + 1
        raise ParseError(f"parse error at column {col}: {msg}")

    def expect(self, tok):
        if self.peek() != tok:
            self.fail(f"expected {tok!r}")
        self.take()

    def atom(self):
        tok = self.peek()
        signature = self.signature
        if tok == "(":
            self.take()
            first = self.expr_sum()
            if self.peek() == ",":
                self.take()
                second = self.expr_sum()
                if self.peek() != ",":
                    self.fail("associator macro needs three arguments")
                self.take()
                third = self.expr_sum()
                self.expect(")")
                # (a,b,c) = (ab)c - a(bc)
                left = _combo_mul(_combo_mul(first, second), third)
                right = _combo_mul(first, _combo_mul(second, third))
                return left + [(-c, t) for c, t in right]
            self.expect(")")
            return first
        if tok == "[":
            self.take()
            args = [self.expr_sum()]
            while self.peek() == ",":
                self.take()
                args.append(self.expr_sum())
            self.expect("]")
            ar = len(args)
            sym = "[]"
            if sym in signature and signature[sym] != ar:
                self.fail(f"bracket arity {ar} does not match signature {signature[sym]}")
            signature.setdefault(sym, ar)
            combos = [(Fraction(1), [])]
            for a in args:
                combos = [(c1 * c2, ts + [t]) for c1, ts in combos for c2, t in a]
            return [(c, (sym, tuple(ts))) for c, ts in combos]
        if tok is not None and tok[0].isalpha():
            name = self.take()
            if self.peek() == "(":
                self.take()
                inner = self.expr_sum()
                self.expect(")")
                if name in signature and signature[name] != 1:
                    self.fail(f"operation {name!r} is not unary")
                signature.setdefault(name, 1)
                return [(c, (name, (t,))) for c, t in inner]
            if not re.fullmatch(r"[a-z][a-z0-9]*", name):
                self.fail(f"bad variable name {name!r}")
            return [(Fraction(1), ("v", name))]
        self.fail(f"unexpected token {tok!r}")

    def product(self):
        v = self.atom()
        while self.peek() == "*":
            self.take()
            v = _combo_mul(v, self.atom())
        return v

    def monomial(self):
        coeff, tok = Fraction(1), self.peek()
        if tok is not None and tok[0].isdigit():
            if re.fullmatch(r"\d+/0+", tok):
                self.fail(f"zero denominator in {tok!r}")
            coeff = Fraction(self.take())
            if self.peek() == "*":
                self.take()
            if self.peek() in (None, "+", "-", ")", "]", ",", "="):
                self.fail("coefficient must multiply a term")
        return [(coeff * c, t) for c, t in self.product()]

    def expr_sum(self):
        neg = False
        if self.peek() in ("+", "-"):
            neg = self.take() == "-"
        v = self.monomial()
        if neg:
            v = [(-c, t) for c, t in v]
        while self.peek() in ("+", "-"):
            op = self.take()
            w = self.monomial()
            if op == "-":
                w = [(-c, t) for c, t in w]
            v = v + w
        return v


def parse_identity(text, signature=None):
    """Parse the identity DSL into a normalized Identity.

    Grammar: variables ``[a-z][a-z0-9]*``; binary infix ``*``; n-ary
    bracket ``[x,...,y]`` (opsym "[]"); named unary calls ``D(x)``;
    rational coefficients prefixing a monomial; the associator macro
    ``(a,b,c)`` = (ab)c - a(bc); ``+ -`` combinations; optional ``=``.
    """
    signature = dict(signature or {"*": 2})
    signature.setdefault("*", 2)
    parser = _Parser(text, signature)
    lhs = parser.expr_sum()
    if parser.peek() == "=":
        parser.take()
        lhs = lhs + [(-c, t) for c, t in parser.expr_sum()]
    if parser.peek() is not None:
        parser.fail("trailing input")
    return Identity(lhs, signature)


# ---------------------------------------------------------------------------
# polarization
# ---------------------------------------------------------------------------

def _term_degree_profile(term, variables):
    tv = term_vars(term)
    return tuple(tv.get(v, 0) for v in variables)


def _substitute_occurrence(term, var, names, counter):
    """Replace the occurrences of var left-to-right by names[counter[0]...]."""
    if term[0] == "v":
        if term[1] == var:
            out = ("v", names[counter[0]])
            counter[0] += 1
            return out
        return term
    return (term[0], tuple(_substitute_occurrence(c, var, names, counter)
                           for c in term[1]))


def _copy_names(var, d, taken):
    """Names for the d copies of var: var1..vard, with zeros put after var
    (var01.., var001..) until no name is in ``taken``."""
    stem = var
    while any(f"{stem}{j}" in taken for j in range(1, d + 1)):
        stem += "0"
    return [f"{stem}{j}" for j in range(1, d + 1)]


def polarize(identity, char=0):
    """Full multilinearization.

    Splits into multihomogeneous components, then linearizes each repeated
    variable; valid over characteristic 0 or a characteristic above the
    largest degree of one variable.
    The copies of x are x1, x2, ... unless the component being built already
    has a variable of such a name (``_copy_names``).  Each returned identity
    carries ``restitution_scale``: substituting the original variable back
    for its copies multiplies the component by this factor.  Multilinear
    input is only split (a basis-tuple scan is exact on each
    multihomogeneous component, not on a sum of them), and comes back as a
    copy with scale 1 when it has one component; the input is never
    modified.  An identity needing more than ``MAX_POLARIZATION_COPIES``
    copies (the sum over its terms of the product of d! over the degrees d
    of its variables) raises ``DomainError`` before any copy is built.

    The components are built once per identity content and characteristic
    (``_polarized``); each call returns fresh copies of them.
    """
    out = []
    for lin in _polarized(*_identity_key(identity), char):
        lin = copy.copy(lin)
        lin.terms, lin.signature, lin.symbols = (
            list(lin.terms), dict(lin.signature), dict(lin.symbols))
        out.append(lin)
    return out


def _identity_key(identity):
    """(terms, signature): an identity's content, hashable."""
    return tuple(identity.terms), tuple(sorted(identity.signature.items()))


@functools.lru_cache(maxsize=256)
def _polarized(terms, signature, char):
    """The components of ``polarize`` for the identity of these terms and
    signature (``_identity_key``) over characteristic char, cached by
    content.  The components are never handed out, so they are never
    changed."""
    identity = Identity(terms, dict(signature))
    groups = {}
    for c, t in identity.terms:
        prof = _term_degree_profile(t, identity.variables)
        groups.setdefault(prof, []).append((c, t))
    multilinear = identity.is_multilinear()
    if multilinear and len(groups) <= 1:
        identity.restitution_scale = Fraction(1)
        return (identity,)
    # restitution divides by the product of d! over the degrees d of the
    # variables, a unit exactly when the characteristic exceeds every d
    top = max((d for prof in groups for d in prof), default=0)
    if char and char <= top:
        raise DomainError(
            f"polarization needs characteristic 0 or > {top}, got {char}")
    copies = sum(math.prod(map(math.factorial, prof)) * len(terms)
                 for prof, terms in groups.items())
    if not multilinear and copies > MAX_POLARIZATION_COPIES:
        raise DomainError(f"polarization would build {copies} term copies, above the "
                          f"bound {MAX_POLARIZATION_COPIES}")
    out = []
    for prof, terms in sorted(groups.items()):
        comp = Identity(terms, identity.signature)
        scale = Fraction(1)
        for v, d in zip(identity.variables, prof):
            if d <= 1:
                continue
            names = _copy_names(v, d, set(comp.variables))
            new_terms = []
            for c, t in comp.terms:
                for assign in itertools.permutations(range(d)):
                    ordered = [names[k] for k in assign]
                    counter = [0]
                    new_terms.append((c, _substitute_occurrence(t, v, ordered, counter)))
            comp = Identity(new_terms, identity.signature)
            fact = Fraction(1)
            for j in range(1, d + 1):
                fact *= j
            scale *= fact
        if comp.is_trivial():
            continue
        comp.restitution_scale = scale
        out.append(comp)
    return tuple(out)


# ---------------------------------------------------------------------------
# evaluation and checking
# ---------------------------------------------------------------------------

def default_opmap(A, signature):
    """Map DSL operation symbols to the algebra's named operations: ``*`` to
    ``mul`` or the first binary operation, ``[]`` to ``bracket`` or the
    first operation of its arity, and any other symbol, such as a unary D,
    to the operation of that name when its arity matches."""
    opmap = {}
    names = A.op_names()
    for sym, ar in signature.items():
        if sym == "*":
            cands = [n for n in names if A.ops[n].arity == 2]
            if "mul" in names and A.ops["mul"].arity == 2:
                opmap[sym] = "mul"
            elif cands:
                opmap[sym] = cands[0]
        elif sym == "[]":
            if "bracket" in names and A.ops["bracket"].arity == ar:
                opmap[sym] = "bracket"
            else:
                cands = [n for n in names if A.ops[n].arity == ar]
                if cands:
                    opmap[sym] = cands[0]
        elif sym in A.ops and A.ops[sym].arity == ar:
            opmap[sym] = sym
    return opmap


def eval_term_sparse(A, term, assignment, opmap):
    """Evaluate a term; assignment maps variable -> sparse vector."""
    if term[0] == "v":
        return assignment[term[1]]
    children = [eval_term_sparse(A, c, assignment, opmap) for c in term[1]]
    return A.op(opmap[term[0]]).apply_sparse(children)


def eval_identity_sparse(A, identity, assignment, opmap):
    dom = A.dom
    total = {}
    for c, t in identity.terms:
        val = eval_term_sparse(A, t, assignment, opmap)
        for k, x in val.items():
            s = total.get(k, dom.zero()) + dom.coerce(c) * x
            if dom.is_zero(s):
                total.pop(k, None)
            else:
                total[k] = s
    return total


def _bind(A, identity, opmap):
    """opmap (``default_opmap`` when None) after checking that it binds every
    symbol of identity to an operation of its arity."""
    opmap = opmap or default_opmap(A, identity.symbols)
    for sym, ar in identity.symbols.items():
        if sym not in opmap:
            raise DomainError(f"no operation bound for symbol {sym!r}")
        if A.op(opmap[sym]).arity != ar:
            raise DomainError(f"arity mismatch binding {sym!r} to {opmap[sym]!r}")
    return opmap


def check_identity(A, identity, opmap=None):
    """Exact identity check by polarization + basis-tuple scan.

    Returns (holds, witness); witness is None or a dict with the violating
    basis tuple (the first in lexicographic order), the variable order, and
    the nonzero defect vector, the exact value of the law there.

    Each polarized component is multilinear.  It is compiled with its last
    variable as the generic element X = sum_c X_c e_c (``_compile`` with
    ``generic``), so its value at a prefix p, basis indices at the first
    k-1 positions, is a linear form whose column c is its value at the
    tuple (p, c).  A component without terms holds.

    Only the tuples of ``_representatives`` are visited, in lexicographic
    order, and the answer is that of the scan of every tuple.  Let t be the
    first failing tuple of that full scan.  Permuting a run of
    ``_symmetric_runs`` multiplies the law by +-1, so the failing tuples
    are closed under sorting t on a run; the sorted tuple is
    lexicographically at most t, and equal only when t is already sorted.
    So t is non-decreasing on every run.  On an antisymmetric run t repeats
    no index: swapping two equal indices would give L(t) = -L(t), so
    L(t) = 0 outside characteristic 2, where alone such runs are proven.
    So t is a representative.

    The representatives are the tuples (p, c) with p in ``_prefixes`` and c
    a column of X at p.  When the last position ends a run of length 1, p
    is a representative of the other runs and c any index.  When it ends a
    run of length 2 or more, the run's only condition on its last index c,
    given the index i before it at position k-2, is c >= i (symmetric) or
    c > i (antisymmetric); X takes exactly those columns, and p ranges over
    the representatives of the runs with the last one shortened by one.  A
    prefix with i = dim-1 admits no c on an antisymmetric run, so it is
    left out.  Lexicographic order on (p, c) is prefix-major, so the first
    representative with a nonzero value is the least column c with a
    nonzero entry in the first prefix's form that has one: it is t, and its
    defect is column c of that form made exact.
    """
    opmap = _bind(A, identity, opmap)
    dom = A.dom
    _, _, prune, _, exact = _scan_domain(dom)
    for lin in _polarized(*_identity_key(identity), dom.char or 0):
        _, specs, top_coef, scale, runs = _compile(
            A, lin.terms, lin.variables, _scan_forms(A, lin.symbols, opmap), generic=True)
        if not top_coef:
            continue
        for prefix, total in _totals(A, _prefixes(A.dim, runs), specs, top_coef, _merge_form):
            # a falsy scan-form value is zero; prune decides the others (over
            # GF(p) they may be multiples of p)
            if any(map(any, map(dict.values, total.values()))) and (
                    rows := {r: row for r, form in total.items() if (row := prune(form))}):
                c = min(min(row) for row in rows.values())
                vec = [dom.zero()] * A.dim
                for r, row in rows.items():
                    if c in row:
                        vec[r] = exact(row[c], scale)
                return False, {"variables": list(lin.variables), "tuple": [*prefix, c],
                               "defect": vec}
    return True, None


def _prefixes(dim, runs):
    """The basis tuples of the first k-1 positions that ``check_identity``
    scans with the last variable generic: the ``_representatives`` of the
    runs with the last run one shorter.  A prefix whose last index is dim-1
    is left out when the last run is antisymmetric of length 2 or more:
    the generic variable then takes only larger indices, and there are
    none."""
    length, kind = runs[-1]
    head = _representatives(dim, runs[:-1])
    if length == 1:
        return head
    tail = (itertools.combinations(range(dim - 1), length - 1) if kind < 0
            else itertools.combinations_with_replacement(range(dim), length - 1))
    return (h + t for h, t in itertools.product(head, tail))


def _scan_domain(dom):
    """The per-domain part of the scan: (lcm, convert, prune, one, exact).

    ``lcm(values)`` is the factor that makes a table or a list of
    coefficients integral, ``convert(c, m)`` the scan form of ``c`` times
    ``m``, ``prune(vec)`` the sparse vector without its zero entries (over
    Q, vec itself when it has none), ``one`` the scan form of 1 and
    ``exact(c, scale)`` the domain element that the scan form ``c`` of a
    value scaled by ``scale`` stands for.  Over Q values are scaled to
    Python ints; over Q[c] (``PolyRing``) to ``Poly``s of Python-int
    coefficients, scaled by the lcm of every coefficient's denominator, so
    the scan multiplies and adds ints there too, on the coefficients and on
    the monomials, which are the ring's packed int keys (a product of two
    monomials is one int addition; ``one`` is the key 0 of the constant
    monomial, and no exponent tuple is read); over GF(p) they are ints
    reduced mod p by ``prune``; other domains keep their own elements.
    Outside Q and Q[c] every factor is 1.
    """
    if isinstance(dom, RationalDomain):
        return (lambda cs: math.lcm(*{c.denominator for c in cs}),
                lambda c, m: c.numerator * (m // c.denominator),
                lambda vec: vec if all(vec.values()) else {k: c for k, c in vec.items() if c},
                1, Fraction)
    if isinstance(dom, PolyRing):
        n = dom.n
        return (lambda cs: math.lcm(*{c.denominator for p in cs for c in p.terms.values()}),
                lambda p, m: Poly(n, {e: c.numerator * (m // c.denominator)
                                      for e, c in p.terms.items()}),
                lambda vec: {k: p for k, p in vec.items() if p}, Poly(n, {0: 1}),
                lambda p, scale: Poly(n, {e: Fraction(c, scale) for e, c in p.terms.items()}))
    if isinstance(dom, PrimeField):
        p = dom.p
        return (lambda cs: 1, lambda c, m: dom.coerce(c).v,
                lambda vec: {k: r for k, c in vec.items() if (r := c % p)}, 1,
                lambda c, scale: dom.from_int(c))
    return (lambda cs: 1, lambda c, m: dom.coerce(c),
            lambda vec: {k: c for k, c in vec.items() if not dom.is_zero(c)},
            dom.one(), lambda c, scale: c)


def _scan_forms(A, symbols, opmap):
    """{symbol: scan form} for each of symbols, bound by opmap.

    A scan form is (table, factor, mark, indexes): the table in scan form
    scaled by factor, its ``_mark`` and the slot indexes built so far
    (``_index``).  It depends only on the table and on A's scan domain (its
    type, characteristic and Q[c] variable count, not the tensor's domain),
    so an operation's is built once per scan domain and held on its tensor
    (``StructureTensor.scan_forms``): no table is written after it is built.
    """
    dom = A.dom
    key = (type(dom), dom.char, getattr(dom, "n", None))
    forms = {}
    for sym in symbols:
        tensor = A.op(opmap[sym])
        form = tensor.scan_forms.get(key)
        if form is None:
            form = tensor.scan_forms[key] = _scan_form(tensor.table, dom)
        forms[sym] = form
    return forms


def _scan_form(table, dom):
    """The scan form (table, factor, mark, indexes) of a table over dom,
    with no index built yet.  Each entry is first coerced into dom, so a
    tensor over another domain (Q entries in an algebra over Q[c], say) is
    scanned as the algebra's."""
    lcm, convert, prune, _, _ = _scan_domain(dom)
    table = {args: {k: dom.coerce(c) for k, c in row.items()}
             for args, row in table.items() if row}
    m = lcm([c for row in table.values() for c in row.values()])
    table = {args: {k: convert(c, m) for k, c in row.items()} for args, row in table.items()}
    return table, m, _mark(table, prune), {}


def _index(form, s):
    """(index, s, sign): a scan form's products by slot s, {arguments other
    than slot s: {slot-s argument: output row}}, times sign.  Moving slot s
    of a marked table to the front multiplies a product by mark**s, so slot
    0's index serves every slot of it.  Built on first use, kept on the form."""
    mark = form[2]
    slot = 0 if mark else s
    index = form[3].get(slot)
    if index is None:
        index = form[3][slot] = {}
        for args, row in form[0].items():
            index.setdefault(args[:slot] + args[slot + 1:], {})[args[slot]] = row
    return index, s, -1 if mark == -1 and s % 2 else 1


def _node_key(sym, ids, signs, marks):
    """(key, sign) of a node of operation sym over children with node ids
    ``ids`` times ``signs``: the subterm is sign times the node keyed (sym,
    child ids).  The sign is the product of the children's signs; when sym
    is marked (``_mark``) the child ids are sorted, and for an
    antisymmetric sym the sign also takes the sorting permutation's sign
    (the parity of its inversions)."""
    sign = math.prod(signs)
    mark = marks.get(sym)
    if mark is None:
        return (sym, ids), sign
    if mark < 0 and sum(a > b for a, b in itertools.combinations(ids, 2)) % 2:
        sign = -sign
    return (sym, tuple(sorted(ids))), sign


def _compile_term(term, nodes, ids, positions, marks):
    """Add term and its subterms to the DAG ``nodes``; return (id, sign): the
    term is sign times the node.

    A node is (opsym or None for a variable, child ids, sorted positions of
    the variables it contains).  ``ids`` maps a node's key, (None, position)
    or (opsym, child ids) from ``_node_key``, to its id, so equal subterms
    share one node and children precede their parents.  The children of an
    operation marked symmetric or antisymmetric are keyed in sorted order,
    so x*y and y*x share one node too, with sign -1 on a skew table.
    """
    if term[0] == "v":
        key, sign = (None, positions[term[1]]), 1
    else:
        kids = [_compile_term(c, nodes, ids, positions, marks) for c in term[1]]
        key, sign = _node_key(term[0], tuple([k for k, _ in kids]), [s for _, s in kids], marks)
    nid = ids.get(key)
    if nid is None:
        sym, kids = key
        if sym is None:
            node = (None, (), (kids,))
        else:
            node = (sym, kids, tuple(sorted({p for k in kids for p in nodes[k][2]})))
        nid = ids[key] = len(nodes)
        nodes.append(node)
    return nid, sign


def _mark(table, prune):
    """1 or -1 when the operation of two or more arguments with this
    scan-form table is symmetric (1) or antisymmetric (-1), else None: every
    adjacent transposition of the arguments maps every entry to itself, or
    to its negation.  Each entry is checked, up to the first mismatch.
    Symmetry is tried first, so in characteristic 2, where -c = c, an
    antisymmetric table is symmetric."""
    arity = len(next(iter(table), ()))
    if arity < 2:
        return None
    swaps = [operator.itemgetter(*range(i), i + 1, i, *range(i + 2, arity))
             for i in range(arity - 1)]
    for sign in (1, -1):
        if all(table.get(swap(args)) == image
               for args, row in table.items()
               for image in (row if sign > 0 else prune({k: -c for k, c in row.items()}),)
               for swap in swaps):
            return sign
    return None


def _compile(A, terms, variables, forms, unknowns=(), generic=False):
    """Compile (coefficient, term) pairs into one DAG of distinct subterms.

    ``forms`` maps each operation symbol to its scan form (``_scan_forms``);
    the symbols of ``unknowns``, as in ``linear_conditions``, have factor 1.
    An operation whose table is exactly symmetric or antisymmetric
    (``_mark``), of any arity, has its arguments keyed in sorted order: its
    products in any order are one node, and the sign of each term's node
    folds into the term's coefficient.  Terms that cancel so are dropped,
    and a law left with no terms holds.  A node's scan-form value is its
    exact value times its weight, the product of the factors in its
    subterm.  Each coefficient is divided by its term's weight and the
    quotients cleared of denominators by ``scale``, so the scan-form sum is
    ``scale`` times the exact sum (scale 1 outside Q and Q[c]).  Returns
    (nodes, specs, top_coef, scale, runs): ``specs[nid]`` is (add, data,
    finish, child ids, cache, key).  ``add(data, args, out, coef, one)``
    adds coef times the node's value at its children's values ``args`` to
    ``out`` (None for a variable) and ``finish`` turns a fresh sum into the
    stored value.  ``cache`` is None for an operation node holding every
    scanned variable, else a dict keyed by ``key(combo)``, the basis indices
    at the scanned variables it depends on.  ``top_coef`` maps term nodes to
    their nonzero coefficients, and ``runs`` are the law's
    ``_symmetric_runs``.

    A node holding an unknown, or with ``generic`` the generic element, has
    a linear form as value, kept with its zeros: the unknown's from
    ``_add_unknown``, the generic element's from ``_add_generic`` and an
    operation's over a form from ``_add_linear``.  Every other node has a
    sparse vector, from ``add_products`` (pruned).

    With ``generic`` the law, which must hold its last variable once in
    every term, is compiled for ``check_identity`` or, with unknowns, for
    ``law_rows``: the last of its k variables is the generic element and
    only the first k-1 are scanned.  When the last run has length 2 or
    more, X at the index i of position k-2 holds the columns c >= i
    (symmetric) or c > i (antisymmetric), so the variable at position k-2
    is its child and it, with every node above it, is cached per i.  A node
    holding X and an unknown has a form of paired columns, from
    ``_add_unknown_generic`` (an unknown over X), ``_add_outer`` (an
    operation at X's form and the unknown's) or ``_add_linear`` over such a
    form.

    Everything but the tables is the law's (``_law``), compiled once per
    law, mark pattern and characteristic; only the weights, ``scale``,
    ``top_coef`` and the specs with fresh caches are built here.
    """
    dom = A.dom
    lcm, convert, prune, one, _ = _scan_domain(dom)
    nodes, tops, runs, plan = _law(
        tuple(terms), tuple(variables), tuple(sorted(unknowns)), generic,
        tuple(sorted((sym, form[2]) for sym, form in forms.items() if form[2] is not None)),
        dom.char)
    weights = []
    for sym, kids, _ in nodes:
        w = forms[sym][1] if sym in forms else 1
        for k in kids:
            w *= weights[k]
        weights.append(w)
    coeffs = [dom.coerce(c) if weights[nid] == 1 else dom.coerce(c) * Fraction(1, weights[nid])
              for (c, _), (nid, _) in zip(terms, tops)]
    scale = lcm(coeffs)
    top_coef = {}
    for c, (nid, sign) in zip(coeffs, tops):
        c = convert(c, scale) if sign > 0 else -convert(c, scale)
        top_coef[nid] = c if nid not in top_coef else top_coef[nid] + c
    top_coef = prune(top_coef)
    units = {i: {i: one} for i in range(A.dim)}
    specs = []
    for how, sym, data, kids, cached, key in plan:
        if how == "unknown":
            add = (_add_unknown, unknowns[sym], _as_is)
        elif how == "unknown-generic":
            add = (_add_unknown_generic, (*unknowns[sym], data, A.dim, {}), _as_is)
        elif how == "outer":
            add = (_add_outer, _index(forms[sym], data[0]) + (data[1], A.dim), _as_is)
        elif how == "vector":
            add = (add_products, forms[sym][0], prune)
        elif how == "generic":
            add = (_add_generic, (A.dim, data), _as_is)
        elif how == "linear":
            add = (_add_linear, _index(forms[sym], data), _as_is)
        else:
            add = (None, None, None)
        specs.append(add + (kids, None if cached is None else units if cached == "units" else {},
                            key))
    return nodes, specs, top_coef, scale, runs


@functools.lru_cache(maxsize=512)
def _law(terms, variables, unknowns, generic, marks, char):
    """The part of ``_compile`` that does not read the tables, cached by
    content: the law's terms, variables, unknown symbols and ``generic``
    flag, the marks (``_mark``) of its marked symbols as sorted (symbol,
    mark) pairs and the characteristic of the domain.  Returns (nodes,
    tops, runs, plan): the DAG of ``_compile_term``, each term's (node id,
    sign), the law's ``_symmetric_runs`` and per node (how, symbol, data,
    child ids, cache, key), from which ``_compile`` builds its spec.  how is
    "variable", "vector", "unknown", "generic" (data: the last run's kind)
    or "linear" (data: the slot holding a form); cache is None (computed
    per tuple), "units" (a basis vector) or "cached" (a fresh dict).  With
    unknowns and ``generic``, how may also be "unknown-generic" (data: the
    argument holding X) or "outer" (data: the slots of the unknown's form
    and of X's form).  None of it holds a table or a domain element of the
    call.

    The runs are proven on the coefficients as they are, each term's summed
    with its sign into its node and zeros dropped, not on the weighted ones
    of ``_compile``: a swap of variables maps each node to one of the same
    operations, so of the same weight, and the weighted coefficients of two
    such nodes are equal, or opposite, exactly when these are.  Only the
    characteristic decides which coefficients are zero, equal or opposite,
    so no domain is needed: over GF(char) they are reduced mod char, and in
    characteristic 0 summed as they are (rationals, or elements of Q(t) or
    Q[c], which hold Q)."""
    reduce = PrimeField(char).coerce if char else (lambda c: c)
    prune = lambda vec: {k: c for k, c in vec.items() if c}
    positions = {v: p for p, v in enumerate(variables)}
    marks = dict(marks)
    nodes, ids = [], {}
    tops = tuple(_compile_term(t, nodes, ids, positions, marks) for _, t in terms)
    signed = {}
    for (c, _), (nid, sign) in zip(terms, tops):
        c = reduce(c) if sign > 0 else -reduce(c)
        signed[nid] = c if nid not in signed else signed[nid] + c
    k = len(variables)
    runs = tuple(_symmetric_runs(nodes, ids, marks, prune(signed), k, prune))
    width, gen, lead = k, None, None
    if generic:
        width, gen = k - 1, (k - 1,)
        length, last = runs[-1] if runs else (1, 1)
        if length > 1:
            lead = ids[(None, k - 2)]
    plan, with_x, with_u = [], [], []   # per node: holds the generic element, an unknown
    for sym, kids, pos in nodes:
        with_x.append(pos == gen if sym is None else any(with_x[c] for c in kids))
        with_u.append(sym in unknowns or any(with_u[c] for c in kids))
        if with_x[-1]:
            # scanned positions: not the generic one, but the one before it
            # when that bounds the form's columns
            pos = pos[:-1]
            if lead is not None and pos[-1:] != (k - 2,):
                pos += (k - 2,)
        forms = [with_x[c] or with_u[c] for c in kids]
        data = None
        if sym in unknowns:
            how = "unknown"
            if with_x[-1]:
                how, data = "unknown-generic", forms.index(True)
        elif not (with_x[-1] or with_u[-1]):
            how = "variable" if sym is None else "vector"
        elif sym is None:
            how, data, kids = "generic", last, () if lead is None else (lead,)
        elif forms.count(True) == 1:
            how, data = "linear", forms.index(True)
        else:
            # the generic element and the unknown in two slots
            how, data = "outer", ([with_u[c] for c in kids].index(True),
                                  [with_x[c] for c in kids].index(True))
        cache = (None if sym is not None and len(pos) == width
                 else "units" if how == "variable" else "cached")
        plan.append((how, sym, data, kids, cache,
                     operator.itemgetter(*pos) if pos else operator.itemgetter(slice(0))))
    return tuple(nodes), tops, runs, tuple(plan)


def _value(nid, combo, specs, vals, one):
    """Value of node nid at the basis tuple combo: computed this tuple when
    it contains every variable, else looked up in (or added to) its cache."""
    add, data, finish, kids, cache, key = specs[nid]
    if cache is None:
        return vals[nid]
    k = key(combo)
    v = cache.get(k)
    if v is None:
        out = {}
        add(data, [_value(c, combo, specs, vals, one) for c in kids], out, one, one)
        v = cache[k] = finish(out)
    return v


def _merge_vector(total, value, coef):
    """Add coef times the sparse vector ``value`` to ``total``."""
    for i, c in value.items():
        prev = total.get(i)
        total[i] = coef * c if prev is None else prev + coef * c


def _totals(A, combos, specs, top_coef, merge=_merge_vector):
    """Yield (basis tuple, total) at each basis tuple of ``combos``, in the
    caller's order; total is the scan-form sum of coef times term value (a
    vector, or a linear form), a fresh dict that may hold zero entries.

    The one loop over a compiled law (``_compile``).  Only the nodes holding
    every scanned variable are formed per tuple (12 products instead of 36
    for the polarized Jordan identity); the others are cached by the basis
    indices at the scanned variables they depend on, so in any tuple order,
    at most #nodes x dim^(k-1) entries for k scanned variables, freed when
    the generator is.  A term no other node uses is added to the total as
    it is formed; every other term's value is looked up and added by
    ``merge(total, value, coef)``.
    """
    one = _scan_domain(A.dom)[3]
    inner = {c for spec in specs for c in spec[3]}
    steps, looked_up = [], []
    for nid, (add, data, finish, kids, cache, _) in enumerate(specs):
        coef = top_coef.get(nid)
        fused = cache is None and coef is not None and nid not in inner
        if cache is None:
            steps.append((nid, add, data, finish,
                          [(specs[c][4], specs[c][5], c) for c in kids],
                          coef if fused else None))
        if coef is not None and not fused:
            looked_up.append((nid, coef))
    vals = [None] * len(specs)
    for combo in combos:
        total = {}
        for nid, add, data, finish, kids, coef in steps:
            args = []
            for cache, key, c in kids:
                if cache is None:
                    args.append(vals[c])
                else:
                    v = cache.get(key(combo))
                    args.append(_value(c, combo, specs, vals, one) if v is None else v)
            if coef is None:
                out = {}
                add(data, args, out, one, one)
                vals[nid] = finish(out)
            else:
                add(data, args, total, coef, one)
        for nid, coef in looked_up:
            merge(total, _value(nid, combo, specs, vals, one), coef)
        yield combo, total


def _symmetric_runs(nodes, ids, marks, top_coef, k, prune):
    """The runs of adjacent variable positions that the law is proven
    symmetric or antisymmetric in, covering positions 0..k-1 in order, as
    (length, kind) pairs: permuting a run multiplies the law by 1 (kind 1)
    or by the permutation's sign (kind -1).

    The swap of positions i and i+1 maps each node, bottom up, to (id, sign)
    of its renamed subterm, keyed by ``_node_key`` (id -1 when the law has
    no such node).  So it maps the law sum c_n N_n to sum c_n s_n N_j(n).
    The swap is symmetric when every term node n goes to a term node j(n)
    of coefficient c_n s_n, and antisymmetric when that coefficient is
    -c_n s_n: the map is then a bijection of the terms.  Symmetry is tried
    first, so an antisymmetric swap has some c != -c: the characteristic is
    not 2.  A run grows while its swaps are of its kind; adjacent
    transpositions generate every permutation of a run, and a permutation's
    sign is the parity of their number.
    """
    runs = [(1, 1)] if k else []
    negated = prune({nid: -c for nid, c in top_coef.items()})
    for i in range(k - 1):
        swap = {i: i + 1, i + 1: i}
        image, signs = [], []   # per node: the image's id (-1: none) and sign
        for sym, kids, pos in nodes:
            if sym is None:
                j, sign = ids.get((None, swap.get(pos[0], pos[0])), -1), 1
            else:
                key, sign = _node_key(sym, tuple([image[c] for c in kids]),
                                      [signs[c] for c in kids], marks)
                j = ids.get(key, -1)
            image.append(j)
            signs.append(sign)
        moved = prune({image[nid]: c if signs[nid] > 0 else -c for nid, c in top_coef.items()})
        kind = 1 if moved == top_coef else -1 if moved == negated else None
        length, run_kind = runs[-1]
        if kind is not None and (length == 1 or kind == run_kind):
            runs[-1] = (length + 1, kind)
        else:
            runs.append((1, 1))
    return runs


def _representatives(dim, runs):
    """One basis tuple per orbit of the permutations of each run of
    ``_symmetric_runs``, in lexicographic order: the tuples non-decreasing
    on each symmetric run and strictly increasing on each antisymmetric one
    (a tuple repeating an index there is its own negation, so its law is
    0)."""
    if all(length == 1 for length, _ in runs):
        return itertools.product(range(dim), repeat=len(runs))
    return (sum(parts, ()) for parts in itertools.product(
        *[(itertools.combinations if kind < 0 else itertools.combinations_with_replacement)(
            range(dim), length) for length, kind in runs]))


def law_table(A, identity, opmap):
    """The exact nonzero values of a law at the basis tuples of its
    variables (sorted by name): {basis tuple: {coordinate: value}}.

    The identity is evaluated as it is, without polarization, so this is
    the table of a multilinear map such as a product built from A's
    operations; opmap binds its symbols as in ``check_identity``.
    """
    opmap = _bind(A, identity, opmap)
    _, _, prune, _, exact = _scan_domain(A.dom)
    _, specs, top_coef, scale, _ = _compile(
        A, identity.terms, identity.variables, _scan_forms(A, identity.symbols, opmap))
    tuples = itertools.product(range(A.dim), repeat=len(identity.variables))
    return {combo: {i: exact(c, scale) for i, c in row.items()}
            for combo, total in _totals(A, tuples, specs, top_coef)
            if (row := prune(total))}


def linear_conditions(A, terms, variables, unknowns):
    """The exact rows of a law linear in its unknowns at every basis tuple,
    keyed by tuple and coordinate.  This is the form ``linalg.solve`` needs,
    whose right-hand sides are built elsewhere with the same keys; a kernel
    needs only ``law_rows``.

    * ``terms`` is a list of (coefficient, term) pairs in the term format
      above: ("v", name) or (symbol, (child, ...)).  A symbol is either a
      key of ``unknowns`` or the name of one of A's operations.
    * Every term contains exactly one unknown, and the children of an
      unknown contain none, so the law is linear in the unknowns.
    * ``unknowns`` maps each unknown symbol of arity k to (output dimension,
      column function).  The column function takes (output coordinate, basis
      index of argument 1, ..., basis index of argument k) and returns the
      column of that unknown coefficient.  A map D is unary into A, a
      bilinear form theta is binary into F (output dimension 1), an unknown
      element c is nullary.
    * The law is evaluated at every basis tuple of ``variables`` (in
      ``itertools.product`` order).  The result maps (basis tuple, output
      coordinate) to a sparse row {column: coefficient}; zero rows are left
      out, and keys run tuple-major, coordinate-ascending.
    * The rows are those of ``_conditions`` divided by its scale: over Q
      Fractions, or Python ints when the scale is 1; over GF(p) residues in
      [1, p); over other domains elements of the domain.

    The terms are compiled into one DAG of distinct subterms (``_compile``)
    and evaluated by ``_totals``.  A subterm without the unknown has a
    sparse vector as value; the unknown and the nodes above it have a
    linear form {coordinate: {column: coefficient}}.  Every node missing a
    variable is cached per basis tuple of its own variables (so the
    unknown's form, D(x) say, is built once per x): at most #nodes x
    dim^(k-1) entries for k variables, freed on return.
    """
    rows, scale = _conditions(A, terms, variables, unknowns, every=True)
    if scale == 1:
        return dict(rows)
    exact = _scan_domain(A.dom)[4]
    return {key: {j: exact(c, scale) for j, c in row.items()} for key, row in rows}


def law_rows(A, terms, variables, unknowns):
    """A list of rows of a law linear in its unknowns whose kernel is that
    of ``linear_conditions``.

    The arguments are as in ``linear_conditions`` and the rows those of
    ``_conditions``: over Q Python ints, one positive scale per call times
    the exact rows, which ``linalg.kernel``, the one solver entry point,
    takes as they are.  The law is evaluated only at one basis tuple per
    orbit of the variable permutations it is proven symmetric or
    antisymmetric under (``_representatives`` of its ``_symmetric_runs``;
    rows in the order of those tuples, coordinate-ascending).  The row at a
    permuted tuple is +-1 times a kept row, and a tuple repeating an index
    in an antisymmetric run has zero rows, so the kernel is unchanged: Der
    of Filippov's 8-dimensional 7-Lie algebra takes its rows at the 8
    strictly increasing tuples instead of 8^7.  A single-entry row that
    has come before is left out: a repeated row adds nothing to the row
    space over any domain (Der M_6 has 16,266 single-entry rows, 1,806 of
    them distinct, of 19,296).

    The last variable is generic, as in ``check_identity``: X = sum_c X_c
    e_c, restricted to the columns its run allows, so the loop visits one
    prefix of the other variables per orbit (36 for Der M_6, not 1,296
    tuples), and the row at the tuple (prefix, c) is read off the columns
    of the law's form that pair the unknown's columns with c.  So every term
    must hold the last variable exactly once, else ``DomainError`` (after
    the check that it holds exactly one unknown); every law of the library
    is multilinear.
    """
    return _conditions(A, terms, variables, unknowns, every=False)[0]


def _conditions(A, terms, variables, unknowns, every):
    """(rows, scale): with ``every``, a generator of the keyed rows ((basis
    tuple, coordinate), row) of ``linear_conditions`` times scale, at every
    basis tuple; else the list of the rows of ``law_rows`` times scale, at
    one basis tuple per orbit of the law's proven runs, each single-entry
    row once: the law is compiled with its last variable generic, and the
    form at each prefix is split into the rows at the tuples (prefix, c),
    c ascending and then the coordinate, the order of ``_representatives``.
    Over Q the rows are Python ints and ``scale`` is the one
    positive factor that clears the denominators of the tables and of the
    term coefficients; over GF(p) they are residues in [1, p), over other
    domains elements of the domain, and ``scale`` is 1 outside Q and
    Q[c]."""
    prune = _scan_domain(A.dom)[2]
    syms = set()
    for _, t in terms:
        found = [sym for sym, _ in _op_nodes(t)]
        if sum(sym in unknowns for sym in found) != 1:
            raise DomainError("every term needs exactly one unknown")
        syms.update(found)
    syms -= set(unknowns)
    if not every and not all(variables and term_vars(t).get(variables[-1]) == 1 for _, t in terms):
        raise DomainError("law_rows needs the last variable in every term exactly once")
    _, specs, top_coef, scale, runs = _compile(
        A, terms, variables, _scan_forms(A, syms, dict(zip(syms, syms))), unknowns,
        generic=not every)
    if every:
        def keyed_rows():
            for combo, total in _totals(A, itertools.product(range(A.dim), repeat=len(variables)),
                                        specs, top_coef, _merge_form):
                for r in sorted(total):
                    row = prune(total[r])
                    if row:
                        yield (combo, r), row
        return keyed_rows(), scale
    dim = A.dim
    rows, singles = [], set()
    for _, total in _totals(A, _prefixes(dim, runs), specs, top_coef, _merge_form):
        # the rows at the tuples (prefix, c): c ascending, then r ascending
        # (a row of one entry is held as its (column, value) pair until a
        # second entry comes)
        at = [{} for _ in range(dim)]
        for r in sorted(total):
            for key, x in prune(total[r]).items():
                split = at[key % dim]
                row = split.get(r)
                if row is None:
                    split[r] = (key // dim, x)
                elif type(row) is tuple:
                    split[r] = {row[0]: row[1], key // dim: x}
                else:
                    row[key // dim] = x
        for split in at:
            for row in split.values():
                if type(row) is tuple:
                    if row in singles:
                        continue
                    singles.add(row)
                    row = {row[0]: row[1]}
                rows.append(row)
    return rows, scale


def _as_is(form):
    """The stored value of a linear form: the form itself, zeros and all
    (rows are pruned once, when they are complete)."""
    return form


def _add_unknown(data, args, out, coef, one):
    """Add coef times the form of an unknown at its (constant) arguments to
    the form ``out``: one column per coordinate and support index tuple of
    the arguments."""
    dim, col = data
    for idx in itertools.product(*args):
        f = coef
        for v, i in zip(args, idx):
            f = f * v[i]
        for r in range(dim):
            tgt = out.setdefault(r, {})
            j = col(r, *idx)
            tgt[j] = tgt.get(j, 0) + f


def _add_unknown_generic(data, args, out, coef, one):
    """Add coef times the form of an unknown whose argument at slot s holds
    the generic element (the others constant) to the form ``out``: the
    column of unknown column j and generic column c is j * dim + c.
    ``shifts`` keeps, per index tuple of the arguments, the unknown's
    columns times dim at each coordinate (a dict of the compiled law,
    fresh per call)."""
    rows, col, s, dim, shifts = data
    for idx in itertools.product(*args):
        f = coef
        for t, (v, i) in enumerate(zip(args, idx)):
            if t != s:
                f = f * v[i]
        at = args[s][idx[s]].items()
        bases = shifts.get(idx)
        if bases is None:
            bases = shifts[idx] = [col(r, *idx) * dim for r in range(rows)]
        for r, base in enumerate(bases):
            tgt = out.get(r)
            if tgt is None:
                tgt = out[r] = {}
            for c, x in at:
                tgt[base + c] = tgt.get(base + c, 0) + f * x


def _add_generic(data, args, out, coef, one):
    """Add coef times the generic element to the form ``out``: column c for
    each index c it takes, all of them or, given the index i before it
    (``args``), those from i on (kind 1) or after i (kind -1)."""
    dim, kind = data
    start = next(iter(args[0])) + (kind < 0) if args else 0
    for c in range(start, dim):
        tgt = out.setdefault(c, {})
        prev = tgt.get(c)
        tgt[c] = coef if prev is None else prev + coef


def add_products(table, svecs, out, coef, one):
    """Add coef * T(svecs) to the sparse vector ``out``, T given by ``table``.

    The support-product loop: one pass over the product of the input
    supports, each index tuple looked up in the table; multiplications by
    ``one`` are skipped.  Entries of ``out`` may cancel to zero.  Both
    ``StructureTensor.apply_sparse`` and the compiled identity scan (which
    calls it on integer tables) evaluate products here.
    """
    for idx in itertools.product(*svecs):
        row = table.get(idx)
        if row is None:
            continue
        c = coef
        for v, i in zip(svecs, idx):
            x = v[i]
            if x != one:
                c = x if c is one else c * x
        for k, x in row.items():
            if c is not one:
                x = c * x
            prev = out.get(k)
            out[k] = x if prev is None else prev + x


def _add_linear(data, args, out, coef, one):
    """Add coef times an operation at one linear form (slot s) and constant
    vectors (the other slots) to the form ``out``: for each basis tuple of
    the supports of the constant vectors, each product the slot's index
    (``_index``, with its sign) holds there is taken with the form's row at
    its slot-s argument."""
    index, s, sign = data
    if not all(args):
        return
    form = args[s]
    if sign < 0:
        coef = -coef
    others = args[:s] + args[s + 1:]
    for idx in itertools.product(*others):
        products = index.get(idx)
        if products is None:
            continue
        f0 = coef
        for v, i in zip(others, idx):
            f0 = f0 * v[i]
        for a, row in products.items():
            fa = form.get(a)
            if fa is not None:
                for r, c in row.items():
                    f = f0 * c
                    tgt = out.setdefault(r, {})
                    for j, x in fa.items():
                        tgt[j] = tgt.get(j, 0) + f * x


def _add_outer(data, args, out, coef, one):
    """Add coef times an operation at an unknown's form (slot s), a form of
    the generic element (slot t) and constant vectors to the form ``out``:
    ``_add_linear`` at slot s, with the generic form's row at its argument
    taken like a constant's entry, and each pair of an unknown column j and
    a generic column c keyed j * dim + c."""
    index, s, sign, t, dim = data
    if not all(args):
        return
    form = args[s]
    if sign < 0:
        coef = -coef
    others = args[:s] + args[s + 1:]
    t -= t > s
    consts = others[:t] + others[t + 1:]
    for idx in itertools.product(*consts):
        f0 = coef
        for v, i in zip(consts, idx):
            f0 = f0 * v[i]
        head, tail = idx[:t], idx[t:]
        for b, at in others[t].items():
            products = index.get(head + (b,) + tail)
            if products is None:
                continue
            for c, y in at.items():
                fc = f0 * y
                for a, row in products.items():
                    fa = form.get(a)
                    if fa is not None:
                        for j, x in fa.items():
                            key, f = j * dim + c, fc * x
                            for r, z in row.items():
                                tgt = out.get(r)
                                if tgt is None:
                                    out[r] = {key: f * z}
                                else:
                                    tgt[key] = tgt.get(key, 0) + f * z


def _merge_form(total, form, coef):
    """Add coef times the linear form ``form`` to ``total``."""
    for r, row in form.items():
        tgt = total.get(r)
        if tgt is None:
            total[r] = {j: coef * x for j, x in row.items()}
        else:
            for j, x in row.items():
                prev = tgt.get(j)
                tgt[j] = coef * x if prev is None else prev + coef * x


def symbolic_check(A, identity, opmap=None):
    """Oracle: evaluate at generic symbolic elements; True iff all
    coordinate polynomials vanish.  Exact but exponentially slower.  A
    linear map of the law is an arity-1 operation of A like any other."""
    opmap = opmap or default_opmap(A, identity.used_symbols())
    vs = identity.variables
    ring = PolyRing(len(vs) * A.dim)
    gens = ring.gens()
    symA = A.map_domain(ring, lambda c: Poly.const(ring.n, c))
    assignment = {}
    for a, v in enumerate(vs):
        assignment[v] = {i: gens[a * A.dim + i] for i in range(A.dim)}
    defect = eval_identity_sparse(symA, identity, assignment, opmap)
    return not defect
