"""Formal non-associative polynomials and exact identity checking.

Terms are trees; identities are stored fully expanded as lists of
(coefficient, term) pairs with the associator macro already eliminated.
Non-multilinear identities are decided by full polarization followed by a
scan over basis tuples, which is exact over domains of characteristic zero
(or larger than the degree).

Every law the library checks on basis tuples is evaluated by
``eval_term_sparse`` and checked by ``check_identity``: varieties, the
Poisson-type axioms (D(a) = {a,1} is the unary map D), customary
identities, higher derivations and the hom-Leibniz automorphism condition.
The Kantor product evaluates its law with ``eval_identity_sparse`` on each
basis pair.  Laws linear in an unknown map become rows through
``operators.linear_conditions`` instead.  ``symbolic_check`` is the slow
oracle for laws without unary maps.
"""

from __future__ import annotations

import copy
import itertools
import re
from fractions import Fraction

from .scalars import DomainError, Poly, PolyRing
from .structure import Algebra


class ParseError(ValueError):
    pass


# a term is ("v", name) or (opsym, (child, child, ...))
def term_vars(term, acc=None):
    acc = acc if acc is not None else {}
    if term[0] == "v":
        acc[term[1]] = acc.get(term[1], 0) + 1
    else:
        for ch in term[1]:
            term_vars(ch, acc)
    return acc


def term_key(term):
    if term[0] == "v":
        return ("v", term[1])
    return (term[0], tuple(term_key(c) for c in term[1]))


class Identity:
    """A finite rational combination of terms, meaning "= 0"."""

    def __init__(self, terms, signature):
        # terms: iterable of (Fraction coeff, term); signature: opsym -> arity
        self.signature = dict(signature)
        merged = {}
        keyed = {}
        for c, t in terms:
            k = term_key(t)
            keyed[k] = t
            merged[k] = merged.get(k, Fraction(0)) + Fraction(c)
        self.terms = [(c, keyed[k]) for k, c in sorted(merged.items()) if c != 0]
        degs = {}
        for _, t in self.terms:
            for v, d in term_vars(t).items():
                degs[v] = max(degs.get(v, 0), d)
        self.variables = tuple(sorted(degs))
        self.degrees = degs
        self._validate()

    def _validate(self):
        def walk(t):
            if t[0] == "v":
                return
            ar = self.signature.get(t[0])
            if ar is None:
                raise ParseError(f"unknown operation {t[0]!r}")
            if len(t[1]) != ar:
                raise ParseError(f"operation {t[0]!r} expects {ar} arguments")
            for c in t[1]:
                walk(c)
        for _, t in self.terms:
            walk(t)

    def used_symbols(self):
        out = {}

        def walk(t):
            if t[0] == "v":
                return
            out[t[0]] = len(t[1])
            for c in t[1]:
                walk(c)

        for _, t in self.terms:
            walk(t)
        return out

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


def parse_identity(text, signature=None):
    """Parse the identity DSL into a normalized Identity.

    Grammar: variables ``[a-z][a-z0-9]*``; binary infix ``*``; n-ary
    bracket ``[x,...,y]`` (opsym "[]"); named unary calls ``D(x)``;
    rational coefficients prefixing a monomial; the associator macro
    ``(a,b,c)`` = (ab)c - a(bc); ``+ -`` combinations; optional ``=``.
    """
    signature = dict(signature or {"*": 2})
    signature.setdefault("*", 2)
    toks = _tokenize(text)
    i = 0

    def peek():
        return toks[i][0] if i < len(toks) else None

    def pos():
        return toks[i][1] + 1 if i < len(toks) else len(text) + 1

    def take():
        nonlocal i
        i += 1
        return toks[i - 1][0]

    def fail(msg):
        raise ParseError(f"parse error at column {pos()}: {msg}")

    def is_number(tok):
        return tok is not None and tok[0].isdigit()

    def is_name(tok):
        return tok is not None and tok[0].isalpha()

    # linear combinations are lists of (coeff, term)
    def combo_mul(a, b):
        out = []
        for ca, ta in a:
            for cb, tb in b:
                out.append((ca * cb, ("*", (ta, tb))))
        return out

    def atom():
        tok = peek()
        if tok == "(":
            take()
            first = expr_sum()
            if peek() == ",":
                take()
                second = expr_sum()
                if peek() != ",":
                    fail("associator macro needs three arguments")
                take()
                third = expr_sum()
                if peek() != ")":
                    fail("expected ')'")
                take()
                # (a,b,c) = (ab)c - a(bc)
                left = combo_mul(combo_mul(first, second), third)
                right = combo_mul(first, combo_mul(second, third))
                return left + [(-c, t) for c, t in right]
            if peek() != ")":
                fail("expected ')'")
            take()
            return first
        if tok == "[":
            take()
            args = [expr_sum()]
            while peek() == ",":
                take()
                args.append(expr_sum())
            if peek() != "]":
                fail("expected ']'")
            take()
            ar = len(args)
            sym = "[]"
            if sym in signature and signature[sym] != ar:
                fail(f"bracket arity {ar} does not match signature {signature[sym]}")
            signature.setdefault(sym, ar)
            out = [(Fraction(1), ())]
            combos = [(Fraction(1), [])]
            for a in args:
                combos = [(c1 * c2, ts + [t]) for c1, ts in combos for c2, t in a]
            return [(c, (sym, tuple(ts))) for c, ts in combos]
        if is_name(tok):
            name = take()
            if peek() == "(":
                take()
                inner = expr_sum()
                if peek() != ")":
                    fail("expected ')'")
                take()
                if name in signature and signature[name] != 1:
                    fail(f"operation {name!r} is not unary")
                signature.setdefault(name, 1)
                return [(c, (name, (t,))) for c, t in inner]
            if not re.fullmatch(r"[a-z][a-z0-9]*", name):
                fail(f"bad variable name {name!r}")
            return [(Fraction(1), ("v", name))]
        fail(f"unexpected token {tok!r}")

    def product():
        v = atom()
        while peek() == "*":
            take()
            v = combo_mul(v, atom())
        return v

    def monomial():
        coeff = Fraction(1)
        if is_number(peek()):
            coeff = Fraction(take())
            if peek() == "*":
                take()
            if peek() in (None, "+", "-", ")", "]", ",", "="):
                fail("coefficient must multiply a term")
        v = product()
        return [(coeff * c, t) for c, t in v]

    def expr_sum():
        neg = False
        if peek() in ("+", "-"):
            neg = take() == "-"
        v = monomial()
        if neg:
            v = [(-c, t) for c, t in v]
        while peek() in ("+", "-"):
            op = take()
            w = monomial()
            if op == "-":
                w = [(-c, t) for c, t in w]
            v = v + w
        return v

    lhs = expr_sum()
    if peek() == "=":
        take()
        rhs = expr_sum()
        lhs = lhs + [(-c, t) for c, t in rhs]
        if peek() is not None:
            fail("trailing input")
    elif peek() is not None:
        fail("trailing input")
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


def polarize(identity, char=0):
    """Full multilinearization.

    Splits into multihomogeneous components, then linearizes each repeated
    variable; valid over characteristic 0 or characteristic > total degree.
    Each returned identity carries ``restitution_scale``: substituting the
    original variable back for its copies multiplies the component by this
    factor.  Multilinear input comes back as a copy with scale 1; the input
    is never modified.
    """
    if identity.is_multilinear():
        lin = copy.copy(identity)
        lin.restitution_scale = Fraction(1)
        return [lin]
    total_degree = max((sum(term_vars(t).values()) for _, t in identity.terms),
                       default=0)
    if char and char <= total_degree:
        raise DomainError(
            f"polarization needs characteristic 0 or > {total_degree}, got {char}")
    groups = {}
    for c, t in identity.terms:
        prof = _term_degree_profile(t, identity.variables)
        groups.setdefault(prof, []).append((c, t))
    out = []
    for prof, terms in sorted(groups.items()):
        comp = Identity(terms, identity.signature)
        scale = Fraction(1)
        for v, d in zip(identity.variables, prof):
            if d <= 1:
                continue
            names = [f"{v}{j + 1}" for j in range(d)]
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
    return out


# ---------------------------------------------------------------------------
# evaluation and checking
# ---------------------------------------------------------------------------

def default_opmap(A, signature):
    """Map DSL operation symbols to the algebra's named operations."""
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
        # unary symbols must be supplied via unary_maps
    return opmap


def eval_term_sparse(A, term, assignment, opmap, unary_maps=None):
    """Evaluate a term; assignment maps variable -> sparse vector."""
    if term[0] == "v":
        return assignment[term[1]]
    sym = term[0]
    if unary_maps and sym in unary_maps:
        mat = unary_maps[sym]
        v = eval_term_sparse(A, term[1][0], assignment, opmap, unary_maps)
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
    children = [eval_term_sparse(A, c, assignment, opmap, unary_maps)
                for c in term[1]]
    return tensor.apply_sparse(children)


def eval_identity_sparse(A, identity, assignment, opmap, unary_maps=None):
    dom = A.dom
    total = {}
    for c, t in identity.terms:
        val = eval_term_sparse(A, t, assignment, opmap, unary_maps)
        for k, x in val.items():
            s = total.get(k, dom.zero()) + dom.coerce(c) * x
            if dom.is_zero(s):
                total.pop(k, None)
            else:
                total[k] = s
    return total


def check_identity(A, identity, opmap=None, unary_maps=None):
    """Exact identity check by polarization + basis-tuple scan.

    Returns (holds, witness); witness is None or a dict with the violating
    basis tuple, the variable order, and the nonzero defect vector.
    """
    used = identity.used_symbols()
    opmap = opmap or default_opmap(A, used)
    for sym, ar in used.items():
        if unary_maps and sym in unary_maps:
            continue
        if sym not in opmap:
            raise DomainError(f"no operation bound for symbol {sym!r}")
        if A.ops[opmap[sym]].arity != ar:
            raise DomainError(f"arity mismatch binding {sym!r} to {opmap[sym]!r}")
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


def symbolic_check(A, identity, opmap=None):
    """Oracle: evaluate at generic symbolic elements; True iff all
    coordinate polynomials vanish.  Exact but exponentially slower."""
    opmap = opmap or default_opmap(A, identity.used_symbols())
    vs = identity.variables
    ring = PolyRing(len(vs) * A.dim)
    gens = ring.gens()
    symA = Algebra(A.name, A.dim,
                   {name: t.map_domain(ring, lambda c: Poly.const(ring.n, c))
                    for name, t in A.ops.items()},
                   ring, unit=A.unit, u=A.u)
    assignment = {}
    for a, v in enumerate(vs):
        assignment[v] = {i: gens[a * A.dim + i] for i in range(A.dim)}
    defect = eval_identity_sparse(symA, identity, assignment, opmap)
    return not defect
