"""Degeneration certificates and Skjelbred-Sund-style central extensions.

A degeneration certificate is an invertible matrix g(t) over Q(t); the
verifier computes the transported structure constants (g * mu) symbolically
and evaluates the limit at t = 0.  Cocycle spaces are the linear half of
the central-extension method: Z2 is cut out by the variety's polarized
identities, B2 by coboundaries f(xy).
"""

from __future__ import annotations

from .identities import (check_identity, law_rows, parse_identity, polarize,
                         term_vars)
from .invariants import annihilator_subspace, structure_report
from .linalg import Subspace, is_invertible, kernel
from .operators import derivation_space
from .scalars import QQ, QT, DomainError, RatFunc
from .structure import Algebra, StructureTensor, change_basis, need
from .varieties import BINARY_VARIETIES, VARIETY_ALIASES, variety_identities


def certificate_from_json(rows):
    """Parse a nonempty square matrix of Q(t) expression strings (or
    integers); a malformed document raises DomainError."""
    need(isinstance(rows, list) and rows
         and all(isinstance(row, list) and len(row) == len(rows) for row in rows),
         "a certificate must be a nonempty square matrix")
    return [[QT.parse(x) for x in row] for row in rows]


def degeneration_verify(A, B, g):
    """Check a degeneration certificate A -> B.

    g has entries in Q(t).  Returns a report with the transported tensors,
    whether the t->0 limit exists, and whether it equals B's table exactly
    (users wanting "up to isomorphism" pre-compose a constant basis change).
    """
    if A.dim != B.dim:
        raise DomainError("dimension mismatch")
    g = [[QT.coerce(x) for x in row] for row in g]
    if not is_invertible(g, QT):
        raise DomainError("certificate matrix is singular over Q(t)")
    transformed = change_basis(A.map_domain(QT, RatFunc.const), g).ops
    limit_exists = not any(c.has_pole_at_zero() for t in transformed.values()
                           for row in t.table.values() for c in row.values())
    limit = None
    equals_b = False
    if limit_exists:
        limit = {name: StructureTensor(
                     A.dim, t.arity,
                     {args: {k: c.eval_at_zero() for k, c in row.items()}
                      for args, row in t.table.items()}, QQ)
                 for name, t in transformed.items()}
        equals_b = (set(limit) == set(B.ops)
                    and all(limit[name] == t for name, t in B.ops.items()))
    return {"transformed": transformed, "limit_exists": limit_exists,
            "equals_B": equals_b, "limit": limit}


# ---------------------------------------------------------------------------
# semicontinuity obstructions
# ---------------------------------------------------------------------------

def invariant_profile(A, op=None):
    """Invariants consumed by the degeneration obstruction rule set."""
    rep = structure_report(A, op=op)
    om = {"*": op or A.op_names()[0]}
    return {
        "power_dims": rep["power_dims"],
        "derived_dims": rep["derived_dims"],
        "ann_dim": rep["annihilator"]["two_sided"],
        "center_dim": rep["center_dim"],
        "der_dim": derivation_space(A, 1, op=op or A.op_names()[0]).dim,
        "nilpotent": rep["nilpotent"],
        "solvable": rep["solvable"],
        "commutative": check_identity(A, parse_identity("x*y - y*x"), opmap=om)[0],
        "anticommutative": check_identity(A, parse_identity("x*x"), opmap=om)[0],
    }


def degeneration_obstruction(A, B, op=None):
    """Violated necessary conditions for A -> B; empty list proves nothing."""
    if A.dim != B.dim:
        raise DomainError("dimension mismatch")
    a, b = invariant_profile(A, op), invariant_profile(B, op)
    violations = []
    pa, pb = a["power_dims"], b["power_dims"]
    for k in range(max(len(pa), len(pb))):
        da = pa[k] if k < len(pa) else pa[-1]
        db = pb[k] if k < len(pb) else pb[-1]
        if da < db:
            violations.append(
                f"dim A^{k + 1} = {da} < dim B^{k + 1} = {db}")
    if a["ann_dim"] > b["ann_dim"]:
        violations.append(f"dim Ann(A) = {a['ann_dim']} > dim Ann(B) = {b['ann_dim']}")
    if a["der_dim"] > b["der_dim"]:
        violations.append(f"dim Der(A) = {a['der_dim']} > dim Der(B) = {b['der_dim']}")
    for key in ("commutative", "anticommutative"):
        if a[key] and not b[key]:
            violations.append(f"A is {key} but B is not")
    return violations


# ---------------------------------------------------------------------------
# central extensions
# ---------------------------------------------------------------------------

class Cocycle:
    """theta: A x A -> V given by s component bilinear forms (n x n each)."""

    def __init__(self, comps, dom=QQ):
        self.dom = dom
        self.comps = [[[dom.coerce(x) for x in row] for row in m]
                      for m in comps]
        self.s = len(self.comps)
        self.n = len(self.comps[0]) if self.comps else 0

    def value(self, i, j):
        return [m[i][j] for m in self.comps]


def central_extension(A, theta, op=None):
    """A_theta of dim n+s: (x+v)(y+w) = xy + theta(x,y), V annihilating.

    V always lies inside Ann(A_theta); the annihilator-component check of
    the extension method asks that Ann(A_theta) meet the embedded copy of A
    trivially (equivalently Ann(A) and the radical of theta intersect in 0),
    which is what rules out split directions.
    """
    opn = op or A.op_names()[0]
    t = A.op(opn)
    if t.arity != 2:
        raise DomainError("central extensions need a binary operation")
    dom = A.dom
    n, s = A.dim, theta.s
    if theta.n != n:
        raise DomainError("cocycle dimension mismatch")
    cocycle = {(i, j): {n + a: c for a, c in enumerate(theta.value(i, j))}
               for i in range(n) for j in range(n)}
    product = StructureTensor(n + s, 2, t.table, dom).add(StructureTensor(n + s, 2, cocycle, dom))
    ext = Algebra(f"{A.name}+F^{s}", n + s, {opn: product}, dom)
    ann = annihilator_subspace(ext, "two_sided", op=opn)
    # Ann meets A = span(e_0..e_{n-1}) in 0 iff dim(Ann + A) = dim Ann + n
    ann_plus_a = Subspace(ann.basis + [ext.basis_vector(a) for a in range(n)], n + s, dom)
    report = {"V_in_annihilator": all(ann.contains_vector(ext.basis_vector(n + a))
                                      for a in range(s)),
              "annihilator_component_trivial": ann_plus_a.dim == ann.dim + n,
              "ann_dim": ann.dim}
    return ext, report


def cocycle_space(A, variety, s=1, op=None):
    """Z2/B2/H2 for the given variety (a LINEAR condition since V kills A_theta).

    Z2 is returned per extension coordinate (the s-fold space is the s-th
    power); B2 is spanned by the coboundaries f(xy).  s must be at least 1.
    """
    if s < 1:
        raise DomainError(f"the extension dimension s must be at least 1, not {s}")
    variety_n = VARIETY_ALIASES.get(variety, variety)
    if variety_n not in BINARY_VARIETIES:
        raise DomainError(f"unknown variety {variety!r}")
    idents = variety_identities(variety_n)
    if any(sum(term_vars(t).values()) < 2 for ident in idents
           for _, t in ident.terms):
        raise DomainError("variety identities must have degree >= 2")
    opn = op or A.op_names()[0]
    t = A.op(opn)
    if t.arity != 2:
        raise DomainError("central extensions need a binary operation")
    dom = A.dom
    n = A.dim
    for ident in idents:
        if not check_identity(A, ident, opmap={"*": opn})[0]:
            raise DomainError(
                f"base algebra does not satisfy the {variety!r} identities")

    def in_A(term):
        return term if term[0] == "v" else (opn, tuple(in_A(c) for c in term[1]))

    # the V-part of a term u*v in A_theta is theta(u, v), with u, v taken in A
    theta = {"<theta>": (1, lambda r, a, b: a * n + b)}
    rows = []
    for ident in idents:
        for lin in polarize(ident, char=dom.char or 0):
            terms = [(c, ("<theta>", tuple(in_A(ch) for ch in term[1])))
                     for c, term in lin.terms]
            rows += law_rows(A, terms, lin.variables, theta)
    Z2 = kernel(rows, n * n, dom)
    # coboundaries: theta = f(xy) for the coordinate functionals f
    B2 = Subspace([[t.basis_product((i, j)).get(k, dom.zero())
                    for i in range(n) for j in range(n)] for k in range(n)],
                  n * n, dom)
    if not Z2.contains(B2):
        raise DomainError("coboundaries are not cocycles: inconsistent setup")
    return {"Z2": Z2, "B2": B2, "H2_dim": (Z2.dim - B2.dim) * s,
            "Z2_dim": Z2.dim * s, "B2_dim": B2.dim * s, "s": s}


def cocycle_from_vector(vec, n, dom=QQ):
    """One flattened n x n bilinear form -> a Cocycle with one slot."""
    comp = [[vec[i * n + j] for j in range(n)] for i in range(n)]
    return Cocycle([comp], dom)
