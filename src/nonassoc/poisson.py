"""Poisson-type axiom checkers and the transposed-Poisson machinery.

A Poisson pair is an Algebra with operations "mul" and "bracket".  All
super-signs are specialized to the even case; the derived map D is always
D(a) = {a, 1} when a unit is designated, never user-supplied.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .identities import check_identity, parse_identity
from .linalg import mat_vec
from .operators import (_nullspace_rows, derivation_space, linear_conditions,
                        multiplication_operator)
from .scalars import QQ, DomainError, Poly, PolyRing
from .structure import Algebra, StructureTensor
from .varieties import check_variety

_AXIOMS = {
    # evaluated with opmap {"*": mul, "[]": bracket}
    "leibniz-rule": "[x, y*z] - [x,y]*z - y*[x,z]",
    "transposed-rule": "2 z*[x,y] - [z*x, y] - [x, z*y]",
}


def _require_ops(P):
    if "mul" not in P.ops or "bracket" not in P.ops:
        raise DomainError('a Poisson pair needs operations "mul" and "bracket"')
    if P.ops["mul"].arity != 2 or P.ops["bracket"].arity != 2:
        raise DomainError("both operations must be binary")


def derived_map_d(P):
    """D(a) = {a, 1} as a matrix; the zero map when no unit is designated."""
    _require_ops(P)
    dom = P.dom
    n = P.dim
    if P.unit is None:
        return [[dom.zero()] * n for _ in range(n)]
    b = P.ops["bracket"]
    cols = []
    for a in range(n):
        out = b.basis_product((a, P.unit))
        col = [dom.zero()] * n
        for k, c in out.items():
            col[k] = c
        cols.append(col)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def check_poisson_family(P, kind):
    """Axiom report for kind in {poisson, generic, transposed, generalized}.

    Structural preconditions (commutative associative product, bracket
    anticommutativity, Lie bracket where required, unit for generalized,
    nonzero operations for transposed) are reported separately from axiom
    failures.  Witnesses are the first violating basis triple in scan order.
    """
    _require_ops(P)
    if kind not in ("poisson", "generic", "transposed", "generalized",
                    "poisson-structure"):
        raise DomainError(f"unknown Poisson family {kind!r}")
    report = {"kind": kind, "preconditions": {}, "axioms": {}, "holds": None}
    pre = report["preconditions"]
    mul_assoc = check_variety(P, "associative", op="mul")["holds"]
    if kind != "poisson-structure":
        # "poisson-structure" is the noncommutative setting of the incidence
        # correspondence: the product need not be commutative there
        pre["mul commutative"] = check_variety(P, "commutative", op="mul")["holds"]
    pre["mul associative"] = mul_assoc
    anti = check_identity(P, parse_identity("x*x"), opmap={"*": "bracket"})[0]
    pre["bracket anticommutative"] = anti
    if kind in ("poisson", "transposed", "poisson-structure"):
        pre["bracket lie"] = check_variety(P, "lie", op="bracket")["holds"]
    if kind == "generalized":
        pre["unit present"] = P.unit is not None
        if P.unit is not None:
            pre["unit is mul-identity"] = _unit_is_identity(P)
    if kind == "transposed":
        pre["mul nonzero"] = not P.ops["mul"].is_zero()
        pre["bracket nonzero"] = not P.ops["bracket"].is_zero()
    if not all(pre.values()):
        report["holds"] = False
        report["precondition_failure"] = True
        return report

    opmap = {"*": "mul", "[]": "bracket"}
    if kind in ("poisson", "generic", "poisson-structure"):
        ok, wit = check_identity(P, parse_identity(_AXIOMS["leibniz-rule"]),
                                 opmap=opmap)
        report["axioms"]["leibniz-rule"] = {"holds": ok, "witness": wit}
    elif kind == "transposed":
        ok, wit = check_identity(P, parse_identity(_AXIOMS["transposed-rule"]),
                                 opmap=opmap)
        report["axioms"]["transposed-rule"] = {"holds": ok, "witness": wit}
    else:
        for name, res in _generalized_axioms(P).items():
            report["axioms"][name] = res
    report["holds"] = all(a["holds"] for a in report["axioms"].values())
    return report


def _unit_is_identity(P):
    dom = P.dom
    t = P.ops["mul"]
    e = P.unit
    for j in range(P.dim):
        if t.basis_product((e, j)) != {j: dom.one()}:
            return False
        if t.basis_product((j, e)) != {j: dom.one()}:
            return False
    return True


def _generalized_axioms(P):
    """Even-case generalized Poisson identities with D(a) = {a,1}:

    {a,bc} = {a,b}c + b{a,c} - D(a)bc
    {a,{b,c}} = {{a,b},c} + {b,{a,c}} + D(a){b,c} + D(b){c,a} + D(c){a,b}
    """
    dom = P.dom
    n = P.dim
    mul = P.ops["mul"]
    br = P.ops["bracket"]
    D = derived_map_d(P)
    one = dom.one()

    def dvec(sv):
        dense = [dom.zero()] * n
        for k, c in sv.items():
            dense[k] = c
        out = mat_vec(D, dense, dom)
        return {i: c for i, c in enumerate(out) if not dom.is_zero(c)}

    def add(acc, sv, sign=1):
        for k, c in sv.items():
            s = acc.get(k, dom.zero()) + (c if sign > 0 else -c)
            if dom.is_zero(s):
                acc.pop(k, None)
            else:
                acc[k] = s

    results = {"leibniz-with-D": {"holds": True, "witness": None},
               "jacobi-with-D": {"holds": True, "witness": None}}
    for a, b, c in itertools.product(range(n), repeat=3):
        ea, eb, ec = {a: one}, {b: one}, {c: one}
        acc = {}
        add(acc, br.apply_sparse([ea, mul.apply_sparse([eb, ec])]))
        add(acc, mul.apply_sparse([br.apply_sparse([ea, eb]), ec]), -1)
        add(acc, mul.apply_sparse([eb, br.apply_sparse([ea, ec])]), -1)
        add(acc, mul.apply_sparse([mul.apply_sparse([dvec(ea), eb]), ec]))
        if acc and results["leibniz-with-D"]["holds"]:
            results["leibniz-with-D"] = {
                "holds": False, "witness": {"tuple": [a, b, c], "defect": acc}}
        acc = {}
        add(acc, br.apply_sparse([ea, br.apply_sparse([eb, ec])]))
        add(acc, br.apply_sparse([br.apply_sparse([ea, eb]), ec]), -1)
        add(acc, br.apply_sparse([eb, br.apply_sparse([ea, ec])]), -1)
        add(acc, mul.apply_sparse([dvec(ea), br.apply_sparse([eb, ec])]), -1)
        add(acc, mul.apply_sparse([dvec(eb), br.apply_sparse([ec, ea])]), -1)
        add(acc, mul.apply_sparse([dvec(ec), br.apply_sparse([ea, eb])]), -1)
        if acc and results["jacobi-with-D"]["holds"]:
            results["jacobi-with-D"] = {
                "holds": False, "witness": {"tuple": [a, b, c], "defect": acc}}
        if not results["leibniz-with-D"]["holds"] and \
           not results["jacobi-with-D"]["holds"]:
            break
    return results


def half_derivation_link_test(P):
    """For a transposed pair, every R_z of mul is a 1/2-derivation of bracket.

    Returns (True, certificates) where the certificates give the coordinates
    of R_{e_z} in the computed half-derivation space; raises on precondition
    failure.
    """
    rep = check_poisson_family(P, "transposed")
    if not rep["holds"]:
        raise DomainError("half-derivation link requires a transposed pair")
    dom = P.dom
    bracket_only = Algebra(P.name, P.dim, {"bracket": P.ops["bracket"]}, dom)
    half = derivation_space(bracket_only, delta=Fraction(1, 2), op="bracket")
    certs = []
    for z in range(P.dim):
        Rz = multiplication_operator(P, (z,), op="mul")
        if not half.contains_matrix(Rz):
            return False, {"failing_z": z}
        certs.append({"z": z, "in_half_derivations": True})
    return True, certs


def transposed_compatible_space(L, op="bracket"):
    """Commutative products compatible with a Lie bracket, plus obstructions.

    Returns a dict with a basis of the space S of commutative bilinear
    products satisfying 2 z.[x,y] = [z.x, y] + [x, z.y], and the quadratic
    associativity obstruction polynomials in the S-coordinates.  S = 0
    certifies that no nonzero transposed structure exists on L.
    """
    if op not in L.ops:
        op = L.op_names()[0]
    if not check_variety(L, "lie", op=op)["holds"]:
        raise DomainError("transposed compatibility requires a Lie algebra")
    dom = L.dom
    n = L.dim
    pairs = [(i, j) for i in range(n) for j in range(i, n)]
    pidx = {p: a for a, p in enumerate(pairs)}
    nunk = len(pairs) * n
    # the unknown commutative product x.y, stored once per pair i <= j
    dot = {"<dot>": (n, lambda r, i, j: pidx[(i, j) if i <= j else (j, i)] * n + r)}
    x, y, z = ("v", "x"), ("v", "y"), ("v", "z")
    terms = [(2, ("<dot>", (z, (op, (x, y))))),
             (-1, (op, (("<dot>", (z, x)), y))),
             (-1, (op, (x, ("<dot>", (z, y)))))]
    conds = linear_conditions(L, terms, ("x", "y", "z"), dot)
    # bracket antisymmetry makes (x,y) and (y,x) equivalent
    rows = [row for ((i, j, _), _), row in conds.items() if i <= j]
    vecs = _nullspace_rows(rows, nunk, dom)
    basis_tensors = []
    for v in vecs:
        table = {}
        for (i, j), a in pidx.items():
            row = {k: v[a * n + k] for k in range(n) if not dom.is_zero(v[a * n + k])}
            if row:
                table[(i, j)] = dict(row)
                table[(j, i)] = dict(row)
        basis_tensors.append(StructureTensor(n, 2, table, dom))
    obstructions = _associativity_obstructions(basis_tensors, n)
    return {"basis": basis_tensors, "dim": len(basis_tensors),
            "obstructions": obstructions,
            "certified_empty": len(basis_tensors) == 0}


def _associativity_obstructions(basis_tensors, n):
    """Quadratic polynomials in c whose common zeros are the associative
    points of sum_i c_i S_i; the zero polynomial is dropped."""
    s = len(basis_tensors)
    if s == 0:
        return []
    ring = PolyRing(s)
    out = []
    seen = set()
    for x, y, z in itertools.product(range(n), repeat=3):
        for r in range(n):
            poly = ring.zero()
            for a, Sa in enumerate(basis_tensors):
                for b, Sb in enumerate(basis_tensors):
                    coeff = Fraction(0)
                    for m, c in Sa.basis_product((x, y)).items():
                        coeff += c * Sb.basis_product((m, z)).get(r, Fraction(0))
                    for m, c in Sa.basis_product((y, z)).items():
                        coeff -= c * Sb.basis_product((x, m)).get(r, Fraction(0))
                    if coeff:
                        e = [0] * s
                        e[a] += 1
                        e[b] += 1
                        poly = poly + Poly(s, {tuple(e): coeff})
            if poly.terms:
                key = tuple(sorted(poly.terms.items()))
                if key not in seen:
                    seen.add(key)
                    out.append(poly)
    return out


def poisson_pair_from_parts(name, mul, bracket, dom=QQ, unit=None):
    return Algebra(name, mul.dim, {"mul": mul, "bracket": bracket}, dom, unit=unit)


# ---------------------------------------------------------------------------
# customary identities
# ---------------------------------------------------------------------------

class CustomaryIdentity:
    """Sum of c * <x_{p1},x_{p2}>...<...> D(x_{q1})...D(x_{qm'}) terms.

    Variables are numbered 1..m; each term lists disjoint bracket pairs and
    D-arguments covering a subset of them; the whole expression must be
    multilinear, i.e. within one term no variable may repeat.
    """

    def __init__(self, m, terms):
        self.m = m
        self.terms = []
        for coeff, pairs, dargs in terms:
            used = [v for p in pairs for v in p] + list(dargs)
            if len(set(used)) != len(used):
                raise DomainError("customary term repeats a variable")
            if any(not 1 <= v <= m for v in used):
                raise DomainError("customary variable index out of range")
            self.terms.append((Fraction(coeff), [tuple(p) for p in pairs],
                               list(dargs)))

    @staticmethod
    def from_json(doc):
        return CustomaryIdentity(
            doc["m"],
            [(Fraction(t.get("c", 1)), t.get("pairs", []), t.get("D", []))
             for t in doc["terms"]])


def customary_check(P, g):
    """Evaluate a customary identity on all basis tuples.

    <x,y> := {x,y} - (D(x)y - x D(y)); products use "mul".  P must pass
    "generalized", or "poisson" when no unit is designated (then D = 0).
    """
    _require_ops(P)
    kind = "generalized" if P.unit is not None else "poisson"
    rep = check_poisson_family(P, kind)
    if not rep["holds"]:
        raise DomainError(f"customary check requires a {kind} pair")
    dom = P.dom
    n = P.dim
    mul = P.ops["mul"]
    br = P.ops["bracket"]
    D = derived_map_d(P)
    one = dom.one()

    def dvec(sv):
        dense = [dom.zero()] * n
        for k, c in sv.items():
            dense[k] = c
        out = mat_vec(D, dense, dom)
        return {i: c for i, c in enumerate(out) if not dom.is_zero(c)}

    def angle(u, v):
        acc = dict(br.apply_sparse([u, v]))
        for k, c in mul.apply_sparse([dvec(u), v]).items():
            acc[k] = acc.get(k, dom.zero()) - c
        for k, c in mul.apply_sparse([u, dvec(v)]).items():
            acc[k] = acc.get(k, dom.zero()) + c
        return {k: c for k, c in acc.items() if not dom.is_zero(c)}

    for combo in itertools.product(range(n), repeat=g.m):
        vecs = {v + 1: {combo[v]: one} for v in range(g.m)}
        total = {}
        for coeff, pairs, dargs in g.terms:
            factors = [angle(vecs[p1], vecs[p2]) for p1, p2 in pairs]
            factors += [dvec(vecs[q]) for q in dargs]
            if not factors:
                continue
            acc = factors[0]
            for f in factors[1:]:
                acc = mul.apply_sparse([acc, f])
            for k, c in acc.items():
                s = total.get(k, dom.zero()) + coeff * c
                if dom.is_zero(s):
                    total.pop(k, None)
                else:
                    total[k] = s
        if total:
            return False, {"tuple": list(combo), "defect": total}
    return True, None
