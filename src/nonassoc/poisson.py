"""Poisson-type axiom checkers and the transposed-Poisson machinery.

A Poisson pair is an Algebra with operations "mul" and "bracket".  All
super-signs are specialized to the even case; the derived map D is always
D(a) = {a, 1} when a unit is designated, never user-supplied.
"""

from __future__ import annotations

from fractions import Fraction

from .identities import Identity, check_identity, law_rows, law_table, parse_identity
from .linalg import kernel
from .operators import derivation_space
from .scalars import QQ, DomainError, Poly, PolyRing
from .structure import (Algebra, StructureTensor, check_keys, is_int, linear_map,
                        multiplication_operator, need)
from .varieties import check_variety

_AXIOMS = {
    # evaluated with _OPMAP
    "leibniz-rule": "[x, y*z] - [x,y]*z - y*[x,z]",
    "transposed-rule": "2 z*[x,y] - [z*x, y] - [x, z*y]",
    # generalized Poisson, even case, with the unary D(a) = {a,1}
    "leibniz-with-D": "[x, y*z] - [x,y]*z - y*[x,z] + (D(x)*y)*z",
    "jacobi-with-D": "[x,[y,z]] - [[x,y],z] - [y,[x,z]]"
                     " - D(x)*[y,z] - D(y)*[z,x] - D(z)*[x,y]",
}
_OPMAP = {"*": "mul", "[]": "bracket"}


def _require_ops(P):
    if "mul" not in P.ops or "bracket" not in P.ops:
        raise DomainError('a Poisson pair needs operations "mul" and "bracket"')
    if P.ops["mul"].arity != 2 or P.ops["bracket"].arity != 2:
        raise DomainError("both operations must be binary")


def derived_map_d(P):
    """D(a) = {a, 1} as a matrix; the zero map when no unit is designated."""
    _require_ops(P)
    if P.unit is None:
        return [[P.dom.zero()] * P.dim for _ in range(P.dim)]
    return multiplication_operator(P, (P.unit,), op="bracket")


def _with_d(P):
    """(algebra, opmap): P's mul, bracket and D(a) = {a, 1} as the
    operations *, [] and D of one algebra, bound to the laws' symbols."""
    ops = {"*": P.ops["mul"], "[]": P.ops["bracket"], "D": linear_map(derived_map_d(P), P.dom)}
    return Algebra(P.name, P.dim, ops, P.dom), dict(zip(ops, ops))


def _sparse_defect(dom, vec):
    return {k: c for k, c in enumerate(vec) if not dom.is_zero(c)}


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

    if kind == "generalized":
        laws, opmap = _with_d(P)
        for name in ("leibniz-with-D", "jacobi-with-D"):
            ok, wit = check_identity(laws, parse_identity(_AXIOMS[name]), opmap)
            if wit is not None:
                wit = {"tuple": wit["tuple"],
                       "defect": _sparse_defect(P.dom, wit["defect"])}
            report["axioms"][name] = {"holds": ok, "witness": wit}
    else:
        name = "transposed-rule" if kind == "transposed" else "leibniz-rule"
        ok, wit = check_identity(P, parse_identity(_AXIOMS[name]), opmap=_OPMAP)
        report["axioms"][name] = {"holds": ok, "witness": wit}
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


def transposed_compatible_space(L, op=None):
    """Commutative products compatible with a Lie bracket, plus obstructions.

    Returns a dict with a basis of the space S of commutative bilinear
    products satisfying 2 z.[x,y] = [z.x, y] + [x, z.y], and the quadratic
    associativity obstruction polynomials in the S-coordinates.  S = 0
    certifies that no nonzero transposed structure exists on L.  ``op``
    defaults to "bracket" when L has it, else to L's first operation.
    """
    if op is None:
        op = "bracket" if "bracket" in L.ops else L.op_names()[0]
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
    rows = law_rows(L, terms, ("x", "y", "z"), dot)
    basis_tensors = []
    for v in kernel(rows, nunk, dom).basis:
        table = {}
        for (i, j), a in pidx.items():
            table[(i, j)] = table[(j, i)] = {k: v[a * n + k] for k in range(n)}
        basis_tensors.append(StructureTensor(n, 2, table, dom))
    obstructions = _associativity_obstructions(basis_tensors, n)
    return {"basis": basis_tensors, "dim": len(basis_tensors),
            "obstructions": obstructions,
            "certified_empty": len(basis_tensors) == 0}


def _associativity_obstructions(basis_tensors, n):
    """Quadratic polynomials in c whose common zeros are the associative
    points of sum_i c_i S_i: the distinct nonzero coordinates of the
    associator of that generic product over Q[c] at basis triples."""
    if not basis_tensors:
        return []
    if basis_tensors[0].dom is not QQ:
        raise DomainError("the associativity obstructions of transposed structures require Q")
    ring = PolyRing(len(basis_tensors))
    s = ring.n
    # entry (args, k) of sum_i c_i S_i: the linear form with coefficient
    # S_i[args][k] at c_i, built in one dict
    forms = {}
    for i, S in enumerate(basis_tensors):
        c = ring.var_key(i)
        for args, row in S.table.items():
            dst = forms.setdefault(args, {})
            for k, v in row.items():
                dst.setdefault(k, {})[c] = v
    table = {args: {k: Poly(s, terms) for k, terms in row.items()}
             for args, row in forms.items()}
    generic = Algebra("generic", n, {"mul": StructureTensor(n, 2, table, ring)}, ring)
    out, seen, shared = [], set(), {}
    for row in law_table(generic, parse_identity("(x*y)*z - x*(y*z)"), {"*": "mul"}).values():
        for r in sorted(row):
            terms = row[r].terms
            key = tuple(sorted((e, c.numerator, c.denominator) for e, c in terms.items()))
            if key not in seen:
                seen.add(key)
                # the kept polynomials share one key object per monomial and
                # one Fraction per coefficient value
                out.append(Poly(s, {shared.setdefault(e, e): shared.setdefault((a, b), terms[e])
                                    for e, a, b in key}))
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
        """{"m": int, "terms": [{"c": ..., "pairs": [[i, j], ...], "D": [...]}]},
        every term key optional; a malformed document raises DomainError."""
        check_keys(doc, ("m", "terms"), (), "customary identity")
        need(is_int(doc["m"]), "m must be an integer")
        need(isinstance(doc["terms"], list), "terms must be a list")
        terms = []
        for a, t in enumerate(doc["terms"]):
            where = f"terms[{a}]"
            check_keys(t, (), ("c", "pairs", "D"), where)
            pairs, dargs = t.get("pairs", []), t.get("D", [])
            need(isinstance(pairs, list)
                 and all(isinstance(q, list) and len(q) == 2 and all(map(is_int, q))
                         for q in pairs),
                 f"{where}: pairs must be [[i, j], ...]")
            need(isinstance(dargs, list) and all(map(is_int, dargs)),
                 f"{where}: D must be a list of variable indices")
            terms.append((QQ.parse(t.get("c", 1)), pairs, dargs))
        return CustomaryIdentity(doc["m"], terms)

    def as_identity(self):
        """The expansion as an Identity in x1..xm, zero-padded so that sorted
        order is numeric order; the factors of a term multiply left-nested,
        <x,y> as [x,y] - D(x)*y + x*D(y)."""
        width = len(str(self.m))
        var = [None] + [f"x{k:0{width}d}" for k in range(1, self.m + 1)]
        text = ""
        for coeff, pairs, dargs in self.terms:
            factors = [f"([{var[p]}, {var[q]}] - D({var[p]})*{var[q]} + {var[p]}*D({var[q]}))"
                       for p, q in pairs] + [f"D({var[q]})" for q in dargs]
            if factors:
                text += f" {'-' if coeff < 0 else '+'} {abs(coeff)}*{'*'.join(factors)}"
        signature = {"*": 2, "[]": 2, "D": 1}
        return parse_identity(text, signature) if text else Identity([], signature)


def customary_check(P, g):
    """Evaluate a customary identity on all basis tuples.

    <x,y> := {x,y} - (D(x)y - x D(y)); products use "mul".  P must pass
    "generalized", or "poisson" when no unit is designated (then D = 0).
    A variable that occurs in no term is 0 in the witness tuple.
    """
    _require_ops(P)
    kind = "generalized" if P.unit is not None else "poisson"
    rep = check_poisson_family(P, kind)
    if not rep["holds"]:
        raise DomainError(f"customary check requires a {kind} pair")
    laws, opmap = _with_d(P)
    ok, wit = check_identity(laws, g.as_identity(), opmap)
    if ok:
        return True, None
    tup = [0] * g.m
    for name, i in zip(wit["variables"], wit["tuple"]):
        tup[int(name[1:]) - 1] = i
    return False, {"tuple": tup, "defect": _sparse_defect(P.dom, wit["defect"])}
