"""Variety catalog and membership checking.

Every law is DSL text (see ``identities``), checked by ``check_identity``:
the binary varieties are written out, and each n-ary family is written for
the requested arity.  Special routes: "nary-jordan" checks total
commutativity first, "hom-leibniz-3" needs a supplied automorphism, and
"terminal" is cross-checked against the conservativity route.
"""

from __future__ import annotations

import functools
import re

from .identities import check_identity, law_table, parse_identity
from .kantor import conservativity_test
from .linalg import is_invertible
from .scalars import DomainError
from .structure import Algebra, StructureTensor, linear_map

# identity texts for the binary varieties (meaning: each expression = 0)
BINARY_VARIETIES = {
    "(-1,1)": ["(x*y)*y - x*(y*y)", "(x,y,z) + (z,x,y) + (y,z,x)"],
    "alternative": ["(x,y,z) + (y,x,z)", "(x,y,z) + (x,z,y)"],
    "antiassociative": ["(x*y)*z + x*(y*z)"],
    "associative": ["(x*y)*z - x*(y*z)"],
    "assosymmetric": ["(x,y,z) - (y,x,z)", "(x,y,z) - (x,z,y)"],
    "bicommutative": ["x*(y*z) - y*(x*z)", "(x*y)*z - (x*z)*y"],
    "binary-lie": ["x*x", "((x*y)*y)*x - ((x*y)*x)*y"],
    "cd": [
        "((x*y)*a)*b - ((x*y)*b)*a - ((x*a)*b)*y + ((x*b)*a)*y - x*((y*a)*b) + x*((y*b)*a)",
        "(a*(x*y))*b - a*((x*y)*b) - ((a*x)*b)*y + (a*(x*b))*y - x*((a*y)*b) + x*(a*(y*b))",
        "a*(b*(x*y)) - b*(a*(x*y)) - (a*(b*x))*y + (b*(a*x))*y - x*(a*(b*y)) + x*(b*(a*y))",
    ],
    "cd-anticommutative": [
        "x*x",
        "((x*y)*a)*b - ((x*y)*b)*a - ((x*a)*b)*y + ((x*b)*a)*y + ((y*a)*b)*x - ((y*b)*a)*x",
    ],
    "commutative": ["x*y - y*x"],
    "commutative-associative": ["x*y - y*x", "(x*y)*z - x*(y*z)"],
    "almost-jordan": ["x*y - y*x",
                      "2 ((y*x)*x)*x + y*((x*x)*x) - 3 (y*(x*x))*x"],
    "dual-mock-lie": ["x*x", "(x*y)*z + x*(y*z)"],
    "flexible": ["(x*y)*x - x*(y*x)"],
    "jordan": ["x*y - y*x", "((x*x)*y)*x - (x*x)*(y*x)"],
    "left-symmetric": ["(x,y,z) - (y,x,z)"],
    "leibniz": ["(x*y)*z - (x*z)*y - x*(y*z)"],
    "lie": ["x*x", "(x*y)*z + (y*z)*x + (z*x)*y"],
    "malcev": ["x*x",
               "(x*y)*(x*z) + (y*(x*z))*x + ((x*z)*x)*y - ((x*y)*z)*x - ((y*z)*x)*x - ((z*x)*y)*x"],
    "mock-lie": ["x*y - y*x", "(x*y)*z + (y*z)*x + (z*x)*y"],
    "noncommutative-jordan": ["(x*y)*x - x*(y*x)", "((x*x)*y)*x - (x*x)*(y*x)"],
    "novikov": ["(x*y)*z - (x*z)*y", "(x,y,z) - (y,x,z)"],
    "right-alternative": ["(x,y,z) + (x,z,y)"],
    "right-commutative": ["(x*y)*z - (x*z)*y"],
    "symmetric-leibniz": ["x*(y*z) - (x*y)*z - y*(x*z)",
                          "(x*y)*z - (x*z)*y - x*(y*z)"],
    "terminal": [
        "3 b*(a*(x*y)) - 3 b*((a*x)*y) - 3 b*(x*(a*y))"
        " - 3 a*((b*x)*y) + 3 (a*(b*x))*y + 3 (b*x)*(a*y)"
        " - 3 a*(x*(b*y)) + 3 (a*x)*(b*y) + 3 x*(a*(b*y))"
        " + (2 a*b + b*a)*(x*y) - ((2 a*b + b*a)*x)*y - x*((2 a*b + b*a)*y)"
    ],
    "tortkara": ["x*x",
                 "(x*y)*(z*y) - ((x*y)*z)*y - ((y*z)*x)*y - ((z*x)*y)*y"],
    "weakly-associative": [
        "(x*y)*z - x*(y*z) + (y*z)*x - y*(z*x) - (y*x)*z + y*(x*z)"],
    "zinbiel": ["(x*y)*z - x*(y*z + z*y)"],
}

# aliases seen in the literature
VARIETY_ALIASES = {
    "cd-commutative": "almost-jordan",
    "minus-one-one": "(-1,1)",
}


@functools.cache
def variety_identities(name):
    return tuple(parse_identity(t) for t in BINARY_VARIETIES[name])


def _br(args):
    """The DSL text of the bracket of the argument texts."""
    return f"[{', '.join(args)}]"


# the n-ary families are parsed once per arity, as the binary names are
@functools.lru_cache(maxsize=64)
def nary_alternating_identities(m):
    """[..,x,..,x,..] = 0 for every pair of slots (full alternation)."""
    out = []
    for a in range(m):
        for b in range(a + 1, m):
            fresh = iter(range(m))
            names = ["x" if s in (a, b) else f"y{next(fresh)}" for s in range(m)]
            out.append(parse_identity(_br(names), {"[]": m}))
    return tuple(out)


@functools.lru_cache(maxsize=64)
def nary_commutative_identities(m):
    """[x_1..x_m] invariant under adjacent transpositions."""
    xs = [f"x{i}" for i in range(m)]
    return tuple(parse_identity(f"{_br(xs)} - {_br(xs[:a] + [xs[a + 1], xs[a]] + xs[a + 2:])}",
                                {"[]": m})
                 for a in range(m - 1))


@functools.lru_cache(maxsize=64)
def filippov_identity(m):
    """[[x_1..x_m],y_2..y_m] = sum_i [x_1,..,[x_i,y_2..y_m],..,x_m]."""
    xs = [f"x{i}" for i in range(m)]
    ys = [f"y{i}" for i in range(1, m)]
    return parse_identity(_br([_br(xs)] + ys) + "".join(
        f" - {_br(xs[:i] + [_br([xs[i]] + ys)] + xs[i + 1:])}" for i in range(m)), {"[]": m})


@functools.lru_cache(maxsize=64)
def nary_jordan_identity(m):
    """[R_x, R_y] is a derivation, with R_u(w) = [w, u_1, .., u_{m-1}]:
    D([z_1..z_m]) = sum_i [z_1,..,D(z_i),..,z_m] for D = R_x R_y - R_y R_x.

    The variables sort as the x-block a0.., the y-block b0.. and the z-block
    c0.., each in slot order, so the first 2(m-1) indices of a basis tuple
    are the pair of basis tuples (x, y)."""
    def block(s, k):
        return [f"{s}{i:0{len(str(m - 1))}d}" for i in range(k)]

    xs, ys, zs = block("a", m - 1), block("b", m - 1), block("c", m)

    def der(w):
        return f"{_br([_br([w] + ys)] + xs)} - {_br([_br([w] + xs)] + ys)}"

    return parse_identity(der(_br(zs)) + "".join(
        f" - {_br(zs[:i] + [der(zs[i])] + zs[i + 1:])}" for i in range(m)), {"[]": m})


@functools.cache
def hom_leibniz3_identity():
    """[phi(x1),phi(x2),[y1,y2,y3]] = sum of left actions (trivial grading)."""
    return parse_identity(
        "[phi(x1), phi(x2), [y1, y2, y3]] - [[x1, x2, y1], phi(y2), phi(y3)]"
        " - [phi(y1), [x1, x2, y2], phi(y3)] - [phi(y1), phi(y2), [x1, x2, y3]]", {"[]": 3})


@functools.lru_cache(maxsize=64)
def automorphism_identity(m):
    """phi([x_1..x_m]) = [phi(x_1),..,phi(x_m)]."""
    xs = [f"x{i}" for i in range(m)]
    return parse_identity(f"phi({_br(xs)}) - {_br([f'phi({x})' for x in xs])}", {"[]": m})


def list_varieties():
    names = sorted(BINARY_VARIETIES)
    names += ["n-lie", "n-leibniz", "nary-commutative", "nary-jordan",
              "hom-leibniz-3"]
    return names


def _functor_algebra(A, op, sign):
    """The algebra of the law x*y + y*x (sign "+") or x*y - y*x (sign "-")."""
    if A.op(op).arity != 2:
        raise DomainError(f"{'plus' if sign == '+' else 'minus'} functor needs a "
                          f"binary operation")
    table = law_table(A, parse_identity(f"x*y {sign} y*x"), {"*": op or A.op_names()[0]})
    return Algebra(f"{A.name}^{sign}", A.dim,
                   {"mul": StructureTensor(A.dim, 2, table, A.dom)}, A.dom)


def minus_algebra(A, op=None):
    """Commutator algebra: [x,y] = xy - yx."""
    return _functor_algebra(A, op, "-")


def plus_algebra(A, op=None):
    """Symmetrized algebra x o y = xy + yx (no 1/2 normalization)."""
    return _functor_algebra(A, op, "+")


def check_variety(A, name, op=None, phi=None):
    """Evaluate all defining identities of a variety on A.

    Returns a report dict: holds, failures (one witness per failed
    identity), and any precondition problems.  ``phi`` supplies the
    automorphism required by hom-leibniz-3 (a dense matrix).
    """
    name = VARIETY_ALIASES.get(name, name)
    m_ary = re.fullmatch(r"(\d+)-(lie|leibniz)", name)
    if m_ary:
        want = int(m_ary.group(1))
        if A.op(op).arity != want:
            raise DomainError(
                f"variety {name!r} needs a {want}-ary operation")
        name = f"n-{m_ary.group(2)}"
    report = {"variety": name, "holds": None, "failures": [],
              "preconditions": []}

    m = A.op(op).arity
    opmap = {"[]": op or A.op_names()[0]}
    idents = None
    if name in BINARY_VARIETIES:
        if m != 2:
            report["preconditions"].append("binary operation required")
            report["holds"] = False
            return report
        idents, opmap = variety_identities(name), {"*": opmap["[]"]}
    elif name == "nary-commutative":
        idents = nary_commutative_identities(m)
    elif name in ("n-lie", "n-leibniz"):
        idents = (filippov_identity(m),)
        if name == "n-lie":
            idents = nary_alternating_identities(m) + idents
    if idents is not None:
        for ident in idents:
            ok, wit = check_identity(A, ident, opmap=opmap)
            if not ok:
                report["failures"].append(wit)
        holds = not report["failures"]
        if name == "terminal":
            cons = conservativity_test(A, op=op)
            report["conservativity_terminal"] = cons.terminal
            if cons.terminal != holds:
                report["cross_check_mismatch"] = True
                raise DomainError(
                    "terminal identity route and conservativity route disagree; "
                    "flagged for review")
        report["holds"] = holds
        return report

    if name == "nary-jordan":
        for ident in nary_commutative_identities(m):
            ok, wit = check_identity(A, ident, opmap=opmap)
            if not ok:
                report["failures"].append(wit)
                report["preconditions"].append("not totally commutative")
                report["holds"] = False
                return report
        ok, wit = check_identity(A, nary_jordan_identity(m), opmap=opmap)
        if not ok:
            t = wit["tuple"]
            report["failures"].append({"left_tuple": t[:m - 1], "right_tuple": t[m - 1:2 * m - 2]})
        report["holds"] = ok
        return report

    if name == "hom-leibniz-3":
        if m != 3:
            report["preconditions"].append("ternary operation required")
            report["holds"] = False
            return report
        if phi is None:
            report["preconditions"].append("automorphism phi required")
            report["holds"] = False
            return report
        laws = _automorphism(A, phi, op)
        if laws is None:
            report["preconditions"].append("phi is not an algebra automorphism")
            report["holds"] = False
            return report
        ok, wit = check_identity(laws, hom_leibniz3_identity(), _PHI_OPMAP)
        report["holds"] = ok
        if not ok:
            report["failures"].append(wit)
        return report

    raise DomainError(f"unknown variety {name!r}")


_PHI_OPMAP = {"[]": "[]", "phi": "phi"}


def _automorphism(A, phi, op=None):
    """A's operation op and the matrix phi as the operations [] and phi of
    one algebra (bound by ``_PHI_OPMAP``), or None when phi is not an
    automorphism of op."""
    if not is_invertible(phi, A.dom):
        return None
    laws = Algebra(A.name, A.dim, {"[]": A.op(op), "phi": linear_map(phi, A.dom)}, A.dom)
    law = automorphism_identity(laws.op("[]").arity)
    return laws if check_identity(laws, law, _PHI_OPMAP)[0] else None
