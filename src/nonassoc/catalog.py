"""Built-in algebra catalog.

Every entry returns a fresh ``Algebra`` over Q with the exact published
table.  Octonion-flavoured entries are generated by the Cayley-Dickson
doubling (a,b)(c,d) = (ac - d*b, da + bc*) with all parameters -1.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations
from math import comb

from .kantor import u2_e_basis
from .scalars import QQ, DomainError
from .structure import Algebra, StructureTensor
from .varieties import minus_algebra


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j = i
        length = 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            length += 1
        if length % 2 == 0:
            sign = -sign
    return sign


def cd_basis_mul(i, j, dim):
    """Product of Cayley-Dickson basis elements: e_i e_j = sign * e_k."""
    if dim == 1:
        return 1, 0
    half = dim // 2
    if i < half and j < half:
        return cd_basis_mul(i, j, half)
    if i < half and j >= half:
        s, k = cd_basis_mul(j - half, i, half)
        return s, k + half
    if i >= half and j < half:
        s, k = cd_basis_mul(i - half, j, half)
        if j != 0:
            s = -s
        return s, k + half
    ip, jp = i - half, j - half
    s, k = cd_basis_mul(jp, ip, half)
    if jp == 0:
        s = -s
    return s, k


def _cd_algebra(name, dim):
    table = {}
    for i in range(dim):
        for j in range(dim):
            s, k = cd_basis_mul(i, j, dim)
            table[(i, j)] = {k: Fraction(s)}
    t = StructureTensor(dim, 2, table, QQ)
    return Algebra(name, dim, {"mul": t}, QQ, unit=0)


def _cd_conj_sign(i):
    return 1 if i == 0 else -1


def quaternions():
    return _cd_algebra("quaternions", 4)


def octonions():
    return _cd_algebra("octonions", 8)


def _m7():
    # imaginary octonions under the commutator: the simple 7-dim Malcev
    # algebra (the unit e_0 is central and commutators are imaginary)
    table = {(i - 1, j - 1): {k - 1: c for k, c in row.items()}
             for (i, j), row in minus_algebra(octonions()).op().table.items()}
    return Algebra("M7", 7, {"mul": StructureTensor(7, 2, table, QQ)}, QQ)


def _cd_triple_table(dim):
    # (x y*) z on the Cayley-Dickson basis: generalized quaternions/octonions
    table = {}
    for i in range(dim):
        for j in range(dim):
            s1, mid = cd_basis_mul(i, j, dim)
            s1 *= _cd_conj_sign(j)
            for k in range(dim):
                s2, out = cd_basis_mul(mid, k, dim)
                table[(i, j, k)] = {out: Fraction(s1 * s2)}
    return table


def _m8():
    # ternary Malcev algebra on the octonions:
    # [x,y,z] = (x y*) z - <y,z> x + <x,z> y - <x,y> z, <e_i,e_j> = delta_ij
    table = _cd_triple_table(8)
    for (i, j, k), row in table.items():
        if j == k:
            row[i] = row.get(i, 0) - 1
        if i == k:
            row[j] = row.get(j, 0) + 1
        if i == j:
            row[k] = row.get(k, 0) - 1
    form = [[Fraction(1 if a == b else 0) for b in range(8)] for a in range(8)]
    return Algebra("M8", 8, {"mul": StructureTensor(8, 3, table, QQ)}, QQ, form=form)


def _ternary_cd(name, dim):
    # [[x,y,z]] = (x y*) z on the generalized quaternions / octonions
    return Algebra(name, dim, {"mul": StructureTensor(dim, 3, _cd_triple_table(dim), QQ)}, QQ)


def _ternary_jordan(n, form):
    # [[x,y,z]] = (y,z)x + (x,z)y + (x,y)z
    table = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                row = {}
                row[i] = row.get(i, Fraction(0)) + form[j][k]
                row[j] = row.get(j, Fraction(0)) + form[i][k]
                row[k] = row.get(k, Fraction(0)) + form[i][j]
                table[(i, j, k)] = row
    return Algebra(f"ternaryJordan({n})", n,
                   {"mul": StructureTensor(n, 3, table, QQ)}, QQ, form=form)


def _nf(n):
    table = {(i, 0): {i + 1: Fraction(1)} for i in range(n - 1)}
    return Algebra(f"NF({n})", n, {"mul": StructureTensor(n, 2, table, QQ)}, QQ)


def _filiform1p(n, theta):
    theta = QQ.coerce(theta)
    table = {(i, 0): {i + 1: Fraction(1)} for i in range(1, n - 1)}
    if not QQ.is_zero(theta):
        table[(0, 1)] = {n - 1: theta}
    return Algebra(f"filiform1p({n})", n,
                   {"mul": StructureTensor(n, 2, table, QQ)}, QQ)


def _solvable_r(seq):
    # the rigid solvable Leibniz algebra R(n_1,...,n_k):
    # basis e_1..e_{n+1}, h, x_1..x_{k+1}  (0-indexed in that order)
    if not seq or any(m < 1 for m in seq) or list(seq) != sorted(seq, reverse=True):
        raise DomainError("R requires a decreasing sequence of positive parts")
    k = len(seq)
    n = sum(seq)
    ne = n + 1
    E = lambda i: i - 1          # 1-based e_i label -> index
    H = ne
    X = lambda j: ne + j         # 1-based x_j label -> index
    dim = ne + 1 + (k + 1)
    table = {}

    def put(a, b, out, c):
        row = table.setdefault((a, b), {})
        row[out] = row.get(out, Fraction(0)) + Fraction(c)
        if row[out] == 0:
            del row[out]

    def put_skew(a, b, out, c):
        put(a, b, out, c)
        put(b, a, out, -c)

    put(E(1), E(1), H, 1)
    put(H, X(1), H, 2)
    for i in range(2, seq[0] + 1):
        put_skew(E(i), E(1), E(i + 1), 1)
    for j in range(1, k):
        S = sum(seq[:j])
        for i in range(2, seq[j] + 1):
            put_skew(E(S + i), E(1), E(S + 1 + i), 1)
    put_skew(E(1), X(1), E(1), 1)
    for i in range(3, seq[0] + 2):
        put_skew(E(i), X(1), E(i), i - 2)
    for j in range(1, k):
        S = sum(seq[:j])
        for i in range(2, seq[j] + 1):
            put_skew(E(S + i), X(1), E(S + i), i - 2)
    for i in range(2, seq[0] + 2):
        put_skew(E(i), X(2), E(i), 1)
    for j in range(1, k):
        S = sum(seq[:j])
        for i in range(2, seq[j] + 1):
            put_skew(E(S + i), X(j + 2), E(S + i), 1)
    name = "R(" + ",".join(str(m) for m in seq) + ")"
    return Algebra(name, dim, {"mul": StructureTensor(dim, 2, table, QQ)}, QQ)


def _matrix_algebra(n):
    table = {}
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if j == k:
                        table[(n * i + j, n * k + l)] = {n * i + l: Fraction(1)}
    return Algebra(f"matrix({n})", n * n,
                   {"mul": StructureTensor(n * n, 2, table, QQ)}, QQ)


def uppertri_pairs(n):
    return [(i, j) for i in range(n) for j in range(i, n)]


def _uppertri(n):
    pairs = uppertri_pairs(n)
    index = {p: a for a, p in enumerate(pairs)}
    table = {}
    for (i, j) in pairs:
        for (k, l) in pairs:
            if j == k:
                table[(index[(i, j)], index[(k, l)])] = {index[(i, l)]: Fraction(1)}
    return Algebra(f"uppertri({n})", len(pairs),
                   {"mul": StructureTensor(len(pairs), 2, table, QQ)}, QQ)


def _sl2():
    # basis e, f, h
    table = {
        (0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)},
        (2, 0): {0: Fraction(2)}, (0, 2): {0: Fraction(-2)},
        (2, 1): {1: Fraction(-2)}, (1, 2): {1: Fraction(2)},
    }
    return Algebra("sl2", 3, {"mul": StructureTensor(3, 2, table, QQ)}, QQ)


def _heis3():
    table = {(0, 1): {2: Fraction(1)}, (1, 0): {2: Fraction(-1)}}
    return Algebra("heis3", 3, {"mul": StructureTensor(3, 2, table, QQ)}, QQ)


def _a_n(n):
    # the n-dimensional anticommutative n-ary algebra [e_1,...,e_n] = e_1
    table = {}
    for perm in permutations(range(n)):
        table[perm] = {0: Fraction(_perm_sign(perm))}
    return Algebra(f"A_n({n})", n, {"mul": StructureTensor(n, n, table, QQ)}, QQ)


def _d_filippov(dim):
    # the perfect n-Lie algebra D_{n+1}: [e_1,..,^e_i,..,e_{n+1}] = (-1)^{n+i+1} e_i
    n = dim - 1
    table = {}
    for i1 in range(1, dim + 1):
        base = tuple(j - 1 for j in range(1, dim + 1) if j != i1)
        sign0 = (-1) ** (n + i1 + 1)
        for perm in permutations(range(n)):
            args = tuple(base[p] for p in perm)
            table[args] = {i1 - 1: Fraction(sign0 * _perm_sign(perm))}
    return Algebra(f"D({dim})", dim, {"mul": StructureTensor(dim, n, table, QQ)}, QQ)


def _a_alpha(alpha, arity):
    table = {(0,) * arity: {0: QQ.coerce(alpha)}}
    return Algebra(f"A_alpha({alpha})", 1,
                   {"mul": StructureTensor(1, arity, table, QQ)}, QQ)


def _tp4():
    # The 4-dim Poisson pair on span{1,x,y,xy}.  The bracket values
    # {x,y}=1, {x,xy}=x, {y,xy}=-y together with the Leibniz law and
    # associativity force the product: (xy)(xy) = 1 and all other
    # products zero (in particular the basis vector "1" is not a unit).
    mul = {(3, 3): {0: Fraction(1)}}
    bracket = {
        (1, 2): {0: Fraction(1)}, (2, 1): {0: Fraction(-1)},
        (1, 3): {1: Fraction(1)}, (3, 1): {1: Fraction(-1)},
        (2, 3): {2: Fraction(-1)}, (3, 2): {2: Fraction(1)},
    }
    return Algebra("tp4", 4, {"mul": StructureTensor(4, 2, mul, QQ),
                              "bracket": StructureTensor(4, 2, bracket, QQ)}, QQ)


def _gp2():
    # 2-dim generalized Poisson pair with D != 0, found by brute force:
    # unital product with x^2 = 0 and bracket {1,x} = x, so D(x) = {x,1} = -x.
    mul = {(0, 0): {0: Fraction(1)}, (0, 1): {1: Fraction(1)},
           (1, 0): {1: Fraction(1)}}
    bracket = {(0, 1): {1: Fraction(1)}, (1, 0): {1: Fraction(-1)}}
    return Algebra("gp2", 2, {"mul": StructureTensor(2, 2, mul, QQ),
                              "bracket": StructureTensor(2, 2, bracket, QQ)},
                   QQ, unit=0)


def _zinbiel_free1(n):
    # truncation of the free Zinbiel algebra on one generator:
    # e_a e_b = binom(a+b+1, b+1) e_{a+b+1}
    table = {}
    for a in range(n):
        for b in range(n):
            if a + b + 1 < n:
                table[(a, b)] = {a + b + 1: Fraction(comb(a + b + 1, b + 1))}
    return Algebra(f"zinbiel-free1({n})", n,
                   {"mul": StructureTensor(n, 2, table, QQ)}, QQ)


def _abelian(n):
    return Algebra(f"abelian({n})", n, {"mul": StructureTensor(n, 2, {}, QQ)}, QQ)


def _require_n(params, minimum=1):
    n = params.get("n")
    if not isinstance(n, int) or n < minimum:
        raise DomainError(f"parameter n must be an integer >= {minimum}")
    return n


def _ternary_jordan_entry(params):
    n = _require_n(params, 2)
    form = params.get("form")
    if form is None:
        form = [[Fraction(1 if a == b else 0) for b in range(n)] for a in range(n)]
    else:
        if not (isinstance(form, list) and len(form) == n
                and all(isinstance(row, list) and len(row) == n for row in form)):
            raise DomainError(f"ternaryJordan form must be an {n} x {n} matrix")
        form = [[QQ.parse(c) for c in row] for row in form]
        if any(form[a][b] != form[b][a] for a in range(n) for b in range(n)):
            raise DomainError("ternaryJordan requires a symmetric form")
    return _ternary_jordan(n, form)


def _d_entry(params):
    dim = params.get("dim")
    if not isinstance(dim, int) or dim < 3:
        raise DomainError("D requires dim (= n+1) >= 3")
    return _d_filippov(dim)


def _a_alpha_entry(params):
    arity = params.get("arity", 2)
    if not isinstance(arity, int) or arity < 2:
        raise DomainError("A_alpha arity must be >= 2")
    return _a_alpha(params.get("alpha", 1), arity)


# name -> (the parameter names the entry takes, builder of the params dict)
_ENTRIES = {
    "abelian": (("n",), lambda p: _abelian(_require_n(p))),
    "NF": (("n",), lambda p: _nf(_require_n(p, 2))),
    "filiform1p": (("n", "theta"),
                   lambda p: _filiform1p(_require_n(p, 3), p.get("theta", 1))),
    "R": (("seq",), lambda p: _solvable_r(tuple(p.get("seq", ())))),
    "sl2": ((), lambda p: _sl2()),
    "heis3": ((), lambda p: _heis3()),
    "matrix": (("n",), lambda p: _matrix_algebra(_require_n(p))),
    "uppertri": (("n",), lambda p: _uppertri(_require_n(p))),
    "quaternions": ((), lambda p: quaternions()),
    "octonions": ((), lambda p: octonions()),
    "M7": ((), lambda p: _m7()),
    "M8": ((), lambda p: _m8()),
    "D2": ((), lambda p: _ternary_cd("D2", 4)),
    "D3": ((), lambda p: _ternary_cd("D3", 8)),
    "ternaryJordan": (("n", "form"), _ternary_jordan_entry),
    "A_n": (("n",), lambda p: _a_n(_require_n(p, 2))),
    "D": (("dim",), _d_entry),
    "A_alpha": (("alpha", "arity"), _a_alpha_entry),
    "tp4": ((), lambda p: _tp4()),
    "gp2": ((), lambda p: _gp2()),
    "U2e": ((), lambda p: u2_e_basis()),
    "zinbiel-free1": (("n",), lambda p: _zinbiel_free1(_require_n(p, 2))),
}
CATALOG_NAMES = list(_ENTRIES)


def catalog_get(name, params=None):
    """Fetch a catalog algebra by name; params is a plain dict, and a name
    the entry does not take raises DomainError."""
    if name not in _ENTRIES:
        raise DomainError(f"unknown catalog algebra {name!r}")
    takes, build = _ENTRIES[name]
    params = dict(params or {})
    for key in params:
        if key not in takes:
            raise DomainError(f"catalog algebra {name!r} takes no parameter {key!r}"
                              f" (it takes: {', '.join(takes) or 'none'})")
    return build(params)
