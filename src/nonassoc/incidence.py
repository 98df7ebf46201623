"""Finite posets, incidence algebras, sigma-brackets, higher derivations.

Only finite posets are supported, so the incidence algebra and the finitary
incidence algebra coincide.  Preorders that are not partial orders are
rejected.  The Poisson/sigma correspondence is checked two ways: a direct
per-sigma test, and an exhaustive GF(p) sweep that solves the Leibniz rule
(linear in sigma) exactly mod p and checks Jacobi (quadratic) on its kernel
only; both sets of forms come from the composable triples of the poset.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .identities import check_identity, parse_identity
from .linalg import identity_matrix, kernel, mat_eq, mat_mul
from .poisson import check_poisson_family
from .scalars import GF, QQ, DomainError
from .structure import (Algebra, StructureTensor, check_keys, is_int, linear_map,
                        multiplication_operator, need)


class Poset:
    """Finite poset from covering pairs; relation is the closure."""

    def __init__(self, elements, covers):
        self.elements = list(elements)
        if len(set(self.elements)) != len(self.elements):
            raise DomainError("duplicate poset elements")
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        leq = [[False] * n for _ in range(n)]
        for i in range(n):
            leq[i][i] = True
        cov = set()
        for a, b in covers:
            if a not in self.index or b not in self.index:
                raise DomainError(f"cover ({a!r},{b!r}) uses unknown elements")
            cov.add((self.index[a], self.index[b]))
            leq[self.index[a]][self.index[b]] = True
        # Warshall: after round k, i <= j whenever a chain of covers from i
        # to j has all its inner elements among 0..k
        for k in range(n):
            for i in range(n):
                if leq[i][k]:
                    leq[i] = [a or b for a, b in zip(leq[i], leq[k])]
        for i in range(n):
            for j in range(n):
                if i != j and leq[i][j] and leq[j][i]:
                    raise DomainError(
                        "relation is not antisymmetric (preorders are rejected)")
        self.leq = leq
        self.covers = cov
        self.n = n

    def le(self, a, b):
        return self.leq[self.index[a]][self.index[b]]

    def pairs(self):
        """All (x, y) with x <= y, in canonical index order."""
        return [(self.elements[i], self.elements[j])
                for i in range(self.n) for j in range(self.n)
                if self.leq[i][j]]

    def strict_pairs(self):
        return [(self.elements[i], self.elements[j])
                for i in range(self.n) for j in range(self.n)
                if i != j and self.leq[i][j]]

    def covers_of(self, i):
        out = []
        for j in range(self.n):
            if j != i and self.leq[i][j]:
                if not any(k != i and k != j and self.leq[i][k] and self.leq[k][j]
                           for k in range(self.n)):
                    out.append(j)
        return out

    def maximal_chains(self):
        """All maximal chains, as tuples of element indices: depth first from
        each minimal element in index order, the covers of each element in
        index order.  The walk keeps its own stack, so it leaves no
        reference cycle behind."""
        covers = [self.covers_of(i) for i in range(self.n)]
        stack = [(i,) for i in reversed(range(self.n))
                 if not any(j != i and self.leq[j][i] for j in range(self.n))]
        chains = []
        while stack:
            chain = stack.pop()
            if covers[chain[-1]]:
                stack.extend(chain + (j,) for j in reversed(covers[chain[-1]]))
            else:
                chains.append(chain)
        return chains

    @staticmethod
    def from_json(doc):
        """Inverse of to_json; a malformed document raises DomainError."""
        check_keys(doc, ("elements",), ("covers",), "poset")
        elements, covers = doc["elements"], doc.get("covers", [])
        need(isinstance(elements, list) and all(map(_is_element, elements)),
             "poset elements must be a list of strings or integers")
        need(isinstance(covers, list), "poset covers must be a list")
        for a, c in enumerate(covers):
            need(isinstance(c, list) and len(c) == 2 and all(map(_is_element, c)),
                 f"covers[{a}] must be a pair [a, b] of elements")
        return Poset(elements, covers)

    def to_json(self):
        return {"elements": list(self.elements),
                "covers": [[self.elements[a], self.elements[b]]
                           for a, b in sorted(self.covers)]}

    def __repr__(self):
        return f"Poset({self.elements}, covers={sorted(self.covers)})"


def _is_element(x):
    return isinstance(x, str) or is_int(x)


def crown_poset():
    """The 4-element crown: 1,2 below 3,4 with all four strict relations."""
    return Poset(["1", "2", "3", "4"],
                 [["1", "3"], ["1", "4"], ["2", "3"], ["2", "4"]])


def chain_poset(n):
    return Poset([str(i + 1) for i in range(n)],
                 [[str(i + 1), str(i + 2)] for i in range(n - 1)])


def antichain_poset(n):
    return Poset([str(i + 1) for i in range(n)], [])


class SigmaMap:
    """Scalar labels on the strict pairs of a poset."""

    def __init__(self, poset, values, dom=QQ):
        self.poset = poset
        self.dom = dom
        vals = {}
        for (a, b) in poset.strict_pairs():
            if (a, b) not in values:
                raise DomainError(f"sigma missing value for {a!r}<{b!r}")
            vals[(a, b)] = dom.coerce(values[(a, b)])
        self.values = vals

    @staticmethod
    def from_json(poset, doc, dom=QQ):
        """Inverse of to_json: one value for each strict pair "a<b" of the
        poset; a malformed document raises DomainError naming the key."""
        need(isinstance(doc, dict),
             'sigma must be a JSON object keyed by strict pairs such as "1<2"')
        pairs = {f"{a}<{b}": (a, b) for a, b in poset.strict_pairs()}
        values = {}
        for key, v in doc.items():
            need(key in pairs, f"sigma key {key!r} names no strict pair of the poset")
            values[pairs[key]] = dom.parse(v)
        return SigmaMap(poset, values, dom)

    def to_json(self):
        return {f"{a}<{b}": self.dom.to_str(c)
                for (a, b), c in sorted(self.values.items())}


def _sigma_tables(P):
    """The incidence product and the symbolic sigma-bracket on basis indices.

    ``mul[(i, j)] = k`` for e_i e_j = e_k and ``br[(i, j)] = (k, s, sign)``
    for B(e_i, e_j) = sign * sigma_s * e_k, s indexing strict pairs; absent
    keys are zero products.  [e_xy, e_uv] = delta_yu e_xv - delta_vx e_uy,
    and both deltas hold only on the diagonal, where sigma is zero, so each
    composable pair e_xy e_yv = e_xv with x < v gives the two ordered
    bracket entries and nothing else does.
    """
    pairs = P.pairs()
    idx = {q: a for a, q in enumerate(pairs)}
    sidx = {q: a for a, q in enumerate(P.strict_pairs())}
    starting = {}
    for (x, y) in pairs:
        starting.setdefault(x, []).append((x, y))
    mul, br = {}, {}
    for (x, y) in pairs:
        for (_, v) in starting[y]:
            i, j, k = idx[(x, y)], idx[(y, v)], idx[(x, v)]
            mul[(i, j)] = k
            if x != v:
                br[(i, j)] = (k, sidx[(x, v)], 1)
                br[(j, i)] = (k, sidx[(x, v)], -1)
    return mul, br


def incidence_algebra(P, dom=QQ):
    """I(P, F): basis e_xy for x <= y, convolution product."""
    pairs = P.pairs()
    mul, _ = _sigma_tables(P)
    one = dom.one()
    table = {key: {k: one} for key, k in mul.items()}
    A = Algebra(f"I({','.join(map(str, P.elements))})", len(pairs),
                {"mul": StructureTensor(len(pairs), 2, table, dom)}, dom)
    A.incidence_pairs = pairs
    A.poset = P
    return A


def incidence_unit_vector(A):
    """The identity element sum of e_xx (not a basis vector in general)."""
    dom = A.dom
    v = [dom.zero()] * A.dim
    for a, (x, y) in enumerate(A.incidence_pairs):
        if x == y:
            v[a] = dom.one()
    return v


def sigma_bracket(P, sigma, dom=QQ):
    """B(f,g)(x,y) = sigma(x,y) [f,g](x,y) for x<y, zero on the diagonal."""
    strict = P.strict_pairs()
    _, br = _sigma_tables(P)
    table = {key: {k: sigma.values[strict[s]] * sign} for key, (k, s, sign) in sorted(br.items())}
    return StructureTensor(len(P.pairs()), 2, table, dom)


def _chain_pairs(P):
    """(chain, its first strict pair, pair) for each strict pair after the
    first of each maximal chain, as element lists and pairs, in order."""
    for chain in P.maximal_chains():
        elems = [P.elements[i] for i in chain]
        pairs = [(elems[a], elems[b]) for a in range(len(elems)) for b in range(a + 1, len(elems))]
        for q in pairs[1:]:
            yield elems, pairs[0], q


def chain_constant_check(P, sigma):
    """sigma constant on chains?  Checked on maximal chains (sufficient)."""
    for elems, first, q in _chain_pairs(P):
        expected, got = sigma.values[first], sigma.values[q]
        if not sigma.dom.is_zero(got - expected):
            return False, {"chain": elems, "pair": q, "expected": expected, "got": got}
    return True, None


def poisson_sigma_equiv_test(P, sigma, dom=None):
    """Both sides of the sigma/Poisson correspondence, with the biconditional.

    A mismatch between the chain-constancy verdict and the Poisson verdict
    is a failure of the artifact, reported as agree=False.
    """
    dom = dom or sigma.dom
    const, wit = chain_constant_check(P, sigma)
    A = incidence_algebra(P, dom)
    B = sigma_bracket(P, sigma, dom)
    pair = Algebra(A.name, A.dim, {"mul": A.op("mul"), "bracket": B}, dom)
    # incidence algebras are noncommutative: Poisson structure in the
    # Kubo sense (associative product, Lie bracket, Leibniz rule)
    rep = check_poisson_family(pair, "poisson-structure")
    return {"chain_constant": const, "chain_witness": wit,
            "poisson": rep["holds"], "poisson_report": rep,
            "agree": const == rep["holds"]}


# ---------------------------------------------------------------------------
# exhaustive GF(p) sweep
# ---------------------------------------------------------------------------

def _by_factor(table, slot):
    """{index: [(other factor, value)]} keyed by the factor in ``slot``."""
    out = {}
    for key, val in table.items():
        out.setdefault(key[slot], []).append((key[1 - slot], val))
    return out


def _distinct_rows(rows):
    """The distinct nonzero rows of {key: {unknown: coefficient}}, each as
    a dict without its zero coefficients."""
    found = {tuple(sorted([uc for uc in row.items() if uc[1]]))
             for row in rows.values() if any(row.values())}
    return [dict(r) for r in found]


def _leibniz_jacobi_forms(P):
    """Symbolic axiom defects as forms in the sigma values.

    Returns (linear_rows, quadratic_rows): linear rows are {s: int} maps
    from the Leibniz rule B(f, gh) - B(f, g)h - gB(f, h), quadratic rows
    {(s1, s2): int} from Jacobi, with s indexing strict pairs, one row per
    triple and output basis index, each distinct row once.  Only the
    triples with a nonzero term are visited: each term is a composable
    product or bracket entry followed by an entry of the adjacency list of
    its output.
    """
    mul, br = _sigma_tables(P)
    mul_first, mul_second = _by_factor(mul, 0), _by_factor(mul, 1)
    br_first, br_second = _by_factor(br, 0), _by_factor(br, 1)
    leib = {}
    for (g, h), m in mul.items():
        for f, (out, s, sign) in br_second.get(m, ()):
            row = leib.setdefault((f, g, h, out), {})    # B(f, gh)
            row[s] = row.get(s, 0) + sign
    for (f, a), (m, s, sign) in br.items():
        for h, out in mul_first.get(m, ()):
            row = leib.setdefault((f, a, h, out), {})    # B(f, g)h, g = a
            row[s] = row.get(s, 0) - sign
        for g, out in mul_second.get(m, ()):
            row = leib.setdefault((f, g, a, out), {})    # gB(f, h), h = a
            row[s] = row.get(s, 0) - sign
    # Jacobi sums over the rotations of a triple, so its row is kept under
    # the least rotation; B(f, f) = 0, so (f, f, f) has no term to count thrice
    jac = {}
    for (a, b), (m, s1, sign1) in br.items():
        for c, (out, s2, sign2) in br_first.get(m, ()):
            row = jac.setdefault((min((a, b, c), (b, c, a), (c, a, b)), out), {})
            ss = (s1, s2) if s1 <= s2 else (s2, s1)
            row[ss] = row.get(ss, 0) + sign1 * sign2
    return _distinct_rows(leib), _distinct_rows(jac)


def _vanishes_on(rows, space):
    """Does every quadratic row {(s1, s2): c} vanish on all of the GF(p)
    ``Subspace`` space?  Decided on its canonical basis b_1..b_k: with the
    polar form B_q(u, v) = q(u + v) - q(u) - q(v), in any characteristic
    q(sum_i t_i b_i) = sum_i t_i^2 q(b_i) + sum_{i<j} t_i t_j B_q(b_i, b_j),
    so q vanishes on the space exactly when every q(b_i) and every
    B_q(b_i, b_j) is zero.  Each coordinate s is the linear form
    sum_i b_i[s] t_i, and the product of two such forms gives those values
    as the coefficients of t_i^2 and t_i t_j."""
    p = space.dom.p
    coordinate = [[] for _ in range(space.ambient_dim)]
    for i, b in enumerate(space.basis):
        for s, x in enumerate(b):
            if x.v:
                coordinate[s].append((i, x.v))
    for row in rows:
        coef = {}
        for (s1, s2), c in row.items():
            for i, x in coordinate[s1]:
                for j, y in coordinate[s2]:
                    ij = (i, j) if i <= j else (j, i)
                    coef[ij] = coef.get(ij, 0) + c * x * y
        if any(v % p for v in coef.values()):
            return False
    return True


def _span_indices(space):
    """The vectors d of a GF(p) ``Subspace`` as the indices t = sum_k d_k p^k,
    mapped to the digits d."""
    p = space.dom.p
    vecs = [[0] * space.ambient_dim]
    for b in space.basis:
        vecs = [[(x + c * y.v) % p for x, y in zip(v, b)]
                for v in vecs for c in range(p)]
    return {sum(d * p ** k for k, d in enumerate(v)): v for v in vecs}


def exhaustive_sigma_equiv(P, p=3):
    """Test the sigma/Poisson biconditional for every sigma over GF(p).

    The sigmas satisfying Leibniz are the GF(p) kernel L of the linear
    forms, and the Poisson ones those of L on which every quadratic Jacobi
    form vanishes.  The chain-constant sigmas are the kernel C of the
    equalities along maximal chains.  Both kernels are exact (eliminated
    mod p), so no assignment outside them is looked at.  When L = C as
    canonical subspaces and every Jacobi form vanishes on L, decided on
    L's basis (``_vanishes_on``), the two sets agree and the counts are
    p^dim, with no vector enumerated.  Otherwise (L != C, or a Jacobi form
    that does not vanish on L) the vectors of both kernels are enumerated
    and each vector of L gets the Jacobi forms in Python ints.  Returns
    counts and the first disagreement, in the order t = sum_k sigma_k p^k,
    if any.
    """
    if p == 2:
        raise DomainError("the sweep needs an odd prime (alternating bracket)")
    strict = P.strict_pairs()
    s = len(strict)
    if p ** s > 4_000_000:
        raise DomainError(
            f"sweep size p^s = {p}^{s} exceeds the resource bound; "
            "sample sigmas individually instead")
    dom = GF(p)
    linear, quadratic = _leibniz_jacobi_forms(P)
    leibniz = kernel(linear, s, dom)
    sidx = {q: a for a, q in enumerate(strict)}
    equal = [{sidx[first]: 1, sidx[q]: -1} for _, first, q in _chain_pairs(P)]
    chains = kernel(equal, s, dom)
    report = {"poset": P.to_json(), "p": p, "total": p ** s,
              "chain_constant_count": p ** chains.dim,
              "poisson_count": p ** leibniz.dim,
              "agree": True, "counterexample": None}
    if leibniz == chains and _vanishes_on(quadratic, leibniz):
        return report
    quadratic = [[(s1, s2, c) for (s1, s2), c in row.items()]
                 for row in quadratic]
    poisson = {t for t, v in _span_indices(leibniz).items()
               if all(sum(c * v[s1] * v[s2] for s1, s2, c in row) % p == 0
                      for row in quadratic)}
    const = set(_span_indices(chains))
    report["poisson_count"] = len(poisson)
    if poisson != const:
        t = min(poisson ^ const)
        report["agree"] = False
        report["counterexample"] = {strict[k]: t // p ** k % p for k in range(s)}
    return report


def all_posets_up_to(nmax):
    """All posets with <= nmax elements, up to isomorphism.

    Every poset is isomorphic to one whose strict order is contained in the
    natural order on 0..n-1, so candidates are transitive subsets of the
    upper triangle, deduplicated by canonical permutation form: the least
    relabelled relation over ``_class_relabellings``.
    """
    out = []
    for n in range(1, nmax + 1):
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        seen = set()
        for bits in range(1 << len(upper)):
            rel = {upper[k] for k in range(len(upper)) if bits >> k & 1}
            ok = True
            for (a, b) in rel:
                for (c, d) in rel:
                    if b == c and (a, d) not in rel:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            canon = min(
                tuple(sorted((p[a], p[b]) for (a, b) in rel))
                for p in _class_relabellings(n, rel))
            if canon in seen:
                continue
            seen.add(canon)
            covers = []
            for (a, b) in rel:
                if not any((a, c) in rel and (c, b) in rel for c in range(n)):
                    covers.append([str(a), str(b)])
            out.append(Poset([str(i) for i in range(n)], covers))
    return out


def _class_relabellings(n, rel):
    """The relabellings p of 0..n-1 that send each (in-degree, out-degree)
    class of the strict order ``rel`` onto one block of consecutive labels,
    the blocks in sorted class order.  An isomorphism preserves the classes
    and their sizes, so the set of relations these relabellings give, and
    its least element, depends only on the isomorphism class."""
    degree = [(sum(b == e for _, b in rel), sum(a == e for a, _ in rel)) for e in range(n)]
    blocks = [[e for e in range(n) if degree[e] == d] for d in sorted(set(degree))]
    for order in itertools.product(*map(itertools.permutations, blocks)):
        p = [0] * n
        for label, e in enumerate(itertools.chain(*order)):
            p[e] = label
        yield p


# ---------------------------------------------------------------------------
# higher derivations
# ---------------------------------------------------------------------------

class HigherDerivationSeq:
    """d_0 = id, d_1, ..., d_N as matrices over the algebra's domain."""

    def __init__(self, A, mats):
        self.A = A
        dom = A.dom
        self.mats = [[[dom.coerce(x) for x in row] for row in m] for m in mats]
        if not self.mats:
            raise DomainError("need at least d_0")
        if not mat_eq(self.mats[0], identity_matrix(A.dim, dom), dom):
            raise DomainError("d_0 must be the identity")

    @property
    def order(self):
        return len(self.mats) - 1

    def truncate(self, N):
        if N + 1 > len(self.mats):
            raise DomainError("sequence shorter than requested order")
        return HigherDerivationSeq(self.A, self.mats[:N + 1])


def hd_identity(A, N):
    dom = A.dom
    zero = [[dom.zero()] * A.dim for _ in range(A.dim)]
    return HigherDerivationSeq(A, [identity_matrix(A.dim, dom)] + [zero] * N)


def _hd_law(n):
    """d_n(xy) - sum_{i+j=n} d_i(x) d_j(y) as an identity in d0..dn."""
    return parse_identity(f"d{n}(x*y) - "
                          + " - ".join(f"d{i}(x)*d{n - i}(y)" for i in range(n + 1)))


def higher_derivation_check(A, seq, op="mul"):
    """d_n(rs) = sum_{i+j=n} d_i(r) d_j(s) for 1 <= n <= N on basis pairs."""
    ops = {"*": A.op(op), **{f"d{i}": linear_map(m, A.dom) for i, m in enumerate(seq.mats)}}
    laws = Algebra(A.name, A.dim, ops, A.dom)
    for n in range(1, seq.order + 1):
        ok, wit = check_identity(laws, _hd_law(n), dict(zip(ops, ops)))
        if not ok:
            return False, {"n": n, "pair": tuple(wit["tuple"])}
    return True, None


def _series_term(a, b, n, start, dom):
    """sum_{i=start..n} a_i o b_{n-i} for sequences of square matrices."""
    dim = len(a[0])
    acc = [[dom.zero()] * dim for _ in range(dim)]
    for i in range(start, n + 1):
        prod = mat_mul(a[i], b[n - i], dom)
        acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, prod)]
    return acc


def hd_compose(d1, d2):
    """(d' * d'')_n = sum_{i+j=n} d'_i o d''_j."""
    if d1.order != d2.order:
        raise DomainError("truncation orders differ")
    return HigherDerivationSeq(d1.A, [_series_term(d1.mats, d2.mats, n, 0, d1.A.dom)
                                      for n in range(d1.order + 1)])


def hd_inverse(d):
    """The *-inverse, solved recursively from lower terms."""
    A = d.A
    inv = [identity_matrix(A.dim, A.dom)]
    for n in range(1, d.order + 1):
        inv.append([[-x for x in row] for row in _series_term(d.mats, inv, n, 1, A.dom)])
    return HigherDerivationSeq(A, inv)


def hd_basic_inner(A, r, k, N, op="mul"):
    """[r,k]: zero off multiples of k; at n = k*l the map x -> r^l x - r^{l-1} x r.

    r^0 acts as the identity, so no unit is needed in A.
    """
    dom = A.dom
    t = A.op(op)
    left_pows = [identity_matrix(A.dim, dom)]
    cur = list(r)
    for _ in range(N):
        left_pows.append(multiplication_operator(A, (cur,), op, slot=1))
        cur = t.apply([cur, r])
    R_r = multiplication_operator(A, (r,), op)
    zero = [[dom.zero()] * A.dim for _ in range(A.dim)]
    mats = [identity_matrix(A.dim, dom)]
    for n in range(1, N + 1):
        if n % k != 0:
            mats.append(zero)
            continue
        l = n // k
        tail = mat_mul(left_pows[l - 1], R_r, dom)
        mats.append([[left_pows[l][i][j] - tail[i][j] for j in range(A.dim)]
                     for i in range(A.dim)])
    return HigherDerivationSeq(A, mats)


def hd_inner(A, r_seq, N, op="mul"):
    """Delta_r = [r_1,1] * [r_2,2] * ... * [r_N,N], truncated at N."""
    out = hd_identity(A, N)
    for k, r in enumerate(r_seq[:N], start=1):
        out = hd_compose(out, hd_basic_inner(A, r, k, N, op))
    return out


# --- higher transitive maps ------------------------------------------------

def check_higher_transitive(P, sigma_seq):
    """sigma_0 = 1 and sigma_n(x,y) = sum_{i+j=n} sigma_i(x,z) sigma_j(z,y)."""
    pairs = P.pairs()
    N = len(sigma_seq) - 1
    dom = QQ
    for (x, y) in pairs:
        if sigma_seq[0].get((x, y), None) != 1:
            return False, {"n": 0, "pair": (x, y)}
    for n in range(1, N + 1):
        for (x, y) in pairs:
            for z in P.elements:
                if not (P.le(x, z) and P.le(z, y)):
                    continue
                rhs = sum(Fraction(sigma_seq[i][(x, z)]) *
                          Fraction(sigma_seq[n - i][(z, y)])
                          for i in range(n + 1))
                if Fraction(sigma_seq[n][(x, y)]) != rhs:
                    return False, {"n": n, "pair": (x, y), "via": z}
    return True, None


def sigma_tilde(A, sigma_seq):
    """The diagonal higher derivation induced by a higher transitive map."""
    P = A.poset
    dom = A.dom
    ok, wit = check_higher_transitive(P, sigma_seq)
    if not ok:
        raise DomainError(f"not a higher transitive map: {wit}")
    mats = []
    for n, level in enumerate(sigma_seq):
        m = [[dom.zero()] * A.dim for _ in range(A.dim)]
        for a, (x, y) in enumerate(A.incidence_pairs):
            m[a][a] = dom.coerce(level[(x, y)])
        mats.append(m)
    return HigherDerivationSeq(A, mats)


def hd_factorization_verify(A, d, rho, sigma_seq):
    """Does d equal Delta_rho * sigma~ up to the truncation order?"""
    N = d.order
    inner = hd_inner(A, rho, N)
    st = sigma_tilde(A, sigma_seq).truncate(N)
    prod = hd_compose(inner, st)
    for n in range(N + 1):
        if not mat_eq(prod.mats[n], d.mats[n], A.dom):
            return False, {"n": n}
    return True, None
