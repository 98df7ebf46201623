"""Structural invariants: powers, annihilators, nilpotency, characteristic
sequences, multiplicative bases, and the standard embedding of ternary
algebras.

Conventions (the papers leave them implicit for general non-associative
algebras): A^1 = A, A^k = sum_{i+j=k} A^i A^j, nilpotent when some A^k = 0;
the center of a possibly non-anticommutative algebra is the two-sided
annihilator, with the commutative center {z : zx = xz} reported separately.
"""

from __future__ import annotations

import itertools
import random

from .identities import law_rows
from .linalg import (Subspace, generic_rank, kernel, linear_pencil, mat_mul, mat_sub,
                     rank, seeded_points)
from .scalars import QQ, DomainError, PolyRing
from .structure import Algebra, StructureTensor, multiplication_operator

SAMPLE_SEED = 20240803
EXTRA_SAMPLES = 40   # random candidates for the witness of characteristic_sequence


def _element_laws_kernel(A, laws):
    """{z in A : each law, linear in the unknown element <z>, vanishes at
    every basis vector x}."""
    n = A.dim
    rows = []
    for terms in laws:
        rows += law_rows(A, terms, ("x",), {"<z>": (n, lambda r: r)})
    return kernel(rows, n, A.dom)


def annihilator_subspace(A, side="two_sided", op=None):
    """Left/right/two-sided annihilator of a binary algebra."""
    opn = op or A.op_names()[0]
    z, x = ("<z>", ()), ("v", "x")
    laws = []
    if side in ("left", "two_sided"):
        laws.append([(1, (opn, (z, x)))])
    if side in ("right", "two_sided"):
        laws.append([(1, (opn, (x, z)))])
    return _element_laws_kernel(A, laws)


def commutative_center_subspace(A, op=None):
    """{z : zx = xz for all x}."""
    opn = op or A.op_names()[0]
    z, x = ("<z>", ()), ("v", "x")
    return _element_laws_kernel(A, [[(1, (opn, (z, x))), (-1, (opn, (x, z)))]])


def _powers(A, op):
    """The power filtration [A, A^2, ...], ending at zero when A is
    nilpotent."""
    t = A.op(op)
    if t.arity != 2:
        raise DomainError("structure_report needs a binary operation")
    n = A.dim
    powers = [Subspace([A.basis_vector(i) for i in range(n)], n, A.dom)]
    # A^k = sum_{i+j=k} A^i A^j, the span of all those products at once; the
    # sequence is weakly decreasing, but a single plateau is not provably
    # stationary, so stop only at zero, at a three-step plateau of equal
    # subspaces, or at a generous depth cap
    for k in range(2, 4 * n + 5):
        acc = Subspace([t.apply([u, w]) for i in range(1, k) for u in powers[i - 1].basis
                        for w in powers[k - i - 1].basis], n, A.dom)
        powers.append(acc)
        if acc.dim == 0:
            break
        if len(powers) >= 3 and powers[-1] == powers[-2] == powers[-3]:
            break
    return powers


def structure_report(A, op=None, grading=None, grading_modulus=None):
    """Power filtration, derived series, annihilators, center, verdicts.

    grading: optional list of (degree, Subspace) parts; the report then says
    whether products of homogeneous parts land in the sum-degree part.
    """
    powers = _powers(A, op)
    n = A.dim
    full = powers[0]
    power_dims = [p.dim for p in powers]
    nilpotent = power_dims[-1] == 0
    nilpotency_index = len(power_dims) if nilpotent else None

    t = A.op(op)
    derived = [full]
    for _ in range(2 * n + 2):
        nxt = Subspace([t.apply([u, w]) for u in derived[-1].basis for w in derived[-1].basis],
                       n, A.dom)
        derived.append(nxt)
        if nxt.dim == 0 or nxt.dim == derived[-2].dim:
            break
    derived_dims = [d.dim for d in derived]
    solvable = derived_dims[-1] == 0
    solvability_index = len(derived_dims) if solvable else None

    ann_l = annihilator_subspace(A, "left", op)
    ann_r = annihilator_subspace(A, "right", op)
    ann_2 = annihilator_subspace(A, "two_sided", op)
    report = {
        "dim": n,
        "power_dims": power_dims,
        "nilpotent": nilpotent,
        "nilpotency_index": nilpotency_index,
        "derived_dims": derived_dims,
        "solvable": solvable,
        "solvability_index": solvability_index,
        "annihilator": {"left": ann_l.dim, "right": ann_r.dim,
                        "two_sided": ann_2.dim},
        "center_dim": ann_2.dim,
        "commutative_center_dim": commutative_center_subspace(A, op).dim,
    }
    if grading is not None:
        report["grading_ok"], report["grading_witness"] = \
            verify_grading(A, grading, op, modulus=grading_modulus)
    return report


def verify_grading(A, grading, op=None, modulus=None):
    """Products of homogeneous parts must land in the sum-degree part.

    grading: list of (degree, Subspace); degrees may repeat (parts are
    summed first).  modulus grades by Z/m (e.g. 2 for the standard
    embedding's two-graded structure).  Works for any arity.
    """
    t = A.op(op)
    dom = A.dom
    vectors = {}
    for deg, sub in grading:
        vectors.setdefault(deg % modulus if modulus else deg, []).extend(sub.basis)
    parts = {deg: Subspace(vecs, A.dim, dom) for deg, vecs in vectors.items()}
    if Subspace([v for _, sub in grading for v in sub.basis], A.dim, dom).dim != A.dim:
        return False, {"reason": "parts do not span"}
    degs = sorted(parts)
    for combo in itertools.product(degs, repeat=t.arity):
        target_deg = sum(combo) % modulus if modulus else sum(combo)
        target = parts.get(target_deg, Subspace([], A.dim, dom))
        for bases in itertools.product(*[parts[d].basis for d in combo]):
            v = t.apply(bases)
            if not target.contains_vector(v):
                return False, {"degrees": list(combo), "product": v}
    return True, None


# ---------------------------------------------------------------------------
# characteristic sequence
# ---------------------------------------------------------------------------

def _jordan_blocks(ranks):
    """Block sizes, largest first, of a nilpotent matrix whose powers
    M^0, M^1, ... have the given ranks, ending at 0."""
    # ranks[k - 1] - ranks[k] blocks have size >= k
    geq = [a - b for a, b in zip(ranks, ranks[1:])] + [0]
    return tuple(k for k in range(len(geq) - 1, 0, -1) for _ in range(geq[k - 1] - geq[k]))


def _jordan_type_nilpotent(M, dom, n):
    """Block-size multiset of a nilpotent matrix from ranks of powers."""
    ranks, power = [n, rank(M, dom)], M
    while ranks[-1] > 0:
        power = mat_mul(power, M, dom)
        ranks.append(rank(power, dom))
    return _jordan_blocks(ranks)


def characteristic_sequence(A, op=None):
    """C(A) = lex-max over x in A \\ A^2 of the Jordan type of R_x.

    The lex maximum is the generic Jordan type (ranks of powers are
    generically maximal).  Over Q it is computed exactly from certified
    ranks over Q(x) (``linalg.generic_rank``), and the witness is the first
    of the basis vectors and EXTRA_SAMPLES seeded samples outside A^2 that
    attains it, or None.  Over GF(p) the sequence is the lex maximum over
    those candidates, with the first that attains it.
    """
    powers = _powers(A, op)
    if powers[-1].dim:
        raise DomainError("characteristic sequence needs a nilpotent algebra")
    dom = A.dom
    n = A.dim
    rng = random.Random(SAMPLE_SEED)
    candidates = [A.basis_vector(i) for i in range(n)]
    for _ in range(EXTRA_SAMPLES):
        candidates.append([dom.from_int(rng.randint(-9, 9)) for _ in range(n)])
    types = ((x, _jordan_type_nilpotent(multiplication_operator(A, (x,), op), dom, n))
             for x in candidates if not powers[1].contains_vector(x))
    if dom is QQ:
        best = _symbolic_jordan_type(A, op)
        witness = next((x for x, jt in types if jt == best), None)
    else:
        witness, best = max(types, key=lambda pair: pair[1])
    return {"sequence": list(best), "witness": witness}


def _symbolic_jordan_type(A, op):
    """Jordan type of the generic R_x = sum_a x_a R_{e_a}, from the ranks of
    its powers over Q(x), each certified by ``generic_rank``."""
    n = A.dim
    R = linear_pencil([multiplication_operator(A, (a,), op) for a in range(n)])
    ranks, power = [n], R
    while True:
        ranks.append(generic_rank(power, seeded_points(SAMPLE_SEED, n, 9))[0])
        if ranks[-1] == 0:
            return _jordan_blocks(ranks)
        power = mat_mul(power, R, PolyRing(n))


# ---------------------------------------------------------------------------
# multiplicative bases and the standard embedding
# ---------------------------------------------------------------------------

def multiplicative_basis_check(A, op=None):
    """Is every product of basis elements a scalar multiple of a basis element?"""
    t = A.op(op)
    for args in itertools.product(range(A.dim), repeat=t.arity):
        row = t.basis_product(args)
        if len(row) > 1:
            return False, {"tuple": list(args),
                           "product": {k: c for k, c in row.items()}}
    return True, None


def standard_embedding(T, op=None):
    """L + T for a ternary algebra T, with L = span{ad(x,y)} as matrices.

    Products (phi = id, trivial grading): (D,0)(E,0) = ([D,E],0),
    (D,0)(0,w) = (0, Dw), (0,z)(E,0) = (0,-Ez), (0,z)(0,w) = (ad(z,w),0).
    Closure of [L, L] inside L is verified; it holds whenever T satisfies the
    3-Leibniz identity and is reported as an error otherwise.
    """
    if T.op(op).arity != 3:
        raise DomainError("standard embedding needs a ternary operation")
    dom = T.dom
    n = T.dim
    ad = {(x, y): multiplication_operator(T, (x, y), op, slot=2)
          for x in range(n) for y in range(n)}
    Lspace = Subspace([[c for row in M for c in row] for M in ad.values()], n * n, dom)
    s = Lspace.dim
    Lbasis = [[[v[i * n + j] for j in range(n)] for i in range(n)]
              for v in Lspace.basis]

    def coords(M, failure):
        vec = Lspace.coordinates(c for row in M for c in row)
        if vec is None:
            raise DomainError(failure)
        return dict(enumerate(vec))

    dim = s + n
    table = {}
    for a, D in enumerate(Lbasis):
        for b, E in enumerate(Lbasis):
            table[(a, b)] = coords(mat_sub(mat_mul(D, E, dom), mat_mul(E, D, dom)),
                                   "[L, L] does not close inside L")
        for w in range(n):
            table[(a, s + w)] = {s + k: D[k][w] for k in range(n)}
            table[(s + w, a)] = {s + k: -D[k][w] for k in range(n)}
    for (z, w), M in ad.items():
        table[(s + z, s + w)] = coords(M, "ad(z,w) escapes L (inconsistent basis)")
    emb = Algebra(f"{T.name}-embedding", dim,
                  {"mul": StructureTensor(dim, 2, table, dom)}, dom)
    emb.l_dim = s
    emb.grading = [(0, Subspace([emb.basis_vector(k) for k in range(s)], dim, dom)),
                   (1, Subspace([emb.basis_vector(s + k) for k in range(n)], dim, dom))]
    return emb
