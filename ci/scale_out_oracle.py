"""Scale-out oracle: published and recorded answers on cases larger than
tier-1 reaches.

M_5(Q)^+ is Jordan and M_5(Q)^- is Lie: 25-dimensional scans of orbit
representatives; M_6(Q)^+ is Jordan (36-dimensional; the polarized law's
last variable is generic, so the scan runs over C(38, 3) prefixes); the
octonions' commutator algebra O^- is Malcev and is not Lie; Filippov's
D(7) is 6-Lie, a law whose last run is antisymmetric of length 5, so the
generic element takes only the indices above the prefix's last one (on a
2-vCPU x86 host, with every product formed per basis tuple, these took
4.0 s, 0.08 s, 0.003 s and 0.57 s; with the last variable generic, 0.28 s,
0.03 s, 0.003 s and 0.51 s; with each operation's scan form built once
for all the laws of a check, D(7) takes 0.03-0.05 s); Filippov's D(8) is
7-Lie, 22 laws over one 7-ary bracket of 40,320 entries (0.2-0.3 s on that
host, against 3.7-5.3 s when each law built the bracket's scan form and
proved its antisymmetry again); Der M_6(Q) = sl_6 (35), Der U(3) = 6 and
Der U(4) = 12 through the integer rows (the U(4) value recorded from this
library, not published); the table of U(4) built from the linear rows equals the one of
a Kantor product per basis pair for u = v_1 (4096 products); the derived
subalgebra of the 4-ary derivations of D(4) is sl_4 (15) in every slot; the
sigma/Poisson biconditional holds over GF(5) on all 87
posets with 5^s <= 4,000,000 (s strict pairs) and over GF(7) on all 77 with
7^s <= 4,000,000; all_posets_up_to(6) gives 1, 2, 5, 16, 63 and 318
posets of 1 to 6 points (OEIS A000112), and the biconditional holds over
GF(3) on the 399 of those 405 with 3^s <= 4,000,000; LDer_2(M7) holds
no invertible map (certified generic rank < 7); the local derivations of
a seeded rebased M_3(Q) are its 8 derivations, with the generic rank
certified; U(3) is conservative and not terminal, with a 24-dimensional
value space, a quasi-unit and 24-dimensional quasi-unit and Jacobi
element spaces; the ternary M8 and D3, rebased by a seeded P, come back
equal under P^-1; rebased by that P, the 4-ary
derivations of D3, the octonions and M8 keep their dims 31, 30 and 24, and
Der of rebased D3 is 21: every kernel there lifts only after several CRT
primes; their slot projection dims, derived dim and derived projection dims,
trivial dim, quotient dim and trivial_contained are basis invariants and
equal those in the canonical basis (ranks certified through the smaller
kernel after a rebasing), and all three contain their trivial tuples, a
check made against the rows that gave the pivots at a later prime than the
first; the Der and the centroid each of them reads off those rows, its
slot blocks folded, equal derivation_space and centroid of the rebased
algebra; the standard embedding of M8
has dim 36 with L of dim 28 and a Z/2 grading (values recorded from this
library before its table was rebuilt from multiplication_operator, not
published; tier-1 embeds only dims <= 4); Der of Filippov's n-Lie algebras
D(7) and D(8) is so(7) (21) and so(8) (28), from the strictly increasing
basis tuples; the commuting maps of M_6(Q) are x -> cx + f(x)1 (1 + 36 =
37); the commutative products compatible with uppertri(3)^-, rebased by a
seeded P, keep their dim 7, and every associativity obstruction vanishes at
the 27 products sum_a c_a S_a (two c_a in {1, -1, 2}, the rest 0) that
check_variety finds associative in the canonical basis, moved by P and read
in the rebased basis (900 obstructions over Q[c]); the obstructions of
abelian(4) (192 polynomials in 40 variables, the widest packed monomial
keys) and of heis3 rebased by a seeded P print as recorded with
tuple-keyed monomials (sha256 of the lines); every catalog algebra
checked against every binary variety gives equal reports with the law
caches emptied before each check (cold) and with them full (warm), in one
process; the inner higher derivation of order 4 of M_4(Q) for the r
sequence of random.Random(1) with entries in [-2, 2] passes the higher
derivation check, its maps d_0..d_4 bound as arity-1 operations (16 x 16,
beyond tier-1's sizes; 0.02 s for both checks on that host), and with
d_2[0][1] raised by 1 it fails first at n = 2; ternaryJordan(7) and
ternaryJordan(8) are n-ary Jordan, each one scan of the law "[R_x, R_y] is
a derivation" (0.5-1.5 s each on that host); a seeded random totally
commutative ternary algebra of dim 4 is not, and its first failing pair of
basis tuples, left (0, 0) and right (1, 2), was recorded at the commit
before that law, from the loop of multiplication-operator commutators
tested against the derivation space; the central extensions of NF(6)
rebased by a seeded P (dim 7 or 8, beyond tier-1's sizes), by each of the
6 canonical basis vectors of its Leibniz Z2, by the sum of the basis of
B2 and by the first and last Z2 vectors as two slots, report
annihilator_component_trivial and ann_dim (True, 1) six times, then
(False, 2) and (True, 2) (recorded from this library at the commit before
that check was read off one span, with Subspace.intersect).

Every condition is evaluated; each failing one is printed by name with the
value it got, and the exit status is 1 if any failed.  Run from the
repository root:

    PYTHONPATH=src timeout 300 python3 ci/scale_out_oracle.py
"""

import hashlib
import itertools
import random
import sys
from fractions import Fraction

from nonassoc import identities, operators
from nonassoc.catalog import CATALOG_NAMES, catalog_get
from nonassoc.deform import Cocycle, central_extension, cocycle_space
from nonassoc.incidence import (HigherDerivationSeq, all_posets_up_to, crown_poset,
                                exhaustive_sigma_equiv, hd_inner, higher_derivation_check)
from nonassoc.invariants import standard_embedding, structure_report
from nonassoc.kantor import (alpha_index, build_U, conservativity_test, jacobi_element_space,
                             kantor_product, quasi_unit_space)
from nonassoc.linalg import Subspace, inverse, is_invertible
from nonassoc.operators import (centroid, commuting_map_space, derivation_space,
                                generalized_derivation_space, leibniz_derivation_space,
                                local_derivation_generic_space)
from nonassoc.poisson import transposed_compatible_space
from nonassoc.scalars import DomainError
from nonassoc.structure import Algebra, StructureTensor, change_basis
from nonassoc.varieties import BINARY_VARIETIES, check_variety, minus_algebra, plus_algebra

# parameters for the catalog entries that need them
CATALOG_PARAMS = {"abelian": {"n": 2}, "NF": {"n": 3}, "filiform1p": {"n": 4},
                  "matrix": {"n": 2}, "uppertri": {"n": 2}, "ternaryJordan": {"n": 3},
                  "A_n": {"n": 3}, "D": {"dim": 5}, "A_alpha": {"alpha": 2},
                  "zinbiel-free1": {"n": 3}, "R": {"seq": (2, 1)}}


def seeded_basis(n):
    rng = random.Random(1)
    while not is_invertible(P := [[Fraction(rng.randint(-9, 9)) for _ in range(n)]
                                  for _ in range(n)]):
        pass
    return P


def round_trip(A):
    P = seeded_basis(A.dim)
    return change_basis(change_basis(A, P), inverse(P)).op() == A.op()


def flat(S):
    return [S.basis_product((i, j)).get(k, 0) for i in range(6) for j in range(i, 6)
            for k in range(6)]


def generic(basis, c):
    table = {}
    for ca, S in zip(c, basis):
        for args, row in S.table.items():
            dst = table.setdefault(args, {})
            for k, v in row.items():
                dst[k] = dst.get(k, 0) + ca * v
    return Algebra("p", 6, {"mul": StructureTensor(6, 2, table)})


def obstruction_digest(A):
    """sha256 of the associativity obstructions of the products compatible
    with A, printed one per line."""
    text = "\n".join(map(str, transposed_compatible_space(A)["obstructions"]))
    return hashlib.sha256(text.encode()).hexdigest()


def per_pair_U(n):
    """The table of U(n) for u = v_1 from one Kantor product per basis pair."""
    basis = [StructureTensor(n, 2, {(i, j): {k: Fraction(1)}})
             for i in range(n) for j in range(n) for k in range(n)]
    table = {}
    for a, b in itertools.product(range(n ** 3), repeat=2):
        prod = kantor_product(basis[a], basis[b], 0)
        table[(a, b)] = {alpha_index(i + 1, j + 1, k + 1, n): c
                         for (i, j), row in prod.table.items() for k, c in row.items()}
    return StructureTensor(n ** 3, 2, table)


def generalized_parts(B):
    """The 4-ary derivations of B and the (Der, centroid) that
    ``generalized_derivation_space`` reads off the rows of its kernel, as
    ``operators._trivial_parts`` returns them."""
    parts = []
    trivial_parts = operators._trivial_parts
    operators._trivial_parts = lambda *args: parts.append(trivial_parts(*args)) or parts[-1]
    try:
        return generalized_derivation_space(B, "full"), parts[0]
    finally:
        operators._trivial_parts = trivial_parts


def variety_report(A, name):
    try:
        return check_variety(A, name)
    except DomainError as exc:
        return repr(exc)


def cold_and_warm_differences():
    """(catalog name, variety) of each binary variety check of a catalog
    algebra whose report with the law caches emptied first differs from its
    report with them full."""
    algebras = [(name, catalog_get(name, CATALOG_PARAMS.get(name, {}))) for name in CATALOG_NAMES]
    checks = [(name, A, variety) for name, A in algebras for variety in sorted(BINARY_VARIETIES)]
    cold = []
    for _, A, variety in checks:
        identities._polarized.cache_clear()
        identities._law.cache_clear()
        cold.append(variety_report(A, variety))
    return [(name, variety) for (name, A, variety), report in zip(checks, cold)
            if variety_report(A, variety) != report]


def inner_higher_derivation_checks():
    """``higher_derivation_check`` of the inner higher derivation of order 4
    of M_4(Q) for the r sequence of random.Random(1) with entries in
    [-2, 2], and of the same sequence with d_2[0][1] raised by 1."""
    M4 = catalog_get("matrix", {"n": 4})
    rng = random.Random(1)
    seq = hd_inner(M4, [[Fraction(rng.randint(-2, 2)) for _ in range(M4.dim)] for _ in range(4)], 4)
    bumped = [[list(row) for row in m] for m in seq.mats]
    bumped[2][0][1] += 1
    return (higher_derivation_check(M4, seq),
            higher_derivation_check(M4, HigherDerivationSeq(M4, bumped)))


def seeded_totally_commutative(dim, arity):
    """The operation taking each multiset of basis indices, with probability
    1/5, to a row of entries in [-2, 2] (else to 0), in every order; drawn
    from random.Random(1)."""
    rng = random.Random(1)
    table = {}
    for idx in itertools.combinations_with_replacement(range(dim), arity):
        row = {k: Fraction(rng.randint(-2, 2)) for k in range(dim)} if rng.random() < 0.2 else {}
        for perm in itertools.permutations(idx):
            table[perm] = row
    return Algebra("tc", dim, {"mul": StructureTensor(dim, arity, table)})


def rebased_nf6_extensions():
    """(annihilator_component_trivial, ann_dim) of the central extensions of
    NF(6) rebased by ``seeded_basis(6)``: by each canonical basis vector of
    its Leibniz Z2, by the sum of the basis of B2 (a coboundary, so split),
    and by the first and last Z2 vectors as two slots."""
    B = change_basis(catalog_get("NF", {"n": 6}), seeded_basis(6))
    res = cocycle_space(B, "leibniz")
    z2 = res["Z2"].basis

    def form(v):
        return [v[i * 6:(i + 1) * 6] for i in range(6)]

    thetas = [[form(z)] for z in z2] + [[form([sum(c) for c in zip(*res["B2"].basis)])],
                                        [form(z2[0]), form(z2[-1])]]
    reports = [central_extension(B, Cocycle(theta))[1] for theta in thetas]
    return [(rep["annihilator_component_trivial"], rep["ann_dim"]) for rep in reports]


def conditions():
    """(name, value got, value wanted) of every condition."""
    m5 = catalog_get("matrix", {"n": 5})
    meta = generalized_derivation_space(catalog_get("D", {"dim": 4}), "full").meta
    posets = all_posets_up_to(5) + [crown_poset()]
    gf5 = [P for P in posets if 5 ** len(P.strict_pairs()) <= 4_000_000]
    gf7 = [P for P in posets if 7 ** len(P.strict_pairs()) <= 4_000_000]
    six = all_posets_up_to(6)
    gf3_six = [P for P in six if 3 ** len(P.strict_pairs()) <= 4_000_000]
    P = seeded_basis(9)
    loc = local_derivation_generic_space(change_basis(catalog_get("matrix", {"n": 3}), P))
    U3 = build_U(3)
    U4 = build_U(4)
    cons = conservativity_test(U3)
    quasi, quasi_particular = quasi_unit_space(U3)
    rebased = {name: change_basis(catalog_get(name), seeded_basis(8))
               for name in ("D3", "octonions", "M8")}
    gder, gder_parts = {}, {}
    for name, B in rebased.items():
        gder[name], gder_parts[name] = generalized_parts(B)
    canonical_meta = {name: generalized_derivation_space(catalog_get(name), "full").meta
                      for name in rebased}
    invariants = ("projection_dims", "derived_dim", "derived_projection_dims", "trivial_dim",
                  "quotient_dim", "trivial_contained")
    emb = standard_embedding(catalog_get("M8"))
    ut3 = minus_algebra(catalog_get("uppertri", {"n": 3}))
    P6 = seeded_basis(6)
    tps_canonical = transposed_compatible_space(ut3)
    tps = transposed_compatible_space(change_basis(ut3, P6))
    tps_flats = [flat(S) for S in tps["basis"]]
    tps_space = Subspace(tps_flats, len(tps_flats[0]))
    moved = [tps_space.coordinates(flat(change_basis(B, P6).op()))
             for support in itertools.combinations(range(7), 2)
             for values in itertools.product((1, -1, 2), repeat=2)
             for c in [[dict(zip(support, values)).get(a, 0) for a in range(7)]]
             for B in [generic(tps_canonical["basis"], c)]
             if check_variety(B, "associative")["holds"]]
    yield "M_5^+ is Jordan", check_variety(plus_algebra(m5), "jordan")["holds"], True
    yield "M_5^- is Lie", check_variety(minus_algebra(m5), "lie")["holds"], True
    yield "M_6^+ is Jordan", \
        check_variety(plus_algebra(catalog_get("matrix", {"n": 6})), "jordan")["holds"], True
    o_minus = minus_algebra(catalog_get("octonions"))
    yield "O^- is Malcev", check_variety(o_minus, "malcev")["holds"], True
    yield "O^- is Lie", check_variety(o_minus, "lie")["holds"], False
    yield "D(7) is 6-Lie", check_variety(catalog_get("D", {"dim": 7}), "6-lie")["holds"], True
    yield "D(8) is 7-Lie", check_variety(catalog_get("D", {"dim": 8}), "7-lie")["holds"], True
    yield "dim Der M_6", derivation_space(catalog_get("matrix", {"n": 6})).dim, 35
    yield "dim Der U(3)", derivation_space(U3).dim, 6
    yield "dim Der U(4)", derivation_space(U4).dim, 12
    yield "U(4) equals its per-pair Kantor products", U4.op().table == per_pair_U(4).table, True
    yield "derived dim of GDer D(4)", meta["derived_dim"], 15
    yield "derived projection dims of GDer D(4)", meta["derived_projection_dims"], [15] * 4
    yield "posets with 5^s <= 4,000,000", len(gf5), 87
    yield "GF(5) posets where the sigma biconditional fails", \
        [P.elements for P in gf5 if not exhaustive_sigma_equiv(P, 5)["agree"]], []
    yield "posets with 7^s <= 4,000,000", len(gf7), 77
    yield "GF(7) posets where the sigma biconditional fails", \
        [P.elements for P in gf7 if not exhaustive_sigma_equiv(P, 7)["agree"]], []
    yield "posets on at most 6 points, by size (OEIS A000112)", \
        [sum(P.n == n for P in six) for n in range(1, 7)], [1, 2, 5, 16, 63, 318]
    yield "posets on at most 6 points with 3^s <= 4,000,000, and those where the GF(3) " \
        "sigma biconditional fails", \
        (len(gf3_six), [P.to_json() for P in gf3_six
                        if not exhaustive_sigma_equiv(P, 3)["agree"]]), (399, [])
    yield "LDer_2(M7) has an invertible map", \
        leibniz_derivation_space(catalog_get("M7"), 2).meta["invertible_exists"], False
    yield "dim of the local derivations of rebased M_3", loc.dim, 8
    yield "their generic rank is certified", loc.meta["certified"], True
    yield "U(3) is conservative", cons.feasible, True
    yield "U(3) is terminal", cons.terminal, False
    yield "dim of the U(3) value space", cons.homogeneous.dim, 24
    yield "dim of the U(3) quasi-unit space", quasi.dim, 24
    yield "U(3) has a quasi-unit", quasi_particular is not None, True
    yield "dim of the U(3) Jacobi element space", jacobi_element_space(U3).dim, 24
    yield "rebased M8 comes back under P^-1", round_trip(catalog_get("M8")), True
    yield "rebased D3 comes back under P^-1", round_trip(catalog_get("D3")), True
    yield "dims of GDer of the rebased ternary algebras", \
        {name: g.dim for name, g in gder.items()}, {"D3": 31, "octonions": 30, "M8": 24}
    yield "GDer invariants that differ from the canonical basis", \
        [(name, k) for name, g in gder.items() for k in invariants
         if g.meta[k] != canonical_meta[name][k]], []
    yield "rebased GDer that do not contain their trivial tuples", \
        [name for name, g in gder.items() if not g.meta["trivial_contained"]], []
    yield "rebased GDer whose Der is not derivation_space", \
        [name for name, (der, _) in gder_parts.items()
         if der.subspace != derivation_space(rebased[name]).subspace], []
    yield "rebased GDer whose centroid is not centroid", \
        [name for name, (_, cen) in gder_parts.items()
         if cen.subspace != centroid(rebased[name]).subspace], []
    yield "dim Der of rebased D3", derivation_space(rebased["D3"]).dim, 21
    yield "dim of the standard embedding of M8", emb.dim, 36
    yield "dim of its L", emb.l_dim, 28
    yield "its Z/2 grading holds", structure_report(emb, grading=emb.grading,
                                                    grading_modulus=2)["grading_ok"], True
    yield "dim Der D(7)", derivation_space(catalog_get("D", {"dim": 7})).dim, 21
    yield "dim Der D(8)", derivation_space(catalog_get("D", {"dim": 8})).dim, 28
    yield "dim of the commuting maps of M_6", \
        commuting_map_space(catalog_get("matrix", {"n": 6})).dim, 37
    yield "dims of the compatible products of rebased and canonical uppertri(3)^-", \
        (tps["dim"], tps_canonical["dim"]), (7, 7)
    yield "the rebased compatible basis is canonical", tps_space.basis == tps_flats, True
    yield "associative products moved by P", len(moved), 27
    yield "associativity obstructions", len(tps["obstructions"]), 900
    yield "obstructions nonzero at a moved associative product", \
        sum(p.eval(c) != 0 for c in moved for p in tps["obstructions"]), 0
    yield "sha256 of the obstructions of abelian(4) and rebased heis3", \
        [obstruction_digest(A) for A in (catalog_get("abelian", {"n": 4}),
                                         change_basis(catalog_get("heis3"), seeded_basis(3)))], \
        ["f94a41f5c837d6ded6300485858320abc7c92a73d6ca58a3d246bf38b3e70790",
         "d830cb23e0d2021a9d525e616768baecd5e236b230f909183c26d23b7ae80d5f"]
    yield "catalog variety reports that differ cold and warm", cold_and_warm_differences(), []
    inner, bumped = inner_higher_derivation_checks()
    yield "the inner higher derivation of order 4 of M_4 holds", inner, (True, None)
    yield "with d_2[0][1] raised by 1 it fails first at n", \
        (bumped[0], (bumped[1] or {}).get("n")), (False, 2)
    yield "ternaryJordan(7) and (8) are n-ary Jordan", \
        [check_variety(catalog_get("ternaryJordan", {"n": n}), "nary-jordan")["holds"]
         for n in (7, 8)], [True, True]
    yield "the first failing pair of a seeded totally commutative ternary algebra", \
        check_variety(seeded_totally_commutative(4, 3), "nary-jordan")["failures"], \
        [{"left_tuple": [0, 0], "right_tuple": [1, 2]}]
    yield "annihilator components of the central extensions of rebased NF(6)", \
        rebased_nf6_extensions(), [(True, 1)] * 6 + [(False, 2), (True, 2)]


def main():
    total = failed = 0
    for name, got, want in conditions():
        total += 1
        # booleans and None as identities, as ``is True`` checks them
        if not (got is want if isinstance(want, bool) else got == want):
            failed += 1
            print(f"FAILED {name}: got {got!r}, want {want!r}")
    print(f"{total - failed} of {total} conditions hold")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
