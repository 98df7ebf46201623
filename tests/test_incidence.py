import gc
import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import incidence
from nonassoc.catalog import catalog_get
from nonassoc.incidence import (HigherDerivationSeq, Poset, SigmaMap,
                                all_posets_up_to, antichain_poset,
                                chain_constant_check, chain_poset, crown_poset,
                                exhaustive_sigma_equiv, hd_basic_inner,
                                hd_compose, hd_identity, hd_inner, hd_inverse,
                                hd_factorization_verify,
                                higher_derivation_check, incidence_algebra,
                                incidence_unit_vector,
                                poisson_sigma_equiv_test, sigma_bracket,
                                sigma_tilde, check_higher_transitive)
from nonassoc.identities import Identity
from nonassoc.linalg import Subspace, identity_matrix, kernel, mat_eq, mat_mul
from nonassoc.operators import derivation_space
from nonassoc.scalars import GF, QQ, DomainError
from nonassoc.varieties import check_variety, minus_algebra


def test_poset_rejects_preorders():
    with pytest.raises(DomainError):
        Poset(["a", "b"], [["a", "b"], ["b", "a"]])


def _reference_closure(n, covers):
    """Reference: the order of ``Poset`` as it was closed, a triple loop
    repeated until nothing changes; None when it is not antisymmetric."""
    leq = [[i == j for j in range(n)] for i in range(n)]
    for a, b in covers:
        leq[a][b] = True
    changed = True
    while changed:
        changed = False
        for i in range(n):
            for j in range(n):
                if leq[i][j]:
                    for k in range(n):
                        if leq[j][k] and not leq[i][k]:
                            leq[i][k] = True
                            changed = True
    if any(i != j and leq[i][j] and leq[j][i] for i in range(n) for j in range(n)):
        return None
    return leq


def test_warshall_closure_matches_the_repeated_loop():
    """400 random cover sets on 1-7 elements, pairs drawn at random and
    often cyclic: the closed order is the repeated loop's, and a set that
    loop finds not antisymmetric is refused; both kinds occur often."""
    rng = random.Random(11)
    refused = 0
    for _ in range(400):
        n = rng.randint(1, 7)
        covers = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 2 * n))]
        want = _reference_closure(n, covers)
        if want is None:
            refused += 1
            with pytest.raises(DomainError, match="not antisymmetric"):
                Poset(range(n), covers)
        else:
            assert Poset(range(n), covers).leq == want
    assert 100 <= refused <= 300, refused


def test_poset_closure_and_chains():
    P = Poset(["a", "b", "c"], [["a", "b"], ["b", "c"]])
    assert P.le("a", "c")
    assert P.maximal_chains() == [(0, 1, 2)]
    cr = crown_poset()
    chains = cr.maximal_chains()
    assert len(chains) == 4 and all(len(c) == 2 for c in chains)


def _recursive_maximal_chains(P):
    """Poset.maximal_chains as a recursive closure, the reference for the
    chain order."""
    minimal = [i for i in range(P.n) if not any(j != i and P.leq[j][i] for j in range(P.n))]
    chains = []

    def extend(chain):
        nxt = P.covers_of(chain[-1])
        if not nxt:
            chains.append(tuple(chain))
            return
        for j in nxt:
            extend(chain + [j])

    for i in minimal:
        extend([i])
    return chains


def test_maximal_chains_keep_the_recursive_order():
    posets = all_posets_up_to(5) + [crown_poset(), chain_poset(4), antichain_poset(3)]
    assert len(posets) == 87 + 3
    for P in posets:
        assert P.maximal_chains() == _recursive_maximal_chains(P), P.elements


def test_sweep_leaves_no_reference_cycles():
    """The chain walk of every sweep and chain-constancy check is freed by
    reference counting, so a sweep leaves nothing for the cyclic garbage
    collector."""
    gc.collect()
    gc.disable()
    try:
        for P in (crown_poset(), chain_poset(3), all_posets_up_to(4)[-1]):
            exhaustive_sigma_equiv(P, 3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_incidence_matches_uppertri():
    for n in (2, 3, 4):
        A = incidence_algebra(chain_poset(n))
        B = catalog_get("uppertri", {"n": n})
        assert A.dim == B.dim
        assert A.op("mul") == B.op("mul")


def test_incidence_associative_unital():
    for P in [crown_poset(), antichain_poset(3),
              Poset(["a", "b", "c", "d"], [["a", "b"], ["a", "c"], ["b", "d"], ["c", "d"]])]:
        A = incidence_algebra(P)
        assert check_variety(A, "associative")["holds"]
        delta = incidence_unit_vector(A)
        t = A.op("mul")
        for j in range(A.dim):
            ej = A.basis_vector(j)
            assert t.apply([delta, ej]) == ej
            assert t.apply([ej, delta]) == ej


def test_antichain_diagonal():
    A = incidence_algebra(antichain_poset(4))
    assert A.dim == 4
    t = A.op("mul")
    for i in range(4):
        assert t.basis_product((i, i)) == {i: 1}
        for j in range(4):
            if i != j:
                assert t.basis_product((i, j)) == {}


def test_crown_dim():
    assert incidence_algebra(crown_poset()).dim == 8


def test_sigma_bracket_is_commutator_when_constant_one():
    P = chain_poset(3)
    A = incidence_algebra(P)
    sig = SigmaMap(P, {p: 1 for p in P.strict_pairs()})
    B = sigma_bracket(P, sig)
    assert B == minus_algebra(A).op("mul")


def test_sigma_zero_bracket():
    P = chain_poset(3)
    sig = SigmaMap(P, {p: 0 for p in P.strict_pairs()})
    assert sigma_bracket(P, sig).is_zero()


def test_crown_bracket_not_standard():
    """sigma supported on a single crown pair gives a nonzero bracket that
    is no scalar multiple of the commutator (so not a standard structure)."""
    cr = crown_poset()
    vals = {p: 0 for p in cr.strict_pairs()}
    vals[("1", "3")] = 1
    sig = SigmaMap(cr, vals)
    B = sigma_bracket(cr, sig)
    assert not B.is_zero()
    A = incidence_algebra(cr)
    comm = minus_algebra(A).op("mul")
    for lam in (Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(2)):
        assert B != comm.scale(lam)
    # and it is a Poisson structure: the crown has height one
    rep = poisson_sigma_equiv_test(cr, sig)
    assert rep["poisson"] and rep["agree"]


def test_chain_constant_check():
    P = chain_poset(3)
    sig = SigmaMap(P, {("1", "2"): 1, ("2", "3"): 0, ("1", "3"): 0})
    ok, wit = chain_constant_check(P, sig)
    assert not ok and wit["chain"] == ["1", "2", "3"]
    sig = SigmaMap(P, {p: 7 for p in P.strict_pairs()})
    assert chain_constant_check(P, sig)[0]
    # on the crown every sigma is constant on chains (height one)
    cr = crown_poset()
    sig = SigmaMap(cr, {p: i for i, p in enumerate(cr.strict_pairs())})
    assert chain_constant_check(cr, sig)[0]


def test_equivalence_direct():
    P = chain_poset(3)
    sig = SigmaMap(P, {p: Fraction(5) for p in P.strict_pairs()})
    rep = poisson_sigma_equiv_test(P, sig)
    assert rep["agree"] and rep["poisson"] and rep["chain_constant"]
    sig = SigmaMap(P, {("1", "2"): 1, ("2", "3"): 0, ("1", "3"): 0})
    rep = poisson_sigma_equiv_test(P, sig)
    assert rep["agree"] and not rep["poisson"] and not rep["chain_constant"]
    cr = crown_poset()
    sig = SigmaMap(cr, {p: Fraction(i - 2, 3) for i, p in
                        enumerate(cr.strict_pairs())})
    rep = poisson_sigma_equiv_test(cr, sig)
    assert rep["agree"] and rep["poisson"]


def test_sweep_cross_validates_direct_route():
    rng = random.Random(7)
    g3 = GF(3)
    for P in [chain_poset(3), crown_poset(),
              Poset(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]])]:
        sw = exhaustive_sigma_equiv(P, 3)
        assert sw["agree"]
        for _ in range(4):
            vals = {p: g3.from_int(rng.randint(0, 2)) for p in P.strict_pairs()}
            sig = SigmaMap(P, vals, g3)
            rep = poisson_sigma_equiv_test(P, sig, g3)
            assert rep["agree"]
            # the sweep and the direct route count the same verdicts
            assert rep["poisson"] == rep["chain_constant"]


def test_sweep_counts_on_chain():
    # on a chain every sigma must be globally constant: p^1 of them pass
    r = exhaustive_sigma_equiv(chain_poset(4), 3)
    assert r["total"] == 3 ** 6
    assert r["chain_constant_count"] == 3
    assert r["poisson_count"] == 3
    assert r["agree"]


def _random_poset(rng, n):
    """Random poset on n elements: transitive closure of random upper pairs."""
    rel = set()
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < 0.35:
                rel.add((i, j))
    changed = True
    while changed:
        changed = False
        for (a, b) in list(rel):
            for (c, d) in list(rel):
                if b == c and (a, d) not in rel:
                    rel.add((a, d))
                    changed = True
    covers = []
    for (a, b) in rel:
        if not any((a, c) in rel and (c, b) in rel for c in range(n)):
            covers.append([str(a), str(b)])
    return Poset([str(i) for i in range(n)], covers)


def test_biconditional_on_random_rational_sigmas():
    """Random rational sigma on 20 random posets with <= 7 elements
    agree in both directions."""
    rng = random.Random(20240812)
    for trial in range(20):
        P = _random_poset(rng, rng.choice([6, 7]))
        strict = P.strict_pairs()
        if trial % 2 == 0 and P.maximal_chains():
            # constant sigma: the Poisson side must come out true
            c = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            sig = SigmaMap(P, {p: c for p in strict})
        else:
            sig = SigmaMap(P, {p: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                               for p in strict})
        rep = poisson_sigma_equiv_test(P, sig)
        assert rep["agree"], (P.to_json(), sig.to_json())


def test_poset_enumeration_counts():
    posets = all_posets_up_to(5)
    from collections import Counter
    counts = Counter(p.n for p in posets)
    assert counts == {1: 1, 2: 2, 3: 5, 4: 16, 5: 63}


def _all_posets_by_every_relabelling(nmax):
    """all_posets_up_to before the degree classes: each candidate's form is
    the least relabelled relation over all n! relabellings."""
    out = []
    for n in range(1, nmax + 1):
        upper = [(i, j) for i in range(n) for j in range(i + 1, n)]
        seen = set()
        for bits in range(1 << len(upper)):
            rel = {upper[k] for k in range(len(upper)) if bits >> k & 1}
            if any(b == c and (a, d) not in rel for (a, b) in rel for (c, d) in rel):
                continue
            canon = min(tuple(sorted((p[a], p[b]) for (a, b) in rel))
                        for p in itertools.permutations(range(n)))
            if canon not in seen:
                seen.add(canon)
                out.append((n, rel))
    return out


def test_poset_enumeration_matches_every_relabelling():
    """The same posets in the same order for n <= 6 (405 posets)."""
    got = [(P.n, {(int(a), int(b)) for a, b in P.strict_pairs()}) for P in all_posets_up_to(6)]
    assert len(got) == 405
    assert got == _all_posets_by_every_relabelling(6)


def test_sweep_rejects_char_two():
    with pytest.raises(DomainError):
        exhaustive_sigma_equiv(chain_poset(3), 2)


def test_sweep_resource_bound():
    with pytest.raises(DomainError):
        exhaustive_sigma_equiv(chain_poset(7), 3)  # 3^21 assignments


def test_sweep_gf5():
    r = exhaustive_sigma_equiv(chain_poset(3), 5)
    assert r["agree"] and r["chain_constant_count"] == 5


# ---------------------------------------------------------------------------
# the GF(p) sweep against slow references
# ---------------------------------------------------------------------------

_POSETS = all_posets_up_to(5) + [crown_poset()]


def _reference_forms(P):
    """The nb^3 triple loop the composable-triple forms replaced."""
    pairs = P.pairs()
    idx = {p: a for a, p in enumerate(pairs)}
    strict = P.strict_pairs()
    sidx = {p: a for a, p in enumerate(strict)}

    def br(p, q):
        (x, y), (u, v) = p, q
        out = []
        if y == u and x != v:
            out.append((idx[(x, v)], sidx[(x, v)], 1))
        if v == x and u != y:
            out.append((idx[(u, y)], sidx[(u, y)], -1))
        return out

    def mulp(p, q):
        (x, y), (u, v) = p, q
        if y == u:
            return idx[(x, v)]
        return None

    linear = set()
    quadratic = set()
    for f in pairs:
        for g in pairs:
            for h in pairs:
                acc = {}
                gh = mulp(g, h)
                if gh is not None:
                    for out, s, sign in br(f, pairs[gh]):
                        acc[(out, s)] = acc.get((out, s), 0) + sign
                for mid, s, sign in br(f, g):
                    prod = mulp(pairs[mid], h)
                    if prod is not None:
                        acc[(prod, s)] = acc.get((prod, s), 0) - sign
                for mid, s, sign in br(f, h):
                    prod = mulp(g, pairs[mid])
                    if prod is not None:
                        acc[(prod, s)] = acc.get((prod, s), 0) - sign
                rows = {}
                for (out, s), c in acc.items():
                    if c:
                        rows.setdefault(out, {})[s] = c
                for row in rows.values():
                    linear.add(tuple(sorted(row.items())))
                acc = {}
                for (a, b, c) in ((f, g, h), (g, h, f), (h, f, g)):
                    for mid, s1, sign1 in br(a, b):
                        for out, s2, sign2 in br(pairs[mid], c):
                            key = (out, (min(s1, s2), max(s1, s2)))
                            acc[key] = acc.get(key, 0) + sign1 * sign2
                rows = {}
                for (out, ss), c in acc.items():
                    if c:
                        rows.setdefault(out, {})[ss] = c
                for row in rows.values():
                    quadratic.add(tuple(sorted(row.items())))
    return [dict(r) for r in linear], [dict(r) for r in quadratic]


def _row_set(rows):
    return {tuple(sorted(r.items())) for r in rows}


def _brute_force_sets(P, p, forms=_reference_forms):
    """Indices t = sum_k sigma_k p^k of the Poisson and of the
    chain-constant sigmas, every assignment evaluated on its own."""
    strict = P.strict_pairs()
    sidx = {q: a for a, q in enumerate(strict)}
    linear, quadratic = forms(P)
    equal = []
    for chain in P.maximal_chains():
        elems = [P.elements[i] for i in chain]
        cp = [sidx[(elems[a], elems[b])]
              for a in range(len(elems)) for b in range(a + 1, len(elems))]
        equal += [(cp[0], other) for other in cp[1:]]
    poisson, const = set(), set()
    for t, rev in enumerate(itertools.product(range(p), repeat=len(strict))):
        d = rev[::-1]
        if all(d[a] == d[b] for a, b in equal):
            const.add(t)
        if (all(sum(c * d[j] for j, c in row.items()) % p == 0
                for row in linear)
                and all(sum(c * d[a] * d[b] for (a, b), c in row.items()) % p == 0
                        for row in quadratic)):
            poisson.add(t)
    return poisson, const


def _brute_force_sweep(P, p, forms=_reference_forms):
    """The report of ``exhaustive_sigma_equiv`` from ``_brute_force_sets``."""
    strict = P.strict_pairs()
    poisson, const = _brute_force_sets(P, p, forms)
    counterexample = None
    if poisson != const:
        t = min(poisson ^ const)
        counterexample = {q: t // p ** k % p for k, q in enumerate(strict)}
    return {"poset": P.to_json(), "p": p, "total": p ** len(strict),
            "chain_constant_count": len(const), "poisson_count": len(poisson),
            "agree": poisson == const, "counterexample": counterexample}


def test_forms_match_the_triple_loop():
    for P in _POSETS:
        linear, quadratic = incidence._leibniz_jacobi_forms(P)
        ref_linear, ref_quadratic = _reference_forms(P)
        assert _row_set(linear) == _row_set(ref_linear), P
        assert _row_set(quadratic) == _row_set(ref_quadratic), P
        assert len(linear) == len(ref_linear)
        assert len(quadratic) == len(ref_quadratic)


def test_sweep_matches_brute_force():
    for p, cap in ((3, 3 ** 10), (5, 20_000), (7, 20_000)):
        for P in _POSETS:
            if p ** len(P.strict_pairs()) <= cap:
                assert exhaustive_sigma_equiv(P, p) == _brute_force_sweep(P, p), (P, p)


def test_sweep_without_jacobi_rows_enumerates_nothing(monkeypatch):
    """On the 33 posets (of 88) with strict pairs but no Jacobi row, the
    Leibniz and chain-constant kernels are compared as canonical subspaces
    and the counts come back as p^dim without a vector being enumerated;
    over GF(7) that includes the two height-one posets with s = 6.  Over
    GF(3) no poset of the 88 enumerates: the kernels agree on each, and
    each Jacobi row is decided on the Leibniz kernel's basis."""
    posets = [P for P in _POSETS
              if P.strict_pairs() and not incidence._leibniz_jacobi_forms(P)[1]]
    monkeypatch.setattr(incidence, "_span_indices", None)
    for P in posets:
        for p in (3, 7):
            if p ** len(P.strict_pairs()) <= 4_000_000:
                rep = exhaustive_sigma_equiv(P, p)
                assert rep["agree"] and rep["poisson_count"] == rep["chain_constant_count"]
    assert len(posets) == 33 and max(len(P.strict_pairs()) for P in posets) == 6
    for P in _POSETS:
        rep = exhaustive_sigma_equiv(P, 3)
        assert rep["agree"] and rep["poisson_count"] == rep["chain_constant_count"], P


def _span_decision(rows, space):
    """Does every quadratic row vanish at every vector of the span?"""
    p = space.dom.p
    return all(sum(c * v[s1] * v[s2] for (s1, s2), c in row.items()) % p == 0
               for v in incidence._span_indices(space).values() for row in rows)


def _product_row(f, g):
    """The quadratic row of the product of two linear forms (dense lists)."""
    row = {}
    for (a, x), (b, y) in itertools.product(enumerate(f), enumerate(g)):
        if x and y:
            key = (min(a, b), max(a, b))
            row[key] = row.get(key, 0) + x * y
    return row


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3, 5, 7]), st.integers(0, 2**32))
def test_basis_decision_matches_the_span(p, seed):
    """``_vanishes_on`` against every vector of the span, on subspaces of
    dimension at most 4 and rows of three kinds: random monomials (in
    either order), products of two random linear forms (zero on the space
    exactly when one factor is, which leaves q(b_i) = 0 on many basis
    vectors while a polar value B_q(b_i, b_j) is not), and products with a
    factor that vanishes on the space."""
    rng = random.Random(seed)
    dom = GF(p)
    n = rng.randint(1, 6)
    space = Subspace([[dom.from_int(rng.randrange(p) if rng.random() < 0.7 else 0)
                       for _ in range(n)] for _ in range(rng.randint(0, 4))], n, dom)
    ann = kernel([{j: x.v for j, x in enumerate(b) if x.v} for b in space.basis], n, dom)

    def form(vanishing):
        """A random linear form, from the annihilator of the space if
        vanishing (and the annihilator is not zero)."""
        if vanishing and ann.dim:
            v = [0] * n
            for b in ann.basis:
                c = rng.randrange(p)
                v = [(x + c * y.v) % p for x, y in zip(v, b)]
            return v
        return [rng.randrange(p) if rng.random() < 0.6 else 0 for _ in range(n)]

    rows = []
    for _ in range(rng.randint(1, 3)):
        kind = rng.randrange(3)
        if kind == 0:
            rows.append({(rng.randrange(n), rng.randrange(n)): rng.randint(1, p - 1)
                         for _ in range(rng.randint(1, 3))})
        else:
            rows.append(_product_row(form(False), form(kind == 2)))
    assert incidence._vanishes_on(rows, space) == _span_decision(rows, space)


def test_sweep_evaluates_jacobi_rows_when_the_kernels_agree(monkeypatch):
    """An extra quadratic row on posets whose Leibniz and chain-constant
    kernels agree: only the quadratic rows cut the Poisson set there, so
    equal kernels alone must not settle the sweep.  sigma_0^2 = 0 is
    nonzero at a basis vector; sigma_0 sigma_1 = 0, where the two pairs lie
    on no common chain, is zero at each basis vector and not on their span,
    so a polar value decides it."""
    real = incidence._leibniz_jacobi_forms
    cases = [({(0, 0): 1}, (Poset(["a", "b"], [["a", "b"]]),
                            Poset(["a", "b", "c"], [["a", "b"], ["a", "c"]]), chain_poset(3))),
             ({(0, 1): 1}, (Poset(["a", "b", "c"], [["a", "b"], ["a", "c"]]),
                            Poset(["a", "b", "c", "d"], [["a", "b"], ["c", "d"]]),
                            Poset(["a", "b", "c", "d"], [["a", "b"], ["a", "c"], ["b", "d"]])))]
    for row, posets in cases:
        def extra(P, forms=real, row=row):
            linear, quadratic = forms(P)
            return linear, quadratic + [row]

        monkeypatch.setattr(incidence, "_leibniz_jacobi_forms", extra)
        for P in posets:
            got = exhaustive_sigma_equiv(P, 3)
            assert got == _brute_force_sweep(P, 3, lambda P: extra(P, _reference_forms))
            assert not got["agree"]


def test_brute_force_matches_direct_route():
    """Every assignment on the posets with at most three strict pairs: the
    forms' verdicts against the Poisson check of the sigma-bracket itself."""
    g3 = GF(3)
    for P in _POSETS:
        strict = P.strict_pairs()
        if len(strict) > 3:
            continue
        poisson, const = _brute_force_sets(P, 3)
        for t, rev in enumerate(itertools.product(range(3), repeat=len(strict))):
            sig = SigmaMap(P, {q: g3.from_int(d) for q, d in zip(strict, rev[::-1])}, g3)
            rep = poisson_sigma_equiv_test(P, sig, g3)
            assert (rep["poisson"], rep["chain_constant"]) == (t in poisson, t in const)


def test_sweep_reports_the_lowest_counterexample(monkeypatch):
    """Without the Leibniz rows in one sigma value the biconditional can
    fail (no single row matters: the rows are redundant); the sweep and the
    brute force then give the same counts and the same lowest-index sigma.
    Dropping the Jacobi rows as well changes some counts, so the quadratic
    forms are evaluated on this path too."""
    real = incidence._leibniz_jacobi_forms
    disagree = jacobi_cuts = 0
    for P in (chain_poset(3), chain_poset(4),
              Poset(["a", "b", "c", "d"], [["a", "b"], ["b", "c"], ["a", "d"]])):
        for u in range(len(P.strict_pairs())):
            counts = set()
            for keep_jacobi in (True, False):
                def mutilated(P, forms=real, u=u, keep=keep_jacobi):
                    linear, quadratic = forms(P)
                    return [r for r in linear if u not in r], quadratic if keep else []
                monkeypatch.setattr(incidence, "_leibniz_jacobi_forms", mutilated)
                got = exhaustive_sigma_equiv(P, 3)
                want = _brute_force_sweep(P, 3, lambda P: mutilated(P, _reference_forms))
                assert got == want, (P, u, keep_jacobi)
                disagree += not got["agree"]
                counts.add(got["poisson_count"])
            jacobi_cuts += len(counts) > 1
    assert disagree and jacobi_cuts


# ---------------------------------------------------------------------------
# higher derivations
# ---------------------------------------------------------------------------

def _factorial_sequence(A, d, N):
    mats = [identity_matrix(A.dim, QQ)]
    cur = identity_matrix(A.dim, QQ)
    fact = 1
    for n in range(1, N + 1):
        cur = mat_mul(cur, d, QQ)
        fact *= n
        mats.append([[x / fact for x in row] for row in cur])
    return HigherDerivationSeq(A, mats)


def test_factorial_sequences_are_higher_derivations():
    for name, params in [("uppertri", {"n": 2}), ("uppertri", {"n": 3})]:
        A = catalog_get(name, params)
        for d in derivation_space(A).matrices():
            seq = _factorial_sequence(A, d, 4)
            ok, wit = higher_derivation_check(A, seq)
            assert ok, (name, wit)


def test_hd_group_axioms_random():
    rng = random.Random(23)
    A = catalog_get("uppertri", {"n": 2})
    ders = derivation_space(A).matrices()

    def random_hd():
        # product of factorial sequences and inner sequences is a valid HD
        seq = _factorial_sequence(A, ders[rng.randrange(len(ders))], 4)
        r = [Fraction(rng.randint(-2, 2)) for _ in range(A.dim)]
        seq = hd_compose(seq, hd_basic_inner(A, r, rng.randint(1, 3), 4))
        return seq

    e = hd_identity(A, 4)
    for _ in range(6):
        d1, d2, d3 = random_hd(), random_hd(), random_hd()
        assert higher_derivation_check(A, d1)[0]
        # associativity and identity
        lhs = hd_compose(hd_compose(d1, d2), d3)
        rhs = hd_compose(d1, hd_compose(d2, d3))
        assert all(mat_eq(a, b, QQ) for a, b in zip(lhs.mats, rhs.mats))
        assert all(mat_eq(a, b, QQ) for a, b in
                   zip(hd_compose(d1, e).mats, d1.mats))
        assert all(mat_eq(a, b, QQ) for a, b in
                   zip(hd_compose(e, d1).mats, d1.mats))
        inv = hd_inverse(d1)
        prod = hd_compose(d1, inv)
        assert all(mat_eq(a, b, QQ) for a, b in zip(prod.mats, e.mats))
        prod = hd_compose(inv, d1)
        assert all(mat_eq(a, b, QQ) for a, b in zip(prod.mats, e.mats))
        # (d' * d'')_1 = d'_1 + d''_1
        sum1 = [[x + y for x, y in zip(r1, r2)]
                for r1, r2 in zip(d1.mats[1], d2.mats[1])]
        assert mat_eq(hd_compose(d1, d2).mats[1], sum1, QQ)


def _tupled_hd_law(n):
    """incidence._hd_law before it was DSL text."""
    x, y = ("v", "x"), ("v", "y")
    terms = [(1, (f"d{n}", (("*", (x, y)),)))]
    terms += [(-1, ("*", ((f"d{i}", (x,)), (f"d{n - i}", (y,))))) for i in range(n + 1)]
    return Identity(terms, {"*": 2, **{f"d{i}": 1 for i in range(n + 1)}})


@pytest.mark.parametrize("n", range(1, 6))
def test_hd_law_is_the_former_term_tuple(n):
    new, old = incidence._hd_law(n), _tupled_hd_law(n)
    assert (new.terms, new.variables, new.signature) == (old.terms, old.variables, old.signature)


def test_hd_check_rejects_non_derivation():
    A = catalog_get("uppertri", {"n": 2})
    E11 = [[Fraction(1), Fraction(0), Fraction(0)],
           [Fraction(0), Fraction(0), Fraction(0)],
           [Fraction(0), Fraction(0), Fraction(0)]]
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    seq = HigherDerivationSeq(A, [identity_matrix(3, QQ), E11, zero])
    ok, wit = higher_derivation_check(A, seq)
    assert not ok and wit == {"n": 1, "pair": (0, 0)}
    # factorial sequences of a derivation with one entry of d_k bumped by
    # +-1; the witnesses were recorded with the hand-written loop this check
    # replaced (None: the bump happens to keep a higher derivation)
    rng = random.Random(5)
    for name, want in [("sl2", (2, (0, 1))), ("heis3", None),
                       ("sl2", (2, (0, 2))), ("heis3", None),
                       ("sl2", (1, (0, 1))), ("heis3", (1, (0, 1)))]:
        B = catalog_get(name)
        ders = derivation_space(B).matrices()
        seq = _factorial_sequence(B, ders[rng.randrange(len(ders))], 3)
        k, i, j = rng.randint(1, 3), rng.randrange(B.dim), rng.randrange(B.dim)
        seq.mats[k][i][j] += rng.choice([-1, 1])
        ok, wit = higher_derivation_check(B, seq)
        assert (ok, wit) == ((True, None) if want is None else
                             (False, {"n": want[0], "pair": want[1]})), name


def test_inner_first_component_is_ad():
    A = catalog_get("uppertri", {"n": 2})
    r = [Fraction(0), Fraction(1), Fraction(0)]  # e12
    seq = hd_inner(A, [r, [Fraction(0)] * 3, [Fraction(0)] * 3,
                       [Fraction(0)] * 3], 4)
    from nonassoc.operators import multiplication_operator
    L, R = (multiplication_operator(A, (r,), slot=s) for s in (1, 0))
    ad = [[L[i][j] - R[i][j]
           for j in range(3)] for i in range(3)]
    assert mat_eq(seq.mats[1], ad, QQ)
    assert higher_derivation_check(A, seq)[0]


def _random_transitive_map(P, A, rng, N):
    """On a chain: sigma from products of interval generating series."""
    elems = P.elements
    m = len(elems)
    gens = {}
    for k in range(m - 1):
        gens[k] = [Fraction(1)] + [Fraction(rng.randint(-3, 3))
                                   for _ in range(N)]
    def series(x, y):
        # product of gens over the covered steps, truncated
        out = [Fraction(1)] + [Fraction(0)] * N
        for k in range(x, y):
            g = gens[k]
            new = [Fraction(0)] * (N + 1)
            for i in range(N + 1):
                for j in range(N + 1 - i):
                    new[i + j] += out[i] * g[j]
            out = new
        return out
    levels = []
    for n in range(N + 1):
        level = {}
        for (a, b) in A.incidence_pairs:
            x, y = elems.index(a), elems.index(b)
            level[(a, b)] = series(x, y)[n]
        levels.append(level)
    return levels


def test_lemma_26_sigma_tilde_on_chains():
    rng = random.Random(5)
    for m in (2, 3, 4):
        P = chain_poset(m)
        A = incidence_algebra(P)
        for _ in range(5):
            levels = _random_transitive_map(P, A, rng, 4)
            assert check_higher_transitive(P, levels)[0]
            st = sigma_tilde(A, levels)
            ok, wit = higher_derivation_check(A, st)
            assert ok, wit


def test_factorization_verify():
    rng = random.Random(9)
    P = chain_poset(3)
    A = incidence_algebra(P)
    levels = _random_transitive_map(P, A, rng, 4)
    st = sigma_tilde(A, levels)
    rho = [[Fraction(rng.randint(-2, 2)) for _ in range(A.dim)]
           for _ in range(4)]
    d = hd_compose(hd_inner(A, rho, 4), st)
    assert higher_derivation_check(A, d)[0]
    ok, _ = hd_factorization_verify(A, d, rho, levels)
    assert ok
    # a mismatched rho is rejected
    rho_bad = [list(r) for r in rho]
    rho_bad[0] = [x + 1 for x in rho_bad[0]]
    ok, _ = hd_factorization_verify(A, d, rho_bad, levels)
    assert not ok


def test_trivial_factorization_cases():
    P = chain_poset(3)
    A = incidence_algebra(P)
    # d = sigma~ with rho = 0
    rng = random.Random(2)
    levels = _random_transitive_map(P, A, rng, 3)
    st = sigma_tilde(A, levels)
    zero_rho = [[Fraction(0)] * A.dim for _ in range(3)]
    assert hd_factorization_verify(A, st, zero_rho, levels)[0]
    # d = Delta_rho with trivial sigma
    trivial = [{p: 1 for p in A.incidence_pairs}] + \
              [{p: 0 for p in A.incidence_pairs} for _ in range(3)]
    rho = [[Fraction(rng.randint(-2, 2)) for _ in range(A.dim)]
           for _ in range(3)]
    inner = hd_inner(A, rho, 3)
    assert hd_factorization_verify(A, inner, rho, trivial)[0]


def test_sigma_tilde_rejects_non_transitive():
    P = chain_poset(3)
    A = incidence_algebra(P)
    bad = [{p: 1 for p in A.incidence_pairs},
           {p: 1 for p in A.incidence_pairs}]
    # sigma_1 constant 1 fails transitivity on the long pair (needs 2)
    assert not check_higher_transitive(P, bad)[0]
    with pytest.raises(DomainError):
        sigma_tilde(A, bad)


def _sigma_bracket_reference(P, sigma, dom):
    """sigma_bracket as built before StructureTensor dropped the zeros: each
    entry filtered by hand and signed through dom.zero()."""
    strict = P.strict_pairs()
    _, br = incidence._sigma_tables(P)
    table = {}
    for key in sorted(br):
        k, s, sign = br[key]
        c = sigma.values[strict[s]]
        if not dom.is_zero(c):
            table[key] = {k: dom.zero() + c if sign > 0 else dom.zero() - c}
    return table


@pytest.mark.parametrize("dom", [QQ, GF(5)])
def test_sigma_bracket_matches_reference(dom):
    rng = random.Random(dom.name)
    for P in all_posets_up_to(4):
        for _ in range(3):
            sigma = SigmaMap(P, {q: rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)])
                                 for q in P.strict_pairs()}, dom)
            assert sigma_bracket(P, sigma, dom).table == _sigma_bracket_reference(P, sigma, dom)


# ---------------------------------------------------------------------------
# the series products and the chain-pair walk against the loops they replaced
# ---------------------------------------------------------------------------

def _hd_compose_reference(d1, d2):
    """hd_compose with its own accumulator loop."""
    A = d1.A
    dom = A.dom
    out = []
    for n in range(d1.order + 1):
        acc = [[dom.zero()] * A.dim for _ in range(A.dim)]
        for i in range(n + 1):
            prod = mat_mul(d1.mats[i], d2.mats[n - i], dom)
            acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, prod)]
        out.append(acc)
    return out


def _hd_inverse_reference(d):
    """hd_inverse with its own accumulator loop."""
    A = d.A
    dom = A.dom
    inv = [identity_matrix(A.dim, dom)]
    for n in range(1, d.order + 1):
        acc = [[dom.zero()] * A.dim for _ in range(A.dim)]
        for i in range(1, n + 1):
            prod = mat_mul(d.mats[i], inv[n - i], dom)
            acc = [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(acc, prod)]
        inv.append([[-x for x in row] for row in acc])
    return inv


def _random_sequence(A, rng, order):
    """d_0 = id and order random matrices with small entries (no higher
    derivation in general: the series products do not need one)."""
    dom = A.dom
    mats = [identity_matrix(A.dim, dom)]
    mats += [[[dom.coerce(rng.choice([0, 0, 1, -1, 2, Fraction(1, 2)]) if dom is QQ
                          else rng.randint(0, 6)) for _ in range(A.dim)]
              for _ in range(A.dim)] for _ in range(order)]
    return HigherDerivationSeq(A, mats)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.integers(2, 3), st.integers(0, 4),
       st.integers(0, 2**32))
def test_series_products_match_the_accumulator_loops(dom, dim, order, seed):
    """``hd_compose`` and ``hd_inverse`` equal the loops they replaced, on
    random sequences of dim 2-3 and order <= 4 over Q and GF(7)."""
    rng = random.Random(seed)
    A = incidence_algebra(antichain_poset(dim), dom)
    d1, d2 = _random_sequence(A, rng, order), _random_sequence(A, rng, order)
    assert hd_compose(d1, d2).mats == _hd_compose_reference(d1, d2)
    assert hd_inverse(d1).mats == _hd_inverse_reference(d1)


def _chain_constant_reference(P, sigma):
    """chain_constant_check with its own loop over the pairs of each chain."""
    for chain in P.maximal_chains():
        vals = []
        elems = [P.elements[i] for i in chain]
        for a in range(len(elems)):
            for b in range(a + 1, len(elems)):
                vals.append(((elems[a], elems[b]), sigma.values[(elems[a], elems[b])]))
        for (p, v) in vals[1:]:
            if not sigma.dom.is_zero(v - vals[0][1]):
                return False, {"chain": elems, "pair": p, "expected": vals[0][1], "got": v}
    return True, None


def _chain_rows_reference(P):
    """The chain-constancy rows of the sweep with their own loop."""
    sidx = {q: a for a, q in enumerate(P.strict_pairs())}
    equal = []
    for chain in P.maximal_chains():
        elems = [P.elements[i] for i in chain]
        cpairs = [sidx[(elems[a], elems[b])]
                  for a in range(len(elems)) for b in range(a + 1, len(elems))]
        equal += [{cpairs[0]: 1, other: -1} for other in cpairs[1:]]
    return equal


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2**32))
def test_chain_pair_walk_matches_the_chain_loops(seed):
    """On every poset with at most 4 elements ``chain_constant_check``
    gives the verdict and witness of the former loop, on sigmas that are
    mostly constant, so both verdicts and witnesses at each pair occur."""
    rng = random.Random(seed)
    g3 = GF(3)
    for P in all_posets_up_to(4):
        for _ in range(2):
            sigma = SigmaMap(P, {q: rng.choice([1, 1, 1, 2]) for q in P.strict_pairs()}, g3)
            assert chain_constant_check(P, sigma) == _chain_constant_reference(P, sigma)


def test_sweep_chain_rows_and_counts_match_the_chain_loop():
    """On every poset with at most 4 elements the chain walk gives the
    former chain rows in order, and the sweep the count of their kernel."""
    for P in all_posets_up_to(4):
        strict = P.strict_pairs()
        equal = [{strict.index(first): 1, strict.index(q): -1}
                 for _, first, q in incidence._chain_pairs(P)]
        assert equal == _chain_rows_reference(P)
        want = 3 ** kernel(_chain_rows_reference(P), len(strict), GF(3)).dim
        assert exhaustive_sigma_equiv(P, 3)["chain_constant_count"] == want
