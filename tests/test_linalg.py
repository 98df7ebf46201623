import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import linalg
from nonassoc.catalog import catalog_get
from nonassoc.identities import check_identity, parse_identity
from nonassoc.linalg import (Subspace, generic_rank, inverse, is_invertible, kernel,
                             linear_pencil, mat_mul, nullspace, nullspace_sparse_q,
                             rank, rref, seeded_points, solve)
from nonassoc.operators import derivation_space
from nonassoc.scalars import GF, QQ, QT, DomainError, Poly, PolyRing, RatFunc
from nonassoc.structure import change_basis
from test_linear_conditions import bind_maps


def test_nullspace_zero_matrix():
    # nullspace of the zero 2x2 map is the whole plane, given as zero rows
    # (empty or holding zeros) or as no rows at all
    assert kernel([{}, {}], 2).dim == 2
    assert kernel([{0: Fraction(0)}, {1: Fraction(0)}], 2).dim == 2
    assert kernel([], 2).basis == [[1, 0], [0, 1]]


def test_rank_over_qt():
    t = RatFunc.t_power(1)
    m = [[t, QT.zero()], [QT.zero(), QT.one()]]
    assert rank(m, QT) == 2


def test_nullspace_forced():
    m = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    basis = nullspace(m, 2, QQ)
    assert len(basis) == 1
    # canonical form scales the leading entry to 1: (1, -1/2)
    v = basis[0]
    assert v[0] * 2 + v[1] * 4 == 0 and v[0] == 1


def test_solve_modes():
    # x0 + x1 = 3, x1 = 1: one solution and a zero kernel
    rows = {0: {0: Fraction(1), 1: Fraction(1)}, 1: {1: Fraction(1)}}
    [x] = solve(rows, [{0: Fraction(3), 1: Fraction(1)}], 2)
    assert x[0] + x[1] == 3 and x[1] == 1
    assert kernel(list(rows.values()), 2).dim == 0
    # [0 1 | 1] and [0 0 | 1] (a zero row) are inconsistent
    assert solve({0: {1: Fraction(0)}}, [{0: Fraction(1)}], 2) == [None]
    assert solve({}, [{0: Fraction(1)}, {}], 2) == [None, [0, 0]]
    # the rank is the column count less the kernel dimension
    assert 2 - kernel([{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}], 2).dim == 1


def _dense_solve(rows, rhs, dom=QQ):
    """Reference: the dense solve that ``linalg.solve`` replaced, one
    right-hand side at a time by the RREF of [M | b]."""
    ncols = len(rows[0]) if rows else len(rhs) * 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, dom)
    for i, row in enumerate(red):
        if i < len(pivots):
            continue
        if not dom.is_zero(row[-1]) and all(dom.is_zero(x) for x in row[:-1]):
            return None
    # a pivot in the rhs column means inconsistency
    if pivots and pivots[-1] == ncols:
        return None
    x = [dom.zero()] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][-1]
    return x


_DOMAINS = {"QQ": QQ, "GF5": GF(5), "GF7": GF(7), "QT": QT}


def _entry(dom, a, e):
    """A scalar from the drawn integers (a, e), in ``kernel`` form: a
    Fraction over Q, an integer representative over GF(p), an element with
    a power of t over Q(t)."""
    if dom is QQ:
        return Fraction(a, e + 1)
    if dom is QT:
        return QT.coerce(a) * RatFunc.t_power(e - 1)
    return a


_SYSTEMS = st.integers(1, 6).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.dictionaries(st.integers(0, ncols - 1),
                             st.tuples(st.integers(-4, 4), st.integers(0, 2))),
             max_size=ncols + 2)))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_DOMAINS)), _SYSTEMS)
def test_kernel_matches_dense_nullspace(which, system):
    """``kernel`` (sparse Q and GF(p) solvers, dense Q(t)) is the subspace of
    the dense nullspace, with the same canonical basis."""
    dom = _DOMAINS[which]
    ncols, spec = system
    rows = [{j: _entry(dom, a, e) for j, (a, e) in row.items()} for row in spec]
    dense = [[dom.zero()] * ncols for _ in rows]
    for r, row in zip(dense, rows):
        for j, c in row.items():
            r[j] = dom.coerce(c)
    got = kernel(rows, ncols, dom)
    assert got == Subspace(nullspace(dense, ncols, dom), ncols, dom)
    assert got.basis == nullspace(dense, ncols, dom)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_DOMAINS)), _SYSTEMS,
       st.lists(st.lists(st.integers(-3, 3), min_size=6, max_size=6), max_size=4),
       st.booleans())
def test_kernel_contains_matches_subspace_membership(which, system, weights, stray):
    """``kernel_contains`` is membership in the ``kernel`` subspace, for
    combinations of its basis and, with ``stray``, a vector of all ones."""
    dom = _DOMAINS[which]
    ncols, spec = system
    rows = [{j: _entry(dom, a, e) for j, (a, e) in row.items()} for row in spec]
    space = kernel(rows, ncols, dom)
    vectors = [[sum((dom.from_int(w) * b[j] for w, b in zip(ws, space.basis)), dom.zero())
                for j in range(ncols)] for ws in weights]
    if stray:
        vectors.append([dom.one()] * ncols)
    assert linalg.kernel_contains(rows, vectors, dom) is \
        all(space.contains_vector(v) for v in vectors)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(sorted(_DOMAINS)), _SYSTEMS,
       st.lists(st.tuples(st.booleans(), st.lists(st.integers(-3, 3), min_size=8, max_size=8)),
                min_size=1, max_size=3))
def test_solve_matches_dense_solve(which, system, rhs_specs):
    """The factor-once ``solve`` gives, for every right-hand side, the
    answer of the dense reference: None for an inconsistent system (also
    one with a nonzero value at a zero row), else the same particular
    solution.  Consistent right-hand sides are drawn as M y."""
    dom = _DOMAINS[which]
    ncols, spec = system
    rows = {i: {j: _entry(dom, a, e) for j, (a, e) in row.items()} for i, row in enumerate(spec)}
    nkeys = len(rows) + 1   # the last key has no row: a zero row
    dense = [[dom.zero()] * ncols for _ in range(nkeys)]
    for i, row in rows.items():
        for j, c in row.items():
            dense[i][j] = dom.coerce(c)
    rhss = []
    for consistent, ints in rhs_specs:
        if consistent:
            y = [dom.from_int(v) for v in ints[:ncols]]
            b = [sum((x * v for x, v in zip(r, y)), dom.zero()) for r in dense]
        else:
            b = [dom.from_int(v) for v in ints[:nkeys]] + [dom.zero()] * (nkeys - len(ints))
        rhss.append(b)
    got = solve(rows, [dict(enumerate(b)) for b in rhss], ncols, dom)
    assert got == [_dense_solve(dense, b, dom) for b in rhss]


def test_inverse_and_singular():
    m = [[Fraction(2), Fraction(1)], [Fraction(1), Fraction(1)]]
    minv = inverse(m, QQ)
    assert mat_mul(m, minv, QQ) == [[1, 0], [0, 1]]
    with pytest.raises(DomainError):
        inverse([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]], QQ)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.lists(st.integers(-4, 4), min_size=3, max_size=3),
                min_size=1, max_size=4),
       st.integers(0, 5))
def test_subspace_canonical_equality(rows, seed):
    """Subspaces built from different spanning sets of the same space agree."""
    rng = random.Random(seed)
    vecs = [[Fraction(x) for x in r] for r in rows]
    shuffled = list(vecs)
    rng.shuffle(shuffled)
    # random invertible recombination of the same spanning set
    recombined = list(shuffled)
    if len(recombined) >= 2:
        recombined[0] = [a + 2 * b for a, b in zip(recombined[0], recombined[1])]
    s1 = Subspace(vecs, 3)
    s2 = Subspace(recombined, 3)
    assert s1 == s2
    assert s1.dim == s2.dim


def test_subspace_ops():
    e1 = [Fraction(1), Fraction(0), Fraction(0)]
    e2 = [Fraction(0), Fraction(1), Fraction(0)]
    e3 = [Fraction(0), Fraction(0), Fraction(1)]
    a = Subspace([e1, e2], 3)
    b = Subspace([e2, e3], 3)
    assert a.intersect(b).dim == 1
    assert a.intersect(b).contains_vector(e2)
    assert a.sum(b).dim == 3
    assert a.contains(Subspace([e1], 3))
    assert not a.contains_vector(e3)


def _dense_coordinates(space, v):
    """Reference: ``Subspace.coordinates`` as it was, updating the whole
    vector for every basis row."""
    dom = space.dom
    w = list(v)
    coords = []
    for row in space.basis:
        lead = next(i for i, x in enumerate(row) if not dom.is_zero(x))
        f = w[lead]
        if not dom.is_zero(f):
            f = f / row[lead]
            w = [x - f * y for x, y in zip(w, row)]
        coords.append(f)
    return None if any(not dom.is_zero(x) for x in w) else coords


_VECTORS = st.lists(st.tuples(st.integers(-3, 3), st.integers(0, 2)), min_size=6, max_size=6)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["QQ", "GF7", "QT"]), st.integers(1, 6),
       st.lists(_VECTORS, max_size=5), st.lists(st.integers(-2, 2), min_size=5, max_size=5),
       _VECTORS)
def test_coordinates_match_dense_loop(which, ncols, spanning, weights, other):
    """Sparse ``coordinates`` agrees with the dense loop on vectors inside
    the space (a combination of its spanning set) and on a drawn vector."""
    dom = _DOMAINS[which]
    vecs = [[dom.coerce(_entry(dom, a, e)) for a, e in v[:ncols]] for v in spanning]
    space = Subspace(vecs, ncols, dom)
    inside = [sum((dom.from_int(k) * v[j] for k, v in zip(weights, vecs)), dom.zero())
              for j in range(ncols)]
    for v in (inside, [dom.coerce(_entry(dom, a, e)) for a, e in other[:ncols]]):
        assert space.coordinates(v) == _dense_coordinates(space, v)
    assert space.coordinates(inside) is not None


def _random_sparse_system(rng, nrows, ncols, density=0.3):
    rows = []
    for _ in range(nrows):
        row = {}
        for j in range(ncols):
            if rng.random() < density:
                row[j] = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        rows.append(row)
    return rows


def _dense(rows, ncols):
    out = []
    for row in rows:
        r = [Fraction(0)] * ncols
        for j, c in row.items():
            r[j] = Fraction(c)
        out.append(r)
    return out


def _sparse(vectors):
    """Dense vectors as the sparse rows ``nullspace_sparse_q`` returns."""
    return [{j: c for j, c in enumerate(v) if c} for v in vectors]


def test_fast_nullspace_matches_dense():
    rng = random.Random(11)
    for trial in range(25):
        ncols = rng.randint(1, 12)
        nrows = rng.randint(0, 18)
        rows = _random_sparse_system(rng, nrows, ncols)
        fast = nullspace_sparse_q(rows, ncols)
        slow = nullspace(_dense(rows, ncols), ncols, QQ)
        assert fast == _sparse(slow), f"trial {trial}"


def test_fast_nullspace_huge_coefficients():
    """Solutions too large for rational reconstruction at the first primes
    must still come out exactly."""
    big = 2 ** 45
    rows = [{0: big, 1: -1}, {1: big + 1, 2: -1}]
    fast = nullspace_sparse_q(rows, 3)
    assert len(fast) == 1
    v = fast[0]
    assert v[1] == big * v[0] and v[2] == (big + 1) * v[1]


def test_fast_nullspace_rational_entries():
    rows = [{0: Fraction(1, 7), 1: Fraction(3, 5)}]
    fast = nullspace_sparse_q(rows, 2)
    assert len(fast) == 1
    v = fast[0]
    assert v[0] * Fraction(1, 7) + v[1] * Fraction(3, 5) == 0


def test_fast_nullspace_over_gf():
    F = GF(5)
    m = [[F.from_int(1), F.from_int(2)], [F.from_int(2), F.from_int(4)]]
    ns = nullspace(m, 2, F)
    assert len(ns) == 1


@pytest.fixture
def solver_calls(monkeypatch):
    """Records, per elimination mod p the modular solver makes, the prime
    and the number of rows it eliminates, and counts dense fallbacks; a
    solver still running after 100 eliminations fails the test instead of
    running on."""
    calls = {"eliminations": [], "dense": 0}
    rref_mod, dense = linalg._rref_mod, linalg.nullspace

    def recording_rref_mod(rows, p):
        calls["eliminations"].append((p, len(rows)))
        assert len(calls["eliminations"]) <= 100, "no verified kernel after 100 primes"
        return rref_mod(rows, p)

    def recording_nullspace(*args, **kwargs):
        calls["dense"] += 1
        return dense(*args, **kwargs)

    monkeypatch.setattr(linalg, "_rref_mod", recording_rref_mod)
    monkeypatch.setattr(linalg, "nullspace", recording_nullspace)
    return calls


_P0 = 2 ** 61 - 1


def test_unlucky_prime_is_rejected(solver_calls):
    """Mod 2^61 - 1 the row reads x0 = 0, a wrong (lower) pivot: exact
    verification rejects that candidate, and the next prime, whose pivot
    column is higher, replaces it."""
    assert nullspace_sparse_q([{1: _P0, 0: 1}], 2) == [{0: Fraction(1), 1: Fraction(-1, _P0)}]
    primes = [p for p, _ in solver_calls["eliminations"]]
    assert primes[0] == _P0 and len(primes) > 1
    assert solver_calls["dense"] == 0


def test_better_prime_replaces_the_pivot_rows(solver_calls):
    """With a doubled copy of the row, the first prime keeps one pivot row.
    The second prime finds a higher pivot in it, so all rows are
    eliminated again there, and later primes take its one pivot row."""
    assert nullspace_sparse_q([{1: _P0, 0: 1}, {1: 2 * _P0, 0: 2}], 2) == \
        [{0: Fraction(1), 1: Fraction(-1, _P0)}]
    p1 = linalg._prime(1)
    elims = solver_calls["eliminations"]
    assert elims[:3] == [(_P0, 2), (p1, 1), (p1, 2)] and all(n == 1 for _, n in elims[3:])


# kernel (1, b/c, b/c) with numerator and denominator above 2^60
_BIG_B, _BIG_C = 2 ** 65 + 1, 2 ** 64 + 3
_BIG_ROWS = [{0: _BIG_B, 1: -_BIG_C}, {1: 1, 2: -1}]
_BIG_KERNEL = [{0: Fraction(1), 1: Fraction(_BIG_B, _BIG_C), 2: Fraction(_BIG_B, _BIG_C)}]


def test_large_kernel_entries_lift_by_crt(solver_calls):
    """Entries above 2^65 lift only from a product of several 61-bit
    primes.  The first prime eliminates every distinct row (a copy, a
    multiple and a sum of the two rows are redundant); each later prime
    eliminates only the two rows that gave its pivots."""
    rows = _BIG_ROWS + [dict(_BIG_ROWS[1]), {0: -3 * _BIG_B, 1: 3 * _BIG_C},
                        {0: _BIG_B, 1: 1 - _BIG_C, 2: -1}]
    assert nullspace_sparse_q(rows, 3) == _BIG_KERNEL
    elims = solver_calls["eliminations"]
    assert len({p for p, _ in elims}) >= 3
    assert elims[0] == (_P0, 4) and all(n == 2 for _, n in elims[1:])
    assert solver_calls["dense"] == 0


def test_entries_above_2_to_the_600(solver_calls):
    """A kernel entry b/c with b and c above 2^600 lifts only from about 20
    primes of 61 bits; it comes out exact, with one row per later prime."""
    b, c = 3 ** 400 + 2, 2 ** 640 + 1
    assert b > 2 ** 600
    rows = [{0: b, 1: -c}, {0: 2 * b, 1: -2 * c}]
    assert nullspace_sparse_q(rows, 2) == [{0: Fraction(1), 1: Fraction(b, c)}]
    elims = solver_calls["eliminations"]
    assert len(elims) >= 20 and elims[0] == (_P0, 2)
    assert all(n == 1 for _, n in elims[1:])


def test_first_prime_that_divides_a_pivot_forces_a_restart(solver_calls):
    """The second row minus the first is 2^61 - 1 at column 1: the first
    prime sees rank 1 and keeps one pivot row, whose kernel lifts and
    annihilates that row but not the other; all rows are then eliminated
    again at the next prime, which sees rank 2."""
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + _P0}]
    assert nullspace_sparse_q(rows, 3) == [{2: Fraction(1)}]
    assert solver_calls["eliminations"] == [(_P0, 2), (linalg._prime(1), 2)]


@pytest.mark.parametrize("k", [1, 2])
def test_prime_that_divides_a_whole_pivot_row_is_not_combined(solver_calls, k):
    """Mod 2^61 - 1 the rows a = q(1, 1, 0) and b agree, so a alone is the
    pivot row, whose kernel annihilates a but not b; mod the k-th prime q,
    a vanishes and b reads (1, 2, 0), of the same shape as a.  A kernel of
    b mod q combined with kernels of a would never lift.  All rows are
    eliminated at the primes after the first until one shows rank 2: at
    k = 1 that skips q, at k = 2 the second prime ends it before q."""
    q = linalg._prime(k)
    b0, b1 = (q + _P0 * ((1 - q) * pow(_P0, -1, q) % q),
              q + _P0 * ((2 - q) * pow(_P0, -1, q) % q))
    assert (b0 - q) % _P0 == (b1 - q) % _P0 == 0 and (b0 % q, b1 % q) == (1, 2)
    assert nullspace_sparse_q([{0: q, 1: q}, {0: b0, 1: b1}], 3) == [{2: Fraction(1)}]
    full = [(linalg._prime(i), 2) for i in range(3)]
    assert solver_calls["eliminations"] == (full if k == 1 else full[:2])


def test_later_prime_with_a_rank_drop_is_skipped(solver_calls):
    """The second prime divides a pivot of the three pivot rows, so it sees
    rank 2: it is skipped, and the kernel entry b/c lifts from the first,
    third and fourth primes."""
    p1 = linalg._prime(1)
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + p1}, {2: _BIG_B, 3: -_BIG_C}]
    assert nullspace_sparse_q(rows, 4) == [{2: Fraction(1), 3: Fraction(_BIG_B, _BIG_C)}]
    assert solver_calls["eliminations"] == [(linalg._prime(i), 3) for i in range(4)]


def test_prime_dividing_a_kernel_denominator_is_skipped(solver_calls):
    """The kernel (1, 1/p_1) has no reduction mod the second prime p_1,
    which divides the row's entry at its highest column, so its pivot
    there is at column 0: that prime is skipped, and the others lift
    1/p_1."""
    p1 = linalg._prime(1)
    assert nullspace_sparse_q([{0: 1, 1: -p1}], 2) == [{0: Fraction(1), 1: Fraction(1, p1)}]
    assert solver_calls["eliminations"] == [(linalg._prime(i), 1) for i in range(4)]


def test_dedup_keeps_rows_that_differ_in_one_value():
    """Rows with the same columns and different values are two rows."""
    assert nullspace_sparse_q([{0: 1, 1: 1}, {0: 1, 1: 2}, {0: 1, 1: 1}], 3) == [{2: Fraction(1)}]


def _copies(rows, spec):
    """rows followed by a copy of rows[i] scaled by s, for each (i, s) of
    spec: exact duplicates (s = 1), negated and scaled rows."""
    return rows + [{j: s * c for j, c in rows[i % len(rows)].items()} for i, s in spec if rows]


_SCALES = st.sampled_from([1, 1, -1, 2, -3, Fraction(1, 2), Fraction(-5, 3)])


@settings(max_examples=150, deadline=None)
@given(_SYSTEMS, st.lists(st.tuples(st.integers(0, 10), _SCALES), max_size=8),
       st.randoms(use_true_random=False))
def test_kernel_of_repeated_rows_matches_dense(system, spec, rng):
    """Duplicated, negated and scaled copies of the rows, shuffled in, leave
    ``nullspace_sparse_q`` equal to the dense nullspace of every row."""
    ncols, raw = system
    rows = _copies([{j: Fraction(a, e + 1) * 7 ** e for j, (a, e) in row.items()} for row in raw],
                   spec)
    rng.shuffle(rows)
    assert nullspace_sparse_q(rows, ncols) == _sparse(nullspace(_dense(rows, ncols), ncols, QQ))


_ENTRY = st.integers(-2 ** 40, 2 ** 40)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 6).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.dictionaries(
        st.integers(0, ncols - 1),
        st.one_of(_ENTRY, st.builds(Fraction, _ENTRY, st.integers(1, 2 ** 40)))),
        max_size=ncols + 2))))
def test_modular_nullspace_matches_dense(system):
    ncols, rows = system
    assert nullspace_sparse_q(rows, ncols) == _sparse(nullspace(_dense(rows, ncols), ncols, QQ))


def test_derivations_of_rebased_m3(solver_calls):
    """Der of M_3(Q) after a seeded change of basis: the kernel entries do
    not lift at the first primes, and the answer is still exact."""
    rng = random.Random(7)
    M3 = catalog_get("matrix", {"n": 3})
    while True:
        P = [[Fraction(rng.randint(-9, 9)) for _ in range(9)] for _ in range(9)]
        if is_invertible(P):
            break
    A = change_basis(M3, P)
    space = derivation_space(A)
    assert space.dim == 8
    law = parse_identity("D(x*y) - D(x)*y - x*D(y)")
    for M in space.matrices():
        bound, opmap = bind_maps(A, {"*": "mul"}, {"D": M})
        holds, witness = check_identity(bound, law, opmap)
        assert holds, witness
    assert len(solver_calls["eliminations"]) > 1 and solver_calls["dense"] == 0


@settings(max_examples=120, deadline=None)
@given(st.sampled_from([5, 7]), st.integers(1, 7).flatmap(lambda ncols: st.tuples(
    st.just(ncols),
    st.lists(st.dictionaries(st.integers(0, ncols - 1), st.integers(-40, 40)),
             max_size=ncols + 2))))
def test_modular_rows_match_dense_nullspace_over_gf(p, system):
    """Integer rows over GF(p) (any representatives, zeros included) are
    eliminated mod p; the basis is the canonical one of the dense solver."""
    ncols, rows = system
    F = GF(p)
    dense = [[F.zero()] * ncols for _ in rows]
    for r, row in zip(dense, rows):
        for j, v in row.items():
            r[j] = F.from_int(v)
    assert kernel(rows, ncols, F).basis == nullspace(dense, ncols, F)


# ---------------------------------------------------------------------------
# certified rank of sparse rows
# ---------------------------------------------------------------------------

_RANK_DOMAINS = {"Q": QQ, "GF(5)": GF(5), "GF(7)": GF(7)}


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(sorted(_RANK_DOMAINS)), _SYSTEMS,
       st.lists(st.tuples(st.integers(0, 10), _SCALES), max_size=8),
       st.integers(0, 3), st.one_of(st.none(), st.integers(0, 2)),
       st.randoms(use_true_random=False))
def test_rank_of_rows_matches_dense_rank(which, system, spec, zeros, extra, rng):
    """``rank_of_rows`` equals the dense ``rank`` over Q and GF(p) with
    duplicated, scaled and zero rows, with no bound, a met bound (extra 0)
    and a bound above the rank; tall and wide systems take the right and
    the left kernel."""
    dom = _RANK_DOMAINS[which]
    ncols, raw = system
    if dom is QQ:
        rows = [{j: Fraction(a, e + 1) * 7 ** e for j, (a, e) in row.items()} for row in raw]
        rows = _copies(rows, spec)
    else:
        rows = _copies([{j: a * 7 ** e for j, (a, e) in row.items()} for row in raw],
                       [(i, s) for i, s in spec if isinstance(s, int)])
    rows += [{} for _ in range(zeros)] + [{j: 0 for j in range(ncols)} for _ in range(zeros // 2)]
    rng.shuffle(rows)
    dense = [[dom.coerce(row.get(j, 0)) for j in range(ncols)] for row in rows]
    want = rank(dense, dom)
    bound = None if extra is None else want + extra
    assert linalg.rank_of_rows(rows, ncols, dom, bound) == want


_P0_ROWS = [{0: 1, 1: 1}, {0: 1, 1: 1 + _P0}]   # rank 2 over Q, 1 mod 2^61 - 1


@pytest.mark.parametrize("rows, ncols, bound, want, side", [
    (_P0_ROWS + [{0: 2, 1: 2}], 2, None, 2, "right"),
    (_P0_ROWS, 4, None, 2, "left"),
    (_P0_ROWS, 3, 2, 2, "left"),
    ([{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 1}], 3, 2, 2, None),
    ([{0: 1, 1: 2}, {0: 2, 1: 4}, {2: 1}], 3, None, 2, "right"),
    ([{0: 1, 1: 2, 3: 1}, {2: 1}], 4, None, 2, None),
])
def test_rank_of_rows_takes_the_smaller_verified_kernel(monkeypatch, rows, ncols, bound, want,
                                                         side):
    """A rank mod 2^61 - 1 below the least of the distinct rows, the columns
    and the bound is checked through the smaller kernel: the right kernel
    (continued from the first elimination) when there are no more columns
    than distinct rows, else the left kernel of the transposed rows.  The
    modular rank is taken as it is only when it meets that least value."""
    sides = []
    crt_kernel, nullspace_q = linalg._crt_kernel, linalg.nullspace_sparse_q
    monkeypatch.setattr(linalg, "_crt_kernel",
                        lambda rows, n, first: sides.append("right") or crt_kernel(rows, n, first))
    monkeypatch.setattr(linalg, "nullspace_sparse_q",
                        lambda r, n: sides.append("left") or nullspace_q(r, n))
    assert linalg.rank_of_rows(rows, ncols, QQ, bound) == want
    assert sides[:1] == ([side] if side else [])   # the left kernel lifts like any other


def test_rank_above_the_bound_is_refused():
    """A rank mod p above the caller's bound proves the bound wrong."""
    with pytest.raises(ValueError):
        linalg.rank_of_rows([{0: 1}, {1: 1}], 2, QQ, bound=1)
    with pytest.raises(ValueError):
        linalg.rank_of_rows([{0: 1}, {1: 1}], 2, GF(7), bound=1)


# ---------------------------------------------------------------------------
# forced columns and the pivot rows handed back with a kernel
# ---------------------------------------------------------------------------

_FORCED_ENTRY = st.one_of(st.integers(-3, 3), st.sampled_from([_P0, -2 * _P0, Fraction(3, 4)]))


@st.composite
def _forced_systems(draw):
    """(ncols, rows) with planted single-entry rows (one of them maybe a
    multiple of 2^61 - 1, zero mod p_0 but forced over Q, or a lone zero
    entry, which forces nothing), chains c_0, c_1, .. whose column c_i is
    forced only once c_{i-1} is dropped, rows with explicit zero entries,
    and random rows, shuffled."""
    ncols = draw(st.integers(1, 7))
    cols = st.integers(0, ncols - 1)
    nonzero = _FORCED_ENTRY.filter(bool)
    rows = draw(st.lists(st.dictionaries(cols, _FORCED_ENTRY), max_size=ncols + 1))
    rows += [{j: c} for j, c in draw(st.lists(st.tuples(cols, _FORCED_ENTRY), max_size=2))]
    for _ in range(draw(st.integers(0, 2))):
        chain = draw(st.lists(cols, min_size=1, max_size=4, unique=True))
        rows.append({chain[0]: draw(nonzero)})
        for a, b in zip(chain, chain[1:]):
            rows.append({a: draw(nonzero), b: draw(nonzero)})
        if draw(st.booleans()):
            rows.append({chain[-1]: draw(nonzero), draw(cols): draw(nonzero)})
    return ncols, draw(st.permutations(rows))


def _dense_rows(rows, ncols):
    return [[QQ.coerce(row.get(j, 0)) for j in range(ncols)] for row in rows]


@settings(max_examples=300, deadline=None)
@given(_forced_systems(), st.lists(st.lists(st.integers(-3, 3), min_size=7, max_size=7),
                                   max_size=3), st.booleans())
def test_forced_columns_keep_kernel_rank_and_membership(system, weights, stray):
    """``kernel``, ``rank_of_rows`` and ``kernel_contains`` over Q equal
    the dense nullspace, rank and membership on systems whose columns are
    forced by single-entry rows, directly or along a chain.  The rows
    handed back with the kernel are ncols - dim of them, have the same
    kernel, and answer membership as all the rows do."""
    ncols, rows = system
    dense = _dense_rows(rows, ncols)
    want = nullspace(dense, ncols, QQ)
    space, pivot_rows = linalg.kernel_and_rows(rows, ncols)
    assert space.basis == want
    assert linalg.rank_of_rows(rows, ncols) == rank(dense, QQ)
    assert len(pivot_rows) == ncols - space.dim
    assert kernel(pivot_rows, ncols) == space
    vectors = [[sum((Fraction(w) * b[j] for w, b in zip(ws, want)), Fraction(0))
                for j in range(ncols)] for ws in weights]
    if stray:
        vectors.append([Fraction(1)] * ncols)
    inside = all(space.contains_vector(v) for v in vectors)
    assert linalg.kernel_contains(rows, vectors) is inside
    assert linalg.kernel_contains(pivot_rows, vectors) is inside


@settings(max_examples=300, deadline=None)
@given(_forced_systems())
def test_forced_columns_are_dropped_to_a_fixpoint(system):
    """``_distinct_int_rows`` gives integer rows with the row space of the
    input: each forced column once as {j: 1}, first and in increasing
    order, then distinct rows of two or more nonzero entries holding no
    forced column (so no single-entry row is left to force another)."""
    ncols, rows = system
    out = linalg._distinct_int_rows(rows)
    forced = [next(iter(row)) for row in out if len(row) == 1]
    assert out[:len(forced)] == [{j: 1} for j in sorted(forced)]
    rest = out[len(forced):]
    assert all(len(row) >= 2 and all(type(c) is int and c for c in row.values())
               and not set(forced) & row.keys() for row in rest)
    assert len({frozenset(row.items()) for row in rest}) == len(rest)
    given_rank = rank(_dense_rows(rows, ncols), QQ)
    assert rank(_dense_rows(out, ncols), QQ) == given_rank
    assert rank(_dense_rows(rows + out, ncols), QQ) == given_rank


def test_a_chain_of_forced_columns_is_followed_to_its_end():
    """Column 0 is forced at once, column 1 once column 0 is dropped and
    column 2 once column 1 is: three rounds.  A lone zero entry forces
    nothing, and a single entry of 2^61 - 1, zero mod p_0, forces its
    column over Q."""
    rows = [{2: 5, 1: -1}, {3: 1, 4: 1, 2: 7}, {0: 3}, {0: 1, 1: 2}, {4: 0}, {0: 4, 1: 1},
            {5: _P0}, {5: 1, 6: 1}]
    assert linalg._distinct_int_rows(rows) == [{0: 1}, {1: 1}, {2: 1}, {5: 1}, {6: 1},
                                               {3: 1, 4: 1}]
    assert kernel(rows, 7).basis == nullspace(_dense_rows(rows, 7), 7, QQ)


@pytest.mark.parametrize("rows, ncols, outside", [
    (_P0_ROWS, 3, [1, -1, 0]),
    (_P0_ROWS + [{2: 1, 3: 1}], 4, [1, -1, 0, 0]),
    (_P0_ROWS + [{2: 3}], 4, [1, -1, 0, 0]),
])
def test_pivot_rows_come_from_the_prime_the_kernel_lifted_at(solver_calls, rows, ncols,
                                                              outside):
    """When the first prime is unlucky and a later one replaces its pivot
    rows, the rows handed back are the later prime's: they have the kernel
    of all the rows, and a vector that the first prime's pivot rows
    annihilate but the rows do not is found outside."""
    outside = [Fraction(x) for x in outside]
    space, pivot_rows = linalg.kernel_and_rows(rows, ncols)
    assert len({p for p, _ in solver_calls["eliminations"]}) > 1
    assert space.basis == nullspace(_dense_rows(rows, ncols), ncols, QQ)
    assert len(pivot_rows) == ncols - space.dim
    assert not space.contains_vector(outside)
    assert linalg.kernel_contains(pivot_rows, [outside]) is False
    first = linalg._modular_kernel(linalg._distinct_int_rows(rows), _P0)[1]
    assert linalg.kernel_contains(first, [outside]) is True


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([5, 7]), _forced_systems())
def test_pivot_rows_over_gf_span_the_rows(p, system):
    """Over GF(p) the rows handed back are the rows that gave the pivots:
    rank many, with the kernel of all the rows."""
    ncols, rows = system
    F = GF(p)
    rows = [{j: c for j, c in row.items() if type(c) is int} for row in rows]
    space, pivot_rows = linalg.kernel_and_rows(rows, ncols, F)
    assert len(pivot_rows) == ncols - space.dim
    assert kernel(pivot_rows, ncols, F) == space


# ---------------------------------------------------------------------------
# generic rank over Q(x) against the fraction-free Bareiss references it
# replaced in the library
# ---------------------------------------------------------------------------

def bareiss_rank(rows):
    """Reference: fraction-free rank of a matrix over a polynomial ring."""
    m = [list(r) for r in rows]
    nrows, ncols = len(m), len(m[0])
    prev = None
    r = 0
    for c in range(ncols):
        pr = next((i for i in range(r, nrows) if m[i][c]), None)
        if pr is None:
            continue
        m[r], m[pr] = m[pr], m[r]
        piv = m[r][c]
        for i in range(r + 1, nrows):
            for j in range(ncols):
                if j != c:
                    num = piv * m[i][j] - m[i][c] * m[r][j]
                    m[i][j] = num if prev is None else num.divexact(prev)
            m[i][c] = m[i][c] - m[i][c]
        prev = piv
        r += 1
        if r == nrows:
            break
    return r


def poly_det(mat, ring):
    """Reference: Bareiss fraction-free determinant over a polynomial ring."""
    n = len(mat)
    m = [row[:] for row in mat]
    prev = ring.one()
    sign = 1
    for c in range(n - 1):
        pr = next((i for i in range(c, n) if m[i][c].terms), None)
        if pr is None:
            return ring.zero()
        if pr != c:
            m[c], m[pr] = m[pr], m[c]
            sign = -sign
        piv = m[c][c]
        for i in range(c + 1, n):
            for j in range(c + 1, n):
                m[i][j] = (piv * m[i][j] - m[i][c] * m[c][j]).divexact(prev)
            m[i][c] = ring.zero()
        prev = piv
    return m[n - 1][n - 1] if sign == 1 else -m[n - 1][n - 1]


def _at(mat, x):
    return [[p.eval(x) for p in row] for row in mat]


def _constant(data, s, nr, nc):
    return [[Poly.const(s, data.draw(st.integers(-3, 3))) for _ in range(nc)]
            for _ in range(nr)]


def _pencil(data, s, nr, nc):
    return linear_pencil([[[Fraction(data.draw(st.integers(-3, 3))) for _ in range(nc)]
                           for _ in range(nr)] for _ in range(s)])


def _band(s, k):
    """The (k + 1) x k matrix with x0 on the diagonal and x1 below it: its
    left kernel is spanned by one vector of degree k."""
    x0, x1 = Poly.var(s, 0), Poly.var(s, 1)
    zero = Poly(s)
    return [[x0 if i == j else x1 if i == j + 1 else zero for j in range(k)]
            for i in range(k + 1)]


def _draw_matrix(data):
    kind = data.draw(st.sampled_from(["thin", "thin2", "power", "zero", "full", "band"]))
    s = data.draw(st.integers(2, 3))
    nr, nc = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 4))
    ring = PolyRing(s)
    if kind in ("thin", "thin2"):
        # a product through k < min(nr, nc) columns: deficient on purpose
        k = data.draw(st.integers(1, max(1, min(nr, nc) - 1)))
        right = _pencil(data, s, k, nc) if kind == "thin2" else _constant(data, s, k, nc)
        return mat_mul(_pencil(data, s, nr, k), right, ring)
    if kind == "power":
        P = _pencil(data, s, nr, nr)
        return mat_mul(P, P, ring) if data.draw(st.booleans()) else \
            mat_mul(mat_mul(P, P, ring), P, ring)
    if kind == "zero":
        return [[Poly(s) for _ in range(nc)] for _ in range(nr)]
    if kind == "full":
        # x0 I + (random pencil in the other variables): det has x0^n
        P = _pencil(data, s, nr, nr)
        return [[p + Poly.var(s, 0) if i == j else p for j, p in enumerate(row)]
                for i, row in enumerate(P)]
    # band, mixed by a random constant matrix on the left
    k = data.draw(st.integers(2, 3))
    return mat_mul(_constant(data, s, k + 1, k + 1), _band(s, k), ring)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_generic_rank_matches_bareiss(data):
    mat = _draw_matrix(data)
    nrows, ncols, s = len(mat), len(mat[0]), mat[0][0].n
    r, point, kernel = generic_rank(mat, seeded_points(1, s, 9))
    assert r == bareiss_rank(mat)
    assert rank(_at(mat, point), QQ) == r
    assert len(kernel) == nrows - r
    zero = Poly(s)
    for w in kernel:
        assert all(sum((w[i] * mat[i][j] for i in range(nrows)), zero) == zero
                   for j in range(ncols))
    if kernel:
        assert any(rank([[p.eval(x) for p in w] for w in kernel], QQ) == len(kernel)
                   for x in islice(seeded_points(2, s, 9), 10))
    if nrows == ncols:
        _, _, first = generic_rank(mat, seeded_points(1, s, 9), full_only=True)
        assert (not first) == bool(poly_det(mat, PolyRing(s)).terms)
        assert len(first) <= 1


def test_generic_rank_searches_past_degree_one():
    """The band matrix needs a kernel vector of degree k; with a point of
    full rank first the search runs degree by degree up to k."""
    for k in (2, 3, 4):
        r, _, kernel = generic_rank(_band(2, k), seeded_points(3, 2, 9))
        assert r == k and [max(p.degree() for p in w) for w in kernel] == [k]


def test_generic_rank_rejects_other_input():
    x0, x1 = Poly.var(2, 0), Poly.var(2, 1)
    for mat in ([[x0, x1 * x1]], [[x0 + x0 * x1]], [[x0, Poly.var(3, 0)]],
                [[Fraction(1)]], [], [[x0], [x0, x1]]):
        with pytest.raises(DomainError):
            generic_rank(mat, seeded_points(1, 2, 9))


def test_generic_rank_needs_enough_points():
    with pytest.raises(DomainError):
        generic_rank(_band(2, 3), [[Fraction(0), Fraction(0)]] * 3)
