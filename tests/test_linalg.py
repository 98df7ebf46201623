import random
from fractions import Fraction
from itertools import islice
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonassoc import linalg
from nonassoc.catalog import catalog_get
from nonassoc.identities import check_identity, parse_identity
from nonassoc.linalg import (Subspace, generic_rank, inverse, is_invertible, kernel,
                             linear_pencil, mat_mul, nullspace, nullspace_sparse_q,
                             rank, rref, seeded_points, solve)
from nonassoc.operators import SAMPLE_SEED, derivation_space
from nonassoc.scalars import (GF, QQ, QT, DomainError, Poly, PolyRing, PrimeField, RatFunc,
                               RationalDomain)
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
    null, [x] = solve(rows, [{0: Fraction(3), 1: Fraction(1)}], 2)
    assert x[0] + x[1] == 3 and x[1] == 1
    assert kernel(list(rows.values()), 2).dim == null.dim == 0
    # [0 1 | 1] and [0 0 | 1] (a zero row) are inconsistent
    assert solve({0: {1: Fraction(0)}}, [{0: Fraction(1)}], 2)[1] == [None]
    assert solve({}, [{0: Fraction(1)}, {}], 2)[1] == [None, [0, 0]]
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


def _reference_kernel(rows, ncols, dom):
    """Reference: ``kernel`` with its own dispatch on the domain, as it was
    before it became the first half of ``kernel_and_rows``."""
    if isinstance(dom, RationalDomain):
        zero = Fraction(0)
        basis = [[v.get(j, zero) for j in range(ncols)]
                 for v in nullspace_sparse_q(rows, ncols)[0]]
    elif isinstance(dom, PrimeField):
        basis = linalg.nullspace_sparse_mod(rows, ncols, dom)[0]
    else:
        basis = nullspace(linalg._dense(rows, ncols, dom), ncols, dom)
    return Subspace._canonical(basis, ncols, dom)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(["QQ", "GF7", "QT"]), _SYSTEMS)
def test_kernel_is_the_first_half_of_kernel_and_rows(which, system):
    """``kernel``, ``kernel_and_rows(...)[0]`` and the reference dispatch
    give the same canonical basis over Q, GF(7) and Q(t)."""
    dom = _DOMAINS[which]
    ncols, spec = system
    rows = [{j: _entry(dom, a, e) for j, (a, e) in row.items()} for row in spec]
    want = _reference_kernel(rows, ncols, dom).basis
    assert kernel(rows, ncols, dom).basis == want
    assert linalg.kernel_and_rows(rows, ncols, dom)[0].basis == want


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
    """``solve`` gives, for every right-hand side, the answer of the dense
    reference: None for an inconsistent system (also one with a nonzero
    value at a zero row), else the same particular solution.  Consistent
    right-hand sides are drawn as M y."""
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
    _, got = solve(rows, [dict(enumerate(b)) for b in rhss], ncols, dom)
    assert got == [_dense_solve(dense, b, dom) for b in rhss]


def _factor_once_solve(rows, rhss, ncols, dom=QQ):
    """Reference: ``solve`` as it was before it read its answers off
    ``kernel_and_rows``, the particular solutions alone.

    M is given by sparse rows {key: {column: coefficient}} (a key without a
    row is a zero row), each b by {key: value}; entries are anything
    ``dom.coerce`` takes, such as those of ``linear_conditions``.  M is
    factorised once, exactly: its pivot columns P (those of its RREF), r
    rows I independent on P, and the inverse of M[I, P].  The answer for b
    is x with x[P] = M[I, P]^-1 b[I] and zeros at the free columns, the
    solution the RREF of [M | b] gives, or None when M x = b fails at some
    row (checked exactly, over the columns of M in the support of x).
    """
    zero, is_zero, coerce = dom.zero(), dom.is_zero, dom.coerce
    mat = {key: {j: c for j, v in row.items() if not is_zero(c := coerce(v))}
           for key, row in rows.items()}
    red, source = {}, {}   # pivot column -> reduced row / key of its row
    cols = {}              # column -> [(key, entry)]
    for key, row in mat.items():
        for j, c in row.items():
            cols.setdefault(j, []).append((key, c))
        # reduce by the pivot rows, lowest column first: each keeps its
        # pivot as its lowest column
        row = dict(row)
        while row and (c := min(row)) in red:
            f = row[c] / red[c][c]
            for j, v in red[c].items():
                x = row.get(j, zero) - f * v
                if is_zero(x):
                    row.pop(j, None)
                else:
                    row[j] = x
        if row:
            red[c], source[c] = row, key
    pivots = sorted(red)
    inv = inverse([[mat[source[i]].get(j, zero) for j in pivots] for i in pivots], dom) \
        if pivots else []
    out = []
    for b in rhss:
        b = {key: c for key, v in b.items() if not is_zero(c := coerce(v))}
        x = [zero] * ncols
        b_rows = [b.get(source[i], zero) for i in pivots]
        for p, inv_row in zip(pivots, inv):
            x[p] = sum((u * v for u, v in zip(inv_row, b_rows) if not is_zero(v)), zero)
        mx = {}
        for p in pivots:
            if not is_zero(x[p]):
                for key, c in cols[p]:
                    mx[key] = mx.get(key, zero) + c * x[p]
        ok = all(is_zero(mx.get(key, zero) - b.get(key, zero)) for key in mx.keys() | b.keys())
        out.append(x if ok else None)
    return out


# a right-hand side: M y with a zero at one key without a row (True), or
# drawn entries, zeros among them, at the keys of the rows and two more
_RHS = st.tuples(st.booleans(), st.lists(st.integers(-3, 3), min_size=6, max_size=6),
                 st.dictionaries(st.integers(0, 9), st.tuples(st.integers(-2, 2),
                                                              st.integers(0, 2))))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(sorted(_DOMAINS)), _SYSTEMS, st.lists(_RHS, max_size=4),
       st.lists(st.integers(0, 7), max_size=3))
def test_solve_matches_the_factor_once_solve(which, system, rhs_specs, repeats):
    """``solve`` against the factor-once reference over Q, GF(5), GF(7) and
    Q(t): the same answer for every right-hand side, repeated ones among
    them (a repeated inconsistent b_i makes e_i - e_j a kernel vector of
    the augmented system, which must give None for both), keys found only
    in some b and zero entries; and the kernel is ``kernel`` of the rows,
    in the same canonical basis."""
    dom = _DOMAINS[which]
    ncols, spec = system
    rows = {i: {j: _entry(dom, a, e) for j, (a, e) in row.items()} for i, row in enumerate(spec)}
    rhss = []
    for image, ys, drawn in rhs_specs:
        if image:
            y = [dom.from_int(v) for v in ys[:ncols]]
            b = {i: sum((dom.coerce(c) * y[j] for j, c in row.items()), dom.zero())
                 for i, row in rows.items()}
            b[len(rows)] = dom.zero()
        else:
            b = {k: _entry(dom, a, e) for k, (a, e) in drawn.items() if k < len(rows) + 2}
        rhss.append(b)
    rhss += [dict(rhss[k]) for k in repeats if k < len(rhss)]
    null, got = solve(rows, rhss, ncols, dom)
    assert got == _factor_once_solve(rows, rhss, ncols, dom)
    want = kernel(list(rows.values()), ncols, dom)
    assert null == want and null.basis == want.basis


def test_solve_repeated_right_hand_sides():
    """A right-hand side given twice: both inconsistent copies give None
    (the augmented kernel vector e_0 - e_1 has two right-hand-side
    columns), both consistent ones the same solution, over Q and GF(5)."""
    for dom in (QQ, GF(5)):
        rows = {0: {0: 1, 1: 1}, 1: {0: 2, 1: 2}, 2: {2: 1}}
        bad, good = {0: 1, 1: 1}, {0: 1, 1: 2, 2: 3, 3: 0}
        null, got = solve(rows, [bad, good, bad, good], 3, dom)
        one, zero, three = dom.one(), dom.zero(), dom.from_int(3)
        assert got == [None, [one, zero, three], None, [one, zero, three]] \
            == _factor_once_solve(rows, [bad, good, bad, good], 3, dom)
        assert null.basis == [[one, -one, zero]]


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
    total = Subspace(a.basis + b.basis, 3)
    assert total.dim == 3
    # dim(a meet b) = dim a + dim b - dim(a + b)
    assert a.dim + b.dim - total.dim == 1
    assert a.contains_vector(e2) and b.contains_vector(e2)
    assert a.contains(Subspace([e1], 3))
    assert not a.contains_vector(e3)


def reference_intersect(a, b):
    """Reference: ``Subspace.intersect`` as it was, from the kernel of the
    stacked system u^T A = v^T B."""
    dom = a.dom
    ka, kb = len(a.basis), len(b.basis)
    rows = [[a.basis[i][j] for i in range(ka)] + [-b.basis[i][j] for i in range(kb)]
            for j in range(a.ambient_dim)]
    vecs = []
    for w in kernel(linalg.sparse_rows(rows, dom), ka + kb, dom).basis:
        v = [dom.zero()] * a.ambient_dim
        for i in range(ka):
            if not dom.is_zero(w[i]):
                v = [x + w[i] * y for x, y in zip(v, a.basis[i])]
        vecs.append(v)
    return Subspace(vecs, a.ambient_dim, dom)


_SPANNING = st.lists(st.lists(st.integers(-3, 3), min_size=4, max_size=4), max_size=4)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), _SPANNING, _SPANNING, _SPANNING)
def test_one_span_gives_the_dimension_of_the_intersection(dom, shared, left, right):
    """Two subspaces with a shared part: the sum built as one span has the
    dimension dim a + dim b - dim(a meet b) of the reference intersection,
    and that intersection lies in both."""
    vecs = [[[dom.from_int(c) for c in v] for v in part] for part in (shared, left, right)]
    a, b = Subspace(vecs[0] + vecs[1], 4, dom), Subspace(vecs[0] + vecs[2], 4, dom)
    meet = reference_intersect(a, b)
    assert Subspace(a.basis + b.basis, 4, dom).dim == a.dim + b.dim - meet.dim
    assert a.contains(meet) and b.contains(meet)


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
        fast = nullspace_sparse_q(rows, ncols)[0]
        slow = nullspace(_dense(rows, ncols), ncols, QQ)
        assert fast == _sparse(slow), f"trial {trial}"


def test_fast_nullspace_huge_coefficients():
    """Solutions too large for rational reconstruction at the first primes
    must still come out exactly."""
    big = 2 ** 45
    rows = [{0: big, 1: -1}, {1: big + 1, 2: -1}]
    fast = nullspace_sparse_q(rows, 3)[0]
    assert len(fast) == 1
    v = fast[0]
    assert v[1] == big * v[0] and v[2] == (big + 1) * v[1]


def test_fast_nullspace_rational_entries():
    rows = [{0: Fraction(1, 7), 1: Fraction(3, 5)}]
    fast = nullspace_sparse_q(rows, 2)[0]
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
    and the number of rows it is given ("eliminations") and the number it
    reduced before it ended or stopped ("reduced"), and counts dense
    fallbacks; a solver still running after 100 eliminations fails the test
    instead of running on."""
    calls = {"eliminations": [], "reduced": [], "dense": 0}
    rref_mod, dense = linalg._rref_mod, linalg.nullspace

    def recording_rref_mod(rows, p, ncols=None):
        calls["eliminations"].append((p, len(rows)))
        assert len(calls["eliminations"]) <= 100, "no verified kernel after 100 primes"
        out = rref_mod(rows, p, ncols)
        calls["reduced"].append(out[2])
        return out

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
    assert nullspace_sparse_q([{1: _P0, 0: 1}], 2)[0] == [{0: Fraction(1), 1: Fraction(-1, _P0)}]
    primes = [p for p, _ in solver_calls["eliminations"]]
    assert primes[0] == _P0 and len(primes) > 1
    assert solver_calls["dense"] == 0


def test_better_prime_replaces_the_pivot_rows(solver_calls):
    """With a doubled copy of the row, the first prime keeps one pivot row.
    The second prime finds a higher pivot in it, so all rows are
    eliminated again there, and later primes take its one pivot row."""
    assert nullspace_sparse_q([{1: _P0, 0: 1}, {1: 2 * _P0, 0: 2}], 2)[0] == \
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
    assert nullspace_sparse_q(rows, 3)[0] == _BIG_KERNEL
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
    assert nullspace_sparse_q(rows, 2)[0] == [{0: Fraction(1), 1: Fraction(b, c)}]
    elims = solver_calls["eliminations"]
    assert len(elims) >= 20 and elims[0] == (_P0, 2)
    assert all(n == 1 for _, n in elims[1:])


def test_first_prime_that_divides_a_pivot_forces_a_restart(solver_calls):
    """The second row minus the first is 2^61 - 1 at column 1: the first
    prime sees rank 1 and keeps one pivot row, whose kernel lifts and
    annihilates that row but not the other; all rows are then eliminated
    again at the next prime, which sees rank 2."""
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + _P0}]
    assert nullspace_sparse_q(rows, 3)[0] == [{2: Fraction(1)}]
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
    assert nullspace_sparse_q([{0: q, 1: q}, {0: b0, 1: b1}], 3)[0] == [{2: Fraction(1)}]
    full = [(linalg._prime(i), 2) for i in range(3)]
    assert solver_calls["eliminations"] == (full if k == 1 else full[:2])


def test_later_prime_with_a_rank_drop_is_skipped(solver_calls):
    """The second prime divides a pivot of the three pivot rows, so it sees
    rank 2: it is skipped, and the kernel entry b/c lifts from the first,
    third and fourth primes."""
    p1 = linalg._prime(1)
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + p1}, {2: _BIG_B, 3: -_BIG_C}]
    assert nullspace_sparse_q(rows, 4)[0] == [{2: Fraction(1), 3: Fraction(_BIG_B, _BIG_C)}]
    assert solver_calls["eliminations"] == [(linalg._prime(i), 3) for i in range(4)]


def test_prime_dividing_a_kernel_denominator_is_skipped(solver_calls):
    """The kernel (1, 1/p_1) has no reduction mod the second prime p_1,
    which divides the row's entry at its highest column, so its pivot
    there is at column 0: that prime is skipped, and the others lift
    1/p_1."""
    p1 = linalg._prime(1)
    assert nullspace_sparse_q([{0: 1, 1: -p1}], 2)[0] == [{0: Fraction(1), 1: Fraction(1, p1)}]
    assert solver_calls["eliminations"] == [(linalg._prime(i), 1) for i in range(4)]


def test_dedup_keeps_rows_that_differ_in_one_value():
    """Rows with the same columns and different values are two rows."""
    assert nullspace_sparse_q([{0: 1, 1: 1}, {0: 1, 1: 2}, {0: 1, 1: 1}], 3)[0] == [{2: Fraction(1)}]


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
    assert nullspace_sparse_q(rows, ncols)[0] == _sparse(nullspace(_dense(rows, ncols), ncols, QQ))


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
    assert nullspace_sparse_q(rows, ncols)[0] == _sparse(nullspace(_dense(rows, ncols), ncols, QQ))


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
# the stops of the first elimination against the full elimination, as the
# solver made it before the stops (verbatim reference copies)
# ---------------------------------------------------------------------------

def _reference_rref_mod(introws, p):
    """``_rref_mod`` before the stops, verbatim: every row reduced."""
    red = {}
    pivot_rows = []
    holders = {}   # non-pivot column -> pivot columns whose rows hold it
    for introw in sorted(introws, key=len):
        row = {}
        for j, v in introw.items():
            v %= p
            if v:
                row[j] = v
        # pivot rows hold no other pivot column, so one pass reduces the row;
        # past three pivot rows, keeping the entries unreduced (zeros too)
        # and reducing each mod p once at the end costs less than after
        # every update
        pivots = [c for c in row if c in red]
        defer = len(pivots) > 3
        for c in pivots:
            f = row.pop(c)
            for j, v in red[c].items():
                if j != c:
                    x = row.get(j, 0) - f * v
                    if defer or (x := x % p):
                        row[j] = x
                    else:
                        del row[j]
        if defer:
            for j, v in list(row.items()):
                v %= p
                if v:
                    row[j] = v
                else:
                    del row[j]
        if not row:
            continue
        c = max(row)
        inv = pow(row[c], -1, p)
        new = {j: v * inv % p for j, v in row.items()}
        for pc in holders.pop(c, ()):
            prow = red[pc]
            f = prow.pop(c)
            for j, v in new.items():
                if j == c:
                    continue
                x = (prow.get(j, 0) - f * v) % p
                if x:
                    prow[j] = x
                    holders.setdefault(j, set()).add(pc)
                else:
                    del prow[j]
                    holders[j].discard(pc)
        red[c] = new
        pivot_rows.append(introw)
        for j in new:
            if j != c:
                holders.setdefault(j, set()).add(c)
    return red, pivot_rows


def _reference_modular_kernel(rows, p):
    """``_modular_kernel`` before the stops, verbatim but for the names."""
    red, pivot_rows = _reference_rref_mod(rows, p)
    return (-len(red), [-c for c in sorted(red, reverse=True)]), pivot_rows, red


def _reference_crt_kernel(introws, ncols, first):
    """``_crt_kernel`` before the stops, verbatim but for the names: every
    candidate dot-checked against every row."""
    (shape, pivot_rows, red), m = first, linalg._prime(0)
    i = 0
    while True:
        cand = linalg._lift_kernel(red, ncols, m)
        if cand is not None and _reference_verify_nullspace(introws, cand):
            return cand, pivot_rows
        spans_less = cand is not None and _reference_verify_nullspace(pivot_rows, cand)
        i += 1
        p = linalg._prime(i)
        new = _reference_modular_kernel(introws if spans_less else pivot_rows, p)
        if new[0] < shape:
            if not spans_less:
                new = _reference_modular_kernel(introws, p)
            (shape, pivot_rows, red), m = new, p
        elif new[0] == shape and not spans_less:
            red, m = linalg._crt(red, m, new[2], p), m * p


def _reference_verify_nullspace(introws, cand):
    """``_verify_nullspace`` before the norm bound, verbatim."""
    at_col = {}   # column -> [(candidate index, scaled integer entry)]
    for i, v in enumerate(cand):
        denom = 1
        for c in v.values():
            denom = denom * c.denominator // gcd(denom, c.denominator)
        for j, c in v.items():
            at_col.setdefault(j, []).append((i, c.numerator * (denom // c.denominator)))
    for row in introws:
        sums = {}
        for j, a in row.items():
            for i, x in at_col.get(j, ()):
                sums[i] = sums.get(i, 0) + a * x
        if any(sums.values()):
            return False
    return True


def _reference_nullspace_sparse_q(sparse_rows, ncols):
    """``nullspace_sparse_q`` before the stops, verbatim but for the names."""
    introws = linalg._distinct_int_rows(sparse_rows)
    if ncols == 0:
        return [], []
    return _reference_crt_kernel(introws, ncols,
                                 _reference_modular_kernel(introws, linalg._prime(0)))


def _redundant_system(rng):
    """(ncols, rows): integer combinations of one to four base rows, or of
    ncols + 1 (a zero kernel, mostly), with the base rows among them,
    shuffled: most rows are redundant.  The base entries are small, above
    2^40 (the norm bound fails) or above 2^64 (the kernel lifts only at a
    later prime)."""
    ncols = rng.randint(2, 9)
    size = rng.choice([9, 9, 2 ** 44, 2 ** 70])
    nbase = ncols + 1 if rng.random() < 0.25 else rng.randint(1, 4)
    base = [{j: rng.randint(-size, size) for j in rng.sample(range(ncols), rng.randint(1, ncols))}
            for _ in range(nbase)]
    rows = list(base)
    for _ in range(rng.randint(0, 60)):
        row = {}
        for _ in range(rng.randint(1, 2)):
            b, k = rng.randrange(nbase), rng.randint(-3, 3)
            for j, c in base[b].items():
                row[j] = row.get(j, 0) + k * c
        rows.append(row)
    rng.shuffle(rows)
    return ncols, rows


@settings(max_examples=200, deadline=None)
@given(st.randoms(use_true_random=False))
def test_stopped_elimination_matches_the_full_one(rng):
    """Whether the first elimination stops certified, at ncols pivots or
    not at all, the canonical basis and the pivot rows of
    ``nullspace_sparse_q`` and the RREF and pivot rows mod p_0 are those of
    the full elimination."""
    ncols, rows = _redundant_system(rng)
    want = _reference_nullspace_sparse_q(rows, ncols)
    assert nullspace_sparse_q(rows, ncols) == want
    introws = linalg._distinct_int_rows(rows)
    red, pivot_rows, reduced, found = linalg._rref_mod(introws, _P0, ncols)
    assert (red, pivot_rows) == _reference_rref_mod(introws, _P0)
    assert found == want[0] if found is not None else reduced == len(introws)


def test_redundant_systems_reach_every_stop(solver_calls):
    """The systems of the differential above stop certified, stop at ncols
    pivots, run to the end, fail the norm bound and lift at later primes,
    each in some of 200 seeds."""
    seen = dict.fromkeys(["certified", "full rank", "to the end", "bound fails", "later"], 0)
    certified = linalg._certified

    def recording_certified(unreduced, reduced, cand, p):
        norm = max((sum(map(abs, row.values())) for row in reduced), default=0)
        seen["bound fails"] += any(norm * max(map(abs, w.values())) >= p
                                   for w in map(linalg._integral, cand))
        return certified(unreduced, reduced, cand, p)

    for seed in range(200):
        ncols, rows = _redundant_system(random.Random(seed))
        solver_calls["eliminations"].clear()
        solver_calls["reduced"].clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(linalg, "_certified", recording_certified)
            found = nullspace_sparse_q(rows, ncols)[0]
        n, reduced = solver_calls["eliminations"][0][1], solver_calls["reduced"][0]
        seen["to the end" if reduced == n else "full rank" if not found else "certified"] += 1
        seen["later"] += len(solver_calls["eliminations"]) > 1
    assert min(seen.values()) >= 10, seen


_LINE = [{0: k, 1: k} for k in range(1, 21)]   # twenty rows of rank 1


def test_a_redundant_system_stops_before_its_last_row(solver_calls, monkeypatch):
    """Twenty multiples of (1, 1, 0): the only pivot comes from row 0, so a
    stop is tried after row 8.  The kernel lifted there is dot-checked
    against the 11 rows not reduced and proven on the 9 reduced ones by the
    norm bound alone.  With five rows no stop is tried, and the bound
    proves the kernel on all of them."""
    checked = []
    annihilates = linalg._annihilates
    monkeypatch.setattr(linalg, "_annihilates", lambda rows, vectors: checked.append(
        (len(rows), len(vectors))) or annihilates(rows, vectors))
    kernel_of_line = [{0: Fraction(1), 1: Fraction(-1)}, {2: Fraction(1)}]
    assert nullspace_sparse_q(_LINE, 3) == (kernel_of_line, [{0: 1, 1: 1}])
    assert solver_calls["eliminations"] == [(_P0, 20)] and solver_calls["reduced"] == [9]
    assert checked == [(11, 2), (9, 0)]
    checked.clear()
    assert nullspace_sparse_q(_LINE[:5], 3)[0] == kernel_of_line
    assert solver_calls["reduced"][1:] == [5] and checked == [(0, 2), (5, 0)]
    assert _reference_nullspace_sparse_q(_LINE, 3) == (kernel_of_line, [{0: 1, 1: 1}])


def test_a_system_whose_last_row_raises_the_rank_does_not_stop(solver_calls):
    """The same twenty rows and (1, 2, 3), the longest, so the last row:
    the stop tried after row 8 fails at it, the next would come after row
    24, and every row is reduced."""
    rows = _LINE + [{0: 1, 1: 2, 2: 3}]
    assert nullspace_sparse_q(rows, 3) == _reference_nullspace_sparse_q(rows, 3) == \
        ([{0: Fraction(1), 1: Fraction(-1), 2: Fraction(1, 3)}], [{0: 1, 1: 1}, {0: 1, 1: 2, 2: 3}])
    assert solver_calls["eliminations"] == [(_P0, 21)] and solver_calls["reduced"] == [21]


_B, _C = 3 ** 26, 5 ** 17   # b/c does not lift mod p_0, and lifts mod p_0 p_1


def test_a_failing_lift_never_stops(solver_calls):
    """Twenty multiples of (b, -c): the kernel (1, b/c) does not lift mod
    p_0, so no stop is made and every row is reduced there; the next prime
    eliminates the one pivot row, and the kernel lifts from the two."""
    assert linalg._lift_kernel(_reference_rref_mod([{0: _B, 1: -_C}], _P0)[0], 2, _P0) is None
    rows = [{0: k * _B, 1: -k * _C} for k in range(1, 21)]
    assert nullspace_sparse_q(rows, 2) == _reference_nullspace_sparse_q(rows, 2) == \
        ([{0: Fraction(1), 1: Fraction(_B, _C)}], [{0: _B, 1: -_C}])
    assert solver_calls["eliminations"] == [(_P0, 20), (linalg._prime(1), 1)]
    assert solver_calls["reduced"] == [20, 1]


def test_the_norm_bound_is_strict_and_sums_the_row(solver_calls):
    """Mod p_0 the row (a, b), a = (p_0 + 1)/2 and b = (p_0 - 1)/2, is
    a(x_0 - x_1), whose kernel (1, 1) lifts.  Each entry is below p_0, but
    ||row||_1 = p_0, so the bound proves nothing; the dot product a + b =
    p_0 refutes the lift, and later primes give (1, -a/b)."""
    a, b = (_P0 + 1) // 2, (_P0 - 1) // 2
    assert nullspace_sparse_q([{0: a, 1: b}], 2)[0] == [{0: Fraction(1), 1: Fraction(-a, b)}]
    assert len(solver_calls["eliminations"]) > 1


def test_a_candidate_after_crt_is_dot_checked_against_every_row(solver_calls):
    """Mod p_0 the second row equals the first, and the kernel of (b, -c)
    lifts only from two primes.  The candidate combined by CRT annihilates
    the two pivot rows but not the second row, which no bound mod p_0 p_1
    covers: it is dot-checked and rejected, and all rows are eliminated
    again at the third prime, whose rank is 3."""
    rows = [{0: 1, 1: 1}, {0: 1, 1: 1 + _P0}, {2: _B, 3: -_C}]
    assert nullspace_sparse_q(rows, 4) == _reference_nullspace_sparse_q(rows, 4)
    assert nullspace_sparse_q(rows, 4)[0] == [{2: Fraction(1), 3: Fraction(_B, _C)}]
    assert solver_calls["eliminations"][:4] == [(_P0, 3), (linalg._prime(1), 2),
                                                (linalg._prime(2), 3), (linalg._prime(3), 3)]


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


@pytest.mark.parametrize("name, params, rank_, point, degrees", [
    ("matrix", {"n": 2}, 2, [-1, 7, 6, -4], [0, 1]),
    ("matrix", {"n": 3}, 6, [-1, 7, 6, -4, 8, -5, -1, -2, -5], [0, 1, 2]),
    ("U2e", None, 2, [-1, 7, 6, -4, 8, -5, -1, -2], [0, 0, 1, 1, 1, 1]),
    ("M7", None, 6, [-1, 7, 6, -4, 8, -5, -1], [1]),
    ("R", {"seq": [1]}, 3, [-1, 7, 6, -4, 8], [0, 0]),
])
def test_generic_rank_of_the_local_derivation_pencils(name, params, rank_, point, degrees):
    """The rank, point and kernel degrees of ``generic_rank`` on the pencil
    S_x of ``local_derivation_generic_space`` for its catalog cases, as
    recorded with tuple-keyed monomials."""
    A = catalog_get(name, params)
    n = A.dim
    der = derivation_space(A).matrices()
    S = linear_pencil([[[D[i][j] for D in der] for i in range(n)] for j in range(n)])
    r, x, left = generic_rank(S, seeded_points(SAMPLE_SEED + 1, n, 9))
    assert (r, x, [max(p.degree() for p in w) for w in left]) == (rank_, point, degrees)
    assert all(sum((w[i] * S[i][j] for i in range(n)), Poly(n)) == 0
               for w in left for j in range(len(S[0])))


def _reference_independent_at(cand, x):
    """Reference: ``_independent_at`` as it was, one membership test and
    one ``Subspace`` per candidate."""
    keep, span = [], Subspace([], len(cand[0]) if cand else 0)
    for w, v in zip(cand, linalg._values([[p.terms for p in w] for w in cand], x)):
        if not span.contains_vector(v):
            keep.append(w)
            span = Subspace(span.basis + [v], len(v))
    return keep


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_independent_at_matches_the_incremental_loop(data):
    """Candidates of 1-4 linear forms in 2 or 3 variables, some of them
    sums of earlier ones, at integer points that may make them dependent:
    the same vectors, the same objects, are kept."""
    s, length = data.draw(st.integers(2, 3)), data.draw(st.integers(1, 4))
    cand = []
    for _ in range(data.draw(st.integers(0, 6))):
        if cand and data.draw(st.booleans()):
            u, v = data.draw(st.sampled_from(cand)), data.draw(st.sampled_from(cand))
            cand.append([p + q for p, q in zip(u, v)])
        else:
            cand.append([Poly(s, {PolyRing(s).pack(tuple(int(i == k) for i in range(s))): c
                                  for k, c in enumerate(data.draw(st.lists(
                                      st.integers(-2, 2), min_size=s, max_size=s))) if c})
                         for _ in range(length)])
    x = [Fraction(data.draw(st.integers(-2, 2))) for _ in range(s)]
    assert list(map(id, linalg._independent_at(cand, x))) == \
        list(map(id, _reference_independent_at(cand, x)))


def _reference_sparse_rows_scaling(v):
    """Reference: ``sparse_rows``' scaling over Q as it was, of a dense vector."""
    m = lcm(*(c.denominator for c in v))
    return {j: c.numerator * (m // c.denominator) for j, c in enumerate(v) if c}


def _reference_distinct_scaling(row):
    """Reference: ``_distinct_int_rows``' scaling as it was."""
    m = lcm(*(Fraction(c).denominator for c in row.values()))
    return {j: int(c * m) for j, c in row.items()}


def _reference_scaled(v):
    """Reference: ``_scaled`` as it was, of one sparse rational vector."""
    denom = lcm(*(c.denominator for c in v.values()))
    return {j: c.numerator * (denom // c.denominator) for j, c in v.items()}


_ENTRY = st.one_of(st.integers(-2 ** 70, 2 ** 70),
                   st.fractions(max_denominator=2 ** 40).filter(lambda c: abs(c) < 2 ** 70))


@settings(max_examples=300, deadline=None)
@given(st.lists(_ENTRY, max_size=8))
def test_integral_gives_the_vectors_of_the_three_scalings(entries):
    """Rows of ints and Fractions, zeros among them: ``_integral`` gives
    exactly the integer rows (ints, keys in the same order) of the three
    scalings it replaced, and ``sparse_rows`` over Q gives the old one's."""
    row = dict(enumerate(entries))
    want = _reference_distinct_scaling(row)
    got = linalg._integral(row)
    assert list(got.items()) == list(want.items())
    assert all(type(c) is int for c in got.values())
    nonzero = {j: Fraction(c) for j, c in row.items() if c}
    assert list(linalg._integral(nonzero).items()) == list(_reference_scaled(nonzero).items())
    dense = [Fraction(c) for c in entries]
    assert linalg.sparse_rows([dense], QQ) == [_reference_sparse_rows_scaling(dense)]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from([QQ, GF(7)]), st.lists(st.lists(_ENTRY, min_size=3, max_size=3),
                                              max_size=5))
def test_scaled_rows_keep_kernel_and_distinct_rows(dom, vectors):
    """Dense vectors over Q and GF(7) through ``sparse_rows``: over Q the
    rows ``_distinct_int_rows`` makes of the Fraction rows are those of the
    old scaling, and over both domains the kernel is the dense one (over
    GF(7) of the numerators)."""
    dense = [[dom.coerce(c if dom is QQ else Fraction(c).numerator) for c in v] for v in vectors]
    rows = linalg.sparse_rows(dense, dom)
    if dom is QQ:
        fractional = [{j: c for j, c in enumerate(v)} for v in dense]
        old = [_reference_distinct_scaling(r) for r in fractional]
        assert linalg._distinct_int_rows(fractional) == linalg._distinct_int_rows(old)
    assert kernel(rows, 3, dom) == Subspace(nullspace(dense, 3, dom), 3, dom)
