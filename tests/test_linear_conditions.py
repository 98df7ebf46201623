"""The linear-condition builder behind every operator space.

Each basis map the solvers return is checked against its defining law with
``check_identity(..., unary_maps={"D": M})``, an evaluator that shares no
code with ``linear_conditions``.  The dimensions were recorded from the
hand-written row loops the builder replaced.
"""

import random
from fractions import Fraction

import pytest

from nonassoc.catalog import catalog_get
from nonassoc.identities import check_identity, parse_identity
from nonassoc.linalg import is_invertible
from nonassoc.operators import (centroid, commuting_map_space,
                                derivation_space, linear_conditions)
from nonassoc.scalars import DomainError
from nonassoc.structure import change_basis

ALGEBRAS = [("sl2", None), ("heis3", None), ("NF", {"n": 3}),
            ("matrix", {"n": 2}), ("quaternions", None), ("uppertri", {"n": 2})]

# (Der, 1/2-Der, centroid, commuting maps), the same in every basis
DIMS = {"sl2": (3, 1, 1, 1), "heis3": (6, 6, 3, 4), "NF": (3, 3, 2, 4),
        "matrix": (3, 1, 1, 5), "quaternions": (3, 1, 1, 5),
        "uppertri": (2, 1, 1, 4)}

LAWS = {
    "der": ["D(x*y) - D(x)*y - x*D(y)"],
    "half": ["D(x*y) - 1/2 D(x)*y - 1/2 x*D(y)"],
    "centroid": ["D(x*y) - D(x)*y", "D(x*y) - x*D(y)"],
    "commuting": ["D(x)*x - x*D(x)"],
}


def _rebased(A, seed):
    rng = random.Random(seed)
    while True:
        P = [[Fraction(rng.randint(-3, 3)) for _ in range(A.dim)]
             for _ in range(A.dim)]
        if is_invertible(P):
            return change_basis(A, P)


@pytest.mark.parametrize("name,params", ALGEBRAS)
@pytest.mark.parametrize("seed", [None, 1, 2])
def test_every_basis_map_satisfies_its_law(name, params, seed):
    A = catalog_get(name, params)
    if seed is not None:
        A = _rebased(A, seed)
    spaces = {"der": derivation_space(A),
              "half": derivation_space(A, Fraction(1, 2)),
              "centroid": centroid(A),
              "commuting": commuting_map_space(A)}
    assert tuple(s.dim for s in spaces.values()) == DIMS[name]
    for kind, space in spaces.items():
        laws = [parse_identity(text) for text in LAWS[kind]]
        for M in space.matrices():
            for law in laws:
                holds, witness = check_identity(A, law, unary_maps={"D": M})
                assert holds, (name, seed, kind, witness)


def test_rows_are_keyed_tuple_major_coordinate_ascending():
    A = catalog_get("sl2")
    n = A.dim
    x, y = ("v", "x"), ("v", "y")
    terms = [(1, ("<D>", (("mul", (x, y)),))),
             (-1, ("mul", (("<D>", (x,)), y))),
             (-1, ("mul", (x, ("<D>", (y,)))))]
    rows = linear_conditions(A, terms, ("x", "y"),
                             {"<D>": (n, lambda r, a: r * n + a)})
    keys = list(rows)
    assert keys == sorted(keys)
    assert all(rows.values())
    assert {combo for combo, _ in keys} <= {(i, j) for i in range(n) for j in range(n)}


def test_every_term_needs_exactly_one_unknown():
    A = catalog_get("sl2")
    x, y = ("v", "x"), ("v", "y")
    unknowns = {"<D>": (A.dim, lambda r, a: r * A.dim + a)}
    with pytest.raises(DomainError):
        linear_conditions(A, [(1, ("mul", (x, y)))], ("x", "y"), unknowns)
    with pytest.raises(DomainError):
        linear_conditions(A, [(1, ("mul", (("<D>", (x,)), ("<D>", (y,)))))],
                          ("x", "y"), unknowns)
