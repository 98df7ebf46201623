"""Error-contract spot checks across modules."""

from fractions import Fraction

import pytest

from nonassoc.catalog import catalog_get
from nonassoc.deform import Cocycle, central_extension, cocycle_space, degeneration_verify
from nonassoc.incidence import HigherDerivationSeq, Poset, SigmaMap, chain_poset
from nonassoc.kantor import kantor_product
from nonassoc.scalars import GF, QQ, DomainError
from nonassoc.structure import StructureTensor


def test_kantor_dim_mismatch_and_zero_u():
    a = catalog_get("NF", {"n": 2}).op("mul")
    b = catalog_get("NF", {"n": 3}).op("mul")
    with pytest.raises(DomainError):
        kantor_product(a, b, 0)
    with pytest.raises(DomainError):
        kantor_product(a, a, [Fraction(0), Fraction(0)])


def test_kantor_domain_mismatch():
    """A over Q and B over GF(7), in either order, on a common space."""
    a = catalog_get("sl2").op("mul")
    b = a.map_domain(GF(7), GF(7).coerce)
    for x, y in ((a, b), (b, a)):
        with pytest.raises(DomainError, match="domain mismatch"):
            kantor_product(x, y, 0)


def test_degeneration_dim_mismatch():
    with pytest.raises(DomainError):
        degeneration_verify(catalog_get("NF", {"n": 2}),
                            catalog_get("NF", {"n": 3}),
                            [[Fraction(1), 0], [0, Fraction(1)]])


def test_cocycle_unknown_variety():
    with pytest.raises(DomainError):
        cocycle_space(catalog_get("abelian", {"n": 2}), "frobenius", 1)


def test_central_extension_dim_mismatch():
    theta = Cocycle([[[Fraction(1)]]])
    with pytest.raises(DomainError):
        central_extension(catalog_get("abelian", {"n": 2}), theta)


def test_hd_requires_identity_head():
    A = catalog_get("uppertri", {"n": 2})
    zero = [[Fraction(0)] * 3 for _ in range(3)]
    with pytest.raises(DomainError):
        HigherDerivationSeq(A, [zero, zero])


def test_sigma_map_requires_total_values():
    P = chain_poset(3)
    with pytest.raises(DomainError):
        SigmaMap(P, {("1", "2"): 1})


def test_poset_duplicate_elements():
    with pytest.raises(DomainError):
        Poset(["a", "a"], [])


def test_tensor_arity_tuple_mismatch():
    with pytest.raises(DomainError):
        StructureTensor(2, 3, {(0, 1): {0: 1}}, QQ)
