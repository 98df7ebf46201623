"""Exact-arithmetic workbench for finite-dimensional non-associative algebras.

Algebras are presented by structure constants over exact scalar domains
(rationals, prime fields, rational functions).  The package covers variety
membership by polynomial identities, derivation-type operator spaces, the
Kantor product and conservative algebras, Poisson-type compatibility laws,
incidence-algebra structures, and degeneration / central-extension
machinery, with the published results wired in as executable test oracles.
"""

from .catalog import CATALOG_NAMES, catalog_get
from .identities import Identity, check_identity, parse_identity, polarize
from .incidence import (HigherDerivationSeq, Poset, SigmaMap,
                        chain_constant_check, exhaustive_sigma_equiv,
                        hd_compose, hd_identity, hd_inner, hd_inverse,
                        higher_derivation_check, incidence_algebra,
                        poisson_sigma_equiv_test, sigma_bracket, sigma_tilde)
from .invariants import (characteristic_sequence, multiplicative_basis_check,
                         standard_embedding, structure_report)
from .kantor import (build_U, conservativity_test, jacobi_element_space,
                     kantor_product, kantor_square, quasi_unit_space,
                     u2_e_basis, u2_subalgebra)
from .linalg import Subspace
from .operators import (OperatorSpace, TupleOperatorSpace, centroid,
                        commuting_map_space, derivation_space,
                        generalized_derivation_space,
                        leibniz_derivation_space,
                        local_derivation_generic_space, local_derivation_test,
                        peirce_decompose)
from .poisson import (CustomaryIdentity, check_poisson_family,
                      customary_check, half_derivation_link_test,
                      transposed_compatible_space)
from .deform import (Cocycle, central_extension, cocycle_space,
                     degeneration_obstruction, degeneration_verify)
from .scalars import GF, QQ, QT, DomainError, Poly, PolyRing, RatFunc
from .structure import (Algebra, StructureTensor, algebra_from_json,
                        algebra_to_json, change_basis, load_algebra,
                        save_algebra)
from .varieties import (check_variety, list_varieties, minus_algebra,
                        plus_algebra)

__version__ = "0.1.0"
