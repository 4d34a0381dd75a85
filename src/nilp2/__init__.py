"""Exact-arithmetic engine for finite groups of nilpotency class at most 2
and odd prime exponent: product constructions with amalgamation, epicentre
and capability verdicts, embedding constructions, and a certificate
emitting CLI.
"""

from .capability import (
    CapabilityVerdict,
    CentralDecomposition,
    DecompositionSearch,
    DecompositionVerdict,
    RpVerdict,
    capability_verdict,
    central_decomposition,
    central_decomposition_search,
    epicentre_in_derived,
    jacobi_subspace,
)
from .constructions import (
    ExtensionReport,
    build_capable_extension,
    build_noncapable_extension,
    extraspecial_p5,
    heisenberg,
    verify_extension,
)
from .errors import Nilp2Error
from .fplinalg import Subspace, kernel_basis, rref, solve_matrix
from .group_core import (
    GeneratorMap,
    GroupElement,
    GroupPresentation,
    Subgroup,
    center,
    commutator,
    cyclic,
    elementary_abelian,
    enumerate_subgroups,
    hom_from_images,
    inverse,
    is_monomorphism,
    multiply,
    power,
    quotient_by_central,
)
from .oracles import EpicentreCrossCheck, epicentre_cross_check
from .products import (
    Identification,
    ProductResult,
    amalgamated_coproduct,
    central_product_identified,
    direct_product,
    nilpotent2_product,
)

__version__ = "0.1.0"
