"""Exact computation of rings of bounded polynomial functions on semi-algebraic
subsets of affine toric varieties, with the supporting polyhedral machinery:
Hilbert bases, adapted fans, the toric compatibility condition, intersection
matrices on smooth toric surfaces, and the boundedness filtration.

All arithmetic is arbitrary-precision integer/rational; there is no floating
point anywhere in the package.
"""

from .bounded import (
    BasicSet,
    BinomialSet,
    LaurentPoly,
    RayKind,
    RayVerdict,
    TCReport,
    TCStatus,
    Tentacle,
    K_sets,
    adapted_fan,
    bounded_ring,
    check_tc,
    classify_rays,
    cone_CS,
    initial_form,
    subfan_FS,
)
from .cones import RationalCone
from .fans import Fan2D, is_smooth, make_fan, smooth_resolution, star_subdivide
from .filtration import (
    FiltrationLevel,
    StabilityReport,
    StabilityVerdict,
    filtration_level,
    filtration_levels,
    total_stability_certificate,
    verified_subfan,
)
from .hilbert import (
    ModuleGenerators,
    SemigroupBasis,
    ShiftedPolyhedron,
    dickson_decompose_scaled,
    hilbert_basis,
    lattice_kernel_relations,
    semigroup_contains,
    semigroup_membership,
)
from .linalg import Inertia, SymmetricRationalMatrix, inertia
from .surface import (
    ChainClass,
    DivisorSelection,
    GeometricCase,
    IitakaResult,
    RingShape,
    ToricSurface,
    chain_classify,
    iitaka_classify,
    intersection_matrix,
    positive_combination,
    self_intersections,
)

__version__ = "0.1.0"
