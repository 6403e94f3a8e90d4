"""Reduction theory of point clusters in projective space.

Classify clusters by stability, compute the Hermitian covariant minimizing the
cluster distance function, and combine it with LLL to reduce point clusters,
binary forms, pencils of quadrics and ternary forms to small-coefficient
representatives.
"""

from .cluster_core import (
    PointCluster,
    ProjectivePoint,
    ScaledCluster,
    StabilityClass,
    SubspaceWitness,
    act,
    classify,
    normalize_cluster,
    phi,
)
from .covariant import (
    CovariantResult,
    DivergenceWitness,
    HermitianForm,
    TangentDirection,
    ThetaResult,
    eval_D,
    grad_D,
    minimize,
    simplex_covariant,
    theta,
)
from .errors import (
    ClusterReduceError,
    CommonComponentError,
    ConvergenceError,
    DegeneratePencilError,
    DegeneratePositionError,
    DimensionError,
    EliminationError,
    InputFormatError,
    InvalidPointError,
    NotPositiveDefiniteError,
    RealityError,
    SingularMatrixError,
    StabilityError,
)
from .lattice import (
    GramMatrix,
    UnimodularTransform,
    congruence,
    is_lll_reduced,
    lll_reduce,
)
from .pipelines import (
    ReductionReport,
    pencil_cubic,
    reduce_binary_form,
    reduce_cluster,
    reduce_quadric_pencil,
    reduce_ternary_form,
)
from .polyalg import (
    MultiPoly,
    RootSet,
    aberth_roots,
    curve_intersection,
    hessian,
    substitute,
)

__version__ = "0.1.0"

__all__ = [
    "PointCluster",
    "ProjectivePoint",
    "ScaledCluster",
    "StabilityClass",
    "SubspaceWitness",
    "act",
    "classify",
    "normalize_cluster",
    "phi",
    "CovariantResult",
    "DivergenceWitness",
    "HermitianForm",
    "TangentDirection",
    "ThetaResult",
    "eval_D",
    "grad_D",
    "minimize",
    "simplex_covariant",
    "theta",
    "GramMatrix",
    "UnimodularTransform",
    "congruence",
    "is_lll_reduced",
    "lll_reduce",
    "MultiPoly",
    "RootSet",
    "aberth_roots",
    "curve_intersection",
    "hessian",
    "substitute",
    "ReductionReport",
    "pencil_cubic",
    "reduce_binary_form",
    "reduce_cluster",
    "reduce_quadric_pencil",
    "reduce_ternary_form",
    "ClusterReduceError",
    "CommonComponentError",
    "ConvergenceError",
    "DegeneratePencilError",
    "DegeneratePositionError",
    "DimensionError",
    "EliminationError",
    "InputFormatError",
    "InvalidPointError",
    "NotPositiveDefiniteError",
    "RealityError",
    "SingularMatrixError",
    "StabilityError",
]
