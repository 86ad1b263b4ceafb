"""Structured convex problems F = h∘A + ⟨c,·⟩ + P: proximal residual maps,
inverse-subdifferential geometry for five regularizer families, and
empirical error-bound probing."""

from .diagnostics import (
    Curve,
    ExponentFit,
    ProbeSample,
    RandomDirections,
    RegularitySummary,
    fit_exponent,
    kappa_by_decade,
    probe,
    regularity_summary,
    strict_complementarity,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    EboundError,
    EmptyProbeError,
    InfeasibleTargetError,
    InsufficientDataError,
    InvalidInputError,
    LineSearchError,
    NotOptimalError,
)
from .losses import (
    CompositeSmooth,
    GeneralQuadratic,
    LeastSquares,
    Logistic,
    NoncompactExample,
    Poisson,
    SmoothPoint,
)
from .problem import (
    OptimalityCertificate,
    ProblemInstance,
    certify,
    distance_to_solution_set,
    objective,
    r_alt,
    residual_map,
)
from .regularizers import (
    L1,
    ComplementarityReport,
    GroupedLasso,
    NuclearNorm,
    OrthantIndicator,
    Ridge,
)
from .solver import (
    Backtracking,
    Fixed,
    SolveTrace,
    estimate_linear_rate,
    proximal_gradient,
)
from .space import (
    CoordinateSelectMap,
    DenseMap,
    IdentityMap,
    SvdFactorization,
    affine_project,
    inner,
    norm,
    psd_project,
    svd,
)

__version__ = "0.1.0"
