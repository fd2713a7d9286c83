"""Numerical toolkit for finite Blaschke products on the unit disk.

Construction and evaluation, circle level sets and the invariant-map group,
critical points and values, the compressed-shift matrix model and its
numerical range, Poncelet curve packages with conic classification,
compositional decomposition, and numerical monodromy.
"""

from .core import (
    BlaschkeProduct,
    CompositionChain,
    DEFAULT_TOL,
    DiskAutomorphism,
    NormalizedForm,
    RegularizedCheck,
    ToleranceConfig,
    circle_samples,
    compose,
    is_regularized,
    normalize,
    unit,
)
from .errors import (
    BlaschkeError,
    CountMismatch,
    DegenerateInput,
    EigensolverFailure,
    GeometryFailure,
    InputError,
    NonBijective,
    PoleProximity,
    SolverFailure,
    TrackingFailure,
    VerificationFailure,
)

__version__ = "0.1.0"

__all__ = [
    "BlaschkeProduct",
    "CompositionChain",
    "DEFAULT_TOL",
    "DiskAutomorphism",
    "NormalizedForm",
    "RegularizedCheck",
    "ToleranceConfig",
    "circle_samples",
    "compose",
    "is_regularized",
    "normalize",
    "unit",
    "BlaschkeError",
    "CountMismatch",
    "DegenerateInput",
    "EigensolverFailure",
    "GeometryFailure",
    "InputError",
    "NonBijective",
    "PoleProximity",
    "SolverFailure",
    "TrackingFailure",
    "VerificationFailure",
    "__version__",
]
