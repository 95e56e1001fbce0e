"""Gradient-based detection of dominant input subspaces and reduced surrogates."""

from .core import (
    ActiveSubspace,
    Hyperrectangle,
    JacobianSamples,
    detect_subspace,
    finite_difference_jacobian,
    subspace_distance,
    suggest_truncation,
    truncate,
)
from .completion import RevealedEntries, SvtParams, SvtResult, reveal_uniform, svt_complete
from .geometry import (
    MembershipKind,
    ReducedDesign,
    ReducedDomain,
    SamplerStats,
    build_reduced_design,
    build_reduced_domain,
    lift,
    membership,
)
from .surrogate import RbfConfig, RbfSurrogate, evaluate, fit, predict

__version__ = "0.1.0"

__all__ = [
    "ActiveSubspace",
    "Hyperrectangle",
    "JacobianSamples",
    "MembershipKind",
    "RbfConfig",
    "RbfSurrogate",
    "ReducedDesign",
    "ReducedDomain",
    "RevealedEntries",
    "SamplerStats",
    "SvtParams",
    "SvtResult",
    "build_reduced_design",
    "build_reduced_domain",
    "detect_subspace",
    "evaluate",
    "finite_difference_jacobian",
    "fit",
    "lift",
    "membership",
    "predict",
    "reveal_uniform",
    "subspace_distance",
    "suggest_truncation",
    "svt_complete",
    "truncate",
    "__version__",
]
