"""Weber-Schafheitlin integrals with exponent 1, as distributions on (0, inf)."""

from . import distributions, oracle, quadrature, specfun, weber_schafheitlin
from .errors import (
    CutError,
    DomainError,
    InsufficientDataError,
    OrderError,
    ParamError,
    PoleError,
    PoleOnBoundaryError,
    SupportError,
    ToleranceError,
    WsdistError,
)

__version__ = "0.1.0"

__all__ = [
    "specfun",
    "quadrature",
    "distributions",
    "weber_schafheitlin",
    "oracle",
    "WsdistError",
    "DomainError",
    "PoleError",
    "ParamError",
    "CutError",
    "OrderError",
    "SupportError",
    "ToleranceError",
    "PoleOnBoundaryError",
    "InsufficientDataError",
    "__version__",
]
