"""Exception types shared across the package."""


class WsdistError(Exception):
    """Base class for all wsdist errors."""


class DomainError(WsdistError):
    """Argument outside the supported domain of a function."""


class PoleError(WsdistError):
    """Evaluation requested exactly at a pole."""


class ParamError(WsdistError):
    """Invalid hypergeometric parameter set (c a non-positive integer)."""


class CutError(WsdistError):
    """Hypergeometric argument on the branch cut [1, inf)."""


class OrderError(WsdistError):
    """Bessel order pair violates the validity constraints."""


class SupportError(WsdistError):
    """Test function support is not contained in (0, inf)."""


class ToleranceError(WsdistError):
    """An inner quadrature of a closed-form pairing (`pair`, and the
    closed-form side of the oracle) failed to reach the requested
    tolerance.  The oracle's direct integrals and its s-rule are fixed
    rules with no tolerance, so they raise no convergence error."""


class PoleOnBoundaryError(WsdistError):
    """Principal-value pole coincides with a support endpoint."""


class InsufficientDataError(WsdistError):
    """Too few data points for extrapolation."""
