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
    """An inner quadrature failed to reach the requested tolerance."""


class PoleOnBoundaryError(WsdistError):
    """Principal-value pole coincides with a support endpoint."""


class NonConvergenceError(WsdistError):
    """A quadrature did not converge: the tanh-sinh first k-panel of an
    oracle direct integral did not settle within its levels.  The rest of
    a direct integral is a fixed rule, so no eps is too small for it.  No
    special function raises it."""


class InsufficientDataError(WsdistError):
    """Too few data points for extrapolation."""
