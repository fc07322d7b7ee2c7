"""Self-contained special functions.

Gamma and digamma on the real line, Bessel J of real order, the
modified Bessel function K of complex argument, the Hankel function
H1 through the K identity, and the Gauss hypergeometric function with
an explicit boundary-value convention on the cut [1, inf).
"""

from .besselj import bessel_j
from .besselk import bessel_k_complex, hankel1_complex
from .gammafn import EULER_GAMMA, digamma, gamma
from .hyp import BranchPoint, HypParams, hyp2f1, hyp2f1_boundary

__all__ = [
    "gamma",
    "digamma",
    "EULER_GAMMA",
    "bessel_j",
    "bessel_k_complex",
    "hankel1_complex",
    "HypParams",
    "BranchPoint",
    "hyp2f1",
    "hyp2f1_boundary",
]
