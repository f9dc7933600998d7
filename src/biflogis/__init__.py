"""biflogis: bifurcation curve of a nonlocally damped logistic boundary problem.

Computes positive solutions of

    -(a1 ||u||_q^2 + a2 ||u||_2^2) u'' + u^p = lam u   on (0, 1),
    u(0) = u(1) = 0,

parameterized by the L2 norm alpha = ||u||_2, by reducing to the local
time-map problem -w'' + w^p = gamma w and rescaling. Submodules:

- ``quadrature``: adaptive Gauss-Legendre, scalar or stacked
- ``local_logistic``: the time-map curve gamma(k) and its exact solver
- ``constants``: closed-form asymptotic constants of the curve
- ``nonlocal_curve``: the rescaling step, alpha -> (h, beta, lambda)
- ``oracle``: independent RK4 shooting solver used for cross-validation
- ``verify``: sweeps and asymptotic checks of the curve's limit laws
- ``cli``: command-line front end (``biflogis ...``)
"""

from .errors import BiflogisError
from .quadrature import QuadResult, integrate
from .local_logistic import LocalParams, LocalPoint, Profile
from .constants import ConstantSet, compute_all
from .nonlocal_curve import ProblemParams, NonlocalSolution, solve_alpha, residual_check
from .verify import CheckResult, SweepReport, sweep

__version__ = "1.0.0"

__all__ = [
    "BiflogisError",
    "QuadResult",
    "integrate",
    "LocalParams",
    "LocalPoint",
    "Profile",
    "ConstantSet",
    "compute_all",
    "ProblemParams",
    "NonlocalSolution",
    "solve_alpha",
    "residual_check",
    "CheckResult",
    "SweepReport",
    "sweep",
    "__version__",
]
