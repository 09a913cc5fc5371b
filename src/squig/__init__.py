"""Generalized sine and cosine on the complex plane.

The pair (cos_n, sin_n) parameterizes the curve x**n + y**n = 1.  This
package evaluates the complex-analytic extension of both functions, the
inverse map onto the slit plane, exact rational power series, and a
certification suite that rechecks every advertised identity numerically.
"""

from .errors import (
    ConvergenceError,
    DegenerateLoopError,
    DivergenceError,
    DomainError,
    InvalidSeriesError,
    ParameterError,
    QuadratureError,
    RefinementNeededError,
    SingularityError,
    SquigError,
)
from .geometry import (
    FoldResult,
    SquigContext,
    boundary_polyline,
    contains_Pi,
    contains_Sigma,
    fold,
    make_context,
    sample_domain,
    unfold,
)
from .numerics import (
    QuadratureResult,
    RationalSeries,
    integrate_endpoint_singular,
    integrate_smooth,
    integrate_tail,
    revert_series,
    winding_number,
)
from .squigfn import (
    EvalResult,
    arcsin_n,
    arcsin_n_sector,
    cos_n,
    maclaurin,
    radius_estimate,
    sin3_global,
    sin_n,
)
from .verify import (
    DEFAULT_TOLERANCES,
    VerificationReport,
    VerifyConfig,
    check_integral_ray,
    check_integral_slit,
    check_limit_at_infinity,
    check_periodicity_sin3,
    check_riemann_normalization,
    check_sc_factorization,
    check_trisection,
    check_winding,
    run_all,
)

__version__ = "0.1.0"

__all__ = [
    "ConvergenceError",
    "DEFAULT_TOLERANCES",
    "DegenerateLoopError",
    "DivergenceError",
    "DomainError",
    "EvalResult",
    "FoldResult",
    "InvalidSeriesError",
    "ParameterError",
    "QuadratureError",
    "QuadratureResult",
    "RationalSeries",
    "RefinementNeededError",
    "SingularityError",
    "SquigContext",
    "SquigError",
    "VerificationReport",
    "VerifyConfig",
    "arcsin_n",
    "arcsin_n_sector",
    "boundary_polyline",
    "check_integral_ray",
    "check_integral_slit",
    "check_limit_at_infinity",
    "check_periodicity_sin3",
    "check_riemann_normalization",
    "check_sc_factorization",
    "check_trisection",
    "check_winding",
    "contains_Pi",
    "contains_Sigma",
    "cos_n",
    "fold",
    "integrate_endpoint_singular",
    "integrate_smooth",
    "integrate_tail",
    "make_context",
    "maclaurin",
    "radius_estimate",
    "revert_series",
    "run_all",
    "sample_domain",
    "sin3_global",
    "sin_n",
    "unfold",
    "winding_number",
]
