"""Generalized sine and cosine on the complex plane.

The pair (cos_n, sin_n) parameterizes the curve x**n + y**n = 1.  This
package evaluates the complex-analytic extension of both functions, the
inverse map onto the slit plane, exact rational power series, and a
certification suite that rechecks every advertised identity numerically.
"""

import importlib.util
import sys

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
from .numerics import RationalSeries
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

# ``import squig`` loads only the evaluation core above.  The certification
# suite and the reference routes (quadrature, series reversion, the winding
# count) load at the first use of one of their names.
_LAZY = {
    **dict.fromkeys((
        "DEFAULT_TOLERANCES", "VerificationReport", "VerifyConfig",
        "check_integral_ray", "check_integral_slit", "check_limit_at_infinity",
        "check_periodicity_sin3", "check_riemann_normalization",
        "check_sc_factorization", "check_trisection", "check_winding", "run_all",
    ), "verify"),
    **dict.fromkeys((
        "QuadratureResult", "integrate_endpoint_singular", "integrate_smooth",
        "integrate_tail", "revert_series", "winding_number",
    ), "reference"),
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(_LAZY))


def _lazy_submodule(name):
    """Registers the submodule in sys.modules; its body runs at first attribute access."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


# A LazyLoader module rather than a plain import in __getattr__, because
# bench/spans.py's Tracer.install reads sys.modules["squig.verify"]; once it
# imports the module instead, this can become a plain __getattr__ import.
verify = _lazy_submodule("verify")

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
