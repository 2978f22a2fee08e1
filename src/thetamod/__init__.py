"""Jacobi theta functions, Dedekind sums, and exact multiplier systems.

Certified q-series evaluation, exact rational-phase multiplier arithmetic,
modular-group generator decomposition, the assembled transformation laws,
and a deterministic verification harness over all of them.
"""

from .dedekind import dedekind_sum
from .errors import DomainError, PrecisionUnreachableError
from .exact import UnitPhase, jacobi_symbol
from .modgroup import (
    GeneratorWord,
    Letter,
    Sl2Matrix,
    decompose_gamma,
    decompose_gamma2,
    is_gamma2,
    mobius,
    normalize_sign,
    recompose,
)
from .multipliers import (
    eta_epsilon,
    gamma2_alpha,
    theta1_epsilon,
    theta1_epsilon_closed,
)
from .series import (
    ThetaKind,
    theta_series,
    truncation_bound,
)
from .transform import (
    eval_fast,
    eval_fast_report,
    predict_theta1,
    predict_theta_gamma2,
    reduce_tau,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError",
    "GeneratorWord",
    "Letter",
    "PrecisionUnreachableError",
    "Sl2Matrix",
    "ThetaKind",
    "UnitPhase",
    "decompose_gamma",
    "decompose_gamma2",
    "dedekind_sum",
    "eta_epsilon",
    "eval_fast",
    "eval_fast_report",
    "gamma2_alpha",
    "is_gamma2",
    "jacobi_symbol",
    "mobius",
    "normalize_sign",
    "predict_theta1",
    "predict_theta_gamma2",
    "recompose",
    "reduce_tau",
    "theta1_epsilon",
    "theta1_epsilon_closed",
    "theta_series",
    "truncation_bound",
]
