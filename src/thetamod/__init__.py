"""Jacobi theta functions, Dedekind sums, and exact multiplier systems.

Certified q-series evaluation, exact rational-phase multiplier arithmetic,
modular-group generator decomposition, the assembled transformation laws,
and a deterministic verification harness over all of them.
"""

from .dedekind import dedekind_sum, reciprocity_defect, sawtooth
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
    gamma2_prefactor,
    lemma_sides,
    theta1_epsilon,
    theta1_epsilon_closed,
    theta1_epsilon_induction,
)
from .series import (
    ThetaKind,
    half_period_shift,
    theta1_sine_series,
    theta_series,
    truncation_bound,
)
from .transform import (
    automorphy_sqrt,
    conditioning_factor,
    eval_fast,
    eval_fast_report,
    predict_theta1,
    predict_theta1_chained,
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
    "automorphy_sqrt",
    "conditioning_factor",
    "decompose_gamma",
    "decompose_gamma2",
    "dedekind_sum",
    "eta_epsilon",
    "eval_fast",
    "eval_fast_report",
    "gamma2_alpha",
    "gamma2_prefactor",
    "half_period_shift",
    "is_gamma2",
    "jacobi_symbol",
    "lemma_sides",
    "mobius",
    "normalize_sign",
    "predict_theta1",
    "predict_theta1_chained",
    "predict_theta_gamma2",
    "recompose",
    "reciprocity_defect",
    "reduce_tau",
    "sawtooth",
    "theta1_epsilon",
    "theta1_epsilon_closed",
    "theta1_epsilon_induction",
    "theta1_sine_series",
    "theta_series",
    "truncation_bound",
]
