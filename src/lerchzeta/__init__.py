"""Split-sum (approximate functional equation) evaluation of the Hurwitz and
Lerch zeta-functions, with reflection-identity checks and critical-line
mean-square experiments."""

from .afe import (AfeSplit, ErrorEnvelope, afe_eval, afe_lerch, choose_split,
                  envelope_fit, envelope_scan, error_envelope, get_cfit)
from .errors import ConfigError, DomainError, PoleError
from .funceq import default_fe_grid, fe_residual_scan, fe_rhs
from .gammafns import chi, gamma, gamma_phase_product, log_gamma
from .meansquare import (ExponentFit, MeanSquareRecord, fit_residual_exponent,
                         mean_square_ladder)
from .oracles import (hurwitz_euler_maclaurin, lerch_direct,
                      lerch_reference_table, lerch_via_hurwitz)
from .params import EvalResult, LerchParams

__version__ = "0.1.0"

__all__ = [
    "AfeSplit", "ConfigError", "DomainError", "ErrorEnvelope", "EvalResult",
    "ExponentFit", "LerchParams", "MeanSquareRecord", "PoleError",
    "afe_eval", "afe_lerch", "chi", "choose_split", "default_fe_grid",
    "envelope_fit", "envelope_scan", "error_envelope", "fe_residual_scan",
    "fe_rhs",
    "fit_residual_exponent", "gamma", "gamma_phase_product", "get_cfit",
    "hurwitz_euler_maclaurin", "lerch_direct", "lerch_reference_table",
    "lerch_via_hurwitz", "log_gamma", "mean_square_ladder",
]
