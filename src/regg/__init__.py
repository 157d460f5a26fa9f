"""Random d-regular graph models, switching-based local resampling, and
spectral-law verification harness."""

__version__ = "0.1.0"

from .errors import (BudgetExceededError, InsufficientDataError, InvalidMoveError,
                     InvalidParametersError, NumericalDegeneracyError, ReggError)
from .graphs import (Matching, ModelKind, MultiGraph, Permutation,
                     enumerate_simple_regular, sample_configuration_model,
                     sample_matching_model, sample_model,
                     sample_permutation_model, sample_uniform)
from .rng import stream
from .spectral import (ResolventView, build_H, default_xi, effective_D,
                       f_envelope, m_semicircle, phi_envelope)
from .switchings import (ResampleOutcome, TripleSelection, mm_resample,
                         mm_switch, pm_switch, um_resample,
                         um_simultaneous_switch)

__all__ = [name for name in dir() if not name.startswith("_")]
