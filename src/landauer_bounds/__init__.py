"""Entropy-energy bound toolkit for small open quantum systems.

Propagates Lindblad dynamics (undriven and driven), solves the
entropy-matching condition fixing a Gibbs reference temperature from system
information alone, and evaluates the resulting two-sided bounds on dissipated
heat, including their quantum-coherence decomposition.
"""

from .errors import LandauerBoundsError
from .lindblad import JumpChannel, LindbladModel, Trajectory, propagate
from .linalg import eigh
from .models import (
    ErasureParams,
    RydbergParams,
    build_erasure,
    build_rydberg,
    initial_state,
)
from .qstate import (
    ThermoSample,
    fidelity_pure,
    gibbs_state,
    relative_entropy,
    state_functionals,
    von_neumann_entropy,
)
from .refsolve import BetaSolveResult, solve_beta, solve_beta_series
from .thermo import (
    Bounds,
    NlpComparison,
    driven_bounds,
    evaluate_samples,
    nlp_comparison,
    undriven_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "BetaSolveResult",
    "Bounds",
    "ErasureParams",
    "JumpChannel",
    "LandauerBoundsError",
    "LindbladModel",
    "NlpComparison",
    "RydbergParams",
    "ThermoSample",
    "Trajectory",
    "build_erasure",
    "build_rydberg",
    "driven_bounds",
    "eigh",
    "evaluate_samples",
    "fidelity_pure",
    "gibbs_state",
    "initial_state",
    "nlp_comparison",
    "propagate",
    "relative_entropy",
    "solve_beta",
    "solve_beta_series",
    "state_functionals",
    "undriven_bounds",
    "von_neumann_entropy",
]
