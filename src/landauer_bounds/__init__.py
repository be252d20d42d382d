"""Entropy-energy bound toolkit for small open quantum systems.

Propagates Lindblad dynamics (undriven and driven), solves the
entropy-matching condition fixing a Gibbs reference temperature from system
information alone, and evaluates the resulting two-sided bounds on dissipated
heat, including their quantum-coherence decomposition.
"""

from .errors import LandauerBoundsError
from .lindblad import JumpChannel, LindbladModel, Trajectory, generator, hamiltonian_rate, propagate
from .linalg import EigenSystem, eigh, trace_product
from .models import (
    ErasureParams,
    RydbergParams,
    build_erasure,
    build_rydberg,
    initial_state,
)
from .qstate import (
    DensityMatrix,
    ReferenceState,
    ThermoSample,
    dephase_and_coherence,
    fidelity_pure,
    gibbs_state,
    relative_entropy,
    state_functionals,
    von_neumann_entropy,
)
from .refsolve import BetaSolveResult, gibbs_entropy, solve_beta, solve_beta_series
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
    "DensityMatrix",
    "EigenSystem",
    "ErasureParams",
    "JumpChannel",
    "LandauerBoundsError",
    "LindbladModel",
    "NlpComparison",
    "ReferenceState",
    "RydbergParams",
    "ThermoSample",
    "Trajectory",
    "build_erasure",
    "build_rydberg",
    "dephase_and_coherence",
    "driven_bounds",
    "eigh",
    "evaluate_samples",
    "fidelity_pure",
    "generator",
    "gibbs_entropy",
    "gibbs_state",
    "hamiltonian_rate",
    "initial_state",
    "nlp_comparison",
    "propagate",
    "relative_entropy",
    "solve_beta",
    "solve_beta_series",
    "state_functionals",
    "trace_product",
    "undriven_bounds",
    "von_neumann_entropy",
]
