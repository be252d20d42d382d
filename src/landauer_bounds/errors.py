"""Exception hierarchy shared by all modules."""

from __future__ import annotations


class LandauerBoundsError(Exception):
    """Base class for all package errors."""


class NonHermitianInput(LandauerBoundsError):
    """Matrix violates the Hermiticity tolerance."""


class DimensionMismatch(LandauerBoundsError):
    """Operands have incompatible dimensions."""


class InvalidState(LandauerBoundsError):
    """Density-matrix invariants (trace, positivity, Hermiticity) violated."""


class UnnormalizedVector(LandauerBoundsError):
    """State vector is not normalized."""


class TargetOutOfRange(LandauerBoundsError):
    """Entropy target outside [0, ln d]."""


class ConstantEntropy(LandauerBoundsError):
    """Hamiltonian proportional to identity: Gibbs entropy independent of beta."""


class ProtocolDomainError(LandauerBoundsError):
    """A time-dependent protocol failed to evaluate at the requested time."""


class StabilityError(LandauerBoundsError):
    """The integrator step is unstable, by the limits that ``lindblad.propagate`` lists."""


class PositivityError(LandauerBoundsError):
    """A propagated state has an eigenvalue below -``qstate.POSITIVITY_ATOL`` (1e-9),
    the tolerance of every entropy; the message names the first such sample time."""


class DrivenModelSupplied(LandauerBoundsError):
    """An undriven-only operation received a driven model."""


class MisalignedSeries(LandauerBoundsError):
    """Reference-parameter series does not align with the trajectory grid."""


class NoBathTemperature(LandauerBoundsError):
    """Operation requires a configured thermal-bath temperature."""


class DarkStateViolation(LandauerBoundsError):
    """Constructed model does not annihilate its target dark state."""


class ConfigError(LandauerBoundsError):
    """Scenario configuration failed to parse or validate."""


class SchemaError(LandauerBoundsError):
    """Input file does not match the expected schema."""
