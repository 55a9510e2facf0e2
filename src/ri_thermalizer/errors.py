"""Exception types shared across the package."""


class RIThermalizerError(Exception):
    """Base class for all package errors."""


class DimensionMismatch(RIThermalizerError):
    """Operands have incompatible matrix dimensions."""


class NotHermitian(RIThermalizerError):
    """Input matrix is not Hermitian within tolerance."""


class NoConvergence(RIThermalizerError):
    """Iterative solver failed to converge within its iteration cap."""


class SumNotZero(RIThermalizerError):
    """Population deviation vector does not sum to zero."""


class CapExceeded(RIThermalizerError):
    """Requested collision count exceeds the configured cap."""


class StepTooLarge(RIThermalizerError):
    """ODE step violates the dt * Gamma_max <= 0.1 stability bound."""


class DegenerateTemperature(RIThermalizerError):
    """Slow-mode projection undefined at p_A exactly 1 or 1/2."""


class AmplitudeTooSmall(RIThermalizerError):
    """Slow-mode amplitude does not exceed 2*epsilon; estimate meaningless."""


class FrozenDynamics(RIThermalizerError):
    """J*tau is an integer multiple of pi; populations do not evolve."""


class OutOfDomain(RIThermalizerError):
    """Argument outside the domain of the requested Lambert-W branch."""


class EpsilonTooLarge(RIThermalizerError, ValueError):
    """Precision target violates the Lambert-branch validity bound z >= -1/e,
    or is not below 1."""


class NoRootBelowCap(RIThermalizerError):
    """Transcendental solver found no crossing below its bracketing cap."""


class ConfigInvalid(RIThermalizerError):
    """Sweep configuration text failed validation."""


class IoError(RIThermalizerError):
    """Output destination could not be written."""
