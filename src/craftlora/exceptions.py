"""Error types shared across the toolkit.

The CLI maps these onto its exit-code contract: usage/config problems exit 1,
data/corruption problems exit 2, numerical failures exit 3.
"""


class CraftLoraError(Exception):
    """Base class for all toolkit errors."""


class ShapeMismatch(CraftLoraError, ValueError):
    """Operands do not conform (wrong dimensions or incompatible shapes)."""


class DegenerateInput(CraftLoraError, ValueError):
    """Input carries no usable numerical content (e.g. all-zero basis)."""


class NotOrthonormal(CraftLoraError, ValueError):
    """A matrix that must have orthonormal columns does not, beyond tolerance."""


class OutOfRange(CraftLoraError, IndexError):
    """A layer or timestep index lies outside its valid range."""


class BadCutoff(CraftLoraError, ValueError):
    """Frequency cutoff outside the accepted normalized range."""


class EmptyBatch(CraftLoraError, ValueError):
    """A training batch with no members."""


class EmptySet(CraftLoraError, ValueError):
    """A metric was asked to average over nothing."""


class GridIncomplete(CraftLoraError, ValueError):
    """An evaluation grid is missing cells."""


class ConfigInvalid(CraftLoraError, ValueError):
    """A configuration value violates a module precondition."""


class MarkerMissing(CraftLoraError, ValueError):
    """A prompt lacks the routing marker required by the operation."""


class MalformedMarkers(CraftLoraError, ValueError):
    """Routing markers appear in an impossible order."""


class RoutingViolation(CraftLoraError, ValueError):
    """An adapter touches a layer outside its routed set, or sets overlap."""


class ModelUntrained(CraftLoraError, RuntimeError):
    """An operation needs trained weights that were not supplied."""


class HostMismatch(CraftLoraError, RuntimeError):
    """An adapter is being used with a backbone it was not trained on."""


class CorruptCheckpoint(CraftLoraError, RuntimeError):
    """A checkpoint or data file fails its structural or CRC validation."""


class NumericalError(CraftLoraError, RuntimeError):
    """A computation produced non-finite values or lost rank unexpectedly."""
