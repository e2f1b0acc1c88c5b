"""Exception hierarchy shared across the package."""


class PatchmemError(Exception):
    """Base class for all package errors.

    ``exit_code`` is the command-line exit status the error ends in: 2, a
    data error, unless a subclass names a usage error (1).
    """

    exit_code = 2


class ParameterError(PatchmemError):
    """A parameter is outside its documented range."""

    exit_code = 1


class DimensionError(PatchmemError):
    """Array shapes are inconsistent with the operation's contract."""


class DataError(PatchmemError):
    """Array values violate a container invariant (range, finiteness, normalization)."""


class LabelError(PatchmemError):
    """A label map contains values outside the allowed class set."""


class LayoutError(PatchmemError):
    """A patch layout cannot be built for the requested geometry."""


class StateError(PatchmemError):
    """An operation was called before its required state was produced."""


class PartitionError(PatchmemError):
    """A slice-region partition request leaves a region empty."""

    exit_code = 1


class SchedulingError(PatchmemError):
    """The propagation scheduler hit a missing prerequisite or an unreachable frame."""


class PhantomSpecError(PatchmemError):
    """Phantom geometry or parameters do not fit the requested frame."""

    exit_code = 1


class ContainerError(PatchmemError):
    """Base class for container file problems."""


class ContainerFormatError(ContainerError):
    """Bad magic string or a malformed header."""


class TruncationError(ContainerError):
    """Payload length disagrees with the header dims and dtype."""


class UnsupportedDtypeError(ContainerError):
    """Header names a dtype this implementation does not support."""
