"""Exception types shared across the package, and the reason text of a failed file access."""


class PoseCascadeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(PoseCascadeError):
    """Bad input: a value, file or setting that violates a precondition. The CLI exits 2 on it."""


class ShapeError(InvalidArgumentError):
    """Array shape does not match what the operation requires."""


class MissingTorsoError(InvalidArgumentError):
    """No fully labeled torso pair, so the pose diameter is undefined."""


class ContractViolationError(PoseCascadeError):
    """Internal handoff broken, e.g. a backward pass fed a stale forward cache."""


def io_reason(e: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read or made, for a message that names the path itself."""
    return getattr(e, "strerror", None) or str(e)
