"""Exception types shared across the package, and the reason text of a failed file access."""


class PoseCascadeError(Exception):
    """Base class for all errors raised by this package."""


class InvalidArgumentError(PoseCascadeError):
    """Caller passed a value that violates a precondition (non-finite, wrong range, ...)."""


class ShapeError(InvalidArgumentError):
    """Array shape does not match what the operation requires."""


class MissingTorsoError(PoseCascadeError):
    """No fully labeled torso pair, so the pose diameter is undefined."""


class DegenerateBoxError(PoseCascadeError):
    """A bounding box would have zero or negative extent."""


class ContractViolationError(PoseCascadeError):
    """Internal handoff broken, e.g. a backward pass fed a stale forward cache."""


class InvalidStateError(PoseCascadeError):
    """Operation invoked in a state it cannot run from (e.g. empty training set)."""


class ManifestParseError(PoseCascadeError):
    """Malformed manifest text. Carries the 1-based line number."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class ManifestValidationError(PoseCascadeError):
    """Structurally valid manifest whose content breaks an invariant."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class ImageFormatError(PoseCascadeError):
    """File is not a decodable binary PGM/PPM image."""


def io_reason(e: OSError | UnicodeDecodeError) -> str:
    """Why a file could not be read or made, for a message that names the path itself."""
    return getattr(e, "strerror", None) or str(e)
