"""Exception types shared across the package, and the one rule that makes a
file that cannot be used bad input."""

from contextlib import contextmanager


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


@contextmanager
def file_access(verb: str, path):
    """Turn a file that cannot be read, decoded or made in the block into bad
    input: InvalidArgumentError("cannot <verb> <file>: <reason>"), file being
    the one the error names, else path, and reason its strerror, else its text."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as e:
        file = getattr(e, "filename", None) or path
        reason = getattr(e, "strerror", None) or str(e)
        raise InvalidArgumentError(f"cannot {verb} {file}: {reason}") from None
