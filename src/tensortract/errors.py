"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside the supported range or malformed."""


class DomainError(ParameterError):
    """A point lies outside the kernel's domain."""


class ResourceLimitError(RuntimeError):
    """A guarded computation would exceed its enumeration budget."""


class TruncationError(RuntimeError):
    """The supplied eigenvalue list is too short to resolve the query."""

    def __init__(self, message: str, required: int | None = None):
        super().__init__(message)
        self.required = required


class NumericError(RuntimeError):
    """A numerical routine failed to converge or lost internal consistency."""
