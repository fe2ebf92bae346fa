"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside the supported range or malformed."""


class DomainError(ParameterError):
    """A point lies outside the kernel's domain."""


class ResourceLimitError(RuntimeError):
    """A guarded computation would exceed its enumeration budget."""


class TruncationError(RuntimeError):
    """The supplied eigenvalue list is too short to resolve the query: it
    does not end in 0, and its unseen tail could still change the answer."""


class NumericError(RuntimeError):
    """A numerical routine failed to converge or lost internal consistency."""
