"""Exception hierarchy shared across the package.

Everything raised on purpose derives from DomikitError so callers can
catch one base class at the boundary (the CLI maps subclasses to exit
codes).
"""


class DomikitError(Exception):
    """Base class for all domikit errors."""


class DimensionError(DomikitError):
    """Vectors or structures of mismatched length were combined."""


class DomainError(DomikitError):
    """An argument lies outside the mathematical domain of the operation."""


class InvalidGeneratorError(DomikitError):
    """A generator family is empty or contains a comparable pair."""


class ComplexityGuardError(DomikitError):
    """Refusing a computation whose cost exceeds the configured guard."""


class ValidationError(DomikitError):
    """A structure violates its defining axioms (monotonicity, distinct labels, ...)."""


class DistributionError(DomikitError):
    """A component distribution is malformed or incompatible."""


class GraphError(DomikitError):
    """A flow network is malformed."""


class ParseError(DomikitError):
    """A system document could not be parsed.

    `path` points at the offending field, e.g. "structure.edges[2].max_capacity".
    """

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")
