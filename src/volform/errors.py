"""Exception types shared across the package."""


class VolformError(Exception):
    """Base class for all errors raised by this package."""


class VariableMismatchError(VolformError):
    """Two polynomials with different variable lists were combined."""


class UnknownVariableError(VolformError):
    """A variable name is not part of the polynomial's variable list."""


class NotAUnitError(VolformError):
    """Inversion or division required a single-term monomial and got something else."""


class EvaluationError(VolformError):
    """A point assignment is unusable, e.g. zero raised to a negative power."""


class ScalarError(VolformError):
    """A scalar is not exact: only ``int`` and ``Fraction`` values are accepted."""


class ChartError(VolformError):
    """A chart presentation violates the triangular degree-1 restrictions."""


class PointError(VolformError):
    """A point does not lie on the chart."""


class ActionError(VolformError):
    """A substitution action is not a finite-order automorphism of the chart."""


class NotTangentError(VolformError):
    """A vector field is not tangent to the chart's variety."""


class VolumeFormError(VolformError):
    """A top form does not qualify as a volume form (non-unit coefficient)."""


class NilpotencyError(VolformError):
    """A derivation did not reach zero within the iteration bound."""


class PreconditionError(VolformError):
    """An operation's stated precondition failed; distinct from a negative result."""


class DimensionError(VolformError):
    """An operation requires a chart of a specific dimension."""


class ResourceLimitError(VolformError):
    """A computation exceeded its work budget, or a number is too long to print."""


class GroupError(VolformError):
    """A matrix group presentation is invalid (singular element, unstable span, ...)."""


class _PositionedError(VolformError):
    """An error whose message is prefixed with ``line:col`` when it has a position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        super().__init__(f"{line}:{col}: {message}" if line else message)
        self.message = message
        self.line = line
        self.col = col


class ParseError(_PositionedError):
    """Lexical or syntactic error in a DSL document."""


class SemanticError(_PositionedError):
    """A well-formed DSL construct that refers to unknown or ill-typed objects."""
