"""Error types shared across the toolkit.

Every failure mode documented by the public operations maps to one exception
class below.  Each class carries a stable ``code`` string so callers (and the
command-line driver) can match on the condition without parsing prose.  The
``ERR_SYNTAX`` variant additionally records the byte offset of the offending
token in the source expression.
"""

from __future__ import annotations


class LabError(Exception):
    """Base class for all toolkit errors."""

    code = "ERR_INTERNAL"

    def __init__(self, message: str):
        self.message = message
        super().__init__(f"{self.code}: {message}")


class DegreeError(LabError):
    """A jet was requested or combined at an unsupported degree."""

    code = "ERR_DEGREE"


class OrderError(LabError):
    """A partial derivative of order beyond the jet degree was requested."""

    code = "ERR_ORDER"


class DivideByZeroJetError(LabError):
    """Jet division by a jet whose constant term is (numerically) zero.

    ``magnitude`` holds the divisor's constant-term magnitudes over the batch,
    so a caller that knows the batch's chart points can name the worst one.
    It is None for a constant divisor, which has no chart point to name.
    """

    code = "ERR_DIVIDE_BY_ZERO_JET"

    def __init__(self, message: str, magnitude):
        super().__init__(message)
        self.magnitude = magnitude


class DomainError(LabError):
    """Argument outside the mathematical domain (sqrt/log branch cut, chart)."""

    code = "ERR_DOMAIN"


class SyntaxParseError(LabError):
    """Expression source failed to parse; ``position`` is the byte offset."""

    code = "ERR_SYNTAX"

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"{message} (at offset {position})")


class NonAnalyticError(LabError):
    """conj/re/im applied to a jet of degree >= 1 (not complex-differentiable)."""

    code = "ERR_NONANALYTIC"


class ParamConstraintError(LabError):
    """Surface parameters violate a documented constraint relation."""

    code = "ERR_PARAM_CONSTRAINT"


class ValidationError(LabError):
    """A run configuration or expression failed validation."""

    code = "ERR_VALIDATION"


class NotOnSphereError(LabError):
    """An immersion value left the unit sphere beyond tolerance."""

    code = "ERR_NOT_ON_SPHERE"


class DegenerateMetricError(LabError):
    """The induced metric determinant fell below the degeneracy threshold."""

    code = "ERR_DEGENERATE_METRIC"


class StencilOutOfDomainError(LabError):
    """A finite-difference stencil would leave a non-periodic chart."""

    code = "ERR_STENCIL_OUT_OF_DOMAIN"


class GridError(LabError):
    """An integration or verification grid is too small or malformed."""

    code = "ERR_GRID"


class UnsupportedSurfaceError(LabError):
    """An unknown surface family name was requested."""

    code = "ERR_UNSUPPORTED_SURFACE"
