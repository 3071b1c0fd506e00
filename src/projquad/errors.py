"""Exception types shared across the package."""

from __future__ import annotations


class ProjquadError(Exception):
    """Base class for all package-specific errors."""


class BadParameters(ProjquadError):
    """A function was called with parameters outside its domain."""


class UnsupportedParameters(BadParameters):
    """Parameters are syntactically valid but no construction route exists."""


# ---- complex construction ----

class UnknownVertex(ProjquadError):
    """A cell references a vertex id that does not exist."""


class DuplicateVertexInCell(ProjquadError):
    """A cell lists the same vertex twice."""


class VertexArityMismatch(ProjquadError):
    """A p-cell does not have exactly p+1 vertices (or facets)."""


class DanglingFacet(ProjquadError):
    """A facet id does not exist at the expected dimension."""


class FacetCoverageError(ProjquadError):
    """Facet vertex sets are not exactly the p+1 distinct p-subsets."""


class BadDimension(ProjquadError):
    """A dimension argument is outside the complex's range."""


# ---- homology ----

class NotACycle(ProjquadError):
    """A chain handed to a cycle-only operation has non-zero boundary."""


# ---- symmetry ----

class NotFree(ProjquadError):
    """A pairing is not a fixed-point-free involution on its domain."""


class LoopsWouldForm(ProjquadError):
    """A cell contains an antipodal vertex pair, so the quotient degenerates."""


class LoopCreated(ProjquadError):
    """A graph edge joins two identified vertices."""


class MissingCoordinates(ProjquadError):
    """A geometric check needs vertex coordinates that are absent."""


class NotOnUnitSphere(ProjquadError):
    """A vertex coordinate vector is not of unit Euclidean norm."""


class NotAClosedWalk(ProjquadError):
    """An edge list does not form a closed walk."""


# ---- constructions / pipelines ----

class InputNotQuadrangulation(ProjquadError):
    """An input complex fails the symmetric-quadrangulation preconditions."""


class VerificationFailed(ProjquadError):
    """A construction output failed one of its mandatory audits; `report`
    is always the AuditReport in which those audits fail."""

    def __init__(self, message: str, report):
        super().__init__(message)
        self.report = report


# ---- solver ----

class BudgetExceeded(ProjquadError):
    """The exact solver ran out of budget; carries the best bounds found."""

    def __init__(self, lower: int, upper: int, colouring=None, nodes: int = 0):
        super().__init__(f"budget exceeded: bounds [{lower}, {upper}] after {nodes} nodes")
        self.lower = lower
        self.upper = upper
        self.colouring = colouring
        self.nodes = nodes


class BoundContradiction(ProjquadError):
    """A lower bound given to the solver exceeds a proper colouring it found."""


# ---- file parsing ----

class ParseError(ProjquadError):
    """An input file is not valid JSON or does not match the expected schema."""
