"""Exception types shared across the package."""


class AlgpolyError(Exception):
    """Base class for all errors raised by this package."""


# --- number field construction and arithmetic

class ZeroPolynomial(AlgpolyError):
    """The defining polynomial is zero or constant."""


class NotSquareFree(AlgpolyError):
    """The defining polynomial has a repeated root."""


class NoRootInInterval(AlgpolyError):
    """The embedding interval does not isolate exactly one real root."""


class FieldMismatch(AlgpolyError):
    """Operands belong to different number fields."""


class DivisionByZero(AlgpolyError, ZeroDivisionError):
    """Inversion of zero, or of a zero divisor under a reducible polynomial."""


class VanishingElement(AlgpolyError):
    """A nonzero element is zero at the embedding of a reducible polynomial."""


class ElementSyntaxError(AlgpolyError):
    """A field element literal does not match the element grammar."""


# --- linear algebra

class ShapeMismatch(AlgpolyError):
    """Matrix dimensions are inconsistent with the operation."""


class SingularMatrix(AlgpolyError):
    """Determinant is zero where an invertible matrix is required."""


class ZeroVector(AlgpolyError):
    """Normalization of the zero vector."""


# --- polyhedra

class DimensionMismatch(AlgpolyError):
    """Row width inconsistent with the ambient dimension."""


class NotFullDimensional(AlgpolyError):
    """Operation requires a full-dimensional polytope."""


class NotAPolytope(AlgpolyError):
    """Operation requires a bounded, feasible polyhedron."""


class UnboundedPolyhedron(AlgpolyError):
    """Euclidean/algebraic automorphisms are undefined for unbounded polyhedra."""


class InconsistentFaceLattice(AlgpolyError):
    """The graded face lattice disagrees with the polyhedron's dimension."""


# --- input files

class InputSyntaxError(AlgpolyError):
    """Malformed input file; carries line and column when known."""

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class FieldElementOutsideGrammar(InputSyntaxError):
    """A row entry is not a valid field element literal."""


class UnknownGoal(InputSyntaxError):
    """Unrecognized computation goal token."""


class BadDenominator(InputSyntaxError):
    """Vertex denominator is not a positive integer."""


class UnsupportedBlock(InputSyntaxError):
    """Recognized Normaliz block type that this kernel does not support."""
