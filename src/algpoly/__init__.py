"""Exact polyhedral geometry over real embedded algebraic number fields.

Convex hull / vertex enumeration by incremental Fourier-Motzkin
dualization, and on top of its vertex-facet incidences: pulling
triangulations and volumes, face lattices and f-vectors, and combinatorial,
algebraic, and Euclidean automorphism groups; also project-and-lift lattice
points and integer hulls, all in exact arithmetic.
"""

from .combinat import (
    AutomorphismGroup,
    FaceLattice,
    automorphisms,
    f_vector,
    face_lattice,
)
from .discrete import (
    LatticePointSet,
    Triangulation,
    VolumeResult,
    integer_hull,
    lattice_points,
    triangulate,
    volume,
)
from .dualize import ConeInput, DualizationResult, dualize, normalize
from .errors import AlgpolyError
from .io import Goal, InputSpec, ResultBundle, build_model, parse_input, write_automorphisms, write_results
from .linalg import det, invert, rank, restrict_to_span
from .numfield import (
    EmbeddingInterval,
    NFElem,
    NumberField,
    field_create,
    parse_elem,
    rational_field,
    render_elem,
)
from .polyhedron import AnalyzedPolyhedron, PolyhedronModel, analyze, homogenize

__version__ = "0.1.0"

__all__ = [
    "AlgpolyError",
    "AnalyzedPolyhedron",
    "AutomorphismGroup",
    "ConeInput",
    "DualizationResult",
    "EmbeddingInterval",
    "FaceLattice",
    "Goal",
    "InputSpec",
    "LatticePointSet",
    "NFElem",
    "NumberField",
    "PolyhedronModel",
    "ResultBundle",
    "Triangulation",
    "VolumeResult",
    "analyze",
    "automorphisms",
    "build_model",
    "det",
    "dualize",
    "f_vector",
    "face_lattice",
    "field_create",
    "homogenize",
    "integer_hull",
    "invert",
    "lattice_points",
    "normalize",
    "parse_elem",
    "parse_input",
    "rank",
    "rational_field",
    "render_elem",
    "restrict_to_span",
    "triangulate",
    "volume",
    "write_automorphisms",
    "write_results",
]
