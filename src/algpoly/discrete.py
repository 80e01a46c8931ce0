"""Triangulation, volume, lattice points, and integer hull of polytopes.

The volume of a full-dimensional polytope is the sum of the absolute
determinants of the simplices of a pulling triangulation, read off the
vertex-facet incidences, with each vertex row rescaled to dehomogenized
form; that sum is the lattice normalized volume, an exact field element,
and the Euclidean volume is its value divided by d factorial.

Lattice points are enumerated by project-and-lift: the support hyperplane
system is projected one coordinate at a time by Fourier-Motzkin
elimination, the coordinates eliminated last-first, and integer candidates
are lifted back level by level, first coordinate first, inside exact
bounds.  Every projected row carries the set of vertices it is tight on, so
each elimination step keeps, without arithmetic, only the implicit
equations and one row per facet of the projection; only those rows are
formed and normalized.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial, prod

from . import linalg
from .dualize import normalize
from .errors import NotAPolytope, NotFullDimensional
from .numfield import sig_decimal_str
from .polyhedron import PolyhedronModel, analyze


@dataclass
class Triangulation:
    """Pulling triangulation of the cone over a polytope.

    Each simplex is a sorted tuple of vertex indices; its determinant is taken
    on the dehomogenized rows (last coordinate scaled to 1), so the absolute
    determinants add up to the lattice normalized volume.
    """

    simplices: list  # index tuples into the analyzed vertex list
    determinants: list  # NFElem per simplex

    def __len__(self):
        return len(self.simplices)


@dataclass
class VolumeResult:
    normalized: object  # NFElem: lattice normalized volume
    dim: int

    def euclidean_fraction(self, digits=14):
        value = self.normalized / factorial(self.dim)
        return value.approx(digits)

    def euclidean_str(self, sig=12):
        return sig_decimal_str(self.euclidean_fraction(sig + 4), sig)


@dataclass
class LatticePointSet:
    points: list  # integer tuples in homogenized coordinates, last entry 1

    def __len__(self):
        return len(self.points)


def triangulate(analyzed):
    """Pulling triangulation of a full-dimensional polytope, from incidences.

    A k-face with k+1 vertices is a simplex; any other face is coned from its
    lowest-index vertex over its facets missing that vertex, which are the
    inclusion-maximal proper cuts of the face with the polytope's facets.
    The pull order is global, so a face shared by two branches is split
    alike in both (De Loera, Rambau & Santos, *Triangulations*, 2010, 4.3).
    """
    if not analyzed.is_polytope:
        raise NotAPolytope("triangulation requires a bounded feasible polyhedron")
    if analyzed.affine_dim != analyzed.dim:
        raise NotFullDimensional(
            f"polytope has affine dimension {analyzed.affine_dim} "
            f"in {analyzed.dim}-space"
        )
    rows = analyzed.vertices
    pulled = {}  # face bitset -> sorted vertex index tuples of its simplices

    def pull(face, k):
        if face in pulled:
            return pulled[face]
        if face.bit_count() == k + 1:
            simplices = [tuple(i for i in range(len(rows)) if face >> i & 1)]
        else:
            apex = face & -face
            cuts = {face & r for r in analyzed.incidence} - {face}
            simplices = []
            for sub in sorted(cuts):
                if sub & apex or any(sub != c and sub & c == sub for c in cuts):
                    continue
                simplices += [(apex.bit_length() - 1,) + s for s in pull(sub, k - 1)]
        pulled[face] = simplices
        return simplices

    simplices = pull((1 << len(rows)) - 1, analyzed.dim)
    determinants = [
        linalg.det([list(rows[i]) for i in s]) / prod(rows[i][-1] for i in s)
        for s in simplices
    ]
    return Triangulation(simplices=simplices, determinants=determinants)


def volume(analyzed, triangulation):
    """Lattice normalized volume (exact) from the polytope's `Triangulation`."""
    total = sum((abs(d) for d in triangulation.determinants), analyzed.field.zero)
    return VolumeResult(normalized=total, dim=analyzed.dim)


# ----------------------------------------------------------------------------
# project-and-lift

def _project_once(system, var, field, full):
    """Eliminate variable `var` from (row, tight) pairs, keeping facet rows.

    A row (l, c) stands for l.x + c >= 0 and `tight` is the bitset of the
    polytope's vertices on which it vanishes.  A pos x neg combination
    vanishes on a vertex exactly when both parents do, so its tight set is
    the AND of theirs and is known before any arithmetic (the combinatorial
    test of Fukuda & Prodon, 1996).  Kept are the rows tight on every vertex
    (the implicit equations, deduplicated by `normalize`) and one row per
    inclusion-maximal proper tight set: the facets of the projection.  They
    define the projection, since a system defining a polytope has a row for
    each of its facets, so the next step finds every facet again.
    """
    pos, neg, candidates = [], [], []
    for row, tight in system:
        s = row[var].sign()
        if s > 0:
            pos.append((row, tight))
        elif s < 0:
            neg.append((row, tight))
        else:
            candidates.append((tight, row, None))
    candidates += [(tp & tn, p, n) for p, tp in pos for n, tn in neg]

    # a proper tight set is maximal iff no larger maximal one contains it;
    # a row tight on no vertex is never a facet
    facets = set()
    for t in sorted({t for t, _, _ in candidates if t != full and t},
                    key=int.bit_count, reverse=True):
        if not any(t & m == t for m in facets):
            facets.add(t)

    seen = set()
    out = []
    for tight, p, n in candidates:
        if tight != full and tight not in facets:
            continue
        if n is None:
            row = p[:var] + p[var + 1 :]
        else:
            row = tuple(
                p[var] * n[k] - n[var] * p[k] for k in range(len(p)) if k != var
            )
        if not any(row[:-1]):
            continue
        v = normalize(row, field)
        if v not in seen:
            seen.add(v)
            out.append((v, tight))
        facets.discard(tight)  # one row stands for each facet
    return out


def _projected_systems(analyzed):
    """Level -> (row, tight) system of the polytope projected to its first
    `level` coordinates."""
    field = analyzed.field
    d = analyzed.dim
    full = (1 << len(analyzed.vertices)) - 1
    # hyperplane rows are (l, c) with l.x + c >= 0 for dehomogenized points
    constraints = list(zip(analyzed.support_hyperplanes, analyzed.incidence))
    if analyzed.affine_dim < d:
        # pin lower-dimensional polytopes to their affine hull
        for eq in linalg.null_space(analyzed.generator_rows()):
            constraints.append((eq, full))
            constraints.append((tuple(-x for x in eq), full))
    systems = {d: constraints}
    for level in range(d, 1, -1):
        systems[level - 1] = _project_once(systems[level], level - 1, field, full)
    return systems


def lattice_points(analyzed):
    """All integer points of a polytope, by project-and-lift.

    Coordinates are eliminated last-first, so the system at level k bounds
    the first k coordinates, and points are lifted back first coordinate
    first.  Each row of the projected systems carries the set of vertices it
    is tight on, and each elimination step keeps only the implicit equations
    and one row per facet of the projection, chosen from those sets without
    arithmetic.
    """
    if not analyzed.is_polytope:
        raise NotAPolytope("lattice point enumeration requires a polytope")
    d = analyzed.dim
    if d == 0:
        return LatticePointSet(points=[(1,)])
    systems = _projected_systems(analyzed)

    points = []
    prefix = []

    def lift(level):
        lower = None
        upper = None
        for row, _ in systems[level]:
            b = row[level - 1]
            s = b.sign()
            if s == 0:
                continue
            # value of the fixed part: constants + already chosen coordinates
            acc = row[-1]
            for k in range(level - 1):
                if prefix[k]:
                    acc = acc + row[k] * prefix[k]
            bound = -(acc / b)
            if s > 0:  # b*x >= -acc
                if lower is None or bound > lower:
                    lower = bound
            else:
                if upper is None or bound < upper:
                    upper = bound
        if lower is None or upper is None:
            raise NotAPolytope(
                f"projected system unbounded in coordinate {level - 1}"
            )
        lo = -((-lower).floor())  # ceil
        hi = upper.floor()
        for value in range(lo, hi + 1):
            prefix.append(value)
            if level == d:
                points.append(tuple(prefix))
            else:
                lift(level + 1)
            prefix.pop()

    lift(1)

    out = sorted(pt + (1,) for pt in points)
    return LatticePointSet(points=out)


def integer_hull(analyzed, points):
    """Convex hull of `points`, the polytope's `LatticePointSet`, analyzed."""
    field = analyzed.field
    vertices = [
        tuple(field.from_rational(c) for c in p[:-1]) for p in points.points
    ]
    model = PolyhedronModel(field, analyzed.dim, vertices=vertices)
    return analyze(model)
