"""Polyhedra as cones over them: homogenization and analysis.

A polyhedron in d-space is handled through the cone it spans in (d+1)-space,
with the last coordinate as the dehomogenizing one.  Vertices enter as rows
(v, 1), recession rays as (c, 0), and an inequality l(x) + c >= 0 as the
linear form (l, c).  For constraint input the form x_{d+1} >= 0 is always
part of the system, so the computed cone is exactly the cone over the
polyhedron.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from . import linalg
from .dualize import ConeInput, dualize
from .errors import DimensionMismatch, ShapeMismatch


@dataclass
class PolyhedronModel:
    """A polyhedron given by vertices/rays, by constraints, or both."""

    field: object
    dim: int
    vertices: list = dc_field(default_factory=list)  # points, width dim
    rays: list = dc_field(default_factory=list)  # directions, width dim
    inequalities: list = dc_field(default_factory=list)  # (l, c): l.x + c >= 0
    equations: list = dc_field(default_factory=list)  # (l, c): l.x + c == 0

    def __post_init__(self):
        for row in self.vertices + self.rays:
            if len(row) != self.dim:
                raise DimensionMismatch(
                    f"point of width {len(row)} in {self.dim}-space"
                )
        for row in self.inequalities + self.equations:
            if len(row) != self.dim + 1:
                raise DimensionMismatch(
                    f"constraint of width {len(row)}, expected {self.dim + 1}"
                )

    @property
    def has_vrep(self):
        return bool(self.vertices or self.rays)

    @property
    def has_hrep(self):
        return bool(self.inequalities or self.equations)


def homogenize(model):
    """Cone input in dimension dim+1 for either representation."""
    field = model.field
    one, zero = field.one, field.zero
    if model.has_vrep:
        rows = [tuple(v) + (one,) for v in model.vertices]
        rows += [tuple(c) + (zero,) for c in model.rays]
        return ConeInput(field, model.dim + 1, generators=rows)
    if model.has_hrep:
        rows = [tuple(r) for r in model.inequalities]
        for eq in model.equations:
            rows.append(tuple(eq))
            rows.append(tuple(-x for x in eq))
        rows.append((zero,) * model.dim + (one,))  # dehomogenizing halfspace
        return ConeInput(field, model.dim + 1, constraints=rows)
    raise ShapeMismatch("polyhedron with neither representation")


@dataclass
class AnalyzedPolyhedron:
    """Result of converting a polyhedron to its double description."""

    model: PolyhedronModel
    feasible: bool
    vertices: list  # normalized homogenized rows, last coordinate > 0
    rays: list  # normalized homogenized rows, last coordinate = 0
    support_hyperplanes: list  # normalized homogenized forms
    incidence: list  # per hyperplane: bitset over vertices then rays
    affine_dim: int
    lineality_dim: int
    cone_rank: int

    @property
    def field(self):
        return self.model.field

    @property
    def dim(self):
        return self.model.dim

    @property
    def is_empty(self):
        return not self.feasible

    @property
    def is_polytope(self):
        return self.feasible and not self.rays and self.lineality_dim == 0

    @property
    def recession_rank(self):
        if not self.feasible:
            return 0
        rays = [list(r[:-1]) for r in self.rays]
        base = linalg.rank(rays) if rays else 0
        return base + self.lineality_dim

    def vertex_points(self):
        """Dehomogenized vertex coordinates (last coordinate scaled to 1)."""
        out = []
        for row in self.vertices:
            t = row[-1]
            out.append(tuple(x / t for x in row[:-1]))
        return out

    def generator_rows(self):
        return list(self.vertices) + list(self.rays)


def _empty_analysis(model):
    return AnalyzedPolyhedron(
        model=model,
        feasible=False,
        vertices=[],
        rays=[],
        support_hyperplanes=[],
        incidence=[],
        affine_dim=-1,
        lineality_dim=0,
        cone_rank=0,
    )


def analyze(model):
    """Vertices, recession rays, support hyperplanes, and dimensions."""
    if model.has_vrep and not model.vertices:
        if not model.rays:
            return _empty_analysis(model)
        # a cone without explicit vertices is the polyhedron it spans: add 0
        model = PolyhedronModel(
            model.field,
            model.dim,
            vertices=[tuple([model.field.zero] * model.dim)],
            rays=model.rays,
        )
    if not model.has_vrep and not model.has_hrep:
        return _empty_analysis(model)

    cone = homogenize(model)
    result = dualize(cone)

    if model.has_vrep:
        gen_rows = result.generators
        gen_incidence = result.incidence  # per hyperplane over generators
        hyperplanes = result.support_hyperplanes
        extreme = set(result.extreme)
        cone_rank = result.span_rank
        lineality = result.lineality_dim
    else:
        # constraint input: the engine's sigmas are the primal extreme rays
        gen_rows = result.support_hyperplanes
        lineality = (model.dim + 1) - result.span_rank
        cone_rank = result.dual_rank + lineality
        if lineality == 0 and result.dual_rank < result.span_rank:
            # constraints imply equations: the facets within the span are not
            # among the input rows, so reconvert from the computed rays
            points, directions = [], []
            for row in gen_rows:
                t = row[-1]
                if t.sign() > 0:
                    points.append(tuple(x / t for x in row[:-1]))
                else:
                    directions.append(tuple(row[:-1]))
            if not points:
                return _empty_analysis(model)
            vmodel = PolyhedronModel(
                model.field, model.dim, vertices=points, rays=directions
            )
            redone = analyze(vmodel)
            redone.model = model
            return redone
        # full-dimensional primal cone: extreme constraint rows are the facets
        hyperplanes = [result.generators[i] for i in result.extreme]
        # transpose incidence: facet-major over primal rays
        gen_incidence = []
        for facet_idx in result.extreme:
            mask = 0
            for g_pos in range(len(gen_rows)):
                if result.incidence[g_pos] >> facet_idx & 1:
                    mask |= 1 << g_pos
            gen_incidence.append(mask)
        extreme = set(range(len(gen_rows)))

    vertices, rays = [], []
    vertex_cols, ray_cols = [], []
    for i, row in enumerate(gen_rows):
        if i not in extreme:
            continue
        s = row[-1].sign()
        if s > 0:
            vertices.append(row)
            vertex_cols.append(i)
        elif s == 0:
            rays.append(row)
            ray_cols.append(i)
        # rows with negative last coordinate cannot occur: vertex input rows
        # are normalized with positive last component, and for constraint
        # input the dehomogenizing halfspace is part of the system

    # with lineality present the dehomogenizing constraint keeps every
    # lineality vector at last coordinate 0, so feasibility is still
    # equivalent to some computed ray having a positive last coordinate
    feasible = bool(vertices) if lineality == 0 else any(
        row[-1].sign() > 0 for row in gen_rows
    )
    if not feasible:
        return _empty_analysis(model)

    if lineality > 0:
        # vertex-free polyhedron: combinatorial data is not well defined in
        # terms of vertices; report dimensional facts only
        return AnalyzedPolyhedron(
            model=model,
            feasible=True,
            vertices=[],
            rays=[],
            support_hyperplanes=hyperplanes,
            incidence=[],
            affine_dim=cone_rank - 1,
            lineality_dim=lineality,
            cone_rank=cone_rank,
        )

    col_order = vertex_cols + ray_cols
    remap = []
    for mask in gen_incidence:
        m = 0
        for new_pos, old_pos in enumerate(col_order):
            if mask >> old_pos & 1:
                m |= 1 << new_pos
        remap.append(m)

    return AnalyzedPolyhedron(
        model=model,
        feasible=True,
        vertices=vertices,
        rays=rays,
        support_hyperplanes=hyperplanes,
        incidence=remap,
        affine_dim=cone_rank - 1,
        lineality_dim=0,
        cone_rank=cone_rank,
    )
