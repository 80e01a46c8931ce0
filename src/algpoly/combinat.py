"""Face lattice, f-vector, and automorphism groups.

The face lattice is generated by closing the facet incidence bitsets under
intersection; each face is the bitset of generators on it.  Dimensions come
from the incidences alone, with no linear algebra: the cone over a pointed
polyhedron has a graded face lattice in which every face covered by G is G
cut with a facet (Kaibel & Pfetsch, Comput. Geom. 23, 2002), so a face's
codimension is the length of the longest chain of facet intersections from
the full face down to it.  The length of the whole lattice is checked
against the affine dimension found by `analyze`.

Automorphism search works on a complete edge-colored graph over the
vertices.  Colors are exact invariants of the group being computed and
prune the backtracking; each leaf gets one exact check.  A combinatorial
leaf must map the facet bitsets onto facet bitsets; a geometric one must be
realized by an affine map, solved on an affine basis.  That map permutes
the vertices, so it is invertible on their affine hull.  A Euclidean leaf
has also matched the Gram matrix of the centered vertices off the diagonal,
and zero row sums fix the diagonal, so the map is orthogonal on their span
(Bremner, Dutour Sikiric, Pasechnik, Rehn & Schuermann, LMS J. Comput.
Math. 17, 2014, section 3).
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .dualize import _bits
from .errors import InconsistentFaceLattice, UnboundedPolyhedron
from .linalg import _dot

KINDS = ("combinatorial", "algebraic", "euclidean")


@dataclass
class FaceLattice:
    faces: dict  # bitset -> dimension
    f_vector: list  # counts from dimension -1 (empty face) upward


def face_lattice(analyzed):
    """All faces as generator bitsets, closed under intersection and graded.

    A face's depth is the length of the longest chain of facet
    intersections from the full face down to it; the depth of the empty
    face is one more than the dimension of the polyhedron.
    """
    rows = analyzed.incidence
    n = len(analyzed.vertices) + len(analyzed.rays)
    full = (1 << n) - 1

    # faces are visited by decreasing generator count, so a face's depth is
    # final before it is cut: every face containing it has been visited
    buckets = [[] for _ in range(n + 1)]
    buckets[n].append(full)
    depth = {full: 0}
    for bucket in reversed(buckets):
        for face in bucket:
            below = depth[face] + 1
            for row in rows:
                g = face & row
                if g == face:
                    continue
                if g not in depth:
                    depth[g] = below
                    buckets[g.bit_count()].append(g)
                elif depth[g] < below:
                    depth[g] = below
    depth.setdefault(0, 0)
    top = depth[0] - 1
    if analyzed.vertices and top != analyzed.affine_dim:
        raise InconsistentFaceLattice(
            f"face lattice has length {top + 1}, "
            f"but the polyhedron has affine dimension {analyzed.affine_dim}"
        )
    dims = {mask: top - d for mask, d in depth.items()}
    counts = [0] * (top + 2)
    for d in dims.values():
        counts[d + 1] += 1
    return FaceLattice(faces=dims, f_vector=counts)


def f_vector(analyzed):
    """Face counts by dimension, bracketed by the empty face and the body."""
    return face_lattice(analyzed).f_vector


# ----------------------------------------------------------------------------
# permutation helpers (tuples in one-line notation, 0-based)

def perm_compose(p, q):
    """p after q."""
    return tuple(p[i] for i in q)


def orbits_of(perms, n):
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for p in perms:
        for i, v in enumerate(p):
            ri, rv = find(i), find(v)
            if ri != rv:
                parent[rv] = ri
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), []).append(i)
    return sorted(groups.values(), key=lambda o: o[0])


def cycle_decomposition(perm):
    """Nontrivial cycles of a permutation, each starting at its minimum."""
    seen = [False] * len(perm)
    cycles = []
    for start in range(len(perm)):
        if seen[start] or perm[start] == start:
            seen[start] = True
            continue
        cyc = []
        i = start
        while not seen[i]:
            seen[i] = True
            cyc.append(i)
            i = perm[i]
        cycles.append(tuple(cyc))
    return cycles


@dataclass
class AutomorphismGroup:
    kind: str
    order: int
    vertex_perms: list  # generating permutations of the vertices, 0-based
    hyperplane_perms: list  # induced permutations of the support hyperplanes
    vertex_orbits: list
    hyperplane_orbits: list
    n_vertices: int
    n_hyperplanes: int
    elements: list  # every vertex permutation of the group


# ----------------------------------------------------------------------------
# colored-graph automorphism search with exact certification

def _refine_colors(n, colors, edge):
    colors = list(colors)
    while True:
        signatures = [
            (colors[v], tuple(sorted((edge[v][u], colors[u]) for u in range(n) if u != v)))
            for v in range(n)
        ]
        palette = {}
        new = []
        for sig in signatures:
            if sig not in palette:
                palette[sig] = len(palette)
            new.append(palette[sig])
        if new == colors:
            return colors
        colors = new


def _search_automorphisms(n, colors, edge, certify):
    """All permutations preserving node colors and edge colors, certified."""
    colors = _refine_colors(n, colors, edge)
    order = sorted(range(n), key=lambda v: (colors[v], v))
    found = []
    mapping = [-1] * n
    used = [False] * n

    def extend(level):
        if level == n:
            perm = tuple(mapping)
            if certify(perm):
                found.append(perm)
            return
        v = order[level]
        for cand in range(n):
            if used[cand] or colors[cand] != colors[v]:
                continue
            ok = True
            for prev_level in range(level):
                u = order[prev_level]
                if edge[v][u] != edge[cand][mapping[u]]:
                    ok = False
                    break
            if ok:
                mapping[v] = cand
                used[cand] = True
                extend(level + 1)
                used[cand] = False
                mapping[v] = -1

    extend(0)
    return found


def _edge_palette(values_matrix):
    palette = {}
    n = len(values_matrix)
    edge = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            key = values_matrix[i][j]
            if key not in palette:
                palette[key] = len(palette)
            edge[i][j] = palette[key]
    return edge


def automorphisms(analyzed, kind="combinatorial"):
    """Automorphism group of the given kind, as vertex permutations.

    Combinatorial automorphisms permute the face lattice and exist for every
    polyhedron with vertices; the algebraic and Euclidean kinds require a
    polytope.
    """
    if kind not in KINDS:
        raise ValueError(f"unknown automorphism kind {kind!r}")
    if kind != "combinatorial" and not analyzed.is_polytope:
        raise UnboundedPolyhedron(
            f"{kind} automorphism group is undefined for unbounded polyhedra"
        )
    facet_masks = analyzed.incidence
    n_vertices = len(analyzed.vertices)
    n = n_vertices + len(analyzed.rays)

    if n == 0:
        return AutomorphismGroup(
            kind=kind,
            order=1,
            vertex_perms=[],
            hyperplane_perms=[],
            vertex_orbits=[],
            hyperplane_orbits=[],
            n_vertices=0,
            n_hyperplanes=len(facet_masks),
            elements=[tuple()],
        )

    facet_set = {mask: idx for idx, mask in enumerate(facet_masks)}

    # node colors: vertices and rays are distinguished, then by the multiset
    # of sizes of the facets through the generator
    node_colors = []
    for v in range(n):
        kind_bit = 0 if v < n_vertices else 1
        sizes = tuple(sorted(m.bit_count() for m in facet_masks if m >> v & 1))
        node_colors.append((kind_bit, sizes))
    palette = {}
    node_colors = [palette.setdefault(c, len(palette)) for c in node_colors]

    if kind == "combinatorial":
        shared = [
            [
                sum(1 for m in facet_masks if m >> i & 1 and m >> j & 1)
                for j in range(n)
            ]
            for i in range(n)
        ]
        edge = _edge_palette(shared)

        def certify(perm):
            return _induced_facet_perm(perm, facet_masks, facet_set) is not None
    else:
        points = analyzed.vertex_points()
        field = analyzed.field
        u = len(points)
        bary = tuple(
            sum((p[k] for p in points), field.zero) / u for k in range(analyzed.dim)
        )
        centered = [tuple(p[k] - bary[k] for k in range(analyzed.dim)) for p in points]
        if kind == "euclidean":
            gram = [linalg.mat_vec(centered, c) for c in centered]
            edge = _edge_palette(gram)
        elif u == 1:
            edge = [[0]]
        else:
            # inertia-normalized Gram data: w_i^T M^-1 w_j with M the second
            # moment matrix of the centered vertices, an exact invariant of
            # invertible affine maps
            _, _, projected = linalg.restrict_to_span(centered)
            columns = list(zip(*projected))
            minv = linalg.invert([[_dot(a, b) for b in columns] for a in columns])
            psi = [linalg.mat_vec(projected, linalg.mat_vec(minv, p)) for p in projected]
            edge = _edge_palette(psi)
        certify = _make_geometric_certifier(analyzed)

    elements = _search_automorphisms(n, node_colors, edge, certify)
    order = len(elements)
    identity = tuple(range(n))
    generators = []
    if order > 1:
        generated = {identity}
        for perm in sorted(elements):
            if perm in generated:
                continue
            generators.append(perm)
            generated = _close(generated, generators, order)
            if len(generated) == order:
                break

    hyper_perms = [_induced_facet_perm(p, facet_masks, facet_set) for p in generators]
    return AutomorphismGroup(
        kind=kind,
        order=order,
        vertex_perms=generators,
        hyperplane_perms=hyper_perms,
        # a group's orbits are the orbits of its generators
        vertex_orbits=orbits_of(generators, n),
        hyperplane_orbits=orbits_of(hyper_perms, len(facet_masks)),
        n_vertices=n_vertices,
        n_hyperplanes=len(facet_masks),
        elements=elements,
    )


def _close(generated, generators, cap):
    frontier = list(generated)
    out = set(generated)
    while frontier:
        new = []
        for g in frontier:
            for p in generators:
                h = perm_compose(p, g)
                if h not in out:
                    out.add(h)
                    new.append(h)
        frontier = new
        if len(out) > cap:
            break
    return out


def _induced_facet_perm(perm, facet_masks, facet_set):
    """The facet permutation a vertex permutation induces, or None if a
    facet's image is not a facet."""
    out = []
    for mask in facet_masks:
        image = 0
        for b in _bits(mask):
            image |= 1 << perm[b]
        idx = facet_set.get(image)
        if idx is None:
            return None
        out.append(idx)
    return tuple(out)


def _make_geometric_certifier(analyzed):
    """Certify candidates by solving for the affine map exactly."""
    one = analyzed.field.one
    # rows (p, 1) encode affine combinations as linear ones
    rows = [tuple(p) + (one,) for p in analyzed.vertex_points()]
    basis_idx, _, projected = linalg.restrict_to_span(rows)
    # coordinates of every vertex row in the chosen affine basis
    sq_inv = linalg.invert([list(projected[i]) for i in basis_idx])
    inverse_cols = list(zip(*sq_inv))
    coords = [linalg.mat_vec(inverse_cols, target) for target in projected]

    def certify(perm):
        image_cols = list(zip(*(rows[perm[i]] for i in basis_idx)))
        return all(
            tuple(linalg.mat_vec(image_cols, c)) == rows[perm[i]]
            for i, c in enumerate(coords)
        )

    return certify
