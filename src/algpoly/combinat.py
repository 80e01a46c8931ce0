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
vertices.  Colors are exact invariants of the group being computed and only
prune the backtracking; every reported permutation is certified afterwards:
combinatorial ones by checking that the facet bitsets are permuted among
themselves, algebraic ones by reproducing the affine dependencies on an
affine basis, Euclidean ones additionally by an exact orthogonality check
of the solved linear map.
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
    full = (1 << (len(analyzed.vertices) + len(analyzed.rays))) - 1

    faces = {full}
    frontier = [full]
    while frontier:
        new = []
        for face in frontier:
            for row in rows:
                g = face & row
                if g not in faces:
                    faces.add(g)
                    new.append(g)
        frontier = new
    faces.add(0)

    # every face is visited after all faces containing it, so its depth is
    # final before it is passed on
    depth = dict.fromkeys(faces, 0)
    for face in sorted(faces, key=int.bit_count, reverse=True):
        below = depth[face] + 1
        for row in rows:
            g = face & row
            if g != face and depth[g] < below:
                depth[g] = below
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

    facet_set = {}
    for idx, mask in enumerate(facet_masks):
        facet_set[mask] = idx

    def comb_certify(perm):
        for mask in facet_masks:
            image = 0
            for b in _bits(mask):
                image |= 1 << perm[b]
            if image not in facet_set:
                return False
        return True

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
        certify = comb_certify
    else:
        points = analyzed.vertex_points()
        field = analyzed.field
        u = len(points)
        bary = tuple(
            sum((p[k] for p in points), field.zero) / u for k in range(analyzed.dim)
        )
        centered = [tuple(p[k] - bary[k] for k in range(analyzed.dim)) for p in points]
        if kind == "euclidean":
            gram = [[_dot(centered[i], centered[j]) for j in range(u)] for i in range(u)]
            edge = _edge_palette(gram)
        elif u == 1:
            edge = [[0]]
        else:
            # inertia-normalized Gram data: w_i^T M^-1 w_j with M the second
            # moment matrix of the centered vertices, an exact invariant of
            # invertible affine maps
            _, cols, projected = linalg.restrict_to_span(centered)
            r = len(cols)
            moment = [
                [
                    sum((projected[k][i] * projected[k][j] for k in range(u)), field.zero)
                    for j in range(r)
                ]
                for i in range(r)
            ]
            minv = linalg.invert(moment)
            psi = [
                [
                    _dot(linalg.mat_vec(minv, list(projected[i])), projected[j])
                    for j in range(u)
                ]
                for i in range(u)
            ]
            edge = _edge_palette(psi)
        certify = _make_geometric_certifier(analyzed, centered, kind)

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
    out = []
    for mask in facet_masks:
        image = 0
        for b in _bits(mask):
            image |= 1 << perm[b]
        out.append(facet_set[image])
    return tuple(out)


def _make_geometric_certifier(analyzed, centered, kind):
    """Certify candidates by solving for the affine map exactly."""
    field = analyzed.field
    one = field.one
    # rows (p, 1) encode affine combinations as linear ones
    rows = [tuple(p) + (one,) for p in analyzed.vertex_points()]
    u = len(rows)
    basis_idx, _, projected = linalg.restrict_to_span(rows)
    # coordinates of every vertex row in the chosen affine basis
    sq_inv = linalg.invert([list(projected[i]) for i in basis_idx])
    coords = [tuple(_dot(target, col) for col in zip(*sq_inv)) for target in projected]

    full_dim = analyzed.affine_dim == analyzed.dim
    w_basis_idx = (
        linalg.independent_rows([list(w) for w in centered]) if full_dim else []
    )

    def certify(perm):
        image_rows = [list(rows[perm[i]]) for i in basis_idx]
        if linalg.rank(image_rows) != len(basis_idx):
            return False
        image_cols = list(zip(*image_rows))
        for i in range(u):
            if tuple(_dot(coords[i], col) for col in image_cols) != rows[perm[i]]:
                return False
        if kind == "euclidean" and full_dim:
            d = analyzed.dim
            wb = [list(centered[i]) for i in w_basis_idx]
            wb_images = [list(centered[perm[i]]) for i in w_basis_idx]
            # Q with Q w = w' on the basis: Q^T = WB^-1 WB', exact
            qt = linalg.mat_mul(linalg.invert(wb), wb_images)
            q = [list(col) for col in zip(*qt)]
            qtq = linalg.mat_mul(qt, q)
            for i in range(d):
                for j in range(d):
                    want = field.one if i == j else field.zero
                    if qtq[i][j] != want:
                        return False
            for i in range(u):
                if tuple(linalg.mat_vec(q, list(centered[i]))) != tuple(
                    centered[perm[i]]
                ):
                    return False
        return True

    return certify
