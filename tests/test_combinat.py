import dataclasses
import random

import pytest

from algpoly import PolyhedronModel, analyze, automorphisms, f_vector, face_lattice
from algpoly.cli import bench_field, bench_vertices, scale_columns
from algpoly.combinat import cycle_decomposition
from algpoly.errors import InconsistentFaceLattice, UnboundedPolyhedron
from algpoly import linalg

from oracles import (
    affine_check,
    brute_force_combinatorial_order,
    brute_force_combinatorial_perms,
    brute_force_euclidean_order,
    closure_order,
    face_dims_by_rank,
    isometry_check,
    mat_mul,
    random_polytope,
)


def euler_ok(fvec):
    return sum((-1) ** i * c for i, c in enumerate(fvec)) == 0


class TestIncidence:
    def test_triangle(self, qq):
        q = qq.from_rational
        tri = analyze(PolyhedronModel(qq, 2, vertices=[(q(0), q(0)), (q(1), q(0)), (q(0), q(1))]))
        assert len(tri.incidence) == 3
        assert all(m.bit_count() == 2 for m in tri.incidence)

    def test_icosahedron_triangles(self, icosahedron):
        assert len(icosahedron.incidence) == 20 and len(icosahedron.vertices) == 12
        assert all(m.bit_count() == 3 for m in icosahedron.incidence)

    def test_cube_quads(self, unit_cube):
        assert len(unit_cube.incidence) == 6
        assert all(m.bit_count() == 4 for m in unit_cube.incidence)


class TestFaceLattice:
    def test_icosahedron(self, icosahedron):
        assert f_vector(icosahedron) == [1, 12, 30, 20, 1]

    def test_simplex(self, qq):
        q = qq.from_rational
        pts = [(q(0), q(0), q(0)), (q(1), q(0), q(0)), (q(0), q(1), q(0)), (q(0), q(0), q(1))]
        s3 = analyze(PolyhedronModel(qq, 3, vertices=pts))
        assert f_vector(s3) == [1, 4, 6, 4, 1]

    def test_dodecahedron_by_polarity(self, icosahedron, qsqrt5):
        # polar vertices are -l/c for each facet (l, c); the icosahedron has
        # the origin in its interior so every c is positive
        polar_pts = []
        for h in icosahedron.support_hyperplanes:
            c = h[-1]
            assert c.sign() > 0
            polar_pts.append(tuple(-x / c for x in h[:-1]))
        dode = analyze(PolyhedronModel(qsqrt5, 3, vertices=polar_pts))
        assert f_vector(dode) == [1, 20, 30, 12, 1]

    def test_closed_under_intersection(self, unit_cube):
        lat = face_lattice(unit_cube)
        masks = set(lat.faces)
        for m1 in masks:
            for m2 in masks:
                assert m1 & m2 in masks

    def test_point_polytope(self, qq):
        r = analyze(PolyhedronModel(qq, 2, vertices=[(qq.one, qq.one)]))
        assert f_vector(r) == [1, 1]

    def test_segment(self, qq):
        q = qq.from_rational
        seg = analyze(PolyhedronModel(qq, 1, vertices=[(q(0),), (q(1),)]))
        assert f_vector(seg) == [1, 2, 1]

    def test_euler_relation(self, icosahedron, unit_cube, unit_square):
        for analyzed in (icosahedron, unit_cube, unit_square):
            assert euler_ok(f_vector(analyzed))

    def test_no_rank_computed(self, icosahedron, unit_cube, monkeypatch):
        def refuse(rows):
            raise AssertionError("face lattice must not call linalg.rank")

        monkeypatch.setattr(linalg, "rank", refuse)
        assert f_vector(icosahedron) == [1, 12, 30, 20, 1]
        assert f_vector(unit_cube) == [1, 8, 12, 6, 1]

    def test_length_checked_against_affine_dim(self, unit_cube):
        wrong = dataclasses.replace(unit_cube, affine_dim=2)
        with pytest.raises(InconsistentFaceLattice):
            f_vector(wrong)


def _bench_analyzed(family, params, cls):
    int_vertices, dim = bench_vertices(family, params)
    field = bench_field(cls)
    vertices = [tuple(field.from_rational(x) for x in row) for row in int_vertices]
    return analyze(PolyhedronModel(field, dim, vertices=scale_columns(vertices, field)))


def _degenerate_models(qq):
    q = qq.from_rational
    o = q(0)
    return {
        "halfline": PolyhedronModel(qq, 1, vertices=[(o,)], rays=[(q(1),)]),
        "cone_with_apex": PolyhedronModel(
            qq, 2, vertices=[(o, o)], rays=[(q(1), o), (q(1), q(1))]
        ),
        "point": PolyhedronModel(qq, 2, vertices=[(q(1), q(1))]),
        "flat_triangle": PolyhedronModel(
            qq, 3, vertices=[(o, o, o), (q(1), o, o), (o, q(1), o)]
        ),
        "line": PolyhedronModel(qq, 1, vertices=[(o,)], rays=[(q(1),), (q(-1),)]),
    }


class TestFaceDimsOracle:
    """Face dimensions graded from incidences agree with generator ranks."""

    @pytest.mark.parametrize("algebraic", [False, True])
    def test_random_polytopes(self, qq, qsqrt5, algebraic):
        field = qsqrt5 if algebraic else qq
        rng = random.Random(31 if algebraic else 32)
        for d in (2, 3, 4):
            for _ in range(3):
                pts = random_polytope(rng, field, d, rng.randint(d + 1, d + 4), algebraic)
                analyzed = analyze(PolyhedronModel(field, d, vertices=pts))
                assert face_lattice(analyzed).faces == face_dims_by_rank(analyzed)

    @pytest.mark.parametrize(
        "family,params", [("cyclic", (5, 11)), ("order-poly", (4,))]
    )
    def test_bench_families_sc2(self, family, params):
        analyzed = _bench_analyzed(family, params, "sc2")
        assert face_lattice(analyzed).faces == face_dims_by_rank(analyzed)

    def test_degenerate_polyhedra(self, qq):
        for name, model in _degenerate_models(qq).items():
            analyzed = analyze(model)
            lat = face_lattice(analyzed)
            assert lat.faces == face_dims_by_rank(analyzed), name
            if name == "line":
                assert lat.f_vector == [1]


class TestAutomorphisms:
    def test_segment_order_two(self, qq):
        q = qq.from_rational
        seg = analyze(PolyhedronModel(qq, 1, vertices=[(q(0),), (q(1),)]))
        assert automorphisms(seg, "combinatorial").order == 2

    def test_square_brute_force(self, unit_square):
        g = automorphisms(unit_square, "combinatorial")
        assert g.order == 8
        assert g.order == brute_force_combinatorial_order(unit_square)
        ge = automorphisms(unit_square, "euclidean")
        assert ge.order == 8
        assert ge.order == brute_force_euclidean_order(unit_square)

    def test_simplex_24(self, qq):
        q = qq.from_rational
        pts = [(q(0), q(0), q(0)), (q(1), q(0), q(0)), (q(0), q(1), q(0)), (q(0), q(0), q(1))]
        s3 = analyze(PolyhedronModel(qq, 3, vertices=pts))
        g = automorphisms(s3, "combinatorial")
        assert g.order == 24
        assert g.order == brute_force_combinatorial_order(s3)

    def test_rectangle_vs_square(self, qq):
        q = qq.from_rational
        rect = analyze(
            PolyhedronModel(qq, 2, vertices=[(q(0), q(0)), (q(3), q(0)), (q(0), q(1)), (q(3), q(1))])
        )
        assert automorphisms(rect, "combinatorial").order == 8
        assert automorphisms(rect, "euclidean").order == 4
        assert automorphisms(rect, "algebraic").order == 8

    def test_prism_brute_force(self, qq):
        q = qq.from_rational
        base = [(q(0), q(0)), (q(1), q(0)), (q(0), q(1))]
        pts = [(x, y, q(z)) for (x, y) in base for z in (0, 1)]
        prism = analyze(PolyhedronModel(qq, 3, vertices=pts))
        g = automorphisms(prism, "combinatorial")
        assert g.order == brute_force_combinatorial_order(prism) == 12

    def test_cube_brute_force(self, unit_cube):
        # the largest vertex count where full enumeration is still reasonable
        g = automorphisms(unit_cube, "combinatorial")
        assert g.order == brute_force_combinatorial_order(unit_cube) == 48

    def test_icosahedron_euclidean(self, icosahedron):
        g = automorphisms(icosahedron, "euclidean")
        assert g.order == 120
        assert [len(o) for o in g.vertex_orbits] == [12]
        assert [len(o) for o in g.hyperplane_orbits] == [20]

    def test_chain_on_icosahedron_and_cube(self, icosahedron, unit_cube):
        for analyzed in (icosahedron, unit_cube):
            ge = automorphisms(analyzed, "euclidean")
            ga = automorphisms(analyzed, "algebraic")
            gc = automorphisms(analyzed, "combinatorial")
            assert set(ge.elements) <= set(ga.elements) <= set(gc.elements)
            assert ge.order <= ga.order <= gc.order

    def test_generators_close_to_group(self, icosahedron):
        g = automorphisms(icosahedron, "euclidean")
        n = len(g.elements[0])
        assert closure_order(g.vertex_perms, n) == g.order

    def test_permutations_preserve_incidence(self, icosahedron):
        masks = set(icosahedron.incidence)
        g = automorphisms(icosahedron, "euclidean")
        for perm in g.elements:
            for mask in icosahedron.incidence:
                image = 0
                m = mask
                while m:
                    low = m & -m
                    image |= 1 << perm[low.bit_length() - 1]
                    m ^= low
                assert image in masks

    def test_certified_affine_map(self, icosahedron, qsqrt5):
        # every reported generator comes from an exact affine self-map
        g = automorphisms(icosahedron, "algebraic")
        points = icosahedron.vertex_points()
        rows = [list(p) + [qsqrt5.one] for p in points]
        basis = linalg.independent_rows(rows)
        for perm in g.vertex_perms:
            sq = [rows[i] for i in basis]
            images = [rows[perm[i]] for i in basis]
            trans = mat_mul(linalg.invert(sq), images)
            # coordinates of each row in the basis rows
            coords_of = linalg.invert([list(c) for c in zip(*[rows[b] for b in basis])])
            for i, row in enumerate(rows):
                coeff = linalg.mat_vec(coords_of, row)
                image = [
                    sum((coeff[k] * images[k][c] for k in range(len(basis))), qsqrt5.zero)
                    for c in range(4)
                ]
                assert image == rows[perm[i]]

    def test_single_vertex_polytope(self, qq):
        # in 0-space the centered vertex is the empty vector
        for dim, vertex in ((2, (qq.one, qq.one)), (0, ())):
            pt = analyze(PolyhedronModel(qq, dim, vertices=[vertex]))
            for kind in ("combinatorial", "algebraic", "euclidean"):
                assert automorphisms(pt, kind).order == 1

    def test_lower_dimensional_chain(self, qq):
        # right isosceles triangle embedded in 3-space: one reflection is an
        # isometry, all six permutations extend to affine maps
        q = qq.from_rational
        tri = analyze(
            PolyhedronModel(
                qq, 3, vertices=[(q(0), q(0), q(0)), (q(1), q(0), q(0)), (q(0), q(1), q(0))]
            )
        )
        assert automorphisms(tri, "euclidean").order == 2
        assert automorphisms(tri, "algebraic").order == 6
        assert automorphisms(tri, "combinatorial").order == 6

    def test_irrational_segment_reflection(self, qsqrt5):
        a = qsqrt5.gen()
        seg = analyze(PolyhedronModel(qsqrt5, 1, vertices=[(qsqrt5.zero,), (a,)]))
        assert automorphisms(seg, "euclidean").order == 2

    def test_unbounded_geometric_refused(self, qq):
        q = qq.from_rational
        r = analyze(PolyhedronModel(qq, 1, inequalities=[(q(1), q(0))]))
        with pytest.raises(UnboundedPolyhedron):
            automorphisms(r, "euclidean")
        with pytest.raises(UnboundedPolyhedron):
            automorphisms(r, "algebraic")
        assert automorphisms(r, "combinatorial").order == 1

    def test_cycle_decomposition_format(self):
        assert cycle_decomposition((1, 0, 2, 3)) == [(0, 1)]
        assert cycle_decomposition((0, 1, 2, 3)) == []
        assert cycle_decomposition((1, 2, 0)) == [(0, 1, 2)]


def _random_polytopes(field, seed, count=4):
    """Random polytopes with at most 7 vertices, full-dimensional ones and
    copies lifted onto the hyperplane x_{d+1} = x_1 + x_2 of (d+1)-space."""
    rng = random.Random(seed)
    algebraic = field.degree > 1
    out = []
    for k in range(count):
        d = 2 + k % 2
        pts = random_polytope(rng, field, d, rng.randint(d + 1, 7), algebraic)
        out.append(analyze(PolyhedronModel(field, d, vertices=pts)))
        lifted = [p + (p[0] + p[1],) for p in pts]
        out.append(analyze(PolyhedronModel(field, d + 1, vertices=lifted)))
    return out


class TestCertificateOracles:
    """The exact checks the automorphism search no longer repeats per leaf:
    every Euclidean element is an orthogonal map, every algebraic element an
    affine map, and no affine automorphism is missed."""

    def test_euclidean_elements_are_isometries(self, unit_square, unit_cube, icosahedron):
        for analyzed in (unit_square, unit_cube, icosahedron):
            g = automorphisms(analyzed, "euclidean")
            assert all(map(isometry_check(analyzed), g.elements))

    @pytest.mark.parametrize("name,seed", [("qq", 41), ("qsqrt5", 42), ("p12", 43)])
    def test_random_polytopes(self, request, name, seed):
        field = request.getfixturevalue(name)
        for analyzed in _random_polytopes(field, seed):
            ge = automorphisms(analyzed, "euclidean")
            assert all(map(isometry_check(analyzed), ge.elements))
            affine = list(filter(affine_check(analyzed), brute_force_combinatorial_perms(analyzed)))
            assert sorted(automorphisms(analyzed, "algebraic").elements) == affine

    @pytest.mark.parametrize("cls", ["sc2", "p12"])
    def test_scaled_cube(self, cls):
        # columns scaled by powers of the generator: still an affine cube,
        # but a box with fewer isometries
        analyzed = _bench_analyzed("scaled-cube", (3,), cls)
        affine = list(filter(affine_check(analyzed), brute_force_combinatorial_perms(analyzed)))
        assert sorted(automorphisms(analyzed, "algebraic").elements) == affine
        assert len(affine) == 48
        ge = automorphisms(analyzed, "euclidean")
        assert ge.order == brute_force_euclidean_order(analyzed)
        assert ge.order == (16 if cls == "sc2" else 8)
        assert all(map(isometry_check(analyzed), ge.elements))

    def test_oracles_reject_what_they_should(self, qq):
        # the rectangle's quarter turns are affine maps but not isometries;
        # a trapezoid has the eight combinatorial symmetries of a 4-gon but
        # only its mirror is affine
        q = qq.from_rational
        rect = analyze(
            PolyhedronModel(qq, 2, vertices=[(q(0), q(0)), (q(3), q(0)), (q(0), q(1)), (q(3), q(1))])
        )
        extra = set(automorphisms(rect, "algebraic").elements) - set(
            automorphisms(rect, "euclidean").elements
        )
        assert len(extra) == 4
        is_affine, is_isometry = affine_check(rect), isometry_check(rect)
        assert all(is_affine(perm) and not is_isometry(perm) for perm in extra)
        trapezoid = analyze(
            PolyhedronModel(qq, 2, vertices=[(q(0), q(0)), (q(3), q(0)), (q(1), q(1)), (q(2), q(1))])
        )
        combinatorial = brute_force_combinatorial_perms(trapezoid)
        affine = list(filter(affine_check(trapezoid), combinatorial))
        assert len(combinatorial) == 8 and len(affine) == 2
        assert automorphisms(trapezoid, "algebraic").order == 2
