import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from algpoly import (
    EmbeddingInterval,
    PolyhedronModel,
    analyze,
    field_create,
    integer_hull,
    lattice_points,
    rational_field,
    triangulate,
    volume,
)
from algpoly import discrete, linalg, polyhedron
from algpoly.cli import bench_field, bench_vertices, scale_columns
from algpoly.errors import NotAPolytope, NotFullDimensional

from oracles import (
    affine_value,
    box_scan_lattice,
    hyperplane_set,
    monte_carlo_volume,
    placing_normalized_volume,
    polygon_normalized_volume,
    random_polytope,
)


def _scaled(int_vertices, dim, cls):
    field = bench_field(cls)
    vertices = [tuple(field.from_rational(x) for x in row) for row in int_vertices]
    return analyze(PolyhedronModel(field, dim, vertices=scale_columns(vertices, field)))


def _cross_polytope(d):
    return [
        tuple(s if k == i else 0 for k in range(d)) for i in range(d) for s in (1, -1)
    ], d


def _assert_matches_placing(analyzed):
    tri = triangulate(analyzed)
    for simplex, det in zip(tri.simplices, tri.determinants):
        assert len(set(simplex)) == analyzed.dim + 1
        assert not det.is_zero()
    assert volume(analyzed, tri).normalized == placing_normalized_volume(analyzed)


class TestTriangulate:
    def test_simplex_single(self, qq):
        q = qq.from_rational
        pts = [(q(0), q(0), q(0)), (q(1), q(0), q(0)), (q(0), q(1), q(0)), (q(0), q(0), q(1))]
        tri = triangulate(analyze(PolyhedronModel(qq, 3, vertices=pts)))
        assert len(tri) == 1
        assert abs(tri.determinants[0]) == qq.one

    def test_unit_square_two_triangles(self, unit_square):
        tri = triangulate(unit_square)
        assert len(tri) == 2
        assert all(not d.is_zero() for d in tri.determinants)

    def test_icosahedron_total(self, icosahedron, qsqrt5):
        tri = triangulate(icosahedron)
        a = qsqrt5.gen()
        total = qsqrt5.zero
        for d in tri.determinants:
            total = total + abs(d)
        assert total == (5 * a + 15) / 2

    def test_not_full_dimensional(self, qq):
        q = qq.from_rational
        flat = analyze(
            PolyhedronModel(qq, 3, vertices=[(q(0), q(0), q(0)), (q(1), q(0), q(0)), (q(0), q(1), q(0))])
        )
        with pytest.raises(NotFullDimensional):
            triangulate(flat)


class TestPullingTriangulation:
    """Pulling triangulations give the volumes of an independent placing one."""

    @pytest.mark.parametrize("algebraic", [False, True])
    def test_random_polytopes(self, qq, qsqrt5, algebraic):
        field = qsqrt5 if algebraic else qq
        rng = random.Random(41 if algebraic else 42)
        for d in (2, 3, 4):
            for _ in range(3):
                pts = random_polytope(rng, field, d, rng.randint(d + 2, d + 5), algebraic)
                _assert_matches_placing(analyze(PolyhedronModel(field, d, vertices=pts)))

    @pytest.mark.parametrize("cls", ["sc2", "p12"])
    @pytest.mark.parametrize(
        "polytope",
        [
            bench_vertices("scaled-cube", (3,)),
            _cross_polytope(4),
            bench_vertices("order-poly", (4,)),
            bench_vertices("cyclic", (5, 8)),
        ],
        ids=["cube", "cross-polytope", "order-poly-4", "cyclic-5-8"],
    )
    def test_bench_families(self, polytope, cls):
        _assert_matches_placing(_scaled(*polytope, cls))

    def test_no_dualization(self, icosahedron, qsqrt5, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("triangulate and volume must not dualize")

        engine = importlib.import_module("algpoly.dualize")
        monkeypatch.setattr(engine, "dualize", refuse)
        monkeypatch.setattr(polyhedron, "dualize", refuse)
        monkeypatch.setattr(discrete, "dualize", refuse, raising=False)
        tri = triangulate(icosahedron)
        a = qsqrt5.gen()
        assert volume(icosahedron, tri).normalized == (5 * a + 15) / 2


class TestVolume:
    def test_unit_cube(self, unit_cube):
        v = volume(unit_cube, triangulate(unit_cube))
        assert v.normalized == 6
        assert v.euclidean_str(10) == "1.000000000"

    def test_icosahedron(self, icosahedron, qsqrt5):
        v = volume(icosahedron, triangulate(icosahedron))
        a = qsqrt5.gen()
        assert v.normalized == (5 * a + 15) / 2
        assert v.euclidean_str(12) == "2.18169499062"
        approx = v.euclidean_fraction(14)
        assert abs(approx - Fraction("2.18169499062")) < Fraction(1, 10 ** 9)

    def test_square_side_a(self, qsqrt5):
        a = qsqrt5.gen()
        z = qsqrt5.zero
        square = analyze(
            PolyhedronModel(qsqrt5, 2, vertices=[(z, z), (a, z), (z, a), (a, a)])
        )
        v = volume(square, triangulate(square))
        assert v.normalized == 10
        assert v.euclidean_str(11) == "5.0000000000"

    def test_unbounded_refused(self, qq):
        q = qq.from_rational
        r = analyze(PolyhedronModel(qq, 1, inequalities=[(q(1), q(0))]))
        with pytest.raises(NotAPolytope):
            volume(r, triangulate(r))

    def test_insertion_order_invariance(self, qsqrt5, icosahedron):
        rng = random.Random(7)
        reference = volume(icosahedron, triangulate(icosahedron)).normalized
        verts = [tuple(p) for p in icosahedron.vertex_points()]
        for _ in range(20):
            shuffled = verts[:]
            rng.shuffle(shuffled)
            r = analyze(PolyhedronModel(qsqrt5, 3, vertices=shuffled))
            assert volume(r, triangulate(r)).normalized == reference

    def test_against_polygon_oracle(self, qq, qsqrt5):
        rng = random.Random(8)
        for algebraic, field in ((False, qq), (True, qsqrt5)):
            for _ in range(6):
                pts = random_polytope(rng, field, 2, rng.randint(3, 7), algebraic)
                analyzed = analyze(PolyhedronModel(field, 2, vertices=pts))
                assert volume(analyzed, triangulate(analyzed)).normalized == polygon_normalized_volume(analyzed)

    def test_against_monte_carlo_3d(self, qq):
        rng = random.Random(99)
        for _ in range(3):
            pts = random_polytope(rng, qq, 3, rng.randint(5, 8), False)
            analyzed = analyze(PolyhedronModel(qq, 3, vertices=pts))
            exact = float(Fraction(volume(analyzed, triangulate(analyzed)).euclidean_fraction(12)))
            estimate = monte_carlo_volume(analyzed, rng, samples=120_000)
            assert abs(estimate - exact) <= 0.02 * max(exact, 1e-9) + 1e-9


class TestLatticePoints:
    def test_icosahedron_origin_only(self, icosahedron):
        assert lattice_points(icosahedron).points == [(0, 0, 0, 1)]

    def test_segment_zero_to_sqrt5(self, qsqrt5):
        a = qsqrt5.gen()
        seg = analyze(PolyhedronModel(qsqrt5, 1, vertices=[(qsqrt5.zero,), (a,)]))
        assert lattice_points(seg).points == [(0, 1), (1, 1), (2, 1)]

    def test_unit_cube_corners(self, unit_cube):
        assert len(lattice_points(unit_cube)) == 8

    def test_points_satisfy_hyperplanes(self, icosahedron):
        for p in lattice_points(icosahedron).points:
            for h in icosahedron.support_hyperplanes:
                acc = h[-1]
                for k, c in enumerate(p[:-1]):
                    if c:
                        acc = acc + h[k] * c
                assert acc.sign() >= 0

    def test_unbounded_refused(self, qq):
        q = qq.from_rational
        r = analyze(PolyhedronModel(qq, 1, inequalities=[(q(1), q(0))]))
        with pytest.raises(NotAPolytope):
            lattice_points(r)

    def test_lower_dimensional_polytope(self, qq):
        q = qq.from_rational
        flat = analyze(
            PolyhedronModel(
                qq, 3, vertices=[(q(0), q(0), q(0)), (q(2), q(0), q(0)), (q(0), q(2), q(0))]
            )
        )
        assert len(lattice_points(flat)) == 6

    @pytest.mark.parametrize("algebraic", [False, True])
    def test_box_scan_oracle(self, qq, qsqrt5, algebraic):
        field = qsqrt5 if algebraic else qq
        rng = random.Random(9 if algebraic else 10)
        for _ in range(8):
            d = rng.randint(2, 3)
            pts = random_polytope(rng, field, d, rng.randint(d + 1, d + 4), algebraic)
            analyzed = analyze(PolyhedronModel(field, d, vertices=pts))
            assert lattice_points(analyzed).points == box_scan_lattice(analyzed)


def _embedded_up(rng, field, pts):
    """The points moved into one more dimension by x -> (x, l(x)), with the
    new coordinate at a random position and l integral."""
    coeffs = [rng.randint(-1, 1) for _ in pts[0]]
    shift = field.from_rational(rng.randint(-1, 1))
    pos = rng.randint(0, len(pts[0]))
    out = []
    for p in pts:
        extra = sum((x * c for x, c in zip(p, coeffs)), shift)
        out.append(p[:pos] + (extra,) + p[pos:])
    return out


def _permuted_lattice_points(analyzed, perm):
    """Lattice points of the polytope, computed on the one whose coordinate i
    is coordinate perm[i] of its V- or H-input, then mapped back and sorted."""
    model = analyzed.model
    d = model.dim

    def move(row):  # permute the coordinates, keep a constraint's constant
        return tuple(row[p] for p in perm) + tuple(row[d:])

    permuted = analyze(
        PolyhedronModel(
            model.field,
            d,
            vertices=[move(v) for v in model.vertices],
            rays=[move(r) for r in model.rays],
            inequalities=[move(r) for r in model.inequalities],
            equations=[move(r) for r in model.equations],
        )
    )
    back = [perm.index(k) for k in range(d)]
    return sorted(
        tuple(pt[back[k]] for k in range(d)) + (1,)
        for pt in lattice_points(permuted).points
    )


def _h_twin(analyzed):
    """The same polytope given by its support hyperplanes and affine hull."""
    equations = []
    if analyzed.affine_dim < analyzed.dim:
        equations = [
            tuple(e) for e in linalg.null_space([list(g) for g in analyzed.generator_rows()])
        ]
    model = PolyhedronModel(
        analyzed.field,
        analyzed.dim,
        inequalities=list(analyzed.support_hyperplanes),
        equations=equations,
    )
    return analyze(model)


class TestPrunedProjection:
    """The incidence-pruned projection against independent references."""

    @pytest.mark.parametrize("algebraic", [False, True])
    def test_random_against_box_scan(self, qq, qsqrt5, algebraic):
        field = qsqrt5 if algebraic else qq
        rng = random.Random(51 if algebraic else 52)
        for d in (2, 3, 4):
            for embedded in (False, True):
                n = rng.randint(d + 2, d + 4)
                pts = random_polytope(rng, field, d, n, algebraic, coord_range=3 if d < 4 else 2)
                if embedded:
                    pts = _embedded_up(rng, field, pts)
                v_input = analyze(PolyhedronModel(field, len(pts[0]), vertices=pts))
                assert v_input.affine_dim == d
                expected = box_scan_lattice(v_input)
                order = list(range(v_input.dim))
                rng.shuffle(order)
                for analyzed in (v_input, _h_twin(v_input)):
                    assert lattice_points(analyzed).points == expected
                    assert _permuted_lattice_points(analyzed, order) == expected

    @pytest.mark.parametrize("algebraic", [False, True])
    def test_each_level_is_irredundant(self, qq, qsqrt5, algebraic):
        # every projected system holds exactly the facets of the projection,
        # each with the set of vertices it is tight on
        field = qsqrt5 if algebraic else qq
        rng = random.Random(53 if algebraic else 54)
        for d in (2, 3, 4):
            for _ in range(2):
                pts = random_polytope(rng, field, d, rng.randint(d + 2, d + 6), algebraic)
                perm = list(range(d))
                rng.shuffle(perm)
                permuted = [tuple(p[k] for k in perm) for p in pts]
                analyzed = analyze(PolyhedronModel(field, d, vertices=permuted))
                points = analyzed.vertex_points()
                for level, system in discrete._projected_systems(analyzed).items():
                    projected = [p[:level] for p in points]
                    facets = analyze(PolyhedronModel(field, level, vertices=projected))
                    rows = [row for row, _ in system]
                    assert len(rows) == len(facets.support_hyperplanes)
                    assert hyperplane_set(rows, field) == hyperplane_set(
                        facets.support_hyperplanes, field
                    )
                    for row, tight in system:
                        assert tight == sum(
                            1 << i for i, p in enumerate(projected)
                            if affine_value(row, p).is_zero()
                        )


_QQ = rational_field()
_QSQRT5 = field_create([-5, 0, 1], EmbeddingInterval(1, 3))


@st.composite
def _small_polytopes(draw):
    """Small V- or H-polytopes over Q or Q(sqrt5), possibly lower-dimensional."""
    field = draw(st.sampled_from([_QQ, _QSQRT5]))
    d = draw(st.integers(2, 3))

    def entry(low, high, signs=(-1, 1)):
        c = Fraction(draw(st.integers(low, high)), draw(st.sampled_from([1, 2])))
        if field is _QSQRT5 and draw(st.booleans()):
            return field.element([c, draw(st.sampled_from(signs))])
        return field.from_rational(c)

    if draw(st.booleans()):
        n = draw(st.integers(1, d + 3))
        vertices = [tuple(entry(-2, 2) for _ in range(d)) for _ in range(n)]
        model = PolyhedronModel(field, d, vertices=vertices)
    else:
        one = field.one
        inequalities = []
        for k in range(d):  # a box around the origin keeps it bounded
            unit = tuple(one if j == k else field.zero for j in range(d))
            bound = field.from_rational(draw(st.integers(0, 3)))
            inequalities.append(unit + (bound,))
            inequalities.append(tuple(-x for x in unit) + (bound,))
        for _ in range(draw(st.integers(0, 3))):
            linear = tuple(field.from_rational(draw(st.integers(-2, 2))) for _ in range(d))
            inequalities.append(linear + (entry(0, 4, signs=(1,)),))  # 0 stays inside
        model = PolyhedronModel(field, d, inequalities=inequalities)
    return analyze(model), draw(st.permutations(range(d)))


class TestLatticeProperty:
    @given(_small_polytopes())
    def test_matches_box_scan(self, case):
        analyzed, order = case
        expected = box_scan_lattice(analyzed)
        assert lattice_points(analyzed).points == expected
        assert _permuted_lattice_points(analyzed, order) == expected


class TestIntegerHull:
    def test_icosahedron_single_point(self, icosahedron):
        hull = integer_hull(icosahedron, lattice_points(icosahedron))
        assert len(hull.vertices) == 1
        assert hull.affine_dim == 0

    def test_segment(self, qsqrt5):
        a = qsqrt5.gen()
        seg = analyze(PolyhedronModel(qsqrt5, 1, vertices=[(qsqrt5.zero,), (a,)]))
        hull = integer_hull(seg, lattice_points(seg))
        points = sorted(p[0].is_rational() for p in hull.vertex_points())
        assert points == [0, 2]

    def test_square_side_a(self, qsqrt5):
        a = qsqrt5.gen()
        z = qsqrt5.zero
        square = analyze(
            PolyhedronModel(qsqrt5, 2, vertices=[(z, z), (a, z), (z, a), (a, a)])
        )
        hull = integer_hull(square, lattice_points(square))
        assert len(hull.vertices) == 4
        assert volume(hull, triangulate(hull)).normalized == 8  # square of side 2

    def test_empty_hull(self, qq):
        q = qq.from_rational
        # tiny triangle strictly between lattice points
        tri = analyze(
            PolyhedronModel(
                qq,
                2,
                vertices=[
                    (q(Fraction(1, 3)), q(Fraction(1, 3))),
                    (q(Fraction(2, 3)), q(Fraction(1, 3))),
                    (q(Fraction(1, 2)), q(Fraction(2, 3))),
                ],
            )
        )
        hull = integer_hull(tri, lattice_points(tri))
        assert hull.is_empty
