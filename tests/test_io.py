from fractions import Fraction

import pytest

from algpoly import (
    EmbeddingInterval,
    Goal,
    ResultBundle,
    analyze,
    automorphisms,
    build_model,
    f_vector,
    field_create,
    lattice_points,
    parse_input,
    triangulate,
    volume,
    write_automorphisms,
    write_results,
)
from algpoly.errors import (
    BadDenominator,
    InputSyntaxError,
    UnknownGoal,
    UnsupportedBlock,
)
from algpoly.io import AUT_SEPARATOR, OUT_SEPARATOR, field_echo

from conftest import INPUTS


@pytest.fixture(scope="module")
def icosa_spec():
    return parse_input((INPUTS / "icosahedron.in").read_text())


@pytest.fixture(scope="module")
def icosa_run(icosa_spec):
    analyzed = analyze(build_model(icosa_spec))
    bundle = ResultBundle(analyzed=analyzed, goals=icosa_spec.goals)
    bundle.volume = volume(analyzed, triangulate(analyzed))
    bundle.lattice_points = lattice_points(analyzed)
    bundle.f_vector = f_vector(analyzed)
    bundle.automorphisms["euclidean"] = automorphisms(analyzed, "euclidean")
    return bundle


class TestParseInput:
    def test_icosahedron_fixture(self, icosa_spec):
        assert icosa_spec.amb_space == 3
        assert icosa_spec.field.degree == 2
        assert len(icosa_spec.blocks["vertices"]) == 12
        assert icosa_spec.goals == [
            Goal.VOLUME,
            Goal.LATTICE_POINTS,
            Goal.F_VECTOR,
            Goal.AUT_EUCLIDEAN,
        ]

    def test_embedding_interval(self, icosa_spec):
        emb = icosa_spec.field.embedding
        assert (emb.lo, emb.hi) == (1, 3)

    def test_vertex_row_semantics(self, icosa_spec):
        # row "0 2 (a + 1) 4" divides through by the trailing denominator
        field = icosa_spec.field
        a = field.gen()
        first = icosa_spec.blocks["vertices"][0]
        assert first == (field.zero, field.from_rational(Fraction(1, 2)), (a + 1) / 4)

    def test_rational_mode_without_field_block(self):
        spec = parse_input("amb_space 1\nvertices 2\n0 1\n1 1\nVolume\n")
        assert spec.field.degree == 1

    def test_unknown_goal(self):
        with pytest.raises(UnknownGoal):
            parse_input("amb_space 1\nvertices 1\n0 1\nFrobnicate\n")

    def test_bad_denominator(self):
        with pytest.raises(BadDenominator):
            parse_input("amb_space 1\nvertices 1\n0 0\n")
        with pytest.raises(BadDenominator):
            parse_input("amb_space 1\nvertices 1\n0 -2\n")

    def test_unsupported_block(self):
        with pytest.raises(UnsupportedBlock):
            parse_input("amb_space 1\ngrading 1\n1\n")

    def test_syntax_error_carries_line(self):
        with pytest.raises(InputSyntaxError) as err:
            parse_input("amb_space 1\nvertices 2\n0 1\n")
        assert "vertices" in str(err.value)

    def test_row_width_checked(self):
        with pytest.raises(InputSyntaxError) as err:
            parse_input("amb_space 2\nvertices 1\n0 1\n")
        assert err.value.line == 3

    def test_fixture_vertices_satisfy_hyperplanes(self, icosa_run):
        analyzed = icosa_run.analyzed
        assert len(analyzed.vertices) == 12
        for sigma in analyzed.support_hyperplanes:
            for row in analyzed.vertices:
                acc = None
                for s, x in zip(sigma, row):
                    t = s * x
                    acc = t if acc is None else acc + t
                assert acc.sign() >= 0


class TestWriteResults:
    def test_summary_lines(self, icosa_run):
        text = write_results(icosa_run)
        for expected in [
            "1 lattice points in polytope",
            "12 vertices of polyhedron",
            "0 extreme rays of recession cone",
            "20 support hyperplanes of polyhedron (homogenized)",
            "f-vector:\n1 12 30 20 1",
            "embedding dimension = 4",
            "affine dimension of the polyhedron = 3 (maximal)",
            "rank of recession cone = 0 (polyhedron is polytope)",
            "volume (lattice normalized) = (5/2*a+15/2 ~ 13.090170)",
            "volume (Euclidean) = 2.18169499062",
            "Euclidean automorphism group has order 120",
            OUT_SEPARATOR,
            "1 lattice points in polytope:",
            "0 0 0 1",
            "min_poly (a^2 - 5) embedding [2.2",
        ]:
            assert expected in text, expected

    def test_paper_hyperplane_rows_present(self, icosa_run):
        text = write_results(icosa_run)
        flat = " ".join(text.split())
        assert "(-a+1 ~ -1.236068) (-2*a+4 ~ -0.472136) 0 1" in flat
        assert "(a-1 ~ 1.236068) (2*a-4 ~ 0.472136) 0 1" in flat

    def test_rational_bundle(self, unit_cube):
        bundle = ResultBundle(analyzed=unit_cube, goals=[Goal.VOLUME])
        bundle.volume = volume(unit_cube, triangulate(unit_cube))
        text = write_results(bundle)
        assert "volume (lattice normalized) = 6" in text
        assert "Real embedded number field" not in text

    def test_empty_polyhedron(self, qq):
        from algpoly import PolyhedronModel

        q = qq.from_rational
        r = analyze(PolyhedronModel(qq, 1, inequalities=[(q(1), q(-1)), (q(-1), q(0))]))
        text = write_results(ResultBundle(analyzed=r, goals=[]))
        assert "polyhedron is empty" in text

    def test_write_is_deterministic(self, icosa_run):
        assert write_results(icosa_run) == write_results(icosa_run)


class TestWriteAutomorphisms:
    def test_icosahedron_sections(self, icosa_run):
        text = write_automorphisms(icosa_run.automorphisms["euclidean"])
        assert text.startswith("Euclidean automorphism group of order 120\n")
        assert AUT_SEPARATOR in text
        assert "permutations of 12 vertices of polyhedron" in text
        assert "permutations of 20 support hyperplanes" in text
        assert "Cycle decompositions " in text
        assert "1 orbits of vertices of polyhedron" in text
        assert (
            "Orbit 1 , length 12:  1 2 3 4 5 6 7 8 9 10 11 12" in text
        )
        assert "1 orbits of support hyperplanes" in text
        assert (
            "Orbit 1 , length 20:  1 2 3 4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19 20"
            in text
        )

    def test_perm_lines_are_one_based(self, icosa_run):
        text = write_automorphisms(icosa_run.automorphisms["euclidean"])
        for line in text.splitlines():
            if line.startswith("Perm") and "(" not in line:
                images = [int(t) for t in line.split(":")[1].split()]
                assert sorted(images) == list(range(1, 13)) or sorted(images) == list(
                    range(1, 21)
                )

    def test_cycle_lines_end_with_marker(self, icosa_run):
        text = write_automorphisms(icosa_run.automorphisms["euclidean"])
        in_cycles = False
        for line in text.splitlines():
            if line.startswith("Cycle decompositions"):
                in_cycles = True
                continue
            if in_cycles and line.startswith("Perm"):
                assert line.endswith("--")
            elif in_cycles:
                in_cycles = False


class TestFieldEcho:
    def test_shape(self, qsqrt5):
        text = field_echo(qsqrt5)
        assert text.startswith("Real embedded number field:\nmin_poly (a^2 - 5) embedding [")
        assert "+/-" in text

    @pytest.mark.parametrize(
        "min_poly,lo,hi",
        [
            ([-2, 0, 0, 1], 1, 2),  # Q(cbrt 2)
            ([-5, 0, 1], 1, 3),  # Q(sqrt 5)
            ([-5, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1], 1, 2),  # p12
            ([-3, 0, 2], 1, 2),  # 2a^2 - 3
            ([-5, 0, 0, 0, 0, 0, 0, 0, 1], 1, 2),  # a^8 - 5
        ],
    )
    def test_echo_parses_back_around_the_generator(self, min_poly, lo, hi):
        # the printed [c +/- r] must contain the refined enclosure, so that
        # reading the echo back defines the same embedding
        for digits in (20, 21, 25, 30, 50, 75, 100, 200, 300):
            field = field_create(min_poly, EmbeddingInterval(lo, hi))
            field.refine_generator(digits)
            g_lo, g_hi = field.generator_enclosure()
            echo = field_echo(field).splitlines()[1]
            spec = parse_input(f"amb_space 1\nnumber_field {echo}\nvertices 1\n0 1\n")
            emb = spec.field.embedding
            assert emb.lo <= g_lo and g_hi <= emb.hi, (digits, echo)
