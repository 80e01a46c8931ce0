import os
import shutil
import subprocess
import sys

import pytest

from algpoly import cli, discrete
from algpoly.cli import bench_instance, bench_vertices, main
from algpoly.io import Goal

from conftest import INPUTS, REPO
from oracles import gale_facet_count, gale_facets


GOLDEN = REPO / "tests" / "golden"
_QSQRT5 = "number_field min_poly (a^2 - 5) embedding [2 +/- 1]\n"


def run_cli(args):
    return main(args)


@pytest.fixture()
def workdir(tmp_path):
    for name in ("icosahedron.in", "cube.in", "empty.in"):
        shutil.copy(INPUTS / name, tmp_path / name)
    return tmp_path


class TestRun:
    def test_icosahedron_end_to_end(self, workdir):
        path = workdir / "icosahedron.in"
        assert run_cli([str(path)]) == 0
        out = (workdir / "icosahedron.out").read_text()
        aut = (workdir / "icosahedron.aut").read_text()
        assert "12 vertices of polyhedron" in out
        assert "20 support hyperplanes of polyhedron (homogenized)" in out
        assert "volume (Euclidean) = 2.18169499062" in out
        assert "Euclidean automorphism group of order 120" in aut

    def test_empty_input_exit_zero(self, workdir):
        path = workdir / "empty.in"
        assert run_cli([str(path)]) == 0
        assert "polyhedron is empty" in (workdir / "empty.out").read_text()

    def test_goal_override_volume_only(self, workdir):
        path = workdir / "cube.in"
        assert run_cli([str(path), "--goals", "Volume"]) == 0
        out = (workdir / "cube.out").read_text()
        assert "volume (lattice normalized) = 6" in out
        assert "lattice points in polytope" not in out
        assert "f-vector" not in out

    def test_missing_file_is_input_error(self, tmp_path):
        assert run_cli([str(tmp_path / "nope.in")]) == 1

    def test_parse_error_is_input_error(self, tmp_path):
        bad = tmp_path / "bad.in"
        bad.write_text("amb_space 1\nvertices 1\n0 0\n")
        assert run_cli([str(bad)]) == 1

    def test_unknown_goal_flag(self, workdir):
        assert run_cli([str(workdir / "cube.in"), "--goals", "Nonsense"]) == 1

    def test_computation_error_exit_two(self, tmp_path):
        unbounded = tmp_path / "ub.in"
        unbounded.write_text("amb_space 1\ninequalities 1\n1 0\nVolume\n")
        assert run_cli([str(unbounded)]) == 2

    def test_reducible_polynomial_vanishing_entry_exit_two(self, tmp_path):
        # a^3 - 3a^2 - 2a + 6 = (a^2 - 2)(a - 3); the embedding picks sqrt(2),
        # where the vertex entry a^2 - 2 is zero
        path = tmp_path / "reducible.in"
        path.write_text(
            "amb_space 2\n"
            "number_field min_poly (a^3 - 3a^2 - 2a + 6) embedding [1.5 +/- 0.5]\n"
            "vertices 3\n0 0 1\n(a^2-2) 0 1\n0 1 1\n"
        )
        proc = subprocess.run(
            [sys.executable, "-m", "algpoly.cli", str(path)],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("computation error:")
        assert "vanishes at the embedding" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not path.with_suffix(".out").exists()

    @pytest.mark.parametrize("field_line", [
        "(3) embedding [2 +/- 1]",
        "(a^2 - 5) embedding [2 +/- 0]",
        "(a^2 - 5) embedding [5 +/- 1]",
        "(a^2 - 2a + 1) embedding [1 +/- 1]",
        "(a^2 - 5) embedding [0 +/- 3]",
    ], ids=["constant", "empty-interval", "no-root", "repeated-root", "two-roots"])
    def test_number_field_defining_no_field_is_input_error(self, tmp_path, capsys, field_line):
        path = tmp_path / "nofield.in"
        path.write_text(
            f"amb_space 1\nnumber_field min_poly {field_line}\nvertices 2\n0 1\n1 1\n"
        )
        assert run_cli([str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("input error:") and "(line 2)" in err
        assert "Traceback" not in err
        assert not path.with_suffix(".out").exists()

    def test_bad_flag_is_input_error(self):
        assert run_cli(["--euclid-digits", "x"]) == 1

    @pytest.mark.parametrize("value", ["-3", "0", "x"])
    def test_euclid_digits_must_be_positive(self, workdir, capsys, value):
        path = workdir / "cube.in"
        assert run_cli([str(path), "--goals", "Volume", "--euclid-digits", value]) == 1
        assert "error:" in capsys.readouterr().err
        assert not (workdir / "cube.out").exists()

    def test_workers_flag_rejected(self, workdir):
        assert run_cli([str(workdir / "cube.in"), "--workers", "2"]) == 1
        assert not (workdir / "cube.out").exists()

    @pytest.mark.parametrize(
        "flag, value, in_subprocess",
        [("--order", "sorted", False), ("--project-order", "2,0,1", True)],
    )
    def test_ordering_flags_rejected(self, workdir, capsys, flag, value, in_subprocess):
        # FM inserts generators in input order and project-and-lift
        # eliminates the last coordinate first; neither order is a flag
        args = [str(workdir / "cube.in"), "--goals", "LatticePoints", flag, value]
        if in_subprocess:
            proc = subprocess.run(
                [sys.executable, "-m", "algpoly.cli", *args],
                capture_output=True, text=True, timeout=60,
                env={**os.environ, "PYTHONPATH": str(REPO / "src")},
            )
            rc, err = proc.returncode, proc.stderr
        else:
            rc, err = run_cli(args), capsys.readouterr().err
        assert rc == 1
        assert err.startswith("error:")
        assert flag in err
        assert "Traceback" not in err
        assert not (workdir / "cube.out").exists()

    def test_euclid_digits_flag(self, workdir):
        path = workdir / "icosahedron.in"
        assert run_cli([str(path), "--goals", "Volume", "--euclid-digits", "6"]) == 0
        out = (workdir / "icosahedron.out").read_text()
        assert "volume (Euclidean) = 2.18169" in out
        assert "2.18169499062" not in out

    def test_determinism_single_worker(self, workdir):
        path = workdir / "icosahedron.in"
        assert run_cli([str(path)]) == 0
        first_out = (workdir / "icosahedron.out").read_bytes()
        first_aut = (workdir / "icosahedron.aut").read_bytes()
        assert run_cli([str(path)]) == 0
        assert (workdir / "icosahedron.out").read_bytes() == first_out
        assert (workdir / "icosahedron.aut").read_bytes() == first_aut

    def test_console_script_installed(self, workdir):
        exe = shutil.which("algpoly")
        if exe is None:
            pytest.skip("console script not on PATH")
        proc = subprocess.run(
            [exe, str(workdir / "cube.in")], capture_output=True, text=True
        )
        assert proc.returncode == 0

    @pytest.mark.parametrize("field_line, entry, number", [
        ("", "9" * 5000, 10 ** 5000 - 1),
        (_QSQRT5, f"({'9' * 5000}*a)", 10 ** 5000 - 1),
        (_QSQRT5, "(a^100000)", 5 ** 50000),  # 34,949 digits
    ], ids=["rational", "generator-multiple", "generator-power"])
    def test_integers_past_the_str_digit_limit(self, tmp_path, field_line, entry, number):
        # Python refuses int/str conversions of more than 4,300 digits unless
        # the limit is lifted; a fresh interpreter starts with it in place
        path = tmp_path / "long.in"
        path.write_text(f"amb_space 1\n{field_line}vertices 2\n0 1\n{entry} 1\n")
        proc = subprocess.run(
            [sys.executable, "-m", "algpoly.cli", str(path)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert "Traceback" not in proc.stderr
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if limit:
            sys.set_int_max_str_digits(0)
        try:
            assert str(number) in path.with_suffix(".out").read_text()
        finally:
            if limit:
                sys.set_int_max_str_digits(limit)


_SMALL_INPUTS = {
    "halfline": "amb_space 1\ncone 1\n1\n",
    "segment": "amb_space 2\nvertices 2\n0 0 1\n2 1 1\n",
    "point": "amb_space 2\nvertices 1\n1 2 1\n",
    "cone_with_line": "amb_space 2\ncone 3\n1 0\n-1 0\n0 1\n",
    "triangle_and_ray": "amb_space 2\nvertices 3\n0 0 1\n1 0 1\n0 1 1\ncone 1\n1 1\n",
}


class TestGoalSample:
    """Every goal alone ends with an exit code on every sample input."""

    @pytest.mark.parametrize(
        "name", sorted(p.stem for p in INPUTS.glob("*.in")) + sorted(_SMALL_INPUTS)
    )
    def test_each_goal_exits_cleanly(self, tmp_path, name):
        path = tmp_path / f"{name}.in"
        if name in _SMALL_INPUTS:
            path.write_text(_SMALL_INPUTS[name])
        else:
            shutil.copy(INPUTS / f"{name}.in", path)
        for goal in Goal:
            path.with_suffix(".out").unlink(missing_ok=True)
            rc = run_cli([str(path), "--goals", goal.value])
            assert rc in (0, 1, 2), goal
            # an output file is written exactly when the run succeeds
            assert path.with_suffix(".out").exists() == (rc == 0), goal


class TestGolden:
    """Outputs for inputs/*.in must stay byte-identical to tests/golden."""

    @pytest.mark.parametrize("name", ["cube", "empty", "icosahedron"])
    def test_outputs_match_golden(self, workdir, name):
        assert run_cli([str(workdir / f"{name}.in")]) == 0
        expected = sorted(p.name for p in GOLDEN.glob(f"{name}.*"))
        produced = sorted(
            p.name for p in workdir.glob(f"{name}.*") if p.suffix != ".in"
        )
        assert produced == expected
        for file_name in expected:
            assert (workdir / file_name).read_bytes() == (GOLDEN / file_name).read_bytes()

    def test_lattice_points_computed_once(self, workdir, monkeypatch):
        calls = []
        original = discrete.lattice_points

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(discrete, "lattice_points", counted)
        monkeypatch.setattr(cli, "lattice_points", counted)
        path = workdir / "cube.in"
        assert run_cli([str(path), "--goals", "LatticePoints,IntegerHull"]) == 0
        assert len(calls) == 1
        golden = GOLDEN / "cube_lattice_hull.out"
        assert (workdir / "cube.out").read_bytes() == golden.read_bytes()


    def test_triangulation_computed_once(self, workdir, monkeypatch):
        calls = []
        original = discrete.triangulate

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(discrete, "triangulate", counted)
        monkeypatch.setattr(cli, "triangulate", counted)
        path = workdir / "cube.in"
        assert run_cli([str(path), "--goals", "Triangulation,Volume"]) == 0
        assert len(calls) == 1
        out = (workdir / "cube.out").read_text()
        assert "volume (lattice normalized) = 6" in out
        assert "6 simplices of triangulation (dehomogenized determinants):" in out


class TestBench:
    def test_families(self):
        cyc, dim = bench_vertices("cyclic", (4, 8))
        assert len(cyc) == 8 and dim == 4
        cube, dim = bench_vertices("scaled-cube", (3,))
        assert len(cube) == 8 and dim == 3
        lo3, dim = bench_vertices("order-poly", (3,))
        assert len(lo3) == 6 and dim == 3

    def test_cyclic_matches_gale_oracle(self):
        for cls in ("int", "rat"):
            ext, hyps, fvec = bench_instance("cyclic", (4, 8), cls)
            assert ext == 8
            assert hyps == len(gale_facets(4, 8)) == gale_facet_count(4, 8) == 20

    def test_scaled_cube_sc2(self):
        ext, hyps, fvec = bench_instance("scaled-cube", (3,), "sc2")
        assert (ext, hyps) == (8, 6)
        assert fvec == [1, 8, 12, 6, 1]

    def test_counts_invariant_across_classes(self):
        reference = None
        for cls in ("int", "mpz", "rat", "sc2"):
            counts = bench_instance("scaled-cube", (3,), cls)
            if reference is None:
                reference = counts
            assert counts == reference

    def test_bench_cli(self, capsys):
        assert run_cli(["--bench", "cyclic(4,8)", "--class", "rat"]) == 0
        out = capsys.readouterr().out
        assert "benchmark cyclic(4, 8)" in out
        assert "rat" in out

    @pytest.mark.parametrize("cls", ["sc2", "all"])
    def test_bench_without_vertices(self, cls):
        # cyclic(3,0) has no vertices: every class prints the empty row
        proc = subprocess.run(
            [sys.executable, "-m", "algpoly.cli", "--bench", "cyclic(3,0)", "--class", cls],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        )
        assert proc.returncode == 0
        assert "Traceback" not in proc.stderr
        assert "warning" not in proc.stderr
        rows = [line.split() for line in proc.stdout.splitlines()[2:-1]]
        classes = list(cli.BENCH_CLASSES) if cls == "all" else [cls]
        assert [row[0] for row in rows] == classes
        assert all(row[2:] == ["0", "0", "1"] for row in rows)

    def test_bad_family(self):
        assert run_cli(["--bench", "moebius(3)"]) == 1

    def test_bad_class(self):
        assert run_cli(["--bench", "cyclic(4,8)", "--class", "q99"]) == 1


class TestGaleOracle:
    def test_formula_matches_enumeration(self):
        for d, n in [(2, 5), (3, 6), (4, 8), (5, 8), (6, 10)]:
            assert len(gale_facets(d, n)) == gale_facet_count(d, n)

    def test_paper_cyc15_30_count(self):
        assert gale_facet_count(15, 30) == 341088
