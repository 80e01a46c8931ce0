"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The long cyclic polytope run (criterion 5, optional part) is
enabled by setting ALGPOLY_LONG=1.
"""

import os
import random
import shutil
import time
from fractions import Fraction

import pytest

from algpoly import (
    ConeInput,
    EmbeddingInterval,
    PolyhedronModel,
    analyze,
    automorphisms,
    build_model,
    dualize,
    f_vector,
    field_create,
    lattice_points,
    parse_input,
    triangulate,
    volume,
)
from algpoly.cli import bench_instance, main as cli_main

from conftest import INPUTS
from oracles import (
    box_scan_lattice,
    brute_force_combinatorial_order,
    brute_force_dual,
    gale_facet_count,
    gale_facets,
    hyperplane_set,
    oracle_sign,
    random_cone,
    random_polytope,
)


def _report(num, text):
    print(f"\nACCEPTANCE {num} PASS: {text}")


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_icosahedron_end_to_end(tmp_path):
    t0 = time.perf_counter()
    spec = parse_input((INPUTS / "icosahedron.in").read_text())
    analyzed = analyze(build_model(spec))
    assert len(analyzed.vertices) == 12
    assert len(analyzed.rays) == 0
    assert len(analyzed.support_hyperplanes) == 20
    assert analyzed.affine_dim == 3

    fvec = f_vector(analyzed)
    assert fvec == [1, 12, 30, 20, 1]

    pts = lattice_points(analyzed)
    assert pts.points == [(0, 0, 0, 1)]

    vol = volume(analyzed, triangulate(analyzed))
    a = spec.field.gen()
    assert vol.normalized == a * Fraction(5, 2) + Fraction(15, 2)
    euclid = vol.euclidean_fraction(14)
    assert abs(euclid - Fraction("2.18169499062")) < Fraction(1, 10 ** 9)

    group = automorphisms(analyzed, "euclidean")
    assert group.order == 120
    assert [len(o) for o in group.vertex_orbits] == [12]
    assert [len(o) for o in group.hyperplane_orbits] == [20]

    elapsed = time.perf_counter() - t0
    assert elapsed < 5.0, f"icosahedron run took {elapsed:.2f}s"
    _report(1, f"icosahedron transcript reproduced in {elapsed:.2f}s")


# ------------------------------------------------------- criteria 2 and 3

def _acceptance_cones():
    rng = random.Random(20260809)
    qq = field_create([-1, 1], EmbeddingInterval(0, 2))
    qs = field_create([-5, 0, 1], EmbeddingInterval(1, 3))
    cones = []
    for i in range(200):
        algebraic = i >= 100
        field = qs if algebraic else qq
        d = rng.randint(2, 5)
        n = rng.randint(d, 10)
        cones.append((field, d, random_cone(rng, field, d, n, algebraic)))
    return cones


@pytest.fixture(scope="module")
def cones200():
    return _acceptance_cones()


def test_criterion_2_dual_of_dual(cones200):
    t0 = time.perf_counter()
    for field, d, gens in cones200:
        res = dualize(ConeInput(field, d, generators=gens))
        res2 = dualize(
            ConeInput(field, d, generators=[tuple(f) for f in res.support_hyperplanes])
        )
        returned = hyperplane_set(res2.support_hyperplanes, field)
        expected = hyperplane_set([res.generators[i] for i in res.extreme], field)
        assert returned == expected
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"dual-of-dual took {elapsed:.1f}s"
    _report(2, f"dual-of-dual on 200 cones in {elapsed:.1f}s")


def test_criterion_3_brute_force_oracle(cones200):
    for field, d, gens in cones200:
        res = dualize(ConeInput(field, d, generators=gens))
        assert hyperplane_set(res.support_hyperplanes, field) == list(
            brute_force_dual(gens, field)
        )
    _report(3, "FM output equals the kernel-enumeration oracle on 200 cones")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_lattice_point_oracle():
    rng = random.Random(4042)
    qq = field_create([-1, 1], EmbeddingInterval(0, 2))
    qs = field_create([-5, 0, 1], EmbeddingInterval(1, 3))
    for i in range(50):
        algebraic = i % 2 == 1
        field = qs if algebraic else qq
        d = rng.randint(2, 3)
        pts = random_polytope(rng, field, d, rng.randint(d + 1, d + 4), algebraic)
        analyzed = analyze(PolyhedronModel(field, d, vertices=pts))
        assert lattice_points(analyzed).points == box_scan_lattice(analyzed)
    _report(4, "project-and-lift equals box scan on 50 random polytopes")


# ---------------------------------------------------------------- criterion 5

def _cyclic_run(d, n, field):
    verts = [
        tuple(field.from_rational(t ** k) for k in range(1, d + 1))
        for t in range(1, n + 1)
    ]
    return analyze(PolyhedronModel(field, d, vertices=verts))


def test_criterion_5_cyclic_polytopes(qq):
    for d, n in [(4, 8), (6, 10), (8, 14)]:
        analyzed = _cyclic_run(d, n, qq)
        enumerated = gale_facets(d, n)
        assert len(analyzed.support_hyperplanes) == len(enumerated)
        assert len(enumerated) == gale_facet_count(d, n)
        # vertex sets of the facets match the Gale subsets exactly
        incident_sets = {
            frozenset(
                i for i in range(n) if mask >> i & 1
            )
            for mask in analyzed.incidence
        }
        assert incident_sets == set(enumerated)
    _report(5, "cyclic facet counts and facet sets match Gale evenness")


@pytest.mark.skipif(
    not os.environ.get("ALGPOLY_LONG"),
    reason="long cyclic run; set ALGPOLY_LONG=1 to enable",
)
def test_criterion_5_long_cyc15_30(qq):
    analyzed = _cyclic_run(15, 30, qq)
    assert len(analyzed.support_hyperplanes) == 341088
    _report(5, "cyc15-30 has 341088 support hyperplanes")


# ---------------------------------------------------------------- criterion 6

def test_criterion_6_scaling_invariance():
    reference = {}
    for family, params in (("scaled-cube", (3,)), ("cyclic", (6, 10))):
        reference[family] = bench_instance(family, params, "int")
        for cls in ("sc2", "sc8", "p12"):
            counts = bench_instance(family, params, cls)
            assert counts == reference[family], (family, cls)
    _report(6, "facet/ray counts and f-vectors invariant under sc2, sc8, p12 scaling")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_number_field_suite(qsqrt5, p12):
    rng = random.Random(777)
    for field in (qsqrt5, p12):
        for _ in range(500):
            span = 9
            x = field.element(
                [rng.randint(-span, span) for _ in range(field.degree)],
                rng.randint(1, 6),
            )
            y = field.element(
                [rng.randint(-span, span) for _ in range(field.degree)],
                rng.randint(1, 6),
            )
            z = field.element(
                [rng.randint(-span, span) for _ in range(field.degree)],
                rng.randint(1, 6),
            )
            assert (x + y) + z == x + (y + z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inv() == field.one
    # sign against the 100-digit oracle
    rng = random.Random(778)
    for field in (qsqrt5, p12):
        for _ in range(500):
            x = field.element(
                [rng.randint(-9, 9) for _ in range(field.degree)], rng.randint(1, 6)
            )
            assert x.sign() == oracle_sign(x, digits=100)
    # floor correctness through exact signs
    rng = random.Random(779)
    for field in (qsqrt5, p12):
        for _ in range(100):
            x = field.element(
                [rng.randint(-9, 9) for _ in range(field.degree)], rng.randint(1, 6)
            )
            k = x.floor()
            assert (x - k).sign() >= 0
            assert (x - (k + 1)).sign() < 0
    _report(7, "1000 axiom checks, 1000 oracle sign checks, 200 floor checks")


# ---------------------------------------------------------------- criterion 8

def test_criterion_8_automorphism_sanity(qq, qsqrt5, icosahedron, unit_cube, unit_square):
    q = qq.from_rational
    square_group = automorphisms(unit_square, "combinatorial")
    assert square_group.order == 8 == brute_force_combinatorial_order(unit_square)
    simplex = analyze(
        PolyhedronModel(
            qq,
            3,
            vertices=[
                (q(0), q(0), q(0)),
                (q(1), q(0), q(0)),
                (q(0), q(1), q(0)),
                (q(0), q(0), q(1)),
            ],
        )
    )
    assert automorphisms(simplex, "combinatorial").order == 24
    segment = analyze(PolyhedronModel(qq, 1, vertices=[(q(0),), (q(1),)]))
    assert automorphisms(segment, "combinatorial").order == 2
    for analyzed in (icosahedron, unit_cube):
        euc = automorphisms(analyzed, "euclidean")
        alg = automorphisms(analyzed, "algebraic")
        comb = automorphisms(analyzed, "combinatorial")
        assert set(euc.elements) <= set(alg.elements) <= set(comb.elements)
    _report(8, "square 8, simplex 24, segment 2; euclidean <= algebraic <= combinatorial")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_determinism(tmp_path):
    src = INPUTS / "icosahedron.in"
    outputs = []
    for run in range(2):
        workdir = tmp_path / f"run{run}"
        workdir.mkdir()
        target = workdir / "icosahedron.in"
        shutil.copy(src, target)
        assert cli_main([str(target)]) == 0
        outputs.append(
            (
                (workdir / "icosahedron.out").read_bytes(),
                (workdir / "icosahedron.aut").read_bytes(),
            )
        )
    assert outputs[0] == outputs[1]
    _report(9, "two runs are byte-identical")
