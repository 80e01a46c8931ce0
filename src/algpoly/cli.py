"""Command line driver.

Runs the requested computation goals on a Normaliz-style input file and
writes `<name>.out` (plus `<name>.aut` if automorphisms were requested),
or runs a benchmark family across arithmetic classes.

Exit codes: 0 success, 1 input error, 2 computation error.
"""

from __future__ import annotations

import argparse
import re
import sys
import time
from itertools import permutations
from pathlib import Path

from . import io as nfio
from .combinat import automorphisms, f_vector
from .discrete import integer_hull, lattice_points, triangulate, volume
from .errors import AlgpolyError, InputSyntaxError
from .numfield import EmbeddingInterval, field_create, rational_field
from .polyhedron import PolyhedronModel, analyze

BENCH_CLASSES = ("int", "mpz", "rat", "sc2", "sc8", "p12")


class _ArgumentError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _ArgumentError(message)


def _positive_int(text):
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _build_parser():
    p = _Parser(prog="algpoly", description=__doc__)
    p.add_argument("input", nargs="?", help="input file (<name>.in)")
    p.add_argument("--goals", help="comma separated goal overrides")
    p.add_argument(
        "--euclid-digits", type=_positive_int, default=12,
        help="significant digits of the Euclidean volume",
    )
    p.add_argument("--bench", help="benchmark family, e.g. cyclic(8,14)")
    p.add_argument(
        "--class", dest="bench_class", default="all",
        help="arithmetic class: " + ", ".join(BENCH_CLASSES) + ", or all",
    )
    return p


def main(argv=None):
    # exact coordinates have no size limit, so neither has their decimal text
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _ArgumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.bench:
            return bench(args.bench, args.bench_class)
        if not args.input:
            print("error: an input file or --bench is required", file=sys.stderr)
            return 1
        return run(args)
    except (InputSyntaxError, FileNotFoundError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 1
    except AlgpolyError as exc:
        print(f"computation error: {exc}", file=sys.stderr)
        return 2


def run(args):
    path = Path(args.input)
    text = path.read_text()
    spec = nfio.parse_input(text)
    goals = list(spec.goals)
    if args.goals:
        goals = []
        for token in args.goals.split(","):
            token = token.strip()
            if not token:
                continue
            goal = nfio.goal_from_token(token)
            if goal not in goals:
                goals.append(goal)
    analyzed = analyze(nfio.build_model(spec))
    bundle = nfio.ResultBundle(
        analyzed=analyzed, goals=goals, euclid_digits=args.euclid_digits
    )
    if not analyzed.is_empty:
        _compute_goals(bundle, goals)

    out_path = path.with_suffix(".out")
    out_path.write_text(nfio.write_results(bundle))
    print(f"wrote {out_path}")
    aut_texts = [
        nfio.write_automorphisms(bundle.automorphisms[kind])
        for goal, kind in nfio.AUT_GOALS.items()
        if kind in bundle.automorphisms
    ]
    if aut_texts:
        aut_path = path.with_suffix(".aut")
        aut_path.write_text("".join(aut_texts))
        print(f"wrote {aut_path}")
    return 0


def _compute_goals(bundle, goals):
    # dependency order: hyperplanes (analyze) precede the face lattice and
    # automorphisms; the triangulation precedes the volume; lattice points
    # precede the integer hull
    analyzed = bundle.analyzed
    Goal = nfio.Goal
    if Goal.F_VECTOR in goals or Goal.FACE_LATTICE in goals:
        bundle.f_vector = f_vector(analyzed)
    if Goal.TRIANGULATION in goals or Goal.VOLUME in goals:
        triangulation = triangulate(analyzed)
        if Goal.TRIANGULATION in goals:
            bundle.triangulation = triangulation
        if Goal.VOLUME in goals:
            bundle.volume = volume(analyzed, triangulation)
    if Goal.LATTICE_POINTS in goals or Goal.INTEGER_HULL in goals:
        bundle.lattice_points = lattice_points(analyzed)
    if Goal.INTEGER_HULL in goals:
        bundle.integer_hull = integer_hull(analyzed, bundle.lattice_points)
    for goal, kind in nfio.AUT_GOALS.items():
        if goal in goals:
            bundle.automorphisms[kind] = automorphisms(analyzed, kind)


# ----------------------------------------------------------------------------
# benchmark mode

def bench(family_text, class_name):
    family, params = _parse_family(family_text)
    classes = BENCH_CLASSES if class_name == "all" else (class_name,)
    for c in classes:
        if c not in BENCH_CLASSES:
            raise InputSyntaxError(f"unknown arithmetic class {c!r}")
    rows = []
    reference = None
    for cls in classes:
        t0 = time.perf_counter()
        counts = bench_instance(family, params, cls)
        elapsed = time.perf_counter() - t0
        rows.append((cls, elapsed, counts))
        if reference is None:
            reference = counts
        elif counts != reference:
            print(
                f"warning: class {cls} changed combinatorial counts {counts} "
                f"!= {reference}",
                file=sys.stderr,
            )
    print(f"benchmark {family}({', '.join(str(p) for p in params)})")
    print(f"{'class':<8}{'time[s]':>10}  {'ext rays':>8}  {'supp hyps':>9}  f-vector")
    for cls, elapsed, (ext, hyps, fvec) in rows:
        fstr = " ".join(str(x) for x in fvec)
        print(f"{cls:<8}{elapsed:>10.3f}  {ext:>8}  {hyps:>9}  {fstr}")
    print(
        "note: int and mpz coincide in this implementation "
        "(native arbitrary-precision integers)"
    )
    return 0


def _parse_family(text):
    m = re.fullmatch(r"\s*([a-z-]+)\s*\(\s*(\d+(?:\s*,\s*\d+)*)\s*\)\s*", text)
    if not m:
        raise InputSyntaxError(f"cannot parse benchmark family {text!r}")
    family = m.group(1)
    params = tuple(int(t) for t in re.split(r"\s*,\s*", m.group(2)))
    expected = {"cyclic": 2, "scaled-cube": 1, "order-poly": 1}
    if family not in expected:
        raise InputSyntaxError(f"unknown benchmark family {family!r}")
    if len(params) != expected[family]:
        raise InputSyntaxError(
            f"family {family} takes {expected[family]} parameter(s)"
        )
    return family, params


def bench_field(cls):
    if cls in ("int", "mpz"):
        return rational_field()
    if cls in ("rat", "sc2"):
        return field_create([-5, 0, 1], EmbeddingInterval(2 - 1, 2 + 1))
    if cls == "sc8":
        return field_create([-5, 0, 0, 0, 0, 0, 0, 0, 1], EmbeddingInterval(1, 2))
    if cls == "p12":
        return field_create(
            [-5, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1], EmbeddingInterval(1, 2)
        )
    raise InputSyntaxError(f"unknown arithmetic class {cls!r}")


def bench_vertices(family, params):
    """Integer vertex lists of the benchmark families."""
    if family == "cyclic":
        d, n = params
        return [tuple(t ** k for k in range(1, d + 1)) for t in range(1, n + 1)], d
    if family == "scaled-cube":
        (d,) = params
        verts = []
        for mask in range(1 << d):
            verts.append(tuple((mask >> i) & 1 for i in range(d)))
        return verts, d
    if family == "order-poly":
        (k,) = params
        pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
        verts = []
        for perm in permutations(range(k)):
            position = {v: idx for idx, v in enumerate(perm)}
            verts.append(
                tuple(1 if position[i] < position[j] else 0 for i, j in pairs)
            )
        return verts, len(pairs)
    raise InputSyntaxError(f"unknown benchmark family {family!r}")


def scale_columns(vertices, field):
    """Scale coordinate j by gen**(j mod degree); preserves the combinatorics."""
    a = field.gen()
    powers = [a ** k for k in range(field.degree)]
    return [
        tuple(x * powers[j % field.degree] for j, x in enumerate(row))
        for row in vertices
    ]


def bench_instance(family, params, cls):
    """(extreme ray count, facet count, f-vector) of one class run."""
    int_vertices, dim = bench_vertices(family, params)
    field = bench_field(cls)
    vertices = [
        tuple(field.from_rational(x) for x in row) for row in int_vertices
    ]
    if cls in ("sc2", "sc8", "p12"):
        vertices = scale_columns(vertices, field)
    analyzed = analyze(PolyhedronModel(field, dim, vertices=vertices))
    fvec = f_vector(analyzed)
    return (
        len(analyzed.vertices) + len(analyzed.rays),
        len(analyzed.support_hyperplanes),
        fvec,
    )


if __name__ == "__main__":
    sys.exit(main())
