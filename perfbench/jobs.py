"""Seeded job streams of the four workloads.

A stream is an endless sequence of rounds; round r of workload W with seed s
is drawn from `random.Random(f"{W}:{s}:{r}")` (hull-qq and hull-nf share
the key "hull", so hull-nf runs the same polytopes as hull-qq).  Every job
carries its `.in` text and an `oracle` callable that computes, from the
benchmark's own exact code, what the program's summary lines must say.
Oracles run after the timed loop.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import factorial, prod
from typing import Callable

from exact import (
    P12, Q5, QQ, affine_order, brute_facets, bounding_box, combinatorial_order,
    count_lattice_points, cube_fvector, cyclic_fvector, euclidean_order,
    gale_facet_count, in_general_position, int_det, prism_fvector,
    simplex_fvector,
)

HULL_GOALS = ("SupportHyperplanes", "FVector", "Volume")
LATTICE_GOALS = ("LatticePoints", "IntegerHull", "SupportHyperplanes")
AUT_GOALS = {
    "combinatorial": "CombinatorialAutomorphisms",
    "algebraic": "AlgebraicAutomorphisms",
    "euclidean": "EuclideanAutomorphisms",
}

# verbatim copies of the repository's sample inputs, so the program sees
# only files the benchmark writes
CUBE_IN = """amb_space 3
vertices 8
0 0 0 1
1 0 0 1
0 1 0 1
1 1 0 1
0 0 1 1
1 0 1 1
0 1 1 1
1 1 1 1
Volume
LatticePoints
FVector
"""
EMPTY_IN = """amb_space 1
inequalities 2
1 -1
-1 0
SupportHyperplanes
"""
ICOSAHEDRON_IN = """amb_space 3
number_field min_poly (a^2 - 5) embedding [2 +/- 1]
vertices 12
0 2 (a + 1) 4
0 -2 (a + 1) 4
2 (a + 1) 0 4
-2 (a + 1) 0 4
2 (-a - 1) 0 4
-2 (-a - 1) 0 4
0 2 (-a - 1) 4
0 -2 (-a - 1) 4
(a + 1) 0 2 4
(-a - 1) 0 2 4
(a + 1) 0 -2 4
(-a - 1) 0 -2 4
Volume
LatticePoints
FVector
EuclideanAutomorphisms
"""


@dataclass
class Job:
    name: str
    text: str
    oracle: Callable[[], dict]  # expected summary invariants, see checks.py
    tags: dict = dc_field(default_factory=dict)
    twin: str | None = None  # rational twin's .in text (hull-nf)
    scale: tuple | None = None  # product of the column scales (hull-nf)
    field: object = QQ

    @cached_property
    def expected(self):
        return self.oracle()


@dataclass
class Shape:
    """A polytope in base coordinates (over Q or Q(sqrt 5)) with known facts."""

    family: str
    points: list  # tuples of base-field elements
    base: object  # QQ or Q5
    simplicial: bool
    facts: dict  # vertices, facets, fvec, volume, facet_sets, integral_volume


# ----------------------------------------------------------------------------
# rendering

def vertex_text(points, field, goals):
    d = len(points[0])
    lines = [f"amb_space {d}"]
    if field.header:
        lines.append(field.header)
    lines.append(f"vertices {len(points)}")
    for p in points:
        lines.append(" ".join(field.render(x) for x in p) + " 1")
    lines.extend(goals)
    return "\n".join(lines) + "\n"


def inequality_text(inequalities, field, goals):
    d = len(inequalities[0][0])
    lines = [f"amb_space {d}"]
    if field.header:
        lines.append(field.header)
    lines.append(f"inequalities {len(inequalities)}")
    for normal, offset in inequalities:
        lines.append(" ".join(field.render(x) for x in list(normal) + [offset]))
    lines.extend(goals)
    return "\n".join(lines) + "\n"


def lift(points, src, dst):
    """Base-field points as elements of the target field."""
    if src is dst:
        return points
    if src is not QQ:
        raise ValueError("only rational points move between fields")
    return [tuple(dst.elem(x[0]) for x in p) for p in points]


def scale_columns(points, field):
    """Coordinate j times a**(j mod degree); returns points and the product."""
    d = len(points[0])
    scales = [field.power(j % field.degree) for j in range(d)]
    scaled = [tuple(field.mul(x, s) for x, s in zip(p, scales)) for p in points]
    total = field.elem(1)
    for s in scales:
        total = field.mul(total, s)
    return scaled, total


def rational_points(rows):
    return [tuple(QQ.elem(x) for x in r) for r in rows]


# ----------------------------------------------------------------------------
# shape families (rational unless stated)

@lru_cache(maxsize=None)
def _cyclic_facts(n, d):
    return {"vertices": n, "facets": gale_facet_count(n, d),
            "fvec": cyclic_fvector(n, d)}


def cyclic(rng, d, n):
    ts = sorted(rng.sample(range(-2, n + 3), n))
    rows = [tuple(t ** k for k in range(1, d + 1)) for t in ts]
    facts = dict(_cyclic_facts(n, d), integral_volume=True)
    return Shape(f"cyclic({d},{n})", rational_points(rows), QQ, True, facts)


def paraboloid(rng, d, n, radius):
    """Random integer points on z = |y|^2, all extreme, in general position."""
    while True:
        ys = set()
        while len(ys) < n:
            ys.add(tuple(rng.randint(-radius, radius) for _ in range(d - 1)))
        rows = [y + (sum(c * c for c in y),) for y in sorted(ys)]
        rng.shuffle(rows)
        if in_general_position(rows):
            break
    facts = {"vertices": n, "integral_volume": True}
    return Shape(f"paraboloid({d},{n})", rational_points(rows), QQ, True, facts)


def box(rng, d):
    sides = [rng.randint(1, 4) for _ in range(d)]
    shift = [rng.randint(-3, 3) for _ in range(d)]
    rows = [tuple(shift[i] + sides[i] * ((m >> i) & 1) for i in range(d))
            for m in range(1 << d)]
    facts = {"vertices": 2 ** d, "facets": 2 * d, "fvec": cube_fvector(d),
             "volume": QQ.elem(factorial(d) * prod(sides))}
    return Shape(f"box({d})", rational_points(rows), QQ, False, facts)


def prism(rng, d):
    """Random integer (d-1)-simplex times a segment."""
    while True:
        base = [tuple(rng.randint(-3, 3) for _ in range(d - 1)) for _ in range(d)]
        det = int_det([[b[k] - base[0][k] for k in range(d - 1)] for b in base[1:]])
        if det:
            break
    h = rng.randint(1, 3)
    rows = [b + (0,) for b in base] + [b + (h,) for b in base]
    facts = {"vertices": 2 * d, "facets": d + 2,
             "fvec": prism_fvector(simplex_fvector(d - 1)),
             "volume": QQ.elem(d * abs(det) * h)}
    return Shape(f"prism({d})", rational_points(rows), QQ, False, facts)


def order_polytope(rng, k=4):
    """Linear ordering polytope of S_k with its coordinates shuffled."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    cols = list(range(len(pairs)))
    rng.shuffle(cols)
    rows = []
    for perm in permutations(range(k)):
        pos = {v: idx for idx, v in enumerate(perm)}
        bits = [1 if pos[i] < pos[j] else 0 for i, j in pairs]
        rows.append(tuple(bits[c] for c in cols))
    facts = {"vertices": factorial(k), "integral_volume": True,
             "facet_sets": _order_polytope_facets(rows, pairs, cols)}
    if k == 4:
        facts["facets"] = 20
    return Shape(f"order-poly({k})", rational_points(rows), QQ, False, facts)


def _order_polytope_facets(rows, pairs, cols):
    # for k <= 5 the facets are 0 <= x_ij <= 1 and the 3-dicycle inequalities
    where = {pair: cols.index(idx) for idx, pair in enumerate(pairs)}
    forms = []
    for c in range(len(pairs)):
        forms.append(lambda r, c=c: r[c])
        forms.append(lambda r, c=c: 1 - r[c])
    k = max(j for _, j in pairs) + 1
    for i, j, l in combinations(range(k), 3):
        a, b, c = where[(i, j)], where[(j, l)], where[(i, l)]
        forms.append(lambda r, a=a, b=b, c=c: r[a] + r[b] - r[c])
        forms.append(lambda r, a=a, b=b, c=c: 1 - r[a] - r[b] + r[c])
    return [frozenset(v for v, r in enumerate(rows) if f(r) == 0) for f in forms]


def cross(rng, d):
    k = rng.randint(1, 3)
    shift = [rng.randint(-2, 2) for _ in range(d)]
    rows = []
    for i in range(d):
        for s in (k, -k):
            rows.append(tuple(shift[j] + (s if j == i else 0) for j in range(d)))
    facet_sets = [frozenset(2 * i + ((m >> i) & 1) for i in range(d))
                  for m in range(1 << d)]
    facts = {"vertices": 2 * d, "facets": 2 ** d, "facet_sets": facet_sets,
             "volume": QQ.elem(2 ** d * k ** d)}
    return Shape(f"cross({d})", rational_points(rows), QQ, True, facts)


def cube(rng, d):
    k = rng.randint(1, 3)
    shift = [rng.randint(-2, 2) for _ in range(d)]
    rows = [tuple(shift[i] + k * ((m >> i) & 1) for i in range(d))
            for m in range(1 << d)]
    facet_sets = [frozenset(m for m in range(1 << d) if (m >> i) & 1 == b)
                  for i in range(d) for b in (0, 1)]
    facts = {"vertices": 2 ** d, "facets": 2 * d, "fvec": cube_fvector(d),
             "facet_sets": facet_sets, "volume": QQ.elem(factorial(d) * k ** d)}
    return Shape(f"cube({d})", rational_points(rows), QQ, False, facts)


def corner_simplex(rng, d):
    k = rng.randint(1, 3)
    rows = [tuple(0 for _ in range(d))]
    rows += [tuple(k if j == i else 0 for j in range(d)) for i in range(d)]
    facet_sets = [frozenset(range(d + 1)) - {v} for v in range(d + 1)]
    facts = {"vertices": d + 1, "facets": d + 1, "fvec": simplex_fvector(d),
             "facet_sets": facet_sets, "volume": QQ.elem(k ** d)}
    return Shape(f"simplex({d})", rational_points(rows), QQ, True, facts)


def triangular_prism(rng):
    k, h = rng.randint(1, 3), rng.randint(1, 3)
    tri = [(0, 0), (k, 0), (0, k)]
    rows = [t + (0,) for t in tri] + [t + (h,) for t in tri]
    facet_sets = [frozenset({0, 1, 2}), frozenset({3, 4, 5}),
                  frozenset({0, 1, 3, 4}), frozenset({0, 2, 3, 5}),
                  frozenset({1, 2, 4, 5})]
    facts = {"vertices": 6, "facets": 5, "fvec": prism_fvector([1, 3, 3, 1]),
             "facet_sets": facet_sets, "volume": QQ.elem(3 * k * k * h)}
    return Shape("tri-prism(3)", rational_points(rows), QQ, False, facts)


def _golden_solid(rng, name):
    """Icosahedron or dodecahedron over Q(sqrt 5), scaled and translated."""
    F = Q5
    phi = (Fraction(1, 2), Fraction(1, 2))
    inv_phi = (Fraction(-1, 2), Fraction(1, 2))
    one = F.elem(1)
    zero = F.zero()
    pts = set()
    if name == "icosahedron":
        base = [(zero, one, phi)]
        volume = (Fraction(60), Fraction(20))  # edge 2
        fvec = [1, 12, 30, 20, 1]
    else:
        base = [(one, one, one), (zero, inv_phi, phi)]
        # edge length a - 1; volume (15 + 7a)/4 * edge^3, times 3!
        edge = (Fraction(-1), Fraction(1))
        e3 = F.mul(F.mul(edge, edge), edge)
        volume = F.scale(F.mul((Fraction(15, 4), Fraction(7, 4)), e3), 6)
        fvec = [1, 20, 30, 12, 1]
    for b in base:
        for shift in range(3):
            rot = b[shift:] + b[:shift]
            for signs in range(8):
                pts.add(tuple(F.scale(x, -1) if (signs >> i) & 1 else x
                              for i, x in enumerate(rot)))
    k = Fraction(rng.randint(1, 3), rng.randint(1, 2))
    shift = [rng.randint(-2, 2) for _ in range(3)]
    points = [tuple(F.add(F.scale(x, k), F.elem(s)) for x, s in zip(p, shift))
              for p in sorted(pts)]
    facts = {"vertices": len(points), "facets": fvec[3], "fvec": fvec,
             "volume": F.scale(volume, k ** 3)}
    return Shape(name, points, F, name == "icosahedron", facts)


def icosahedron(rng):
    return _golden_solid(rng, "icosahedron")


def dodecahedron(rng):
    return _golden_solid(rng, "dodecahedron")


def random_polytope(rng, d, n, radius):
    """Random integer points in general position (some may not be vertices)."""
    while True:
        rows = [tuple(rng.randint(-radius, radius) for _ in range(d)) for _ in range(n)]
        if len(set(rows)) == n and in_general_position(rows):
            return Shape(f"random({d},{n})", rational_points(rows), QQ, True, {})


# ----------------------------------------------------------------------------
# hull-qq and hull-nf

# (shape maker, field class of the hull-nf twin); one round is this list
HULL_ROUND = (
    (lambda r: cyclic(r, 4, r.randint(8, 10)), "q5-rat"),
    (lambda r: cyclic(r, 5, r.randint(8, 9)), "p12"),
    (lambda r: cyclic(r, 6, 9), "q5-scaled"),
    (lambda r: cyclic(r, 8, r.randint(10, 11)), "q5-rat"),
    (lambda r: paraboloid(r, 3, r.randint(8, 10), 4), "p12"),
    (lambda r: paraboloid(r, 4, r.randint(8, 9), 3), "q5-scaled"),
    (lambda r: paraboloid(r, 5, 9, 2), "q5-rat"),
    (lambda r: box(r, 3), "p12"),
    (lambda r: box(r, 4), "q5-scaled"),
    (lambda r: prism(r, 4), "p12"),
    (lambda r: order_polytope(r, 4), "q5-rat"),
    (lambda r: box(r, 5), "q5-rat"),
)
ALGEBRAIC_ROUND = (icosahedron, dodecahedron)
NF_CLASSES = {"q5-rat": (Q5, False), "q5-scaled": (Q5, True), "p12": (P12, True)}


def hull_shapes(seed, rnd):
    rng = random.Random(f"hull:{seed}:{rnd}")
    return [(make(rng), cls) for make, cls in HULL_ROUND]


def hull_qq_round(seed, rnd):
    jobs = []
    for shape, _ in hull_shapes(seed, rnd):
        jobs.append(Job(
            name=shape.family,
            text=vertex_text(shape.points, QQ, HULL_GOALS),
            oracle=lambda shape=shape: dict(shape.facts),
            tags=_hull_tags(shape, QQ, rational_rows=True),
        ))
    return jobs


def hull_nf_round(seed, rnd):
    jobs = []
    for shape, cls in hull_shapes(seed, rnd):
        field, scaled = NF_CLASSES[cls]
        points = lift(shape.points, QQ, field)
        total = field.elem(1)
        if scaled:
            points, total = scale_columns(points, field)
        # the twin comparison checks the volume of every number-field job
        facts = {k: v for k, v in shape.facts.items()
                 if k not in ("volume", "integral_volume")}
        if "volume" in shape.facts:
            facts["volume"] = field.mul(field.elem(shape.facts["volume"][0]), total)
        jobs.append(Job(
            name=f"{shape.family}/{cls}",
            text=vertex_text(points, field, HULL_GOALS),
            oracle=(lambda f=facts: dict(f)),
            tags=_hull_tags(shape, field, rational_rows=not scaled),
            twin=vertex_text(shape.points, QQ, HULL_GOALS),
            scale=total,
            field=field,
        ))
    rng = random.Random(f"hull-nf:{seed}:{rnd}")
    for make in ALGEBRAIC_ROUND:
        shape = make(rng)
        jobs.append(Job(
            name=f"{shape.family}/q5",
            text=vertex_text(shape.points, Q5, HULL_GOALS),
            oracle=lambda shape=shape: dict(shape.facts),
            tags=_hull_tags(shape, Q5, rational_rows=False),
            field=Q5,
        ))
    return jobs


def _hull_tags(shape, field, rational_rows):
    return {"degree": field.degree,
            "rational_rows_in_nf": field.degree > 1 and rational_rows,
            "h_input": False, "simplicial": shape.simplicial}


# ----------------------------------------------------------------------------
# lattice

def lattice_round(seed, rnd):
    rng = random.Random(f"lattice:{seed}:{rnd}")
    jobs = [
        Job("cube.in", CUBE_IN, lambda: {"lattice_points": 8, "vertices": 8,
                                         "facets": 6, "fvec": cube_fvector(3),
                                         "volume": QQ.elem(6)},
            {"degree": 1, "rational_rows_in_nf": False, "h_input": False,
             "lattice_4d": False}),
        Job("empty.in", EMPTY_IN, lambda: {"empty": True},
            {"degree": 1, "rational_rows_in_nf": False, "h_input": True,
             "lattice_4d": False}),
    ]
    for slot, (*_, field, h_input) in enumerate(LATTICE_SLOTS):
        jobs.append(lattice_job(rng, slot, field, h_input))
    return jobs


# (dim, vertices, facets, radius, field, H-input).  The 4-polytopes with 7
# vertices and 13 facets carry the unpruned Fourier-Motzkin projection of
# lattice_points into the tail.
LATTICE_SLOTS = (
    (3, 8, 12, 4, QQ, False), (3, 8, 12, 4, QQ, True),
    (3, 7, 10, 3, Q5, False), (3, 7, 10, 3, Q5, True),
    (4, 6, 9, 3, QQ, False), (4, 6, 9, 2, Q5, True),
    (4, 7, 13, 2, QQ, False), (4, 7, 13, 2, QQ, True),
    (4, 7, 13, 2, QQ, True), (4, 7, 13, 2, QQ, False),
    (3, 6, 8, 3, Q5, True), (4, 7, 13, 2, QQ, False), (4, 7, 13, 2, QQ, True),
)


@lru_cache(maxsize=None)
def lattice_base(slot):
    """The slot's base polytope, drawn once from a fixed key.

    Projection sizes, and with them job times, vary tenfold between random
    polytopes of one shape, so every seed runs the same catalog; the seed
    moves each polytope by a lattice-preserving map instead.
    """
    d, n, facets, radius, _, _ = LATTICE_SLOTS[slot]
    rng = random.Random(f"lattice-catalog:{slot}")
    while True:
        shape = random_polytope(rng, d, n, radius)
        _, facet_sets = brute_facets(shape.points, QQ)
        if len(facet_sets) == facets and len(set().union(*facet_sets)) == n:
            return shape.points


def lattice_job(rng, slot, field, h_input):
    """The slot's polytope with coordinate signs flipped, columns scaled into
    the field, and (over Q) an integer translation; sign flips and
    translations keep the projection sizes and the lattice point count.
    Translating scaled coordinates would change the size of every
    coefficient, so Q(sqrt 5) slots are only flipped."""
    base = lattice_base(slot)
    d = len(base[0])
    flips = [rng.choice((1, -1)) for _ in range(d)]
    shift = [field.elem(rng.randint(-3, 3) if field is QQ else 0) for _ in range(d)]
    points = lift([tuple(QQ.scale(x, f) for x, f in zip(p, flips)) for p in base],
                  QQ, field)
    if field is not QQ:
        points, _ = scale_columns(points, field)
    points = [tuple(field.add(x, t) for x, t in zip(p, shift)) for p in points]
    inequalities, _ = brute_facets(points, field)
    if h_input:
        text = inequality_text(inequalities, field, LATTICE_GOALS)
    else:
        text = vertex_text(points, field, LATTICE_GOALS)

    def oracle():
        return {"lattice_points": count_lattice_points(
                    inequalities, bounding_box(points, field), field),
                "facets": len(inequalities)}

    name = f"{'H' if h_input else 'V'}{d}/{field.name}/slot{slot}"
    tags = {"degree": field.degree, "rational_rows_in_nf": False,
            "h_input": h_input, "lattice_4d": d == 4}
    return Job(name, text, oracle, tags, field=field)


# ----------------------------------------------------------------------------
# symmetry

# (shape maker, field, kind): every kind and field on orders from 1 to 384
SYMMETRY_SLOTS = (
    (lambda r: cube(r, 3), Q5, "euclidean"),
    (lambda r: cube(r, 4), QQ, "euclidean"),
    (lambda r: cube(r, 4), Q5, "algebraic"),
    (lambda r: cross(r, 3), P12, "euclidean"),
    (lambda r: cross(r, 4), Q5, "algebraic"),
    (lambda r: cross(r, 4), P12, "combinatorial"),
    (lambda r: order_polytope(r, 4), QQ, "euclidean"),
    (lambda r: order_polytope(r, 4), Q5, "combinatorial"),
    (triangular_prism, P12, "algebraic"),
    (lambda r: cube(r, 3), P12, "algebraic"),
    (lambda r: corner_simplex(r, 4), Q5, "euclidean"),
    (lambda r: cyclic(r, 4, 8), QQ, "algebraic"),
    (lambda r: paraboloid(r, 3, 8, 3), P12, "combinatorial"),
    (lambda r: paraboloid(r, 3, 8, 3), Q5, "euclidean"),
)


def symmetry_round(seed, rnd):
    rng = random.Random(f"symmetry:{seed}:{rnd}")
    jobs = [symmetry_job(make(rng), field, kind) for make, field, kind in SYMMETRY_SLOTS]
    # edge length 1: normalized volume 3! * 5/12 * (3 + sqrt 5); the regular
    # icosahedron's Euclidean group has order 120
    jobs.append(Job("icosahedron.in", ICOSAHEDRON_IN,
                    lambda: {"vertices": 12, "facets": 20, "fvec": [1, 12, 30, 20, 1],
                             "volume": (Fraction(15, 2), Fraction(5, 2)),
                             "lattice_points": 1, "orders": {"euclidean": 120}},
                    {"degree": 2, "rational_rows_in_nf": False, "h_input": False},
                    field=Q5))
    return jobs


def symmetry_job(shape, field, kind):
    points = lift(shape.points, QQ, field)
    if field is not QQ:
        points, _ = scale_columns(points, field)
    text = vertex_text(points, field, ("SupportHyperplanes", AUT_GOALS[kind]))

    def oracle():
        facts = {}
        if "vertices" in shape.facts:
            facts["vertices"] = shape.facts["vertices"]
        if kind == "euclidean":
            order = euclidean_order(points, field)
        elif kind == "algebraic":
            order = affine_order(shape.points, shape.base)
        else:
            facet_sets = shape.facts.get("facet_sets")
            if facet_sets is None:
                _, facet_sets = brute_facets(shape.points, shape.base)
            order = combinatorial_order(facet_sets, len(shape.points))
        facts["orders"] = {kind: order}
        return facts

    tags = {"degree": field.degree, "rational_rows_in_nf": False, "h_input": False}
    return Job(f"{shape.family}/{field.name}/{kind}", text, oracle, tags, field=field)


ROUNDS = {
    "hull-qq": hull_qq_round,
    "hull-nf": hull_nf_round,
    "lattice": lattice_round,
    "symmetry": symmetry_round,
}


# job_tail_s percentile per workload: the highest of p50/p75/p90/p95/p99
# with at least ten jobs beyond it in a run at the seed commit, fixed so that
# a faster program does not move the tail to a higher percentile
TAIL_PERCENTILE = {"hull-qq": 0.95, "hull-nf": 0.75, "lattice": 0.75,
                   "symmetry": 0.75}


def rounds(workload, seed):
    """Endless sequence of job rounds of a workload."""
    make = ROUNDS[workload]
    rnd = 0
    while True:
        yield make(seed, rnd)
        rnd += 1
