import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

from algpoly import EmbeddingInterval, PolyhedronModel, analyze, field_create, rational_field

REPO = Path(__file__).resolve().parent.parent
INPUTS = REPO / "inputs"

# property tests draw a fixed sequence of examples, so runs repeat exactly
settings.register_profile(
    "algpoly", derandomize=True, max_examples=60, deadline=None, database=None
)
settings.load_profile("algpoly")


# the fields of the property tests
FIELDS = {
    "qq": rational_field(),
    "qsqrt5": field_create([-5, 0, 1], EmbeddingInterval(1, 3)),
    "p12": field_create([-5, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1], EmbeddingInterval(1, 2)),
    # 2a^2 - 3: the monic form a^2 - 3/2 reduces a^2 with a denominator
    "half": field_create([-3, 0, 2], EmbeddingInterval(1, 2)),
}


@pytest.fixture(scope="session")
def qsqrt5():
    return field_create([-5, 0, 1], EmbeddingInterval(1, 3))


@pytest.fixture(scope="session")
def p12():
    # a^12 + a^6 + a^5 + a^2 - 5, the unique root in (1, 2)
    return field_create(
        [-5, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1], EmbeddingInterval(1, 2)
    )


@pytest.fixture(scope="session")
def qq():
    return rational_field()


def icosahedron_vertices(field):
    a = field.gen()
    half = field.from_rational(Fraction(1, 2))
    phi_half = (a + 1) / 4
    zero = field.zero
    verts = []
    signs = [(1, 1), (-1, 1), (1, -1), (-1, -1)]
    for s1, s2 in signs[:2]:
        verts.append((zero, half * s1, phi_half * s2))
    for s1, s2 in signs:
        verts.append((half * s1, phi_half * s2, zero))
    for s1, s2 in signs[2:]:
        verts.append((zero, half * s1, phi_half * s2))
    for s1, s2 in signs:
        verts.append((phi_half * s1, zero, half * s2))
    return verts


@pytest.fixture(scope="session")
def icosahedron(qsqrt5):
    model = PolyhedronModel(qsqrt5, 3, vertices=icosahedron_vertices(qsqrt5))
    return analyze(model)


def cube_vertices(field, d=3, side=1):
    side = field.from_rational(side)
    zero = field.zero
    out = []
    for mask in range(1 << d):
        out.append(tuple(side if mask >> i & 1 else zero for i in range(d)))
    return out


@pytest.fixture(scope="session")
def unit_cube(qq):
    return analyze(PolyhedronModel(qq, 3, vertices=cube_vertices(qq)))


@pytest.fixture(scope="session")
def unit_square(qq):
    return analyze(PolyhedronModel(qq, 2, vertices=cube_vertices(qq, d=2)))
