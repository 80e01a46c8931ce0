import contextlib
import importlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

import oracles
from algpoly import ConeInput, PolyhedronModel, analyze, dualize, normalize
from algpoly.dualize import fm_step, initial_dual
from algpoly.errors import ZeroVector
from algpoly.numfield import NFElem
from algpoly import linalg

from oracles import (
    _dot,
    brute_force_dual,
    brute_force_extreme,
    hyperplane_set,
    random_cone,
)
from conftest import FIELDS

dualize_module = importlib.import_module("algpoly.dualize")  # `algpoly.dualize` is the function


@st.composite
def _scaled_vectors(draw):
    """A field, a nonzero vector whose last nonzero entry is rational or not,
    and a positive scalar, rational or not."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    algebraic = field.degree > 1

    def rational():
        return Fraction(draw(st.integers(-4, 4)), draw(st.sampled_from([1, 2, 3, 6])))

    def entry(irrational):
        coeffs = [rational() for _ in range(min(field.degree, 3))]
        if irrational:
            coeffs[1] = Fraction(draw(st.sampled_from([-3, -1, 1, 2])), draw(st.sampled_from([1, 2])))
        return field.element(coeffs if irrational else coeffs[:1])

    head = [entry(algebraic and draw(st.booleans())) for _ in range(draw(st.integers(0, 3)))]
    last = entry(algebraic and draw(st.booleans()))
    if not last:
        last = field.one
    vec = tuple(head + [last] + [field.zero] * draw(st.integers(0, 2)))
    scale = entry(algebraic and draw(st.booleans()))
    if not scale:
        scale = field.from_rational(draw(st.integers(1, 9)))
    return field, vec, scale if scale.sign() > 0 else -scale


class TestNormalize:
    def test_field_two_step(self, qsqrt5):
        a = qsqrt5.gen()
        four = qsqrt5.from_rational(4)
        assert normalize((2 * a, four)) == (a, qsqrt5.from_rational(2))

    def test_trailing_entry(self, qq):
        z, three = qq.zero, qq.from_rational(3)
        assert normalize((z, z, three)) == (z, z, qq.one)

    def test_rational_gcd_path(self, qq):
        q = qq.from_rational
        assert normalize((q(4), q(6), q(8))) == (q(2), q(3), q(4))

    def test_rational_path_matches_field_path(self, qq, qsqrt5):
        rng = random.Random(2)
        for _ in range(25):
            vals = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(4)]
            if all(v == 0 for v in vals):
                continue
            rat = normalize(tuple(qq.from_rational(v) for v in vals))
            alg = normalize(tuple(qsqrt5.from_rational(v) for v in vals))
            assert [x.is_rational() for x in rat] == [x.is_rational() for x in alg]

    def test_positive_scaling_invariance(self, qsqrt5):
        rng = random.Random(3)
        a = qsqrt5.gen()
        for _ in range(20):
            vec = tuple(
                qsqrt5.element([rng.randint(-4, 4), rng.randint(-2, 2)])
                for _ in range(3)
            )
            if all(x.is_zero() for x in vec):
                continue
            scale = a + rng.randint(3, 7)  # positive
            assert normalize(vec) == normalize(tuple(x * scale for x in vec))

    def test_zero_vector(self, qq):
        with pytest.raises(ZeroVector):
            normalize((qq.zero, qq.zero))

    @given(_scaled_vectors())
    def test_matches_two_step_reference(self, case):
        field, vec, scale = case
        expected = oracles.normalize(vec, field)
        assert normalize(vec, field) == expected
        assert normalize(tuple(x * scale for x in vec), field) == expected


class TestInitialDual:
    def test_unit_basis(self, qq):
        one, zero = qq.one, qq.zero
        gens = [(one, zero), (zero, one)]
        state = initial_dual(gens, [0, 1], qq)
        assert [state.elements(s) for s in state.sigmas] == [(one, zero), (zero, one)]
        assert state.incidence == [0b10, 0b01]

    def test_skew_basis(self, qq):
        one, zero = qq.one, qq.zero
        gens = [(one, zero), (one, one)]
        state = initial_dual(gens, [0, 1], qq)
        sigmas = [state.elements(s) for s in state.sigmas]
        for sigma in sigmas:
            for g in gens:
                acc = sigma[0] * g[0] + sigma[1] * g[1]
                assert acc.sign() >= 0
        assert set(sigmas) == {(one, -one), (zero, one)}

    def test_icosahedron_initial_simplex(self, icosahedron, qsqrt5):
        gens = [tuple(v) for v in icosahedron.vertices]
        idx, _, _ = linalg.restrict_to_span([list(g) for g in gens])
        assert len(idx) == 4
        state = initial_dual(gens, idx, qsqrt5)
        assert len(state.sigmas) == 4
        inverse = linalg.invert([list(gens[i]) for i in idx])
        for j, sigma in enumerate(state.sigmas):
            col = tuple(inverse[i][j] for i in range(4))
            assert normalize(col, qsqrt5) == normalize(state.elements(sigma), qsqrt5)


class TestFmStep:
    def test_interior_point_no_change(self, qq):
        one, zero = qq.one, qq.zero
        gens = [(one, zero), (zero, one), (one, one)]
        state = initial_dual(gens, [0, 1], qq)
        before = list(state.sigmas)
        fm_step(state, 2)
        assert state.sigmas == before

    def test_two_dim_combination(self, qq):
        q = qq.from_rational
        gens = [(q(1), q(0)), (q(0), q(1)), (q(-1), q(2))]
        state = initial_dual(gens, [0, 1], qq)
        fm_step(state, 2)
        assert {state.elements(s) for s in state.sigmas} == {(q(0), q(1)), (q(2), q(1))}


class TestDualize:
    def test_positive_orthant(self, qq):
        one, zero = qq.one, qq.zero
        gens = [(one, zero, zero), (zero, one, zero), (zero, zero, one)]
        res = dualize(ConeInput(qq, 3, generators=gens))
        assert hyperplane_set(res.support_hyperplanes, qq) == hyperplane_set(gens, qq)
        assert res.extreme == [0, 1, 2]

    def test_duplicates_deduped(self, qq):
        q = qq.from_rational
        gens = [(q(1), q(0)), (q(2), q(0)), (q(0), q(1))]
        res = dualize(ConeInput(qq, 2, generators=gens))
        assert len(res.generators) == 2
        assert len(res.extreme) == 2

    def test_icosahedron_counts(self, icosahedron):
        assert len(icosahedron.support_hyperplanes) == 20
        assert len(icosahedron.vertices) == 12

    def test_icosahedron_involution(self, icosahedron, qsqrt5):
        forms = icosahedron.support_hyperplanes
        res = dualize(ConeInput(qsqrt5, 4, generators=[tuple(f) for f in forms]))
        back = hyperplane_set(res.support_hyperplanes, qsqrt5)
        original = hyperplane_set([tuple(v) for v in icosahedron.vertices], qsqrt5)
        assert back == original

    def test_nonnegativity_and_extreme_rank(self, qsqrt5):
        rng = random.Random(31)
        gens = random_cone(rng, qsqrt5, 4, 8, algebraic=True)
        res = dualize(ConeInput(qsqrt5, 4, generators=gens))
        for sigma in res.support_hyperplanes:
            for g in res.generators:
                acc = None
                for s, x in zip(sigma, g):
                    t = s * x
                    acc = t if acc is None else acc + t
                assert acc.sign() >= 0
        for i in res.extreme:
            incident = [
                res.support_hyperplanes[t]
                for t in range(len(res.support_hyperplanes))
                if res.incidence[t] >> i & 1
            ]
            assert linalg.rank([list(s) for s in incident]) == 3

    @pytest.mark.parametrize("algebraic", [False, True])
    def test_oracle_equivalence_random(self, qq, qsqrt5, algebraic):
        field = qsqrt5 if algebraic else qq
        rng = random.Random(17 if algebraic else 18)
        for _ in range(25):
            d = rng.randint(2, 4)
            n = rng.randint(d, 8)
            gens = random_cone(rng, field, d, n, algebraic)
            res = dualize(ConeInput(field, d, generators=gens))
            expected = brute_force_dual(gens, field)
            assert hyperplane_set(res.support_hyperplanes, field) == list(expected)

    def test_involution_random(self, qsqrt5):
        rng = random.Random(19)
        for _ in range(15):
            d = rng.randint(2, 4)
            gens = random_cone(rng, qsqrt5, d, rng.randint(d, 8), True)
            res = dualize(ConeInput(qsqrt5, d, generators=gens))
            res2 = dualize(
                ConeInput(qsqrt5, d, generators=[tuple(f) for f in res.support_hyperplanes])
            )
            assert hyperplane_set(res2.support_hyperplanes, qsqrt5) == hyperplane_set(
                [res.generators[i] for i in res.extreme], qsqrt5
            )

    def test_insertion_order_independence(self, qsqrt5):
        rng = random.Random(20)
        gens = random_cone(rng, qsqrt5, 4, 9, True)
        reference = None
        for _ in range(6):
            shuffled = gens[:]
            rng.shuffle(shuffled)
            res = dualize(ConeInput(qsqrt5, 4, generators=shuffled))
            forms = hyperplane_set(res.support_hyperplanes, qsqrt5)
            if reference is None:
                reference = forms
            assert forms == reference

    @pytest.mark.parametrize(
        "field_name, rounds, max_dim",
        [("qq", 12, 5), ("qsqrt5", 10, 4), ("p12", 3, 4), ("half", 8, 4),
         ("qsqrt5-rational", 10, 4)],
    )
    def test_extreme_matches_rank_oracle(self, field_name, rounds, max_dim):
        # in 5-space an edge can lie on more than d-2 facets, so counting
        # incident facets would not tell edge points from extreme rays
        field, algebraic = _case(field_name)
        rng = random.Random(41)
        for _ in range(rounds):
            d = rng.randint(2, max_dim)
            gens = random_cone(rng, field, d, rng.randint(d, d + 3), algebraic)
            padded = gens + _non_extreme_padding(rng, gens, field, _scale(field, algebraic))
            rng.shuffle(padded)
            res = dualize(ConeInput(field, d, generators=padded))
            assert res.pointed
            assert res.extreme == brute_force_extreme(padded, field)
            # the padding lies in the cone, so the facets stay those of gens
            assert hyperplane_set(res.support_hyperplanes, field) == brute_force_dual(
                gens, field
            )

    @pytest.mark.parametrize(
        "field_name, rounds",
        [("qq", 20), ("qsqrt5", 15), ("p12", 5), ("half", 10), ("qsqrt5-rational", 15)],
    )
    def test_fm_invariants_random(self, field_name, rounds):
        # repeated and positively scaled generators, lines, and spans of any
        # dimension k <= d, embedded in d-space by an injective linear map
        field, algebraic = _case(field_name)
        rng = random.Random(43)
        scale = _scale(field, algebraic)
        for _ in range(rounds):
            k = rng.randint(1, 4)
            d = k + rng.randint(0, 2)
            gens = random_cone(rng, field, k, rng.randint(k, k + 3), algebraic)
            gens += [tuple(-x for x in g) for g in rng.sample(gens, rng.choice([0, 0, 1]))]
            gens += [tuple(x * scale for x in g) for g in rng.sample(gens, min(len(gens), 2))]
            gens += rng.sample(gens, 2)
            rng.shuffle(gens)
            embed = _injective_map(rng, field, d, k)
            rows = [tuple(_dot(m, g) for m in embed) for g in gens]
            res = dualize(ConeInput(field, d, generators=rows))
            hyps = res.support_hyperplanes
            assert res.span_rank == k
            # a form on the span reads in the coordinates of gens through embed
            pulled = [tuple(_dot(h, col) for col in zip(*embed)) for h in hyps]
            assert hyperplane_set(pulled, field) == brute_force_dual(gens, field)
            assert len(set(res.incidence)) == len(res.incidence)
            assert all(normalize(h, field) == h for h in hyps)
            assert res.dual_rank == (oracles.rank([list(h) for h in hyps]) if hyps else 0)

    def test_tangent_redundant_inequality_dropped(self, qq):
        # x + y <= 2 touches the unit cube only along the edge x = y = 1
        q = qq.from_rational
        facets = []
        for i in range(3):
            lo = [q(0)] * 4
            lo[i] = q(1)
            hi = [q(0)] * 4
            hi[i] = q(-1)
            hi[3] = q(1)
            facets += [tuple(lo), tuple(hi)]
        tangent = (q(-1), q(-1), q(0), q(2))
        res = analyze(PolyhedronModel(qq, 3, inequalities=facets + [tangent]))
        assert len(res.vertices) == 8
        hyps = hyperplane_set(res.support_hyperplanes, qq)
        assert hyps == hyperplane_set(facets, qq)
        assert normalize(tangent, qq) not in hyps

    def test_scaling_invariance_of_incidence(self, qsqrt5):
        rng = random.Random(29)
        gens = random_cone(rng, qsqrt5, 4, 8, True)
        res = dualize(ConeInput(qsqrt5, 4, generators=gens))
        a = qsqrt5.gen()
        scales = [a, qsqrt5.one, a + 1, qsqrt5.from_rational(3)]
        scaled = [tuple(x * s for x, s in zip(g, scales)) for g in gens]
        res_s = dualize(ConeInput(qsqrt5, 4, generators=scaled))
        assert sorted(res.incidence) == sorted(res_s.incidence)

    def test_constraint_input_cube(self, qq):
        q = qq.from_rational
        rows = []
        for i in range(3):
            lo = [q(0)] * 4
            lo[i] = q(1)
            hi = [q(0)] * 4
            hi[i] = q(-1)
            hi[3] = q(1)
            rows += [tuple(lo), tuple(hi)]
        res = dualize(ConeInput(qq, 4, constraints=rows))
        assert len(res.support_hyperplanes) == 8  # vertices of the cube

    def test_lower_dimensional_span(self, qq):
        q = qq.from_rational
        gens = [(q(1), q(1), q(0)), (q(1), q(2), q(0))]
        res = dualize(ConeInput(qq, 3, generators=gens))
        assert res.span_rank == 2
        for sigma in res.support_hyperplanes:
            for g in res.generators:
                acc = sigma[0] * g[0] + sigma[1] * g[1] + sigma[2] * g[2]
                assert acc.sign() >= 0
        assert len(res.extreme) == 2

    def test_non_pointed_flagged(self, qq):
        q = qq.from_rational
        gens = [(q(1), q(0)), (q(-1), q(0)), (q(0), q(1))]
        res = dualize(ConeInput(qq, 2, generators=gens))
        assert not res.pointed
        assert res.lineality_dim == 1
        assert res.extreme == []


def _random_vector(rng, field, algebraic, d):
    """A vector of d entries, some zero, algebraic ones of full degree."""
    def entry():
        if rng.random() < 0.2:
            return field.zero
        den = rng.choice([1, 2, 3])
        if algebraic and rng.random() < 0.6:
            return field.element([rng.randint(-3, 3) for _ in range(field.degree)], den)
        return field.from_rational(Fraction(rng.randint(-5, 5), den))

    return tuple(entry() for _ in range(d))


@pytest.mark.parametrize("field_name", ["qq", "qsqrt5", "qsqrt5-rational", "p12", "half"])
def test_fm_step_makes_no_field_arithmetic(monkeypatch, field_name):
    # fm_step, linalg._dot and linalg.mat_vec work on flat integer rows; only
    # signs are taken and results made through NFElem
    field, algebraic = _case(field_name)

    def refuse(*args):
        raise AssertionError("NFElem arithmetic on flat rows")

    @contextlib.contextmanager
    def no_field_arithmetic():
        with pytest.MonkeyPatch.context() as mp:
            for op in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__", "__rsub__",
                       "__truediv__", "inv"):
                mp.setattr(NFElem, op, refuse)
            yield

    plain_step = dualize_module.fm_step
    steps = []

    def guarded(state, new_idx):
        steps.append(new_idx)
        with no_field_arithmetic():
            return plain_step(state, new_idx)

    monkeypatch.setattr(dualize_module, "fm_step", guarded)
    rng = random.Random(47)
    for _ in range(3):
        gens = random_cone(rng, field, 4, 8, algebraic)
        res = dualize(ConeInput(field, 4, generators=gens))
        expected = list(brute_force_dual(gens, field))
        assert hyperplane_set(res.support_hyperplanes, field) == expected
    assert steps

    for _ in range(10):
        d = rng.randint(1, 5)
        rows = [_random_vector(rng, field, algebraic, d) for _ in range(rng.randint(1, 4))]
        v = _random_vector(rng, field, algebraic, d)
        with no_field_arithmetic():
            products = linalg.mat_vec(rows, v)
            dots = [linalg._dot(r, v) for r in rows]
        assert products == dots == [_dot(r, v) for r in rows]
    with no_field_arithmetic():
        empty = linalg._dot([], []), linalg.mat_vec([(), ()], ())
    assert empty == (0, [0, 0]) and type(empty[0]) is int


class TestRanks:
    @pytest.mark.parametrize("field_name", ["qq", "qsqrt5"])
    def test_cone_with_lineality(self, request, field_name):
        # the x-axis as lineality plus a square cone in (y, z, w), in 5-space
        # with an unused last coordinate, so the span is a proper coordinate
        # subspace and the dual has more extreme rays than its rank
        field = request.getfixturevalue(field_name)
        one, zero = field.one, field.zero
        a = field.gen() + 1
        gens = [(one, zero, zero, zero, zero), (-one, zero, zero, zero, zero)]
        for y, z in ((one, zero), (-one, zero), (zero, one), (zero, -one)):
            gens.append((a, y, z, one, zero))
        res = dualize(ConeInput(field, 5, generators=gens))
        assert (res.span_rank, res.dual_rank, res.lineality_dim) == (4, 3, 1)
        assert not res.pointed and len(res.support_hyperplanes) == 4
        for sigma in res.support_hyperplanes:
            assert sigma[0] == zero and sigma[4] == zero
            assert all(_dot(sigma, g).sign() >= 0 for g in gens)

    def test_h_input_with_implied_equations(self, qq):
        # x >= 0, y >= 0, -x - y >= 0 imply x = y = 0; with 0 <= z <= t the
        # solutions form a 2-dimensional cone in 4-space
        q = qq.from_rational
        rows = [
            (q(1), q(0), q(0), q(0)),
            (q(0), q(1), q(0), q(0)),
            (q(-1), q(-1), q(0), q(0)),
            (q(0), q(0), q(1), q(0)),
            (q(0), q(0), q(-1), q(1)),
        ]
        res = dualize(ConeInput(qq, 4, constraints=rows))
        assert (res.span_rank, res.dual_rank, res.lineality_dim) == (4, 2, 2)
        assert not res.pointed


def _injective_map(rng, field, d, k):
    """Rows of a random d x k integer matrix of rank k."""
    while True:
        rows = [tuple(field.from_rational(rng.randint(-2, 2)) for _ in range(k)) for _ in range(d)]
        if oracles.rank([list(r) for r in rows]) == k:
            return rows


def _case(field_name):
    """The field of a parametrized case and whether its rows are algebraic;
    `qsqrt5-rational` has rational rows in Q(sqrt5)."""
    base = field_name.removesuffix("-rational")
    return FIELDS[base], base != "qq" and base == field_name


def _scale(field, algebraic):
    """A positive scalar that keeps rational rows rational."""
    return field.gen() + 3 if algebraic else field.from_rational(4)


def _non_extreme_padding(rng, gens, field, scale):
    """Non-extreme rays of cone(gens): edge midpoints, points inside facets,
    an interior point, and positive multiples of generators by `scale`."""
    d = len(gens[0])
    facets = brute_force_dual(gens, field)
    rays = list(dict.fromkeys(normalize(g, field) for g in gens))

    def tight(g):
        return [f for f in facets if _dot(f, g).sign() == 0]

    def total(rows):
        return tuple(sum(col[1:], col[0]) for col in zip(*rows))

    pad = []
    for k, u in enumerate(rays):
        for v in rays[k + 1:]:
            common = [f for f in tight(u) if f in tight(v)]
            if (linalg.rank([list(f) for f in common]) if common else 0) == d - 2:
                pad.append(total([u, v]))
    for f in facets:
        pad.append(total([g for g in rays if _dot(f, g).sign() == 0]))
    pad.append(total(rays))
    pad += [tuple(x * scale for x in g) for g in rng.sample(gens, min(2, len(gens)))]
    return rng.sample(pad, min(len(pad), 6))
