import random
from fractions import Fraction
from math import ceil, isqrt

import pytest
from hypothesis import given, settings, strategies as st

from algpoly import EmbeddingInterval, field_create, numfield, parse_elem, render_elem
from algpoly.errors import (
    DivisionByZero,
    ElementSyntaxError,
    FieldMismatch,
    NoRootInInterval,
    NotSquareFree,
    VanishingElement,
    ZeroPolynomial,
)

import oracles
from oracles import bisect_generator, field_decision, oracle_sign, poly_gcd, sturm_count


class TestFieldCreate:
    def test_sqrt5(self, qsqrt5):
        lo, hi = qsqrt5.generator_enclosure()
        assert Fraction("2.2360679") < lo < hi < Fraction("2.2360680")

    def test_degree_one_is_rational(self):
        f = field_create([-1, 1], EmbeddingInterval(0, 2))
        assert f.degree == 1
        assert f.gen() == 1

    def test_negative_root_interval(self):
        f = field_create([-5, 0, 1], EmbeddingInterval(-3, -1))
        assert f.gen().sign() == -1
        assert (-f.gen()).floor() == 2

    def test_no_root(self):
        with pytest.raises(NoRootInInterval):
            field_create([-5, 0, 1], EmbeddingInterval(3, 4))

    def test_two_roots(self):
        with pytest.raises(NoRootInInterval):
            field_create([-5, 0, 1], EmbeddingInterval(-3, 3))

    def test_not_squarefree(self):
        with pytest.raises(NotSquareFree):
            field_create([1, -2, 1], EmbeddingInterval(0, 2))

    def test_zero_polynomial(self):
        with pytest.raises(ZeroPolynomial):
            field_create([], EmbeddingInterval(0, 1))
        with pytest.raises(ZeroPolynomial):
            field_create([3], EmbeddingInterval(0, 1))

    def test_non_monic_normalized(self):
        f = field_create([-10, 0, 2], EmbeddingInterval(1, 3))  # 2a^2 - 10
        assert f.gen() * f.gen() == 5


class TestArithmetic:
    def test_add_sub(self, qsqrt5):
        a = qsqrt5.gen()
        assert (a + 1) + (a - 1) == 2 * a
        x = qsqrt5.element([3, -2]) / 7
        assert x + (-x) == qsqrt5.zero
        third = qsqrt5.from_rational(Fraction(1, 3))
        half = qsqrt5.from_rational(Fraction(1, 2))
        s = half * a + third * a
        assert s == qsqrt5.element([0, Fraction(5, 6)])
        assert s.den == 6

    def test_mul(self, qsqrt5):
        a = qsqrt5.gen()
        assert a * a == 5
        assert (a + 1) * (a - 1) == 4

    def test_mul_p12_reduction(self, p12):
        a = p12.gen()
        assert a ** 6 * a ** 6 == 5 - a ** 6 - a ** 5 - a ** 2

    def test_inv(self, qsqrt5):
        a = qsqrt5.gen()
        assert a.inv() == a / 5
        assert qsqrt5.from_rational(2).inv() == Fraction(1, 2)
        assert (a + 1).inv() == (a - 1) / 4
        with pytest.raises(DivisionByZero):
            qsqrt5.zero.inv()

    def test_zero_divisor_detected(self):
        ring = field_create([-1, 0, 1], EmbeddingInterval(Fraction(1, 2), 2))
        with pytest.raises(DivisionByZero):
            (ring.gen() - 1).inv()

    def test_field_mismatch(self, qsqrt5, p12):
        with pytest.raises(FieldMismatch):
            qsqrt5.gen() + p12.gen()


class TestOrdering:
    def test_sign_zero_symbolic(self, qsqrt5):
        x = qsqrt5.gen() * qsqrt5.gen() - 5
        assert x.is_zero() and x.sign() == 0

    def test_sign_vs_two(self, qsqrt5):
        assert (qsqrt5.gen() - 2).sign() == 1

    def test_sign_ten_digit_threshold(self, qsqrt5):
        # sqrt(5) = 2.2360679774..., just below 2.236067978
        close = qsqrt5.from_rational(Fraction(2236067978, 10 ** 9))
        assert (qsqrt5.gen() - close).sign() == -1

    def test_sign_forces_refinement(self, qsqrt5):
        # continued fraction convergent of sqrt(5): very tight rational
        num, den = 2, 1
        for _ in range(60):
            num, den = num * 4 + den, num  # x_{k+1} = 4x_k + x_{k-1} pattern
        approx = Fraction(num, den)
        x = qsqrt5.gen() - qsqrt5.from_rational(approx)
        assert x.sign() == (1 if 5 > approx * approx else -1)

    def test_floor(self, qsqrt5):
        a = qsqrt5.gen()
        assert a.floor() == 2
        assert (-a).floor() == -3
        assert qsqrt5.from_rational(Fraction(7, 2)).floor() == 3
        assert qsqrt5.from_rational(-3).floor() == -3

    def test_floor_sandwich(self, qsqrt5):
        rng = random.Random(5)
        for _ in range(50):
            x = qsqrt5.element([rng.randint(-9, 9), rng.randint(-9, 9)], rng.randint(1, 5))
            k = x.floor()
            assert (x - k).sign() >= 0
            assert (x - (k + 1)).sign() < 0

    def test_compare_and_abs(self, qsqrt5):
        a = qsqrt5.gen()
        assert a > 2 and a < 3 and abs(-a) == a
        assert a.compare(a) == 0

    def test_is_rational(self, qsqrt5):
        assert qsqrt5.from_rational(Fraction(3, 4)).is_rational() == Fraction(3, 4)
        assert qsqrt5.gen().is_rational() is None

    def test_element_vanishing_at_embedding_refused(self):
        # (a^2 - 2)(a - 3) with the root sqrt(2) embedded: a^2 - 2 is not zero
        # in Q[a] but is zero at the embedding, so no sign can be decided
        ring = field_create([6, -2, -3, 1], EmbeddingInterval(1, 2))
        x = ring.gen() ** 2 - 2
        assert not x.is_zero()
        with pytest.raises(VanishingElement):
            x.sign()
        with pytest.raises(VanishingElement):
            (x * x).sign()
        # the other factor's root lies outside the enclosure
        assert (ring.gen() - 3).sign() == -1
        assert (x + ring.from_rational(Fraction(1, 10 ** 40))).sign() == 1

    def test_enclosure_of_vanishing_element_ends(self):
        # enclosure() narrows the value interval without deciding a sign, so
        # it ends on an element that is zero at the embedding
        ring = field_create([6, -2, -3, 1], EmbeddingInterval(1, 2))
        x = ring.gen() ** 2 - 2
        width = Fraction(1, 10 ** 50)
        lo, hi = x.enclosure(width)
        assert lo <= 0 <= hi and hi - lo <= width
        with pytest.raises(VanishingElement):
            x.floor()

    def test_rational_root_embedding_refused(self):
        # (a - 3/2)(a^2 - 2) embedded at 3/2: bisection lands on the root
        ring = field_create(
            [3, -2, Fraction(-3, 2), 1],
            EmbeddingInterval(Fraction(29, 20), Fraction(31, 20)),
        )
        x = ring.gen() - Fraction(3, 2)
        with pytest.raises(VanishingElement):
            x.sign()
        assert x.floor() == 0  # the enclosure alone decides it

    def test_no_zero_test_below_threshold(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("zero test run below the digit threshold")

        field = field_create([-5, 0, 1], EmbeddingInterval(1, 3))
        monkeypatch.setattr(numfield, "_pgcd", refuse)
        approx = Fraction(isqrt(5 * 10 ** 80), 10 ** 40)  # just below sqrt(5)
        assert (field.gen() - approx).sign() == 1
        assert 20 < field.generator_digits < numfield._ZERO_TEST_DIGITS

    def test_refinement_monotone(self, qsqrt5):
        before = qsqrt5.generator_enclosure()
        qsqrt5.refine_generator(qsqrt5.generator_digits * 2)
        after = qsqrt5.generator_enclosure()
        assert before[0] <= after[0] <= after[1] <= before[1]


class TestText:
    def test_parse_paper_vertex_entry(self, qsqrt5):
        x = parse_elem("(a + 1)", qsqrt5)
        assert x.coeffs == (1, 1) and x.den == 1

    def test_parse_negative_integer(self, qsqrt5):
        x = parse_elem("-2", qsqrt5)
        assert x.coeffs == (-2, 0)

    def test_render_volume_value(self, qsqrt5):
        x = qsqrt5.element([Fraction(15, 2), Fraction(5, 2)])
        assert render_elem(x) == "(5/2*a+15/2 ~ 13.090170)"

    def test_render_is_parse_fixed_point(self, qsqrt5):
        rng = random.Random(11)
        for _ in range(30):
            x = qsqrt5.element(
                [rng.randint(-20, 20), rng.randint(-20, 20)], rng.randint(1, 7)
            )
            text = render_elem(x)
            assert parse_elem(text, qsqrt5) == x
            assert render_elem(parse_elem(text, qsqrt5)) == text

    def test_parse_errors(self, qsqrt5):
        for bad in ["", "(a", "(b + 1)", "(1/)", "(a^)", "2/0", "(+ +)", "x"]:
            with pytest.raises(ElementSyntaxError):
                parse_elem(bad, qsqrt5)

    def test_powers(self, p12):
        x = parse_elem("(1/2*a^11 - 3*a + 7)", p12)
        assert x == p12.gen() ** 11 / 2 - 3 * p12.gen() + 7

    def test_decimal_strings_match_references(self):
        # exact powers of ten and values just below them sit on the
        # exponent's boundaries and on rounding up to the next power
        rng = random.Random(61)
        exps = [rng.randint(-40, 40) for _ in range(80)]
        exps += [rng.randint(-2000, 2000) for _ in range(3)]
        cases = []
        for e in exps:
            scale = Fraction(10) ** e
            big = 10 ** rng.randint(1, 25)
            cases += [
                Fraction(rng.choice([-1, 1]) * rng.randint(1, big), rng.randint(1, big)) * scale,
                scale,
                scale - scale / big,
                -scale * Fraction(9995, 1000),
            ]
        for fr in cases:
            for sig in (1, 3, 12):
                assert numfield.sig_decimal_str(fr, sig) == oracles.sig_decimal_str(fr, sig)
                assert numfield.sci_str(fr, sig) == oracles.sci_str(fr, sig)
        for e in (-20000, 20000):
            fr = Fraction(rng.randint(1, 10 ** 20), rng.randint(1, 10 ** 20)) * Fraction(10) ** e
            assert numfield.sig_decimal_str(fr, 12) == oracles.sig_decimal_str(fr, 12)
            assert numfield.sci_str(fr, 3) == oracles.sci_str(fr, 3)
        assert numfield.sig_decimal_str(Fraction(0), 3) == oracles.sig_decimal_str(Fraction(0), 3)
        assert numfield.sci_str(Fraction(0)) == oracles.sci_str(Fraction(0))


def random_elem(rng, field, span=9):
    coeffs = [rng.randint(-span, span) for _ in range(field.degree)]
    return field.element(coeffs, rng.randint(1, 6))


class TestCanonicalForm:
    def test_reduced_after_arithmetic(self, qsqrt5):
        from math import gcd

        rng = random.Random(14)
        for _ in range(80):
            x, y = random_elem(rng, qsqrt5), random_elem(rng, qsqrt5)
            for z in (x + y, x - y, x * y):
                assert z.den >= 1
                g = z.den
                for c in z.coeffs:
                    g = gcd(g, c)
                assert g == 1

    def test_equality_is_structural(self, qsqrt5):
        x = qsqrt5.element([2, 4], 6)
        y = qsqrt5.element([1, 2], 3)
        assert x == y and hash(x) == hash(y)
        assert x.coeffs == (1, 2) and x.den == 3


class TestConcurrentRefinement:
    def test_threaded_sign_decisions(self):
        # concurrent sign decisions share the generator enclosure; stale
        # (wider) enclosures only cause retries, never wrong answers
        from concurrent.futures import ThreadPoolExecutor

        field = field_create([-5, 0, 1], EmbeddingInterval(1, 3))
        num, den = 2, 1
        jobs = []
        for k in range(40):
            num, den = num * 4 + den, num
            x = field.gen() - field.from_rational(Fraction(num, den))
            jobs.append((x, 1 if 5 * den * den > num * num else -1))
        with ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(lambda job: job[0].sign(), jobs))
        assert results == [want for _, want in jobs]


class TestFieldAxioms:
    @pytest.mark.parametrize("which", ["qsqrt5", "p12", "qq"])
    def test_axioms(self, which, request):
        field = request.getfixturevalue(which)
        rng = random.Random(hash(which) & 0xFFFF)
        for _ in range(120):
            x, y, z = (random_elem(rng, field) for _ in range(3))
            assert (x + y) + z == x + (y + z)
            assert (x * y) * z == x * (y * z)
            assert x * (y + z) == x * y + x * z
            if not x.is_zero():
                assert x * x.inv() == field.one

    def test_order_compatibility(self, qsqrt5):
        rng = random.Random(23)
        checked = 0
        while checked < 60:
            x, y = random_elem(rng, qsqrt5), random_elem(rng, qsqrt5)
            if x.sign() == 1 and y.sign() == 1:
                assert (x + y).sign() == 1
                assert (x * y).sign() == 1
                checked += 1

    @pytest.mark.parametrize("which", ["qsqrt5", "p12"])
    def test_sign_against_numeric_oracle(self, which, request):
        field = request.getfixturevalue(which)
        rng = random.Random(len(which))
        for _ in range(80):
            x = random_elem(rng, field)
            assert x.sign() == oracle_sign(x)


_P12 = [-5, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1]

# defining polynomials and embeddings whose refinement is checked against
# plain bisection
_REFINE_FIELDS = {
    "qsqrt5": ([-5, 0, 1], (1, 3)),
    "negative-root": ([-5, 0, 1], (-3, -1)),
    "p12": (_P12, (1, 2)),
    "a8-5": ([-5, 0, 0, 0, 0, 0, 0, 0, 1], (1, 2)),
    "half": ([-3, 0, 2], (1, 2)),
    # (a - 3/2)(a^2 - 2) at 3/2: a grid point is the root
    "rational-root": ([3, -2, Fraction(-3, 2), 1], (Fraction(29, 20), Fraction(31, 20))),
    # (a^2 - 2)(a - 3) at sqrt(2)
    "reducible": ([6, -2, -3, 1], (1, 2)),
    # (a^2 - 2)(1000a - 1414) at sqrt(2), with the root 1.414 just outside
    "near-root": ([2828, -2000, -1414, 1000], (Fraction(14141, 10000), Fraction(3, 2))),
    # the root in the first and in the last cell of the first refinement
    "first-cell": ([-5, 0, 1], (Fraction(isqrt(5 * 10 ** 50), 10 ** 25), 3)),
    "last-cell": ([-5, 0, 1], (2, Fraction(isqrt(5 * 10 ** 50) + 1, 10 ** 25))),
}


class TestRefinement:
    @pytest.mark.parametrize("name", sorted(_REFINE_FIELDS))
    def test_lands_on_the_bisection_cell(self, name):
        poly, (lo, hi) = _REFINE_FIELDS[name]
        field = field_create(poly, EmbeddingInterval(lo, hi))
        assert field.generator_enclosure() == bisect_generator(lo, hi, field.min_poly, 20)
        most = 20
        for digits in (21, 40, 97, 60, 300, 700):
            before = field.generator_enclosure()
            field.refine_generator(digits)
            want = bisect_generator(*before, field.min_poly, digits)
            assert field.generator_enclosure() == want
            most = max(most, digits)
            assert field.generator_digits == most

    @pytest.mark.parametrize("poly, interval", [([-5, 0, 1], (1, 3)), (_P12, (1, 2))],
                             ids=["qsqrt5", "p12"])
    def test_few_evaluations_to_5000_digits(self, monkeypatch, poly, interval):
        field = field_create(poly, EmbeddingInterval(*interval))
        lo, hi = field.generator_enclosure()
        calls = []
        heval = numfield._heval
        monkeypatch.setattr(numfield, "_heval", lambda *args: calls.append(1) or heval(*args))
        field.refine_generator(5000)
        assert len(calls) <= 64
        # bisection's cell without bisecting: the cell of lo + j*w/2**k that
        # holds the root, for the least k with w*10**5000 <= 2**k
        k = (ceil((hi - lo) * 10 ** 5000) - 1).bit_length()
        assert 2 ** (k - 1) < (hi - lo) * 10 ** 5000 <= 2 ** k
        cell = (hi - lo) / 2 ** k
        new_lo, new_hi = field.generator_enclosure()
        assert new_hi - new_lo == cell and ((new_lo - lo) / cell).denominator == 1
        # no root at its ends and exactly one inside
        assert field_decision(field.min_poly, new_lo, new_hi) is None


@st.composite
def _products_with_a_square(draw):
    f = draw(st.lists(st.integers(-20, 20), min_size=2, max_size=3))
    g = draw(st.lists(st.integers(-20, 20), min_size=1, max_size=5))
    p = [0] * (2 * len(f) + len(g) - 2)
    for i, x in enumerate(f):
        for j, y in enumerate(f):
            for k, z in enumerate(g):
                p[i + j + k] += x * y * z
    return p


_INT_POLYS = st.one_of(
    st.lists(st.integers(-20, 20), min_size=1, max_size=9),
    # sparse ones make pseudo-remainders skip powers
    st.lists(st.one_of(st.just(0), st.integers(-20, 20)), min_size=3, max_size=9),
    _products_with_a_square(),
)
# the real roots of these polynomials cluster in [-3, 3]
_ENDPOINTS = st.fractions(min_value=-4, max_value=4, max_denominator=12)
_WIDTHS = st.fractions(min_value=Fraction(1, 12), max_value=3, max_denominator=12)


class TestIntegerKernel:
    """The integer polynomial kernel against the Fraction reference."""

    @settings(max_examples=200)
    @given(p=_INT_POLYS, q=_INT_POLYS, lo=_ENDPOINTS, width=_WIDTHS)
    def test_against_fraction_reference(self, p, q, lo, width):
        hi = lo + width
        for a, b in ((p, q), (p, numfield._pderiv(p))):
            g = numfield._pgcd(a, b)
            assert [Fraction(c, g[-1]) for c in g] == poly_gcd(a, b)
        trimmed = numfield._trim(list(p))
        if len(trimmed) > 1:
            chain = numfield._sturm_chain(trimmed)
            ends = lo.numerator * hi.denominator, hi.numerator * lo.denominator
            count = numfield._count_roots(chain, *ends, lo.denominator * hi.denominator)
            assert count == sturm_count(p, lo, hi)
        want = field_decision(p, lo, hi)
        try:
            field_create(p, EmbeddingInterval(lo, hi))
            got = None
        except (ZeroPolynomial, NotSquareFree, NoRootInInterval) as exc:
            got = type(exc)
        assert got is want
