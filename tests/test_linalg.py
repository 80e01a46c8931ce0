import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import oracles
from algpoly import EmbeddingInterval, field_create, linalg
from algpoly.errors import DivisionByZero, ShapeMismatch, SingularMatrix, VanishingElement

from conftest import FIELDS


def eye(field, n):
    return [
        [field.one if i == j else field.zero for j in range(n)] for i in range(n)
    ]


def rand_matrix(rng, field, n, m=None, algebraic=True):
    m = m or n
    out = []
    for _ in range(n):
        row = []
        for _ in range(m):
            if algebraic and field.degree > 1:
                row.append(field.element([rng.randint(-4, 4), rng.randint(-2, 2)]))
            else:
                row.append(field.from_rational(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))))
        out.append(row)
    return out


class TestDet:
    def test_identity(self, qsqrt5):
        assert linalg.det(eye(qsqrt5, 3)) == qsqrt5.one

    def test_diagonal_gen(self, qsqrt5):
        a = qsqrt5.gen()
        z = qsqrt5.zero
        assert linalg.det([[a, z], [z, a]]) == 5

    def test_multiplicative(self, qsqrt5):
        rng = random.Random(3)
        for _ in range(10):
            m1 = rand_matrix(rng, qsqrt5, 3)
            m2 = rand_matrix(rng, qsqrt5, 3)
            assert linalg.det(oracles.mat_mul(m1, m2)) == linalg.det(m1) * linalg.det(m2)

    def test_rational_bareiss_path_agrees(self, qq, qsqrt5):
        rng = random.Random(4)
        for _ in range(10):
            rows_q = rand_matrix(rng, qq, 4, algebraic=False)
            values = [[x.is_rational() for x in row] for row in rows_q]
            rows_f = [[qsqrt5.from_rational(v) for v in row] for row in values]
            assert linalg.det(rows_q).is_rational() == linalg.det(rows_f).is_rational()
            assert linalg.rank(rows_q) == linalg.rank(rows_f)

    def test_shape_errors(self, qq):
        with pytest.raises(ShapeMismatch):
            linalg.det([[qq.one, qq.one]])
        with pytest.raises(ShapeMismatch):
            linalg.rank([[qq.one], [qq.one, qq.zero]])


class TestInvertSolve:
    def test_paper_style_inverse(self, qsqrt5):
        a = qsqrt5.gen()
        one, zero = qsqrt5.one, qsqrt5.zero
        inv = linalg.invert([[one, one], [zero, a]])
        assert inv == [[one, -a / 5], [zero, a / 5]]
        assert oracles.mat_mul([[one, one], [zero, a]], inv) == eye(qsqrt5, 2)

    def test_invert_roundtrip(self, qsqrt5):
        rng = random.Random(9)
        count = 0
        while count < 8:
            m = rand_matrix(rng, qsqrt5, 3)
            try:
                inv = linalg.invert(m)
            except SingularMatrix:
                continue
            assert oracles.mat_mul(m, inv) == eye(qsqrt5, 3)
            count += 1

    def test_singular(self, qq):
        one, zero = qq.one, qq.zero
        with pytest.raises(SingularMatrix):
            linalg.invert([[one, one], [one, one]])


class TestRank:
    def test_invariances(self, qsqrt5):
        rng = random.Random(12)
        m = rand_matrix(rng, qsqrt5, 4, 5)
        r = linalg.rank(m)
        shuffled = m[::-1]
        assert linalg.rank(shuffled) == r
        scaled = [row[:] for row in m]
        scaled[1] = [x * (qsqrt5.gen() + 3) for x in scaled[1]]  # positive factor
        assert linalg.rank(scaled) == r

    def test_null_space(self, qq):
        one, zero = qq.one, qq.zero
        ker = linalg.null_space([[one, one, zero], [zero, zero, one]])
        assert len(ker) == 1
        v = ker[0]
        assert v[0] + v[1] == qq.zero and v[2] == qq.zero


class TestBasisSelection:
    def test_basis_among_unit_vectors(self, qq):
        one, zero = qq.one, qq.zero
        rows = [[one, zero], [zero, one], [one, one]]
        assert linalg.independent_rows(rows) == [0, 1]

    def test_basis_skips_dependent(self, qsqrt5):
        one, zero = qsqrt5.one, qsqrt5.zero
        two = qsqrt5.from_rational(2)
        a = qsqrt5.gen()
        rows = [[one, one], [two, two], [zero, a]]
        assert linalg.independent_rows(rows) == [0, 2]

    def test_generic_random_first_d(self, qq):
        rng = random.Random(77)
        rows = rand_matrix(rng, qq, 5, 4, algebraic=False)
        assert linalg.rank(rows[:4]) == 4  # generic
        assert linalg.independent_rows(rows) == [0, 1, 2, 3]

    def test_rank_deficient(self, qq):
        one = qq.one
        assert linalg.independent_rows([[one, one], [one, one]]) == [0]
        basis_idx, cols, projected = linalg.restrict_to_span([[one, one], [one, one]])
        assert basis_idx == [0] and cols == [0]
        assert projected == [(one,), (one,)]


class TestRestrictToSpan:
    def test_plane_in_3space(self, qq):
        one, zero = qq.one, qq.zero
        basis_idx, cols, projected = linalg.restrict_to_span(
            [[one, zero, zero], [zero, one, zero]]
        )
        assert basis_idx == [0, 1] and cols == [0, 1]
        assert projected == [(one, zero), (zero, one)]

    def test_collinear(self, qq):
        one, zero = qq.one, qq.zero
        two = qq.from_rational(2)
        basis_idx, cols, projected = linalg.restrict_to_span(
            [[one, zero, zero], [two, zero, zero]]
        )
        assert basis_idx == [0] and cols == [0]
        assert all(v[0].sign() > 0 for v in projected)

    def test_lift_project_identity(self, qsqrt5):
        rng = random.Random(42)
        rows = rand_matrix(rng, qsqrt5, 3, 5)
        # two combinations of the spanning rows, so the lift is not a unit vector
        for _ in range(2):
            coeffs = [qsqrt5.from_rational(rng.randint(-2, 2)) for _ in range(3)]
            rows.append(
                [sum((c * r[j] for c, r in zip(coeffs, rows)), qsqrt5.zero) for j in range(5)]
            )
        basis_idx, cols, projected = linalg.restrict_to_span(rows)
        assert len(basis_idx) == linalg.rank(rows)
        # the projection is an isomorphism on the span: span coordinates of a
        # row determine it as a combination of the basis rows
        square_t = [list(c) for c in zip(*(projected[i] for i in basis_idx))]
        inv_t = linalg.invert(square_t)
        for row, p in zip(rows, projected):
            coeffs = linalg.mat_vec(inv_t, list(p))
            lifted = tuple(
                sum((c * rows[i][j] for c, i in zip(coeffs, basis_idx)), qsqrt5.zero)
                for j in range(5)
            )
            assert lifted == tuple(row)

    def test_icosahedron_full_rank(self, icosahedron):
        rows = [list(v) for v in icosahedron.vertices]
        basis_idx, cols, projected = linalg.restrict_to_span(rows)
        assert len(basis_idx) == 4
        assert cols == [0, 1, 2, 3]
        assert [tuple(r) for r in rows] == projected

    @pytest.mark.parametrize("field_name", ["qq", "qsqrt5", "p12"])
    def test_span_contract_random(self, request, field_name):
        field = request.getfixturevalue(field_name)
        rng = random.Random(31)
        deficient = full = 0
        for _ in range(12):
            w = rng.randint(1, 5)
            k = rng.randint(1, w)
            spanning = rand_matrix(rng, field, k, w)
            # random combinations of k vectors: rank at most k, zero rows too
            rows = [
                [
                    sum((c * v[j] for c, v in zip(coeffs, spanning)), field.zero)
                    for j in range(w)
                ]
                for coeffs in (
                    [rng.randint(-2, 2) for _ in range(k)]
                    for _ in range(rng.randint(1, 7))
                )
            ]
            basis_idx, cols, projected = linalg.restrict_to_span(rows)
            r = linalg.rank(rows)
            deficient += r < w
            full += r == w
            assert len(cols) == len(basis_idx) == r
            assert basis_idx == linalg.independent_rows(projected)
            assert projected == [tuple(row[c] for c in cols) for row in rows]
            assert linalg.rank([list(projected[i]) for i in basis_idx]) == r
            if r == w:
                assert cols == list(range(w))
        assert deficient > 0 and full > 0


# ----------------------------------------------------------------------------
# the fraction-free kernel against the field-division reference in oracles

@st.composite
def _matrices(draw, sizes=st.integers(1, 4), square=False, full=False, algebraic=False):
    """A field and a matrix of rank at most a drawn bound, rational or not."""
    field = FIELDS[draw(st.sampled_from(sorted(FIELDS)))]
    n_rows = draw(sizes)
    n_cols = n_rows if square else draw(sizes)
    rational = field.degree == 1 or not algebraic and draw(st.booleans())
    terms = 1 if rational else min(field.degree, 3)

    def entry():
        return field.element([
            Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from([1, 2, 3])))
            for _ in range(terms)
        ])

    bound = min(n_rows, n_cols) if full else draw(st.integers(1, min(n_rows, n_cols)))
    spanning = [[entry() for _ in range(n_cols)] for _ in range(bound)]
    rows = [spanning[i] for i in range(bound)]
    while len(rows) < n_rows:
        coeffs = [draw(st.integers(-2, 2)) for _ in range(bound)]
        rows.append([sum((c * r[j] for c, r in zip(coeffs, spanning)), field.zero)
                     for j in range(n_cols)])
    order = draw(st.permutations(range(n_rows)))
    return field, [rows[i] for i in order]


def _greedy(rows):
    chosen = []
    for i, row in enumerate(rows):
        if oracles.rank([rows[j] for j in chosen] + [row]) > len(chosen):
            chosen.append(i)
    return chosen


class TestKernelAgainstReference:
    @given(_matrices())
    def test_rank_and_span(self, case):
        _, rows = case
        expected = _greedy(rows)
        assert linalg.rank(rows) == oracles.rank(rows) == len(expected)
        assert linalg.independent_rows(rows) == expected
        basis_idx, cols, projected = linalg.restrict_to_span(rows)
        assert basis_idx == expected
        assert cols == _greedy([list(c) for c in zip(*(rows[i] for i in expected))])
        assert projected == [tuple(row[c] for c in cols) for row in rows]

    @given(_matrices())
    def test_null_space(self, case):
        _, rows = case
        assert linalg.null_space(rows) == oracles.null_space(rows)

    @given(_matrices(square=True))
    def test_det_and_invert(self, case):
        field, rows = case
        value = linalg.det(rows)
        assert value == oracles.det(rows)
        if value.is_zero():
            with pytest.raises(SingularMatrix):
                linalg.invert(rows)
            return
        inverse = linalg.invert(rows)
        eye_rows = [[oracles._dot(r, c) for c in zip(*inverse)] for r in rows]
        assert eye_rows == eye(field, len(rows))

    @settings(max_examples=12)
    @given(_matrices(sizes=st.just(9), square=True, full=True, algebraic=True))
    def test_hull_size(self, case):
        field, rows = case
        assert linalg.det(rows) == oracles.det(rows)
        assert linalg.rank(rows) == oracles.rank(rows)

    @given(st.sampled_from(sorted(FIELDS)), st.lists(st.integers(-9, 9), min_size=1, max_size=12),
           st.integers(1, 6))
    def test_inv(self, name, coeffs, den):
        field = FIELDS[name]
        x = field.element(coeffs[:field.degree], den)
        if x.is_zero():
            with pytest.raises(DivisionByZero):
                x.inv()
            return
        assert x.inv() == oracles.euclid_inv(x)
        assert x * x.inv() == field.one


class TestReducibleField:
    # (a - 3)(a^2 - 2) embedded at sqrt(2): a^2 - 2 is nonzero in Q[a] but
    # zero at the embedding, and a - 3 is a zero divisor
    ring = field_create([6, -2, -3, 1], EmbeddingInterval(1, 2))

    def test_vanishing_pivot_refused(self):
        a, one, zero = self.ring.gen(), self.ring.one, self.ring.zero
        rows = [[a * a - 2, a], [one, zero]]
        for fn in (linalg.rank, linalg.det, linalg.independent_rows):
            with pytest.raises(VanishingElement):
                fn(rows)

    def test_zero_divisor_pivot(self):
        a = self.ring.gen()
        with pytest.raises(DivisionByZero):
            linalg.det([[a - 3, a], [a, a + 1]])
        with pytest.raises(DivisionByZero):
            (a - 3).inv()
