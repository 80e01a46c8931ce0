"""Dense exact linear algebra over a number field.

Matrices are plain lists of rows of NFElem.  Elimination uses exact field
division with first-nonzero pivoting; over a degree-1 field, determinant and
rank take a fraction-free (Bareiss) route on cleared integer rows instead,
which avoids per-step gcd work.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import RankDeficient, ShapeMismatch, SingularMatrix


def _check_rect(rows):
    if not rows:
        return 0
    w = len(rows[0])
    for r in rows:
        if len(r) != w:
            raise ShapeMismatch("rows of unequal length")
    return w


def _int_rows(rows):
    """Clear denominators row by row; returns (integer rows, row factors)."""
    out, factors = [], []
    for row in rows:
        big = 1
        for x in row:
            big = lcm(big, x.den)
        out.append([x.coeffs[0] * (big // x.den) for x in row])
        factors.append(big)
    return out, factors


def _bareiss(irows):
    """Fraction-free elimination; returns (rank, det of leading square part)."""
    m = [row[:] for row in irows]
    n_rows = len(m)
    n_cols = len(m[0]) if m else 0
    rank = 0
    prev = 1
    sign = 1
    for col in range(n_cols):
        pivot_row = None
        for i in range(rank, n_rows):
            if m[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        if pivot_row != rank:
            m[rank], m[pivot_row] = m[pivot_row], m[rank]
            sign = -sign
        p = m[rank][col]
        for i in range(rank + 1, n_rows):
            ri, rp = m[i], m[rank]
            c = ri[col]
            for j in range(col, n_cols):
                ri[j] = (p * ri[j] - c * rp[j]) // prev
        prev = p
        rank += 1
        if rank == n_rows:
            break
    return rank, sign * prev


def rank(rows):
    """Rank by exact Gaussian elimination."""
    _check_rect(rows)
    if not rows:
        return 0
    field = rows[0][0].field
    if field.degree == 1:
        irows, _ = _int_rows(rows)
        return _bareiss(irows)[0]
    m = [list(r) for r in rows]
    n_rows, n_cols = len(m), len(m[0])
    r = 0
    for col in range(n_cols):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][col].sign() != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv_p = m[r][col].inv()
        for i in range(r + 1, n_rows):
            if m[i][col].sign() != 0:
                f = m[i][col] * inv_p
                m[i] = [m[i][j] - f * m[r][j] for j in range(n_cols)]
        r += 1
        if r == n_rows:
            break
    return r


def det(rows):
    """Determinant of a square matrix."""
    w = _check_rect(rows)
    if len(rows) != w:
        raise ShapeMismatch(f"determinant of a {len(rows)}x{w} matrix")
    field = rows[0][0].field
    if field.degree == 1:
        irows, factors = _int_rows(rows)
        r, d = _bareiss(irows)
        if r < w:
            return field.zero
        value = Fraction(d)
        for f in factors:
            value /= f
        return field.from_rational(value)
    m = [list(r) for r in rows]
    n = w
    value = field.one
    sign = 1
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if m[i][col].sign() != 0:
                pivot_row = i
                break
        if pivot_row is None:
            return field.zero
        if pivot_row != col:
            m[col], m[pivot_row] = m[pivot_row], m[col]
            sign = -sign
        pivot = m[col][col]
        value = value * pivot
        inv_p = pivot.inv()
        for i in range(col + 1, n):
            if m[i][col].sign() != 0:
                f = m[i][col] * inv_p
                m[i] = [m[i][j] - f * m[col][j] for j in range(n)]
    return -value if sign < 0 else value


def invert(rows):
    """Matrix inverse by Gauss-Jordan elimination."""
    w = _check_rect(rows)
    n = len(rows)
    if n != w:
        raise ShapeMismatch(f"inverse of a {n}x{w} matrix")
    if n == 0:
        return []
    field = rows[0][0].field
    m = [
        list(r) + [field.one if i == j else field.zero for j in range(n)]
        for i, r in enumerate(rows)
    ]
    for col in range(n):
        pivot_row = None
        for i in range(col, n):
            if m[i][col].sign() != 0:
                pivot_row = i
                break
        if pivot_row is None:
            raise SingularMatrix("matrix is singular")
        m[col], m[pivot_row] = m[pivot_row], m[col]
        inv_p = m[col][col].inv()
        m[col] = [x * inv_p for x in m[col]]
        for i in range(n):
            if i != col and m[i][col].sign() != 0:
                f = m[i][col]
                m[i] = [m[i][j] - f * m[col][j] for j in range(2 * n)]
    return [row[n:] for row in m]


def solve(rows, rhs):
    """Unique solution x of rows * x = rhs for square invertible rows."""
    w = _check_rect(rows)
    if len(rows) != w:
        raise ShapeMismatch("solve requires a square matrix")
    if len(rhs) != len(rows):
        raise ShapeMismatch("right-hand side length mismatch")
    inv_m = invert(rows)
    return [
        _dot(inv_row, rhs)
        for inv_row in inv_m
    ]


def _dot(u, v):
    acc = None
    for a, b in zip(u, v):
        term = a * b
        acc = term if acc is None else acc + term
    return acc


def mat_vec(rows, v):
    return [_dot(r, v) for r in rows]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[_dot(r, c) for c in bt] for r in a]


def null_space(rows):
    """Basis of the right kernel {x : rows . x = 0}."""
    w = _check_rect(rows)
    if not rows:
        return []
    field = rows[0][0].field
    m = [list(r) for r in rows]
    n_rows = len(m)
    pivots = []  # (row, col)
    r = 0
    for col in range(w):
        pivot_row = None
        for i in range(r, n_rows):
            if m[i][col].sign() != 0:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        m[r], m[pivot_row] = m[pivot_row], m[r]
        inv_p = m[r][col].inv()
        m[r] = [x * inv_p for x in m[r]]
        for i in range(n_rows):
            if i != r and m[i][col].sign() != 0:
                f = m[i][col]
                m[i] = [m[i][j] - f * m[r][j] for j in range(w)]
        pivots.append((r, col))
        r += 1
        if r == n_rows:
            break
    pivot_cols = {c for _, c in pivots}
    basis = []
    for free in range(w):
        if free in pivot_cols:
            continue
        vec = [field.zero] * w
        vec[free] = field.one
        for row_i, col in pivots:
            vec[col] = -m[row_i][free]
        basis.append(tuple(vec))
    return basis


def find_basis_among(rows, dim):
    """Indices of the lexicographically first independent subset of size dim."""
    chosen = independent_rows(rows, stop_at=dim)
    if len(chosen) < dim:
        raise RankDeficient(f"generators span only {len(chosen)} of {dim} dimensions")
    return chosen


class SpanBasis:
    """Coordinate change onto the span of a generator set.

    `project` selects the column subset `cols`, which restricts to a linear
    isomorphism on the span; `lift` is its inverse on the span.
    """

    def __init__(self, cols, basis_rows):
        self.cols = cols
        self.rank = len(cols)
        self._basis = basis_rows
        self._lift_matrix = None

    def project(self, vec):
        return tuple(vec[c] for c in self.cols)

    def lift(self, vec):
        if self._lift_matrix is None:
            square = [[row[c] for c in self.cols] for row in self._basis]
            self._lift_matrix = mat_mul(invert(square), self._basis)
        return tuple(_dot(vec, col) for col in zip(*self._lift_matrix))

    def scatter(self, form):
        """Pull a linear form on the projected space back to ambient space."""
        width = len(self._basis[0]) if self._basis else 0
        field = form[0].field if form else None
        out = [field.zero] * width
        for k, c in enumerate(self.cols):
            out[c] = form[k]
        return tuple(out)


def independent_rows(rows, stop_at=None):
    """Indices of a greedy independent subset, in input order.

    With `stop_at` the scan ends as soon as that many rows were found, which
    keeps rank certifications cheap on very long row lists.
    """
    chosen = []
    reduced = []
    pivots = []
    for idx, row in enumerate(rows):
        work = list(row)
        for red, pc in zip(reduced, pivots):
            if work[pc].sign() != 0:
                f = work[pc]
                work = [work[j] - f * red[j] for j in range(len(work))]
        pivot_col = None
        for j, x in enumerate(work):
            if x.sign() != 0:
                pivot_col = j
                break
        if pivot_col is None:
            continue
        work = [x * work[pivot_col].inv() for x in work]
        reduced.append(work)
        pivots.append(pivot_col)
        chosen.append(idx)
        if stop_at is not None and len(chosen) == stop_at:
            break
    return chosen


def rank_reaches(rows, target):
    """Whether the rows have rank at least `target` (early exit)."""
    if target <= 0:
        return True
    return len(independent_rows(rows, stop_at=target)) >= target


def restrict_to_span(rows):
    """Basis transform onto the span plus the projected generators."""
    if not rows:
        raise ShapeMismatch("restrict_to_span of an empty generator list")
    _check_rect(rows)
    basis_rows = [list(rows[i]) for i in independent_rows(rows)]
    r = len(basis_rows)
    if r == 0:
        basis = SpanBasis([], [])
        return basis, [tuple() for _ in rows]
    cols = independent_rows(list(zip(*basis_rows)), stop_at=r)
    basis = SpanBasis(cols, basis_rows)
    return basis, [basis.project(row) for row in rows]
