"""Dense exact linear algebra over a number field.

Matrices are plain lists of rows of NFElem.  Elimination uses exact field
division with first-nonzero pivoting.  `restrict_to_span` is the one span
computation: a greedy basis of the rows, the columns on which that basis is
independent, and every row restricted to those columns.  Only `rank` and
`det` take a fraction-free (Bareiss) route over a degree-1 field, on cleared
integer rows, which avoids per-step gcd work.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .errors import ShapeMismatch, SingularMatrix


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


def _dot(u, v):
    """Exact dot product; the integer 0 for empty vectors, which carry no field."""
    if not u:
        return 0
    field = u[0].field
    if field.degree == 1:
        # one integer fraction, reduced once; normalized rows keep den at 1
        num, den = 0, 1
        for a, b in zip(u, v):
            n = a.coeffs[0] * b.coeffs[0]
            if n:
                d = a.den * b.den
                if d == den:
                    num += n
                else:
                    num, den = num * d + n * den, den * d
        return field._make((num,), den)
    acc = None
    for a, b in zip(u, v):
        t = a * b
        acc = t if acc is None else acc + t
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


def independent_rows(rows):
    """Indices of a greedy independent subset, in input order.

    The scan ends once the subset is as long as the rows are wide, since no
    further row can be independent.
    """
    width = len(rows[0]) if rows else 0
    chosen = []
    reduced = []
    pivots = []
    for idx, row in enumerate(rows):
        if len(chosen) == width:
            break
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
    return chosen


def restrict_to_span(rows):
    """Greedy basis of the span of the rows, and the rows in span coordinates.

    Returns `(basis_idx, cols, projected)`: the indices of the greedy
    independent rows, the columns on which those rows are independent (all
    of them at full rank), and every row restricted to `cols`.  Restricting
    to `cols` is an isomorphism on the span, so `basis_idx` is also the
    greedy basis of `projected`, and a linear form on `projected` reads in
    ambient coordinates with zeros outside `cols`.
    """
    if not rows:
        raise ShapeMismatch("restrict_to_span of an empty generator list")
    w = _check_rect(rows)
    basis_idx = independent_rows(rows)
    if len(basis_idx) == w:
        cols = list(range(w))
    else:
        cols = independent_rows(list(zip(*(rows[i] for i in basis_idx))))
    return basis_idx, cols, [tuple(row[c] for c in cols) for row in rows]
