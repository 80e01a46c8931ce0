"""Dense exact linear algebra over a number field, and its flat row format.

Matrices are plain lists of rows of NFElem.  Elimination is fraction-free
over Z[a] (`_reduce`): rows are cleared to integer coefficient vectors and
eliminated by cross-multiplication with integer content removal, so no
pivot is inverted, zero tests are symbolic, and only each chosen pivot's
sign is taken.  `det` divides once at the end, by the product of the
multipliers; `invert` and `null_space` divide each pivot row once, by back
substitution.  Rational matrices keep Bareiss's exact division in `rank`
and `det`.  `restrict_to_span` is the one span computation: a greedy basis
of the rows, the columns on which that basis is independent, and every row
restricted to those columns.

Flat rows are the one integer row format, here and in `dualize`.  A set of
rows is cleared together by `_prepare`: each row is multiplied by the lcm
of its denominators and becomes one list of `n` integers per entry, where
`n` is 1 if the field has degree 1 or every entry of the set is rational,
and `field.degree` otherwise.  `_values` gives the products of flat rows
with one flat row, each as `n` integers: the exact value for n = 1, and for
n > 1 one convolution reduced once by `NumberField._reduce_powers`, which
is the value times the positive denominator `field._pow_rows[1]`.
`_combine` forms p*u - c*v of flat rows from such values, and `_entry`
reads one flat entry back as a field element, padded to `field.degree`.
No other module reads or builds flat rows except through these helpers.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul

from .errors import ShapeMismatch, SingularMatrix


def _check_rect(rows):
    if not rows:
        return 0
    w = len(rows[0])
    for r in rows:
        if len(r) != w:
            raise ShapeMismatch("rows of unequal length")
    return w


def _rational(rows):
    return all(not any(x.coeffs[1:]) for row in rows for x in row)


def _int_rows(rows, n):
    """Clear each row to one flat integer list of `n` coefficients per entry.

    Returns the rows and the integer factor each row was multiplied by.
    """
    out, factors = [], []
    for row in rows:
        big = 1
        for x in row:
            big = lcm(big, x.den)
        if n == 1:
            out.append([x.coeffs[0] * (big // x.den) for x in row])
        else:
            out.append([c * (big // x.den) for x in row for c in x.coeffs])
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


def _combine(field, n, p, u, c, v):
    """Row p*u - c*v as (integer row, big, g), the row scaled by big/g.

    For n > 1 the products are sparse convolutions, reduced by the field's
    power rows over their common denominator `big`; `g` is the integer
    content taken out.
    """
    big = 1
    if n == 1:
        p, c = p[0], c[0]
        row = [p * x - c * y for x, y in zip(u, v)]
    else:
        big = field._pow_rows[1]
        pt = [(i, a) for i, a in enumerate(p) if a]
        ct = [(i, -a) for i, a in enumerate(c) if a]
        row = []
        for j in range(0, len(u), n):
            conv = [0] * (2 * n - 1)
            for terms, w in ((pt, u), (ct, v)):
                for k in range(j, j + n):
                    b = w[k]
                    if b:
                        for i, a in terms:
                            conv[i + k - j] += a * b
            row += field._reduce_powers(conv)
    g = gcd(*row)
    if g > 1:
        row = [a // g for a in row]
    return row, big, g


def _reduce(field, n, irows, leading=False):
    """Fraction-free row echelon form over Z[a] of flat integer rows, in order.

    Each row is cleared against the pivot rows chosen so far by
    cross-multiplication p*r - c*r_p, and becomes a pivot row if a nonzero
    entry remains: its first rational one, else its first one, and always
    its first one if `leading`.  Zero tests are symbolic.  Each pivot's sign
    is taken once, so an entry that vanishes at the embedding of a reducible
    defining polynomial raises `VanishingElement` instead of becoming a
    pivot.

    Returns the chosen row indices, the pivot rows, their pivot offsets, how
    often each pivot multiplied a later row, and the rational factor by which
    the content removal and denominator clearing scaled the rows.
    """
    width = len(irows[0]) // n
    chosen, red, offs, uses = [], [], [], []
    num = den = 1
    for idx, work in enumerate(irows):
        if len(chosen) == width:
            break
        for k, (r, o) in enumerate(zip(red, offs)):
            c = work[o:o + n]
            if any(c):
                work, big, g = _combine(field, n, r[o:o + n], work, c, r)
                uses[k] += 1
                num, den = num * g, den * big
        nonzero = [j for j in range(0, len(work), n) if any(work[j:j + n])]
        if not nonzero:
            continue
        o = nonzero[0]
        if not leading and n > 1:  # a rational pivot multiplies rows by an integer
            o = next((j for j in nonzero if not any(work[j + 1:j + n])), o)
        if any(work[o + 1:o + n]):
            _entry(field, n, work, o).sign()
        chosen.append(idx)
        red.append(work)
        offs.append(o)
        uses.append(0)
    return chosen, red, offs, uses, Fraction(num, den)


def _back_substitute(red, offs, at, entry):
    """The entries at offsets `at` of the reduced form of `_reduce`'s rows.

    `entry(row, offset)` reads one entry exactly.  Rows come back in pivot
    order, and each is divided once, by its pivot.
    """
    done = {}
    for o, r in reversed(list(zip(offs, red))):
        vals = [entry(r, c) for c in at]
        for o2, q in done.items():
            x = entry(r, o2)
            if x:
                vals = [v - x * y for v, y in zip(vals, q)]
        inverse = 1 / entry(r, o)
        done[o] = [v * inverse for v in vals]
    return [done[o] for o in sorted(done)]


def _prepare(rows):
    """The field, the coefficient count per entry, and the cleared rows."""
    field = rows[0][0].field
    n = 1 if field.degree == 1 or _rational(rows) else field.degree
    return field, n, *_int_rows(rows, n)


def _entry(field, n, row, o):
    """The field element of the flat entry at offset `o`, over denominator 1."""
    return field._make(tuple(row[o:o + n]) + (0,) * (field.degree - n), 1)


def _values(field, n, rows, x):
    """The products of flat rows with the flat row `x`, as `n` integers each.

    For n = 1 each is one integer dot product; for n > 1 one convolution
    over all entries, reduced once, and so scaled by `field._pow_rows[1]`.
    """
    if n == 1:
        return [[sum(map(mul, r, x))] for r in rows]
    terms = [(j, [(k, b) for k, b in enumerate(x[j:j + n]) if b]) for j in range(0, len(x), n)]
    out = []
    for r in rows:
        conv = [0] * (2 * n - 1)
        for j, xt in terms:
            for i in range(n):
                a = r[j + i]
                if a:
                    for k, b in xt:
                        conv[i + k] += a * b
        out.append(field._reduce_powers(conv))
    return out


def _rref(field, n, red, offs, cols):
    """Columns `cols` of the reduced row echelon form, as field elements."""
    return _back_substitute(
        red, offs, [c * n for c in cols], lambda r, o: _entry(field, n, r, o)
    )


def rank(rows):
    """Rank by fraction-free elimination."""
    w = _check_rect(rows)
    if not rows or not w:
        return 0
    field, n, irows, _ = _prepare(rows)
    if n == 1:
        return _bareiss(irows)[0]
    return len(_reduce(field, n, irows)[0])


def det(rows):
    """Determinant of a square matrix, with one division at the end."""
    w = _check_rect(rows)
    if len(rows) != w:
        raise ShapeMismatch(f"determinant of a {len(rows)}x{w} matrix")
    field, n, irows, factors = _prepare(rows)
    if n == 1:
        r, d = _bareiss(irows)
        return field.from_rational(Fraction(d, prod(factors))) if r == w else field.zero
    chosen, red, offs, uses, ratio = _reduce(field, n, irows)
    if len(chosen) < w:
        return field.zero
    cols = [o // n for o in offs]
    swaps = sum(a > b for i, a in enumerate(cols) for b in cols[i + 1:])
    top = field.from_rational((-1) ** swaps * ratio / prod(factors))
    bottom = field.one
    for r, o, u in zip(red, offs, uses):
        p = _entry(field, n, r, o)
        top = top * p
        if u:
            bottom = bottom * p ** u
    return top / bottom


def invert(rows):
    """Matrix inverse by fraction-free elimination and back substitution."""
    w = _check_rect(rows)
    if len(rows) != w:
        raise ShapeMismatch(f"inverse of a {len(rows)}x{w} matrix")
    if not rows:
        return []
    one, zero = rows[0][0].field.one, rows[0][0].field.zero
    field, n, irows, _ = _prepare(
        [list(r) + [one if i == j else zero for j in range(w)] for i, r in enumerate(rows)]
    )
    chosen, red, offs, _, _ = _reduce(field, n, irows, leading=True)
    if len(chosen) < w or max(offs) >= w * n:
        raise SingularMatrix("matrix is singular")
    return _rref(field, n, red, offs, range(w, 2 * w))


def mat_vec(rows, v):
    """Exact products of each row with `v`, cleared to flat rows together once.

    Empty vectors carry no field, and their products are the integer 0.
    """
    if not v:
        return [0] * len(rows)
    field, n, (x, *irows), (fx, *factors) = _prepare([v, *rows])
    den = fx * field._pow_rows[1] if n > 1 else fx
    pad = (0,) * (field.degree - n)
    return [
        field._make(tuple(val) + pad, f * den)
        for val, f in zip(_values(field, n, irows, x), factors)
    ]


def _dot(u, v):
    """Exact dot product; the integer 0 for empty vectors."""
    return mat_vec([u], v)[0]


def null_space(rows):
    """Basis of the right kernel {x : rows . x = 0}, read off the reduced echelon form."""
    w = _check_rect(rows)
    if not rows:
        return []
    field, n, irows, _ = _prepare(rows)
    _, red, offs, _, _ = _reduce(field, n, irows, leading=True)
    pivot_cols = sorted(o // n for o in offs)
    free = [j for j in range(w) if j not in pivot_cols]
    reduced = _rref(field, n, red, offs, free)
    basis = []
    for t, j in enumerate(free):
        vec = [field.zero] * w
        vec[j] = field.one
        for col, row in zip(pivot_cols, reduced):
            vec[col] = -row[t]
        basis.append(tuple(vec))
    return basis


def independent_rows(rows):
    """Indices of a greedy independent subset, in input order.

    The scan ends once the subset is as long as the rows are wide, since no
    further row can be independent.
    """
    if not rows or not rows[0]:
        return []
    field, n, irows, _ = _prepare(rows)
    return _reduce(field, n, irows)[0]


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
