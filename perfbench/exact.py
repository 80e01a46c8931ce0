"""Exact arithmetic and brute-force oracles, written independently of algpoly.

Nothing here imports the program.  Field elements are tuples of Fractions
(coefficients of 1, a, a^2, ... reduced modulo the defining polynomial).
Signs are decided exactly only where the oracles need them: over Q and over
Q(sqrt 5), whose elements u + v*sqrt(5) have a closed-form sign.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import combinations
from math import ceil, comb, floor


class Field:
    """Q[a]/(min_poly) with the input-file spelling of its header line."""

    def __init__(self, name, min_poly, header, approx_gen):
        self.name = name
        self.min_poly = tuple(Fraction(c) for c in min_poly)  # monic, low -> high
        self.degree = len(min_poly) - 1
        self.header = header
        self.approx_gen = approx_gen

    def elem(self, value, power=0):
        out = [Fraction(0)] * self.degree
        out[power] = Fraction(value)
        return tuple(out)

    def zero(self):
        return (Fraction(0),) * self.degree

    def add(self, x, y):
        return tuple(a + b for a, b in zip(x, y))

    def sub(self, x, y):
        return tuple(a - b for a, b in zip(x, y))

    def scale(self, x, c):
        return tuple(a * c for a in x)

    def mul(self, x, y):
        n = self.degree
        prod = [Fraction(0)] * (2 * n - 1)
        for i, a in enumerate(x):
            if a:
                for j, b in enumerate(y):
                    if b:
                        prod[i + j] += a * b
        for k in range(2 * n - 2, n - 1, -1):
            top = prod[k]
            if top:
                prod[k] = Fraction(0)
                for i in range(n):
                    prod[k - n + i] -= top * self.min_poly[i]
        return tuple(prod[:n])

    def power(self, k):
        out = self.elem(1)
        gen = self.elem(1, 1) if self.degree > 1 else self.elem(-self.min_poly[0])
        for _ in range(k):
            out = self.mul(out, gen)
        return out

    def rational(self, x):
        """The rational value of x, or None if x is irrational."""
        if any(x[1:]):
            return None
        return x[0]

    def approx(self, x):
        return sum(float(c) * self.approx_gen ** k for k, c in enumerate(x))

    def sign(self, x):
        r = self.rational(x)
        if r is not None:
            return (r > 0) - (r < 0)
        if self.name != "q5":
            raise ValueError(f"no exact sign oracle for field {self.name}")
        return sign_q5(x[0], x[1])

    def inv(self, x):
        r = self.rational(x)
        if r is not None:
            return self.elem(1 / r)
        if self.name != "q5":
            raise ValueError(f"no inverse oracle for field {self.name}")
        u, v = x
        norm = u * u - 5 * v * v
        return (u / norm, -v / norm)

    def render(self, x):
        """Entry spelling for an input file."""
        r = self.rational(x)
        if r is not None:
            return rat_str(r)
        return "(" + render_poly(x) + ")"

    def parse_output(self, text):
        """Element from the program's rendering: `7/2` or `(poly ~ decimal)`."""
        text = text.strip()
        if text.startswith("("):
            text = text[1:].split("~")[0].strip()
        out = [Fraction(0)] * self.degree
        for k, c in parse_poly(text).items():
            out[k] += c
        return tuple(out)


def sign_q5(u, v):
    """Exact sign of u + v*sqrt(5) for rationals u, v."""
    su = (u > 0) - (u < 0)
    sv = (v > 0) - (v < 0)
    if su == sv or sv == 0:
        return su
    if su == 0:
        return sv
    # opposite signs: compare u^2 with 5 v^2
    diff = u * u - 5 * v * v
    return su if diff > 0 else (sv if diff < 0 else 0)


QQ = Field("qq", [-1, 1], None, 1.0)
Q5 = Field("q5", [-5, 0, 1],
           "number_field min_poly (a^2 - 5) embedding [2 +/- 1]", 5 ** 0.5)
P12 = Field("p12", [-5, 0, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 1],
            "number_field min_poly (a^12 + a^6 + a^5 + a^2 - 5) "
            "embedding [3/2 +/- 1/2]", 1.0350235612733870)


def rat_str(r):
    r = Fraction(r)
    return str(r.numerator) if r.denominator == 1 else f"{r.numerator}/{r.denominator}"


def render_poly(x):
    parts = []
    for k in range(len(x) - 1, -1, -1):
        c = x[k]
        if not c:
            continue
        body = rat_str(abs(c))
        if k:
            var = "a" if k == 1 else f"a^{k}"
            body = var if abs(c) == 1 else f"{body}*{var}"
        parts.append(("-" if c < 0 else "+") + body)
    text = "".join(parts) or "0"
    return text[1:] if text.startswith("+") else text


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?(\*?a(?:\^(\d+))?)?")


def parse_poly(text):
    """{power: coefficient} of a polynomial in `a` written without spaces."""
    text = text.replace(" ", "")
    out = {}
    pos = 0
    while pos < len(text):
        m = _TERM.match(text, pos)
        if not m or m.end() == pos:
            raise ValueError(f"cannot parse polynomial {text!r}")
        sign, coeff, var, exp = m.groups()
        c = Fraction(coeff) if coeff else Fraction(1)
        if sign == "-":
            c = -c
        k = 0 if not var else (int(exp) if exp else 1)
        out[k] = out.get(k, Fraction(0)) + c
        pos = m.end()
    return out


# ----------------------------------------------------------------------------
# linear algebra over Q and Q(sqrt 5)

def null_space_1(rows, field):
    """A nonzero kernel vector of rows with a one-dimensional kernel, else None."""
    m = [list(r) for r in rows]
    n_cols = len(m[0])
    pivots = []
    r = 0
    for col in range(n_cols):
        piv = next((i for i in range(r, len(m)) if field.sign(m[i][col])), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = field.inv(m[r][col])
        m[r] = [field.mul(x, inv) for x in m[r]]
        for i in range(len(m)):
            if i != r and field.sign(m[i][col]):
                f = m[i][col]
                m[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(m[i], m[r])]
        pivots.append(col)
        r += 1
    free = [c for c in range(n_cols) if c not in pivots]
    if len(free) != 1:
        return None
    vec = [field.zero() for _ in range(n_cols)]
    vec[free[0]] = field.elem(1)
    for i, pc in enumerate(pivots):
        vec[pc] = field.scale(m[i][free[0]], -1)
    return vec


def int_det(rows):
    """Determinant of a square integer matrix (Bareiss)."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def in_general_position(points):
    """No d+1 of the integer points lie on a common hyperplane."""
    d = len(points[0])
    for subset in combinations(points, d + 1):
        if int_det([list(p) + [1] for p in subset]) == 0:
            return False
    return True


# ----------------------------------------------------------------------------
# facets by brute force, lattice points by a bounding-box scan

def brute_facets(points, field):
    """Facet inequalities (normal, offset) with normal.x + offset >= 0 inside.

    Every d-subset of affinely independent points spans a hyperplane; it is
    a facet hyperplane when all points lie on one side.  Valid for any
    full-dimensional point set, degenerate or not.
    """
    d = len(points[0])
    found = {}
    for subset in combinations(range(len(points)), d):
        rows = [list(points[i]) + [field.elem(1)] for i in subset]
        kernel = null_space_1(rows, field)
        if kernel is None:
            continue
        values = [
            _affine(kernel, p, field) for p in points
        ]
        signs = [field.sign(v) for v in values]
        if all(s >= 0 for s in signs):
            orient = 1
        elif all(s <= 0 for s in signs):
            orient = -1
        else:
            continue
        key = frozenset(i for i, s in enumerate(signs) if s == 0)
        if key not in found:
            found[key] = [field.scale(x, orient) for x in kernel]
    return [(vec[:-1], vec[-1]) for vec in found.values()], list(found)


def _affine(vec, point, field):
    acc = vec[-1]
    for c, x in zip(vec, point):
        acc = field.add(acc, field.mul(c, x))
    return acc


def count_lattice_points(inequalities, box, field):
    """Integer points of a box satisfying every (normal, offset) inequality."""
    # split each inequality into integer rational and sqrt(5) parts so the
    # scan runs on Python integers
    split = []
    for normal, offset in inequalities:
        den = 1
        for x in list(normal) + [offset]:
            for c in x:
                den = den * c.denominator // _gcd(den, c.denominator)
        parts = []
        for k in range(field.degree):
            parts.append(([int(x[k] * den) for x in normal], int(offset[k] * den)))
        split.append(parts)
    lo, hi = box
    count = 0
    for pt in _grid(lo, hi):
        ok = True
        for parts in split:
            vals = [sum(c * x for c, x in zip(n, pt)) + o for n, o in parts]
            s = (vals[0] > 0) - (vals[0] < 0) if len(vals) == 1 else sign_q5(*vals)
            if s < 0:
                ok = False
                break
        if ok:
            count += 1
    return count


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _grid(lo, hi):
    if not lo:
        yield ()
        return
    for rest in _grid(lo[1:], hi[1:]):
        for x in range(lo[0], hi[0] + 1):
            yield (x,) + rest


def bounding_box(points, field):
    """Integer box containing the points, from float approximations widened by 1."""
    d = len(points[0])
    lo = [floor(min(field.approx(p[k]) for p in points)) - 1 for k in range(d)]
    hi = [ceil(max(field.approx(p[k]) for p in points)) + 1 for k in range(d)]
    return lo, hi


# ----------------------------------------------------------------------------
# face numbers

def euler_ok(fvec):
    """Euler-Poincare relation on (f_-1, f_0, ..., f_d): alternating sum 0."""
    return sum((-1) ** k * f for k, f in enumerate(fvec)) == 0


def h_vector(fvec):
    """h-vector of a simplicial d-polytope from (f_-1, ..., f_{d-1}, f_d)."""
    d = len(fvec) - 2
    f = fvec[:-1]  # f_-1 .. f_{d-1}
    return [
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1)
    ]


def cyclic_fvector(n, d):
    """f-vector of the cyclic d-polytope with n vertices (neighborly, simplicial)."""
    h = [comb(n - d + i - 1, i) for i in range(d // 2 + 1)]
    h += [h[d - i] for i in range(d // 2 + 1, d + 1)]
    f = [
        sum(comb(d - i, k + 1 - i) * h[i] for i in range(k + 2))
        for k in range(-1, d)
    ]
    return f + [1]


def gale_facet_count(n, d):
    """Facets of C(n, d) by enumerating Gale evenness directly."""
    count = 0
    for subset in combinations(range(n), d):
        members = set(subset)
        ok = True
        for i in range(n):
            for j in range(i + 1, n):
                if i in members or j in members:
                    continue
                between = sum(1 for k in subset if i < k < j)
                if between % 2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            count += 1
    return count


def cube_fvector(d):
    return [1] + [2 ** (d - k) * comb(d, k) for k in range(d + 1)]


def prism_fvector(base):
    """f-vector of base x segment from the base's (f_-1, ..., f_e).

    Faces are F x {0}, F x {1} and F x segment for nonempty faces F.
    """
    fb = base[1:]
    e = len(fb) - 1
    out = [1]
    for k in range(e + 2):
        same = fb[k] if k <= e else 0
        below = fb[k - 1] if k >= 1 else 0
        out.append(2 * same + below)
    return out


def simplex_fvector(d):
    return [comb(d + 1, k + 1) for k in range(-1, d + 1)]


# ----------------------------------------------------------------------------
# automorphism counts by backtracking over an exact pairwise invariant

def count_preserving(matrix, accept=None):
    """Number of permutations p with matrix[p i][p j] == matrix[i][j] for all i, j.

    `accept(perm)` can reject complete candidates on a further condition.
    Candidates are pruned by the row multisets and by every fixed pair.
    """
    n = len(matrix)
    profile = [tuple(sorted(row)) for row in matrix]
    order = sorted(range(n), key=lambda v: (profile[v], v))
    image = [-1] * n
    used = [False] * n
    count = 0

    def extend(level):
        nonlocal count
        if level == n:
            if accept is None or accept(tuple(image)):
                count += 1
            return
        v = order[level]
        for cand in range(n):
            if used[cand] or profile[cand] != profile[v]:
                continue
            if matrix[cand][cand] != matrix[v][v]:
                continue
            if all(
                matrix[cand][image[u]] == matrix[v][u]
                for u in order[:level]
            ):
                image[v] = cand
                used[cand] = True
                extend(level + 1)
                used[cand] = False
                image[v] = -1

    extend(0)
    return count


def combinatorial_order(facets, n):
    """Order of the group of vertex permutations mapping facets onto facets.

    All n points must be vertices, as must the points given to the two
    geometric orders below.
    """
    facet_set = {frozenset(f) for f in facets}
    shared = [[sum(1 for f in facet_set if i in f and j in f) for j in range(n)]
              for i in range(n)]

    def maps_facets(perm):
        return all(frozenset(perm[i] for i in f) in facet_set for f in facet_set)

    return count_preserving(shared, maps_facets)


def euclidean_order(points, field):
    """Order of the isometry group of a full-dimensional point set.

    A bijection of such a set that preserves all pairwise squared distances
    extends to an isometry, so counting distance-preserving permutations is
    exact.  Only ring operations are used, so any field works.
    """
    def sq(p, q):
        acc = field.zero()
        for x, y in zip(p, q):
            diff = field.sub(x, y)
            acc = field.add(acc, field.mul(diff, diff))
        return acc

    dist = [[sq(p, q) for q in points] for p in points]
    return count_preserving(dist)


def affine_order(points, field):
    """Order of the group of affine maps permuting a full-dimensional point set.

    With M the second-moment matrix of the centered points w_i, the values
    w_i^T M^-1 w_j are preserved exactly by affine symmetries, and a
    permutation preserving all of them is induced by one.
    """
    n, d = len(points), len(points[0])
    center = [field.scale(_sum([p[k] for p in points], field), Fraction(1, n))
              for k in range(d)]
    w = [[field.sub(p[k], center[k]) for k in range(d)] for p in points]
    moment = [[_sum([field.mul(v[i], v[j]) for v in w], field) for j in range(d)]
              for i in range(d)]
    minv = _invert(moment, field)
    mw = [[_sum([field.mul(minv[i][k], v[k]) for k in range(d)], field)
           for i in range(d)] for v in w]
    psi = [[_sum([field.mul(a, b) for a, b in zip(mw[i], w[j])], field)
            for j in range(n)] for i in range(n)]
    return count_preserving(psi)


def _sum(xs, field):
    acc = field.zero()
    for x in xs:
        acc = field.add(acc, x)
    return acc


def _invert(m, field):
    n = len(m)
    aug = [list(row) + [field.elem(1 if i == j else 0) for j in range(n)]
           for i, row in enumerate(m)]
    for col in range(n):
        piv = next(i for i in range(col, n) if field.sign(aug[i][col]))
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = field.inv(aug[col][col])
        aug[col] = [field.mul(x, inv) for x in aug[col]]
        for i in range(n):
            if i != col and field.sign(aug[i][col]):
                f = aug[i][col]
                aug[i] = [field.sub(x, field.mul(f, y)) for x, y in zip(aug[i], aug[col])]
    return [row[n:] for row in aug]
