"""Independent oracles the tests compare the kernel against.

Everything here deliberately avoids the code paths it checks: the dual cone
oracle enumerates kernel vectors of generator subsets, face dimensions are
ranks of generator rows, lattice points come from a bounding-box scan
filtered by the support hyperplanes and the affine hull equations,
cyclic polytope facets from the Gale evenness condition, automorphism counts
from filtering all vertex permutations, affine and orthogonal maps from
Gauss-Jordan solves, high-precision signs from
sympy's isolated roots evaluated with mpmath, and gcds, Sturm counts and
the generator enclosure from Fraction polynomial division and bisection.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb, lcm

from algpoly.errors import (
    DivisionByZero,
    NoRootInInterval,
    NotSquareFree,
    ZeroPolynomial,
    ZeroVector,
)


# ----------------------------------------------------------------------------
# dense univariate polynomials over Fraction, lowest degree first, kept apart
# from the integer polynomial kernel in algpoly.numfield that they check

def _trim(p):
    while p and p[-1] == 0:
        p.pop()
    return p


def _pdivmod(p, q):
    p = list(p)
    dq = len(q) - 1
    if dq < 0:
        raise ZeroDivisionError("polynomial division by zero")
    quot = [Fraction(0)] * max(len(p) - dq, 0)
    while len(p) - 1 >= dq:
        k = len(p) - 1 - dq
        c = Fraction(p[-1]) / q[-1]
        quot[k] = c
        for i in range(dq + 1):
            p[k + i] -= c * q[i]
        _trim(p)
    return _trim(quot), p


def poly_gcd(p, q):
    """Monic gcd of two rational polynomials ([] if both are zero)."""
    p, q = _trim(list(p)), _trim(list(q))
    while q:
        p, q = q, _pdivmod(p, q)[1]
    return [Fraction(c) / p[-1] for c in p] if p else p


def _peval(p, x):
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def sturm_count(p, lo, hi):
    """Distinct real roots of a nonzero polynomial in (lo, hi], by Sturm."""
    p = _trim([Fraction(c) for c in p])
    chain = [p, _trim([i * c for i, c in enumerate(p)][1:])]
    while chain[-1]:
        chain.append([-c for c in _pdivmod(chain[-2], chain[-1])[1]])
    chain.pop()

    def variations(x):
        signs = [v > 0 for v in (_peval(c, x) for c in chain) if v != 0]
        return sum(s != t for s, t in zip(signs, signs[1:]))

    return variations(lo) - variations(hi)


def field_decision(min_poly, lo, hi):
    """The error class that creating this field must raise, or None."""
    p = _trim([Fraction(c) for c in min_poly])
    if len(p) < 2:
        return ZeroPolynomial
    if len(poly_gcd(p, [i * c for i, c in enumerate(p)][1:])) > 1:
        return NotSquareFree
    if len(p) == 2:
        return None if lo <= -p[0] / p[1] <= hi else NoRootInInterval
    if _peval(p, lo) == 0 or _peval(p, hi) == 0 or sturm_count(p, lo, hi) != 1:
        return NoRootInInterval
    return None


def bisect_generator(lo, hi, min_poly, digits):
    """The generator enclosure after bisecting [lo, hi] to 10**-digits.

    One bit per evaluation: the reference for `NumberField.refine_generator`,
    which must land on the same cell.  An exact midpoint root ends in a
    point interval.
    """
    scale = lcm(*(Fraction(c).denominator for c in min_poly))
    ints = [int(c * scale) for c in min_poly]

    def positive_at(x):  # p(x) times a positive power of its denominator
        v, power = 0, 1
        for c in reversed(ints):
            v = v * x.numerator + c * power
            power *= x.denominator
        return None if v == 0 else v > 0

    lo, hi = Fraction(lo), Fraction(hi)
    positive_lo = positive_at(lo)
    while hi - lo > Fraction(1, 10 ** digits):
        mid = (lo + hi) / 2
        v = positive_at(mid)
        if v is None:
            return mid, mid
        if v == positive_lo:
            lo = mid
        else:
            hi = mid
    return lo, hi


# ----------------------------------------------------------------------------
# field-division linear algebra with extended-Euclid inverses, kept apart
# from the fraction-free kernel in algpoly.linalg that it checks

def euclid_inv(x):
    """Inverse of a field element by the extended Euclidean algorithm."""
    if x.is_zero():
        raise DivisionByZero("inverse of zero")
    f = x.field
    r0 = list(f.min_poly)
    r1 = _trim([Fraction(c, x.den) for c in x.coeffs])
    s0, s1 = [], [Fraction(1)]
    while r1:
        q, r = _pdivmod(r0, r1)
        qs = [Fraction(0)] * max(len(q) + len(s1) - 1, 0)
        for i, a in enumerate(q):
            for j, b in enumerate(s1):
                qs[i + j] += a * b
        n = max(len(s0), len(qs))
        s_next = [(s0[i] if i < len(s0) else 0) - (qs[i] if i < len(qs) else 0)
                  for i in range(n)]
        r0, r1, s0, s1 = r1, r, s1, _trim(s_next)
    if len(r0) > 1:
        raise DivisionByZero("element is a zero divisor (defining polynomial is reducible)")
    return f.element([c / r0[0] for c in s0])


def _eliminate(rows, jordan):
    """Row echelon form by field division; returns (rows, [(row, col)], swaps)."""
    m = [list(r) for r in rows]
    n_rows, n_cols = len(m), len(m[0])
    pivots, swaps = [], 0
    for col in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        pivot_row = next((i for i in range(r, n_rows) if m[i][col].sign() != 0), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            swaps += 1
        inv_p = euclid_inv(m[r][col])
        if jordan:
            m[r] = [x * inv_p for x in m[r]]
        for i in range(0 if jordan else r + 1, n_rows):
            if i != r and m[i][col].sign() != 0:
                f = m[i][col] if jordan else m[i][col] * inv_p
                m[i] = [m[i][j] - f * m[r][j] for j in range(n_cols)]
        pivots.append((r, col))
    return m, pivots, swaps


def rank(rows):
    return len(_eliminate(rows, False)[1]) if rows else 0


def det(rows):
    field = rows[0][0].field
    m, pivots, swaps = _eliminate(rows, False)
    if len(pivots) < len(rows):
        return field.zero
    value = field.one
    for i in range(len(rows)):
        value = value * m[i][i]
    return -value if swaps % 2 else value


def null_space(rows):
    """Basis of the right kernel, one vector per free column of the RREF."""
    if not rows:
        return []
    field = rows[0][0].field
    w = len(rows[0])
    m, pivots, _ = _eliminate(rows, True)
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


def invert(rows):
    """Inverse of a nonsingular square matrix by Gauss-Jordan elimination."""
    field = rows[0][0].field
    n = len(rows)
    aug = [
        list(r) + [field.one if i == j else field.zero for j in range(n)]
        for i, r in enumerate(rows)
    ]
    m, pivots, _ = _eliminate(aug, True)
    assert [c for _, c in pivots[:n]] == list(range(n)), "singular matrix"
    return [row[n:] for row in m]


def mat_mul(a, b):
    bt = list(zip(*b))
    return [[_dot(r, c) for c in bt] for r in a]


# ----------------------------------------------------------------------------
# two-step canonical scaling, kept apart from algpoly.dualize.normalize

def normalize(vec, field):
    """Divide by the absolute value of the last nonzero entry, then clear
    all denominators by their lcm."""
    last = next((x for x in reversed(vec) if x.sign() != 0), None)
    if last is None:
        raise ZeroVector("normalize of the zero vector")
    inv_last = euclid_inv(abs(last))
    scaled = [x * inv_last for x in vec]
    big = 1
    for x in scaled:
        big = lcm(big, x.den)
    return tuple(x * big for x in scaled)


# ----------------------------------------------------------------------------
# brute-force dual cone: kernel vectors of (d-1)-subsets with a uniform sign

def brute_force_dual(gens, field):
    """Support forms of cone(gens) for a full-dimensional cone in d-space."""
    d = len(gens[0])
    dedup = _dedup(gens, field)
    found = {}
    if d == 1:
        for cand in ((field.one,), (-field.one,)):
            if all(_dot(cand, g).sign() >= 0 for g in dedup):
                found[cand] = _incidence(cand, dedup)
        return _maximal(found)
    for subset in combinations(range(len(dedup)), d - 1):
        rows = [list(dedup[i]) for i in subset]
        if rank(rows) != d - 1:
            continue
        kernel = null_space(rows)
        if len(kernel) != 1:
            continue
        kappa = kernel[0]
        signs = [_dot(kappa, g).sign() for g in dedup]
        if all(s >= 0 for s in signs):
            v = normalize(kappa, field)
        elif all(s <= 0 for s in signs):
            v = normalize(tuple(-x for x in kappa), field)
        else:
            continue
        if v not in found:
            found[v] = _incidence(v, dedup)
    return _maximal(found)


def brute_force_extreme(gens, field):
    """Extreme generators of a full-dimensional pointed cone in d-space.

    A generator is extreme iff the brute-force facets tight on it have rank
    d-1.  Returns indices into the normalized, deduplicated generator list in
    input order, the indexing of `DualizationResult.extreme`.
    """
    d = len(gens[0])
    facets = brute_force_dual(gens, field)
    extreme = []
    for i, g in enumerate(_dedup(gens, field)):
        tight = [list(f) for f in facets if _dot(f, g).sign() == 0]
        if (rank(tight) if tight else 0) == d - 1:
            extreme.append(i)
    return extreme


def _dedup(gens, field):
    out = []
    seen = set()
    for g in gens:
        v = normalize(g, field)
        if v not in seen:
            seen.add(v)
            out.append(v)
    return out


def _incidence(form, gens):
    mask = 0
    for i, g in enumerate(gens):
        if _dot(form, g).sign() == 0:
            mask |= 1 << i
    return mask


def _maximal(found):
    # keep forms whose incidence set is inclusion-maximal
    out = []
    items = list(found.items())
    for v, mask in items:
        if any(
            other != mask and mask & other == mask for _, other in items
        ):
            continue
        out.append(v)
    return sorted(out, key=lambda v: [(x.coeffs, x.den) for x in v])


def _dot(u, v):
    acc = None
    for a, b in zip(u, v):
        t = a * b
        acc = t if acc is None else acc + t
    return acc


def hyperplane_set(forms, field):
    """Canonical comparable set of normalized forms."""
    return sorted(
        {tuple(normalize(f, field)) for f in forms},
        key=lambda v: [(x.coeffs, x.den) for x in v],
    )


# ----------------------------------------------------------------------------
# lattice points by bounding-box scan

def box_scan_lattice(analyzed, box_limit=10 ** 6):
    field = analyzed.field
    d = analyzed.dim
    lows, highs = [], []
    for k in range(d):
        coords = [p[k] for p in analyzed.vertex_points()]
        lows.append(min(c.floor() for c in coords))
        highs.append(-min((-c).floor() for c in coords))  # ceil
    total = 1
    for lo, hi in zip(lows, highs):
        total *= hi - lo + 1
    assert total <= box_limit, f"box of {total} points exceeds the scan limit"
    hyps = analyzed.support_hyperplanes
    # affine hull equations: forms vanishing on every generator row
    equations = null_space([list(g) for g in analyzed.generator_rows()])
    points = []
    for candidate in product(*(range(lo, hi + 1) for lo, hi in zip(lows, highs))):
        if all(affine_value(e, candidate).is_zero() for e in equations) and all(
            affine_value(h, candidate).sign() >= 0 for h in hyps
        ):
            points.append(tuple(candidate) + (1,))
    return sorted(points)


def affine_value(form, point):
    """Value of the homogenized form (l, c) at the dehomogenized point."""
    acc = form[-1]
    for k, c in enumerate(point):
        if c:
            acc = acc + form[k] * c
    return acc


# ----------------------------------------------------------------------------
# face dimensions by rank

def face_dims_by_rank(analyzed):
    """Every face bitset with its dimension, the rank of its rows minus one.

    Faces are the intersections of facet incidence sets, found by iterating
    to a fixed point; the empty face is included.
    """
    gens = analyzed.generator_rows()
    faces = {(1 << len(gens)) - 1, 0}
    while True:
        more = {f & r for f in faces for r in analyzed.incidence} - faces
        if not more:
            break
        faces |= more
    return {
        mask: rank([list(g) for i, g in enumerate(gens) if mask >> i & 1]) - 1
        for mask in faces
    }


# ----------------------------------------------------------------------------
# cyclic polytopes: Gale evenness

def gale_facets(d, n):
    """Facet vertex sets of the cyclic polytope C(d, n) by Gale evenness."""
    facets = []
    for subset in combinations(range(n), d):
        inside = set(subset)
        ok = True
        outside = [i for i in range(n) if i not in inside]
        for ai in range(len(outside)):
            for bi in range(ai + 1, len(outside)):
                i, j = outside[ai], outside[bi]
                between = sum(1 for k in subset if i < k < j)
                if between % 2:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            facets.append(frozenset(subset))
    return facets


def gale_facet_count(d, n):
    """Closed form for the facet count of C(d, n)."""
    if d % 2 == 0:
        m = d // 2
        return comb(n - m, m) + comb(n - m - 1, m - 1)
    m = (d - 1) // 2
    return 2 * comb(n - m - 1, m)


# ----------------------------------------------------------------------------
# automorphism groups by filtering all vertex permutations

def brute_force_combinatorial_perms(analyzed):
    """Every vertex permutation that maps facet bitsets onto facet bitsets."""
    masks = set(analyzed.incidence)
    n = len(analyzed.vertices)
    found = []
    for perm in permutations(range(n)):
        ok = True
        for mask in masks:
            image = 0
            m = mask
            while m:
                low = m & -m
                image |= 1 << perm[low.bit_length() - 1]
                m ^= low
            if image not in masks:
                ok = False
                break
        if ok:
            found.append(perm)
    return found


def brute_force_combinatorial_order(analyzed):
    return len(brute_force_combinatorial_perms(analyzed))


def closure_order(perms, n):
    """Size of the group generated by permutations of range(n)."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        new = []
        for g in frontier:
            for p in perms:
                h = tuple(p[i] for i in g)
                if h not in seen:
                    seen.add(h)
                    new.append(h)
        frontier = new
    return len(seen)


def affine_check(analyzed):
    """A test whether an affine map takes vertex i to vertex perm[i] for all i.

    The rows (p, 1) of an affinely independent vertex subset B form a basis
    of their span.  Each row is solved for its coefficients in B by a kernel
    vector; the map exists iff the same coefficients on the images of B
    give the image of every row, and the images of B are independent.
    """
    one = analyzed.field.one
    rows = [list(p) + [one] for p in analyzed.vertex_points()]
    basis = []
    for i in range(len(rows)):
        if rank([rows[j] for j in basis + [i]]) > len(basis):
            basis.append(i)
    coeffs = []
    for row in rows:
        (kappa,) = null_space([list(c) for c in zip(*([rows[b] for b in basis] + [row]))])
        coeffs.append([-x / kappa[-1] for x in kappa[:-1]])

    def check(perm):
        images = [rows[perm[b]] for b in basis]
        if rank(images) != len(basis):
            return False
        return all(
            [sum_elems([c * img[k] for c, img in zip(cs, images)]) for k in range(len(row))]
            == rows[perm[i]]
            for i, (row, cs) in enumerate(zip(rows, coeffs))
        )

    return check


def isometry_check(analyzed):
    """A test whether an orthogonal map Q takes every centered vertex w_i to
    w_perm[i].

    Q is solved on a basis of the span of the centered vertices, extended by
    a basis of its orthogonal complement that Q fixes; then Q^T Q = I and
    Q w_i = w_perm[i] are checked exactly.  An orthogonal Q exists iff the
    permutation is an isometry of the vertex set.
    """
    points = analyzed.vertex_points()
    d = analyzed.dim
    field = analyzed.field
    n = len(points)
    bary = [sum_elems([p[k] for p in points]) / n for k in range(d)]
    w = [[p[k] - bary[k] for k in range(d)] for p in points]
    span = []
    for i in range(n):
        if rank([w[j] for j in span + [i]]) > len(span):
            span.append(i)
    if not span:
        return lambda perm: True  # a single vertex
    complement = [list(c) for c in null_space([w[i] for i in span])]
    basis_inv = invert([w[i] for i in span] + complement)
    eye = [[field.one if i == j else field.zero for j in range(d)] for i in range(d)]

    def check(perm):
        # basis times Q^T gives the images
        qt = mat_mul(basis_inv, [w[perm[i]] for i in span] + complement)
        q = [list(col) for col in zip(*qt)]
        if mat_mul(qt, q) != eye:
            return False
        return all([_dot(r, w[i]) for r in q] == w[perm[i]] for i in range(n))

    return check


def brute_force_euclidean_order(analyzed):
    points = analyzed.vertex_points()
    n = len(points)
    d = analyzed.dim
    field = analyzed.field
    bary = [None] * d
    for k in range(d):
        acc = None
        for p in points:
            acc = p[k] if acc is None else acc + p[k]
        bary[k] = acc / n
    w = [tuple(p[k] - bary[k] for k in range(d)) for p in points]
    gram = [[_dot(w[i], w[j]) for j in range(n)] for i in range(n)]
    count = 0
    for perm in permutations(range(n)):
        if all(
            gram[i][j] == gram[perm[i]][perm[j]]
            for i in range(n)
            for j in range(i, n)
        ):
            count += 1
    return count


# ----------------------------------------------------------------------------
# high-precision numeric sign oracle (sympy root isolation + mpmath)

_root_cache = {}


def high_precision_root(field, digits=100):
    """Decimal value of the field generator, independent of the kernel."""
    key = (id(field), digits)
    if key in _root_cache:
        return _root_cache[key]
    import sympy

    x = sympy.Symbol("x")
    poly = sum(
        sympy.Rational(c.numerator, c.denominator) * x ** k
        for k, c in enumerate(field.min_poly)
    )
    lo = sympy.Rational(field.embedding.lo)
    hi = sympy.Rational(field.embedding.hi)
    value = None
    for root in sympy.Poly(poly, x).real_roots():
        if lo <= root <= hi:
            value = root.evalf(digits + 10)
            break
    assert value is not None, "oracle found no root in the embedding interval"
    _root_cache[key] = value
    return value


def oracle_sign(elem, digits=100):
    import mpmath

    root = high_precision_root(elem.field, digits)
    with mpmath.workdps(digits + 20):
        a = mpmath.mpf(str(root))
        acc = mpmath.mpf(0)
        for c in reversed(elem.coeffs):
            acc = acc * a + c
        acc /= elem.den
        threshold = mpmath.mpf(10) ** (-digits)
        if acc > threshold:
            return 1
        if acc < -threshold:
            return -1
        return 0


# ----------------------------------------------------------------------------
# Monte-Carlo volume estimate (d = 3 volume oracle)

def monte_carlo_volume(analyzed, rng, samples=100_000):
    d = analyzed.dim
    points = [[float(c) for c in p] for p in analyzed.vertex_points()]
    lows = [min(p[k] for p in points) for k in range(d)]
    highs = [max(p[k] for p in points) for k in range(d)]
    hyps = [[float(c) for c in h] for h in analyzed.support_hyperplanes]
    box = 1.0
    for lo, hi in zip(lows, highs):
        box *= hi - lo
    hits = 0
    for _ in range(samples):
        x = [lo + rng.random() * (hi - lo) for lo, hi in zip(lows, highs)]
        if all(sum(h[k] * x[k] for k in range(d)) + h[-1] >= 0 for h in hyps):
            hits += 1
    return box * hits / samples


# ----------------------------------------------------------------------------
# placing triangulation by beneath-beyond (volume oracle in any dimension)

def placing_normalized_volume(analyzed):
    """Lattice normalized volume of a full-dimensional polytope by placing.

    The first affinely independent vertices form the initial simplex.  Every
    later vertex, in index order, is coned over the boundary faces of the
    current triangulation that it sees; a face's hyperplane is its kernel,
    oriented towards the simplex it bounds.  Neither the FM engine nor the
    incidences of `analyzed` are used.  (Facets of every prefix from
    `brute_force_dual` would cost C(n, d) ranks per prefix.)
    """
    field = analyzed.field
    rows = [list(r) for r in analyzed.vertices]
    first = []
    for i in range(len(rows)):
        if rank([rows[j] for j in first + [i]]) > len(first):
            first.append(i)
    simplices = [tuple(first)]
    kernels = {}
    for i in range(len(rows)):
        if i in first:
            continue
        opposite = {}  # (d-1)-face -> vertices completing it to a simplex
        for simplex in simplices:
            for k, apex in enumerate(simplex):
                face = simplex[:k] + simplex[k + 1 :]
                opposite.setdefault(face, []).append(apex)
        for face, apexes in opposite.items():
            if len(apexes) != 1:
                continue  # interior face
            if face not in kernels:
                (kappa,) = null_space([rows[j] for j in face])
                if _dot(kappa, rows[apexes[0]]).sign() < 0:
                    kappa = [-x for x in kappa]
                kernels[face] = kappa
            if _dot(kernels[face], rows[i]).sign() < 0:
                simplices.append(tuple(sorted(face + (i,))))
    total = field.zero
    for simplex in simplices:
        value = det([rows[j] for j in simplex])
        for j in simplex:
            value = value / rows[j][-1]
        total = total + abs(value)
    return total


# ----------------------------------------------------------------------------
# exact polygon area (d = 2 volume oracle)

def polygon_normalized_volume(analyzed):
    """2 * area of a 2-polytope, from the shoelace formula."""
    points = analyzed.vertex_points()
    n = len(points)
    field = analyzed.field
    cx = sum_elems([p[0] for p in points]) / n
    cy = sum_elems([p[1] for p in points]) / n
    import math

    def angle(p):
        return math.atan2(float(p[1] - cy), float(p[0] - cx))

    ordered = sorted(points, key=angle)
    acc = field.zero
    for i in range(n):
        x1, y1 = ordered[i]
        x2, y2 = ordered[(i + 1) % n]
        acc = acc + (x1 * y2 - x2 * y1)
    return abs(acc)


def sum_elems(elems):
    acc = None
    for e in elems:
        acc = e if acc is None else acc + e
    return acc


# ----------------------------------------------------------------------------
# random cone generation (full-dimensional and pointed by construction)

def random_cone(rng, field, d, n, algebraic):
    """Cone with generators in an open halfspace, spanning d-space."""
    while True:
        gens = []
        for _ in range(n):
            row = []
            for k in range(d - 1):
                if algebraic and rng.random() < 0.4:
                    row.append(
                        field.element([rng.randint(-3, 3), rng.randint(-2, 2)])
                    )
                else:
                    row.append(
                        field.from_rational(
                            Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2]))
                        )
                    )
            row.append(field.from_rational(rng.randint(1, 3)))  # pointedness
            gens.append(tuple(row))
        if rank([list(g) for g in gens]) == d:
            return gens


def random_polytope(rng, field, d, n, algebraic, coord_range=4):
    """Vertex list of a random polytope with a small bounding box."""
    while True:
        pts = []
        for _ in range(n):
            row = []
            for _ in range(d):
                if algebraic and rng.random() < 0.35:
                    row.append(
                        field.element(
                            [rng.randint(-2, coord_range - 2), rng.choice([-1, 1])]
                        )
                    )
                else:
                    row.append(
                        field.from_rational(
                            Fraction(rng.randint(-coord_range, coord_range),
                                     rng.choice([1, 1, 2]))
                        )
                    )
            pts.append(tuple(row))
        if rank([list(p) + [field.one] for p in pts]) == d + 1:
            return pts
