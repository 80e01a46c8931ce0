"""Incremental cone dualization by Fourier-Motzkin elimination.

Given generators x_1..x_n of a cone, the engine maintains the extreme rays
sigma_1..sigma_t of the dual cone of the processed prefix, together with an
incidence bitset per sigma recording the processed generators it vanishes
on.  A new generator splits the sigmas by the exact sign of sigma(x); each
positive/negative pair whose common incidence passes an adjacency test
contributes the combination sigma_i(x)*sigma_j - sigma_j(x)*sigma_i.

No rank is computed to certify a new sigma or an extreme generator.  The
generators are first written in span coordinates by
`linalg.restrict_to_span`, and the run starts from the greedy basis that
the same call picks, so the processed prefix always spans the space and
its dual is pointed.  On a pointed cone the combinatorial adjacency test is
exact (Fukuda & Prodon, "Double description method revisited", 1996):
two extreme rays are adjacent iff no third extreme ray vanishes on every
generator both vanish on.  Each combination of an adjacent pair is therefore
an extreme ray of the new dual, and each new extreme ray comes from exactly
one adjacent pair: it lies inside the one 2-face that pair spans.  In the
same way, once the final dual has full rank (the cone is pointed), a
generator is extreme iff no other generator lies on every facet it lies on.

So the incidence masks decide which rays are new, and the engine carries
each sigma as some positive multiple only; no sigma is inverted or compared
by value.  Generators and sigmas are flat integer rows of `n` coefficients
per entry, `n` chosen as in `linalg._prepare`: a value sigma(x) is one
integer dot product, or for n > 1 one convolution reduced once by
`NumberField._reduce_powers`, and `linalg._combine` keeps each sigma
primitive.  The final sigmas become field elements once, made canonical by
`normalize`.  The dual rank is read off the masks too: the generators on
which every final sigma vanishes span the lineality space, so the dual
rank is the span rank minus their rank, and no elimination runs when there
are none.

When every current facet is simplicial (exactly d-1 incident generators),
adjacency reduces to bitset work on (d-2)-subsets shared by exactly two
facets, which keeps cyclic-polytope runs feasible.

The engine computes the double description and nothing else: the face
lattice, triangulations, volumes and automorphisms are computed afterwards
from its result, so every polyhedron is dualized once.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd, lcm
from operator import mul

from . import linalg
from .errors import ShapeMismatch, ZeroVector


@dataclass
class ConeInput:
    """Generators of a cone, or constraint rows for the dual direction."""

    field: object
    dim: int
    generators: list | None = None
    constraints: list | None = None

    def __post_init__(self):
        rows = self.generators if self.generators is not None else self.constraints
        if rows is None:
            raise ShapeMismatch("either generators or constraints are required")
        for row in rows:
            if len(row) != self.dim:
                raise ShapeMismatch(
                    f"row of width {len(row)} in ambient dimension {self.dim}"
                )


def _primitive(vec, field):
    """The positive multiple of `vec` with integer coefficients of content 1."""
    big = lcm(*(x.den for x in vec))
    ints = [[c * (big // x.den) for c in x.coeffs] for x in vec]
    g = gcd(*(c for row in ints for c in row))
    return tuple(field._make(tuple(c // g for c in row), 1) for row in ints)


def normalize(vec, field=None):
    """Canonical positive multiple of a nonzero vector.

    A vector whose last nonzero entry is irrational is first divided by the
    absolute value of that entry; then `_primitive` clears the denominators
    and takes out the integer content.  Dividing by a positive rational
    does not change the primitive form, and after the first step any two
    positive multiples of `vec` differ by one; so they all give one tuple.
    """
    field = field or vec[0].field
    last = next((x for x in reversed(vec) if x), None)
    if last is None:
        raise ZeroVector("normalize of the zero vector")
    if any(last.coeffs[1:]):  # irrational
        inv_last = abs(last).inv()
        vec = [x * inv_last for x in vec]
    return _primitive(vec, field)


@dataclass
class DualizationState:
    """Extreme rays of the dual of the processed generator prefix.

    Generators and sigmas are flat integer rows of `n` coefficients per
    entry.  Each sigma is some primitive positive multiple of its ray, not
    the canonical one; its incidence mask, not its value, tells it apart.
    """

    field: object
    dim: int
    n: int  # integer coefficients per entry
    gens: list  # all projected generators, full input order, flat rows
    sigmas: list  # current extreme rays of the dual cone, flat primitive rows
    incidence: list  # per sigma: bitset of processed generators it vanishes on

    def elements(self, row):
        """The field elements of a flat row."""
        n, pad = self.n, (0,) * (self.field.degree - self.n)
        return tuple(self.field._make(tuple(row[j:j + n]) + pad, 1) for j in range(0, len(row), n))


def initial_dual(gens, basis_idx, field):
    """Dual of the simplicial cone spanned by the chosen basis generators."""
    d = len(basis_idx)
    _, n, flat, _ = linalg._prepare(gens)
    inverse = linalg.invert([list(gens[i]) for i in basis_idx])
    sigmas, incidence = [], []
    for j, col in enumerate(linalg._int_rows(zip(*inverse), n)[0]):
        g = gcd(*col)
        sigmas.append([c // g for c in col])
        mask = 0
        for t, i in enumerate(basis_idx):
            if t != j:
                mask |= 1 << i
        incidence.append(mask)
    return DualizationState(field, d, n, flat, sigmas, incidence)


def _bits(mask):
    """Indices of the set bits of an incidence bitset, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _simplicial_pairs(state, pos, neg):
    """Adjacent positive/negative pairs via shared ridges.

    Valid when every current facet is simplicial: a (d-2)-subset of
    generators is a ridge iff it is a drop-one subset of a facet incidence,
    and two facets are adjacent iff they are the only two containing it.
    """
    ridge_owners = {}
    for t, mask in enumerate(state.incidence):
        for b in _bits(mask):
            ridge = mask ^ (1 << b)
            ridge_owners.setdefault(ridge, []).append(t)
    pos_set, neg_set = set(pos), set(neg)
    pairs = []
    for ridge, owners in ridge_owners.items():
        if len(owners) != 2:
            continue
        s, t = owners
        if s in pos_set and t in neg_set:
            pairs.append((s, t))
        elif t in pos_set and s in neg_set:
            pairs.append((t, s))
    pairs.sort()
    return pairs


def _general_pairs(state, pos, neg):
    """Positive/negative pairs surviving the count and domination filters."""
    d = state.dim
    incidence = state.incidence
    count_floor = max(d - 3, 0)
    pairs = []
    for i in pos:
        inc_i = incidence[i]
        for j in neg:
            common = inc_i & incidence[j]
            if common.bit_count() < count_floor:
                continue
            dominated = False
            for l, other in enumerate(incidence):
                if l != i and l != j and common & other == common:
                    dominated = True
                    break
            if dominated:
                continue
            pairs.append((i, j))
    return pairs


def fm_step(state, new_idx):
    """Extend the processed cone by generator `new_idx` and shrink its dual."""
    x = state.gens[new_idx]
    field, d, n = state.field, state.dim, state.n
    if n == 1:
        values = [[sum(map(mul, s, x))] for s in state.sigmas]
        signs = [(v > 0) - (v < 0) for v, in values]
    else:
        # each value is one convolution over all entries, reduced once; it
        # is the true value times the positive `_pow_rows` denominator
        terms = [(j, [(k, b) for k, b in enumerate(x[j:j + n]) if b]) for j in range(0, len(x), n)]
        values = []
        for s in state.sigmas:
            conv = [0] * (2 * n - 1)
            for j, xt in terms:
                for i in range(n):
                    a = s[j + i]
                    if a:
                        for k, b in xt:
                            conv[i + k] += a * b
            values.append(field._reduce_powers(conv))
        signs = [field._make(tuple(v), 1).sign() for v in values]
    pos = [t for t, s in enumerate(signs) if s > 0]
    neg = [t for t, s in enumerate(signs) if s < 0]
    zero = [t for t, s in enumerate(signs) if s == 0]
    new_bit = 1 << new_idx

    if not neg:
        # generator already inside the cone; hyperplane set untouched
        for t in zero:
            state.incidence[t] |= new_bit
        return state

    if d >= 2 and all(m.bit_count() == d - 1 for m in state.incidence):
        pairs = _simplicial_pairs(state, pos, neg)
    else:
        pairs = _general_pairs(state, pos, neg)

    new_sigmas = [state.sigmas[t] for t in pos]
    new_incidence = [state.incidence[t] for t in pos]
    for t in zero:
        new_sigmas.append(state.sigmas[t])
        new_incidence.append(state.incidence[t] | new_bit)

    # adjacent pairs are exact on the pointed dual, and each new extreme ray
    # lies on the 2-face of exactly one pair
    for i, j in pairs:
        # values[i] > 0 > values[j]: a positive combination vanishing on x
        new_sigmas.append(
            linalg._combine(field, n, values[i], state.sigmas[j], values[j], state.sigmas[i])[0]
        )
        new_incidence.append(state.incidence[i] & state.incidence[j] | new_bit)

    state.sigmas = new_sigmas
    state.incidence = new_incidence
    return state


@dataclass
class DualizationResult:
    """Output of a full dualization run."""

    field: object
    dim: int  # ambient dimension
    span_rank: int  # rank of the input rows
    dual_rank: int  # rank of the support forms within the span
    generators: list  # normalized deduped input rows, ambient coordinates
    extreme: list  # indices into `generators` that are extreme rays
    support_hyperplanes: list  # normalized forms, ambient coordinates
    incidence: list  # per hyperplane: bitset over `generators`

    @property
    def pointed(self):
        return self.dual_rank == self.span_rank

    @property
    def lineality_dim(self):
        return self.span_rank - self.dual_rank


def dualize(cone):
    """Extreme rays, support hyperplanes, and incidence of a cone.

    With `generators` input this is a convex hull computation; with
    `constraints` input the same engine runs on the constraint rows and the
    roles of the two output families swap (vertex enumeration).  The run
    starts from the span basis and inserts the other rows in input order.
    """
    field = cone.field
    rows = cone.generators if cone.generators is not None else cone.constraints
    normalized = []
    index_of = {}
    for row in rows:
        if not any(row):
            continue  # zero rows generate nothing
        v = normalize(tuple(row), field)
        if v not in index_of:
            index_of[v] = len(normalized)
            normalized.append(v)
    if not normalized:
        return DualizationResult(field, cone.dim, 0, 0, [], [], [], [])

    basis_idx, cols, projected = linalg.restrict_to_span(normalized)
    r = len(cols)
    state = initial_dual(projected, basis_idx, field)

    chosen = set(basis_idx)
    for i in range(len(projected)):
        if i not in chosen:
            fm_step(state, i)

    incidence = state.incidence
    everything = (1 << len(projected)) - 1
    # the generators on every sigma span the lineality space
    on_all = everything
    for mask in incidence:
        on_all &= mask
    dual_rank = r
    if on_all:
        dual_rank -= linalg.rank([projected[i] for i in _bits(on_all)])

    # extreme input rays of a pointed cone: no other generator lies on every
    # support form generator i lies on
    extreme = []
    if dual_rank == r:
        for i in range(len(projected)):
            common = everything
            for mask in incidence:
                if mask >> i & 1:
                    common &= mask
            if common == 1 << i:
                extreme.append(i)

    ambient_sigmas = []
    for s in state.sigmas:
        form = [field.zero] * cone.dim
        for c, x in zip(cols, normalize(state.elements(s), field)):
            form[c] = x
        ambient_sigmas.append(tuple(form))
    return DualizationResult(
        field=field,
        dim=cone.dim,
        span_rank=r,
        dual_rank=dual_rank,
        generators=normalized,
        extreme=extreme,
        support_hyperplanes=ambient_sigmas,
        incidence=list(incidence),
    )
