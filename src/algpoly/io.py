"""Input file parser and output file writers.

The input grammar follows the Normaliz style: an `amb_space` line, an
optional `number_field min_poly (...) embedding [c +/- r]` line, typed data
blocks with a row count (`vertices`, `cone`, `inequalities`, `equations`),
and computation goal tokens.  Vertex rows carry one extra trailing column,
a positive integer denominator common to the row.  Inequality and equation
rows have width amb_space+1 and read l(x) + c >= 0 resp. = 0.

The result writer mirrors the reference transcript: summary lines, a
separator of 71 asterisks, then the itemized lists with every non-rational
entry rendered as "(polynomial ~ decimal)".  The automorphism writer uses
72-asterisk separators, 1-based permutations, cycle decompositions, and
orbits, for the vertices and for the support hyperplanes.
"""

from __future__ import annotations

import enum
import re
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .combinat import cycle_decomposition
from .errors import (
    BadDenominator,
    ElementSyntaxError,
    FieldElementOutsideGrammar,
    InputSyntaxError,
    NoRootInInterval,
    NotSquareFree,
    UnknownGoal,
    UnsupportedBlock,
    ZeroPolynomial,
)
from .numfield import (
    EmbeddingInterval,
    NumberField,
    field_create,
    fixed_decimal_str,
    parse_elem,
    parse_poly_body,
    rational_field,
    render_elem,
    sci_str,
)
from .polyhedron import PolyhedronModel

OUT_SEPARATOR = "*" * 71
AUT_SEPARATOR = "*" * 72


class Goal(enum.Enum):
    VOLUME = "Volume"
    LATTICE_POINTS = "LatticePoints"
    F_VECTOR = "FVector"
    FACE_LATTICE = "FaceLattice"
    INTEGER_HULL = "IntegerHull"
    SUPPORT_HYPERPLANES = "SupportHyperplanes"
    EXTREME_RAYS = "ExtremeRays"
    TRIANGULATION = "Triangulation"
    AUT_COMBINATORIAL = "CombinatorialAutomorphisms"
    AUT_ALGEBRAIC = "Automorphisms"
    AUT_EUCLIDEAN = "EuclideanAutomorphisms"


_GOAL_TOKENS = {g.value: g for g in Goal}
_GOAL_TOKENS["AlgebraicAutomorphisms"] = Goal.AUT_ALGEBRAIC


def goal_from_token(token):
    if token not in _GOAL_TOKENS:
        raise UnknownGoal(f"unknown computation goal {token!r}")
    return _GOAL_TOKENS[token]

AUT_GOALS = {
    Goal.AUT_COMBINATORIAL: "combinatorial",
    Goal.AUT_ALGEBRAIC: "algebraic",
    Goal.AUT_EUCLIDEAN: "euclidean",
}

_KNOWN_BLOCKS = ("vertices", "cone", "inequalities", "equations")
_UNSUPPORTED_BLOCKS = (
    "cone_and_lattice", "lattice", "grading", "dehomogenization", "polytope",
    "rees_algebra", "inhom_inequalities", "inhom_equations", "congruences",
    "lattice_ideal", "excluded_faces", "hilbert_basis_rec_cone",
)


@dataclass
class InputSpec:
    amb_space: int
    field: NumberField
    blocks: dict  # block name -> list of rows of NFElem (vertices keep Fraction denominators folded in)
    goals: list  # Goal values, input order, deduplicated


def _split_row_tokens(text, line_no):
    """Split a data row into entries, keeping (...) and [...] groups intact."""
    out = []
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(" or ch == "[":
            close = ")" if ch == "(" else "]"
            j = text.find(close, i)
            if j < 0:
                raise InputSyntaxError(f"unbalanced {ch!r}", line=line_no, column=i + 1)
            out.append(text[i : j + 1])
            i = j + 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "([":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def _parse_rational_token(tok, line_no):
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise InputSyntaxError(f"expected a number, got {tok!r}", line=line_no)


def parse_input(text):
    """Parse an input file into an InputSpec."""
    lines = text.splitlines()
    amb_space = None
    field = None
    blocks = {}
    goals = []
    row_queue = 0
    current_block = None
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = _split_row_tokens(line, line_no)
        if row_queue > 0:
            _parse_block_row(blocks, current_block, tokens, amb_space, field, line_no)
            row_queue -= 1
            continue
        head = tokens[0]
        if head == "amb_space":
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise InputSyntaxError("amb_space needs one integer", line=line_no)
            amb_space = int(tokens[1])
            continue
        if head == "number_field":
            field = _parse_number_field(tokens, line_no)
            continue
        if head in _KNOWN_BLOCKS:
            if amb_space is None:
                raise InputSyntaxError("amb_space must come first", line=line_no)
            if len(tokens) != 2 or not tokens[1].isdigit():
                raise InputSyntaxError(f"{head} needs a row count", line=line_no)
            if field is None:
                field = rational_field()
            current_block = head
            blocks.setdefault(head, [])
            row_queue = int(tokens[1])
            continue
        if head in _UNSUPPORTED_BLOCKS:
            raise UnsupportedBlock(
                f"input type {head!r} is not supported by this kernel", line=line_no
            )
        if len(tokens) == 1 and re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", head):
            if head not in _GOAL_TOKENS:
                raise UnknownGoal(f"unknown computation goal {head!r}", line=line_no)
            goal = _GOAL_TOKENS[head]
            if goal not in goals:
                goals.append(goal)
            continue
        raise InputSyntaxError(f"unexpected input line {line!r}", line=line_no)
    if row_queue > 0:
        raise InputSyntaxError(f"missing {row_queue} rows of block {current_block!r}")
    if amb_space is None:
        raise InputSyntaxError("missing amb_space")
    if field is None:
        field = rational_field()
    return InputSpec(amb_space=amb_space, field=field, blocks=blocks, goals=goals)


def _parse_number_field(tokens, line_no):
    # number_field min_poly (a^2 - 5) embedding [2 +/- 1]
    if len(tokens) < 5 or tokens[1] != "min_poly" or tokens[3] != "embedding":
        raise InputSyntaxError(
            "expected: number_field min_poly (...) embedding [c +/- r]", line=line_no
        )
    poly_text = tokens[2]
    emb_text = tokens[4]
    if not (poly_text.startswith("(") and poly_text.endswith(")")):
        raise InputSyntaxError("min_poly must be parenthesized", line=line_no)
    m = re.fullmatch(r"\[\s*(\S+)\s*\+/-\s*(\S+)\s*\]", emb_text)
    if not m:
        raise InputSyntaxError("embedding must look like [c +/- r]", line=line_no)
    center = _parse_rational_token(m.group(1), line_no)
    radius = _parse_rational_token(m.group(2), line_no)
    gen_match = re.search(r"[A-Za-z_][A-Za-z0-9_]*", poly_text)
    gen_name = gen_match.group(0) if gen_match else "a"
    coeffs = _poly_coeffs_from_text(poly_text, gen_name, line_no)
    try:
        return field_create(
            coeffs, EmbeddingInterval.from_center(center, radius), gen_name=gen_name
        )
    except (ZeroPolynomial, NotSquareFree, NoRootInInterval) as exc:
        raise InputSyntaxError(f"number_field defines no field: {exc}", line=line_no)


def _poly_coeffs_from_text(text, gen_name, line_no):
    try:
        by_power = parse_poly_body(text[1:-1], gen_name)
    except ElementSyntaxError as exc:
        raise InputSyntaxError(f"bad min_poly: {exc}", line=line_no)
    top = max(by_power) if by_power else 0
    return [by_power.get(k, Fraction(0)) for k in range(top + 1)]


def _parse_block_row(blocks, block, tokens, amb_space, field, line_no):
    width = amb_space + 1 if block in ("vertices", "inequalities", "equations") else amb_space
    if len(tokens) != width:
        raise InputSyntaxError(
            f"{block} row has {len(tokens)} entries, expected {width}", line=line_no
        )
    entries = []
    for tok in tokens:
        try:
            entries.append(parse_elem(tok, field))
        except ElementSyntaxError as exc:
            raise FieldElementOutsideGrammar(str(exc), line=line_no)
    if block == "vertices":
        den = entries[-1].is_rational()
        if den is None or den.denominator != 1 or den <= 0:
            raise BadDenominator(
                f"vertex denominator must be a positive integer, got {tokens[-1]!r}",
                line=line_no,
            )
        inv_den = field.from_rational(Fraction(1, den))
        blocks[block].append(tuple(x * inv_den for x in entries[:-1]))
    else:
        blocks[block].append(tuple(entries))


def build_model(spec):
    """Polyhedron model from a parsed input specification."""
    return PolyhedronModel(
        spec.field,
        spec.amb_space,
        vertices=spec.blocks.get("vertices", []),
        rays=spec.blocks.get("cone", []),
        inequalities=spec.blocks.get("inequalities", []),
        equations=spec.blocks.get("equations", []),
    )


# ----------------------------------------------------------------------------
# writers

@dataclass
class ResultBundle:
    """Everything a run computed, in the shape the output file needs."""

    analyzed: object
    goals: list
    volume: object = None  # VolumeResult
    lattice_points: object = None  # LatticePointSet
    f_vector: list | None = None
    automorphisms: dict = dc_field(default_factory=dict)  # kind -> group
    integer_hull: object = None  # AnalyzedPolyhedron
    triangulation: object = None  # Triangulation
    euclid_digits: int = 12


def _render_row(row):
    return [render_elem(x) for x in row]


def _aligned(rows):
    if not rows:
        return []
    widths = [max(len(r[c]) for r in rows) for c in range(len(rows[0]))]
    return [" ".join(s.rjust(w) for s, w in zip(r, widths)) for r in rows]


def _min_poly_spaced(field):
    from .numfield import render_poly

    compact = render_poly(
        [Fraction(c) for c in field.min_poly], 1, field.gen_name
    )
    spaced = re.sub(r"(?<=.)([+-])", r" \1 ", compact)
    return f"({spaced})"


def field_echo(field, digits=None):
    lo, hi = field.generator_enclosure()
    digits = digits if digits is not None else max(field.generator_digits, 1)
    center = fixed_decimal_str((lo + hi) / 2, digits)
    # the rounded center moves off the midpoint, so the radius is measured
    # from the printed center and rounded up: the echo encloses the generator
    c = Fraction(center)
    radius = sci_str(max(hi - c, c - lo), 3)
    return (
        "Real embedded number field:\n"
        f"min_poly {_min_poly_spaced(field)} embedding [{center} +/- {radius}]"
    )


def write_results(bundle):
    """Text of the `.out` result file."""
    analyzed = bundle.analyzed
    field = analyzed.field
    goals = bundle.goals
    lines = []
    if field.degree > 1:
        lines.append(field_echo(field))
        lines.append("")
    if analyzed.is_empty:
        lines.append("polyhedron is empty")
        lines.append("")
        return "\n".join(lines)

    n_verts = len(analyzed.vertices)
    n_rays = len(analyzed.rays)
    n_hyps = len(analyzed.support_hyperplanes)

    if bundle.lattice_points is not None:
        lines.append(f"{len(bundle.lattice_points)} lattice points in polytope")
    lines.append(f"{n_verts} vertices of polyhedron")
    lines.append(f"{n_rays} extreme rays of recession cone")
    lines.append(f"{n_hyps} support hyperplanes of polyhedron (homogenized)")
    if bundle.f_vector is not None:
        lines.append("f-vector:")
        lines.append(" ".join(str(c) for c in bundle.f_vector))
    lines.append(f"embedding dimension = {analyzed.dim + 1}")
    maximal = " (maximal)" if analyzed.affine_dim == analyzed.dim else ""
    lines.append(
        f"affine dimension of the polyhedron = {analyzed.affine_dim}{maximal}"
    )
    rec = analyzed.recession_rank
    poly_note = " (polyhedron is polytope)" if rec == 0 else ""
    lines.append(f"rank of recession cone = {rec}{poly_note}")
    if bundle.volume is not None:
        lines.append(
            "volume (lattice normalized) = "
            + render_elem(bundle.volume.normalized)
        )
        lines.append(
            "volume (Euclidean) = "
            + bundle.volume.euclidean_str(bundle.euclid_digits)
        )
    for kind in AUT_GOALS.values():
        group = bundle.automorphisms.get(kind)
        if group is not None:
            lines.append(
                f"{kind.capitalize()} automorphism group has order {group.order}"
            )
    lines.append(OUT_SEPARATOR)

    if bundle.lattice_points is not None:
        pts = bundle.lattice_points.points
        lines.append(f"{len(pts)} lattice points in polytope:")
        lines.extend(_aligned([[str(c) for c in p] for p in pts]))
    lines.append(f"{n_verts} vertices of polyhedron:")
    lines.extend(_aligned([_render_row(r) for r in analyzed.vertices]))
    lines.append(f"{n_rays} extreme rays of recession cone:")
    lines.extend(_aligned([_render_row(r) for r in analyzed.rays]))
    lines.append(f"{n_hyps} support hyperplanes of polyhedron (homogenized):")
    lines.extend(_aligned([_render_row(r) for r in analyzed.support_hyperplanes]))
    if bundle.integer_hull is not None:
        hull = bundle.integer_hull
        lines.append(f"{len(hull.vertices)} vertices of integer hull:")
        lines.extend(_aligned([_render_row(r) for r in hull.vertices]))
    if bundle.triangulation is not None:
        tri = bundle.triangulation
        lines.append(
            f"{len(tri.simplices)} simplices of triangulation "
            "(dehomogenized determinants):"
        )
        rows = []
        for simplex, det in zip(tri.simplices, tri.determinants):
            rows.append(
                [" ".join(str(i + 1) for i in simplex), "det =", render_elem(det)]
            )
        lines.extend(" ".join(r) for r in rows)
    lines.append("")
    return "\n".join(lines)


def _perm_section(perms, count, label):
    lines = [f"{len(perms)} permutations of {count} {label}"]
    for i, perm in enumerate(perms, start=1):
        lines.append(f"Perm {i}: " + " ".join(str(v + 1) for v in perm))
    lines.append("Cycle decompositions ")
    for i, perm in enumerate(perms, start=1):
        cycles = cycle_decomposition(perm)
        body = " ".join("(" + " ".join(str(v + 1) for v in c) + ")" for c in cycles)
        lines.append(f"Perm {i}: " + (body + " --" if body else "--"))
    return lines


def _orbit_section(orbits, label):
    lines = [f"{len(orbits)} orbits of {label}"]
    for i, orbit in enumerate(orbits, start=1):
        members = " ".join(str(v + 1) for v in orbit)
        lines.append(f"Orbit {i} , length {len(orbit)}:  {members}")
    return lines


def write_automorphisms(group):
    """Text of the `.aut` automorphism file for one group."""
    kind = group.kind.capitalize()
    n_nodes = len(group.elements[0]) if group.elements else group.n_vertices
    if n_nodes == group.n_vertices:
        gen_label = "vertices of polyhedron"
    else:
        gen_label = "vertices and recession rays of polyhedron"
    lines = [f"{kind} automorphism group of order {group.order}"]
    lines.append(AUT_SEPARATOR)
    lines.extend(_perm_section(group.vertex_perms, n_nodes, gen_label))
    lines.extend(_orbit_section(group.vertex_orbits, gen_label))
    lines.append(AUT_SEPARATOR)
    lines.extend(
        _perm_section(
            group.hyperplane_perms, group.n_hyperplanes, "support hyperplanes"
        )
    )
    lines.extend(_orbit_section(group.hyperplane_orbits, "support hyperplanes"))
    lines.append("")
    return "\n".join(lines)
