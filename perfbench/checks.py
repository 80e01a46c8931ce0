"""Per-job correctness checks on the summary lines of `.out` and `.aut` files.

Only invariants are compared (counts, f-vector, exact volume, group
orders), never whole files, so an intended change of printed generators or
list order does not break the benchmark.
"""

from __future__ import annotations

import re
from fractions import Fraction

from exact import euler_ok, h_vector

_COUNT_LINES = {
    "lattice_points": re.compile(r"^(\d+) lattice points in polytope$"),
    "vertices": re.compile(r"^(\d+) vertices of polyhedron$"),
    "facets": re.compile(r"^(\d+) support hyperplanes of polyhedron \(homogenized\)$"),
}
_ORDER_OUT = re.compile(r"^(\w+) automorphism group has order (\d+)$")
_ORDER_AUT = re.compile(r"^(\w+) automorphism group of order (\d+)$")
_HULL_VERTICES = re.compile(r"^(\d+) vertices of integer hull:$")


def summary(out_text, aut_text=""):
    """Invariants printed by the program, as a dict."""
    lines = out_text.splitlines()
    found = {"empty": "polyhedron is empty" in lines, "orders": {}, "aut_orders": {}}
    in_summary = True
    for i, line in enumerate(lines):
        if line.startswith("*****"):
            in_summary = False
            continue
        m = _HULL_VERTICES.match(line)
        if m:
            found["hull_vertices"] = int(m.group(1))
        if not in_summary:
            continue
        for key, pattern in _COUNT_LINES.items():
            m = pattern.match(line)
            if m:
                found[key] = int(m.group(1))
        if line == "f-vector:" and i + 1 < len(lines):
            found["fvec"] = [int(t) for t in lines[i + 1].split()]
        if line.startswith("volume (lattice normalized) = "):
            found["volume_text"] = line.split("=", 1)[1].strip()
        m = _ORDER_OUT.match(line)
        if m:
            found["orders"][m.group(1).lower()] = int(m.group(2))
    for line in aut_text.splitlines():
        m = _ORDER_AUT.match(line)
        if m:
            found["aut_orders"][m.group(1).lower()] = int(m.group(2))
    return found


def check(job, rc, out_text, aut_text, twin_out=None):
    """List of problems with one job's result; empty when it is correct."""
    if rc != 0:
        return [f"exit code {rc}"]
    got = summary(out_text, aut_text)
    want = job.expected
    problems = []
    if want.get("empty"):
        return [] if got["empty"] else ["expected an empty polyhedron"]
    if got["empty"]:
        return ["unexpectedly empty"]
    for key in ("vertices", "facets", "lattice_points"):
        if key in want and got.get(key) != want[key]:
            problems.append(f"{key}: got {got.get(key)}, want {want[key]}")
    fvec = got.get("fvec")
    if fvec is not None:
        if not euler_ok(fvec):
            problems.append(f"f-vector {fvec} violates the Euler relation")
        if job.tags.get("simplicial"):
            h = h_vector(fvec)
            if h != h[::-1]:
                problems.append(f"simplicial f-vector {fvec} violates Dehn-Sommerville")
    if "fvec" in want and fvec != want["fvec"]:
        problems.append(f"f-vector: got {fvec}, want {want['fvec']}")
    volume = None
    if "volume_text" in got:
        volume = job.field.parse_output(got["volume_text"])
    if "volume" in want and volume != want["volume"]:
        problems.append(f"volume: got {got.get('volume_text')}, want {want['volume']}")
    if want.get("integral_volume"):
        v = job.field.rational(volume) if volume is not None else None
        if v is None or v <= 0 or v.denominator != 1:
            problems.append(f"volume {got.get('volume_text')} of a lattice polytope "
                            "is not a positive integer")
    if "lattice_points" in got and "hull_vertices" in got:
        points = got["lattice_points"]
        if not min(points, 1) <= got["hull_vertices"] <= points:
            problems.append(f"integer hull has {got['hull_vertices']} vertices for "
                            f"{got['lattice_points']} lattice points")
    for kind, order in want.get("orders", {}).items():
        if got["orders"].get(kind) != order or got["aut_orders"].get(kind) != order:
            problems.append(f"{kind} group order: .out {got['orders'].get(kind)}, "
                            f".aut {got['aut_orders'].get(kind)}, want {order}")
    if twin_out is not None:
        problems += _check_twin(job, got, volume, summary(twin_out))
    return problems


def _check_twin(job, got, volume, twin):
    """Number-field job against its rational twin: same combinatorics, and
    the volume scales by the product of the column scales, exactly."""
    problems = []
    for key in ("vertices", "facets", "fvec"):
        if got.get(key) != twin.get(key):
            problems.append(f"{key} differs from the rational twin: "
                            f"{got.get(key)} vs {twin.get(key)}")
    if "volume_text" not in twin or volume is None:
        return problems + ["missing volume for the twin comparison"]
    twin_volume = Fraction(twin["volume_text"])
    want = job.field.scale(job.scale, twin_volume)
    if volume != want:
        problems.append(f"volume {got['volume_text']} != twin volume "
                        f"{twin['volume_text']} times the column scales")
    return problems

