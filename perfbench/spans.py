"""Spans around the program's public functions, installed from outside.

`Tracer.install()` replaces each function named in `TARGETS` by a timing
wrapper on every `algpoly.*` module attribute (and class attribute) bound
to it, so `from .polyhedron import analyze` style bindings are traced too.
A name the program no longer has is recorded as absent instead of failing.

Calls made on the FM thread pool's worker threads are counted but not
timed; their time stays in the main-thread span that waits for them
(`fm_step`), so self times add up to the job's wall time.

Hot leaf functions keep only per-name aggregates; all other calls are also
kept as individual spans, in memory, and written out by `dump()`.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import Counter

# (layer, module, class or None, function); metric names use layer.function
TARGETS = (
    ("numfield", "numfield", "NFElem", "sign"),
    ("numfield", "numfield", "NFElem", "inv"),
    ("numfield", "numfield", "NumberField", "refine_generator"),
    ("linalg", "linalg", None, "rank"),
    ("linalg", "linalg", None, "rank_reaches"),
    ("linalg", "linalg", None, "invert"),
    ("linalg", "linalg", None, "det"),
    ("linalg", "linalg", None, "solve"),
    ("linalg", "linalg", None, "restrict_to_span"),
    ("linalg", "linalg", None, "find_basis_among"),
    ("linalg", "linalg", None, "independent_rows"),
    ("linalg", "linalg", None, "null_space"),
    ("dualize", "dualize", None, "dualize"),
    ("dualize", "dualize", None, "fm_step"),
    ("dualize", "dualize", None, "normalize"),
    ("dualize", "dualize", None, "initial_dual"),
    ("dualize", "dualize", None, "is_extreme"),
    ("polyhedron", "polyhedron", None, "analyze"),
    ("polyhedron", "polyhedron", None, "homogenize"),
    ("combinat", "combinat", None, "f_vector"),
    ("combinat", "combinat", None, "face_lattice"),
    ("combinat", "combinat", None, "incidence"),
    ("combinat", "combinat", None, "automorphisms"),
    ("discrete", "discrete", None, "triangulate"),
    ("discrete", "discrete", None, "volume"),
    ("discrete", "discrete", None, "lattice_points"),
    ("discrete", "discrete", None, "integer_hull"),
    ("io", "io", None, "parse_input"),
    ("io", "io", None, "build_model"),
    ("io", "io", None, "write_results"),
    ("io", "io", None, "write_automorphisms"),
)
LAYERS = ("numfield", "linalg", "dualize", "polyhedron", "combinat", "discrete", "io")
HOT = {"numfield.sign", "numfield.inv", "numfield.refine_generator",
       "dualize.normalize", "linalg.rank", "linalg.rank_reaches",
       "linalg.independent_rows", "linalg.det", "linalg.invert", "linalg.solve",
       "linalg.null_space", "dualize.is_extreme"}
# (callee, ancestor label): calls of callee while the ancestor is open
UNDER = (
    ("linalg.rank", "combinat.f_vector"),
    ("linalg.rank", "combinat.automorphisms:algebraic"),
    ("linalg.rank", "combinat.automorphisms:euclidean"),
    ("dualize.normalize", "discrete.lattice_points"),
)


def _aut_label(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs.get("kind", "combinatorial")
    return f"combinat.automorphisms:{kind}"


LABELS = {"combinat.automorphisms": _aut_label}


class Tracer:
    def __init__(self):
        self.main = threading.get_ident()
        self.stack = []  # open main-thread frames: [name, label, start_ns, child_ns, id]
        self.calls = Counter()
        self.incl_ns = Counter()  # outermost calls of each name only
        self.self_ns = Counter()
        self.open = Counter()  # open frames per name and per label
        self.under = Counter()
        self.direct_ns = Counter()  # (callee, parent) -> inclusive ns
        self.observed = Counter()
        self.worker_calls = {}  # thread ident -> Counter, merged in metrics()
        self.spans = []  # (job, id, parent id, name, start_ns, end_ns)
        self.absent = []
        self.job = -1
        self.job_top_ns = 0
        self.job_wall_ns = []  # per job: (wall ns, ns covered by top-level spans)
        self._patched = []
        self._next_id = 0

    # -- installation

    def install(self):
        self.absent = []
        for layer, module, owner, attr in TARGETS:
            name = f"{layer}.{attr}"
            mod = sys.modules.get(f"algpoly.{module}")
            holder = getattr(mod, owner, None) if owner else mod
            original = getattr(holder, attr, None) if holder is not None else None
            if original is None:
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner:
                self._patch(holder, attr, original, wrapper)
                continue
            for mod_name, loaded in list(sys.modules.items()):
                if mod_name == "algpoly" or mod_name.startswith("algpoly."):
                    for key, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, key, original, wrapper)

    def uninstall(self):
        for holder, attr, original in reversed(self._patched):
            setattr(holder, attr, original)
        self._patched.clear()

    def _patch(self, holder, attr, original, wrapper):
        self._patched.append((holder, attr, original))
        setattr(holder, attr, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        label_of = LABELS.get(name)
        unders = [anc for callee, anc in UNDER if callee == name]
        hot = name in HOT

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != tracer.main:
                counts = tracer.worker_calls.setdefault(threading.get_ident(), Counter())
                counts[name] += 1
                return fn(*args, **kwargs)
            for anc in unders:
                if tracer.open[anc]:
                    tracer.under[(name, anc)] += 1
            label = label_of(args, kwargs) if label_of else name
            stack = tracer.stack
            parent = stack[-1] if stack else None
            frame = [name, label, 0, 0, tracer._next_id]
            tracer._next_id += 1
            tracer.open[name] += 1
            if label != name:
                tracer.open[label] += 1
            stack.append(frame)
            frame[2] = start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                dur = end - start
                tracer.calls[name] += 1
                tracer.open[name] -= 1
                if label != name:
                    tracer.open[label] -= 1
                    tracer.calls[label] += 1
                if not tracer.open[name]:
                    tracer.incl_ns[name] += dur
                    if label != name:
                        tracer.incl_ns[label] += dur
                tracer.self_ns[name] += dur - frame[3]
                if parent is not None:
                    parent[3] += dur
                    tracer.direct_ns[(name, parent[0])] += dur
                else:
                    tracer.job_top_ns += dur
                if not hot:
                    tracer.spans.append((tracer.job, frame[4],
                                         parent[4] if parent else None,
                                         label, start, end))
            tracer._observe(name, args, result)
            return result

        return wrapper

    def _observe(self, name, args, result):
        # observers read result attributes; a renamed attribute skips the metric
        obs = self.observed
        try:
            if name == "numfield.refine_generator":
                obs["numfield.gen_digits_max"] = max(
                    obs["numfield.gen_digits_max"], args[0].generator_digits)
            elif name == "dualize.fm_step":
                obs["dualize.sigmas_max"] = max(obs["dualize.sigmas_max"],
                                                len(result.sigmas))
            elif name == "combinat.automorphisms":
                obs["combinat.aut_order"] += result.order
                if result.kind != "combinatorial":
                    obs["combinat.aut_order_geometric"] += result.order
            elif name == "combinat.f_vector":
                obs["combinat.faces"] += sum(result)
            elif name == "discrete.triangulate":
                obs["discrete.simplices"] += len(result.simplices)
            elif name == "discrete.lattice_points":
                obs["discrete.points"] += len(result.points)
        except (AttributeError, TypeError, IndexError):
            pass

    # -- jobs

    def begin_job(self, index):
        self.job = index
        self.job_top_ns = 0

    def end_job(self, wall_ns):
        self.job_wall_ns.append((wall_ns, self.job_top_ns))

    # -- results

    def metrics(self, untraced_s, traced_s):
        calls = Counter(self.calls)
        for counts in self.worker_calls.values():
            calls.update(counts)

        def s(ns):
            return ns / 1e9

        def incl(name):
            return s(self.incl_ns[name])

        layer_self = Counter()
        for name, ns in self.self_ns.items():
            layer_self[name.split(".")[0]] += ns
        other_ns = sum(w - top for w, top in self.job_wall_ns)
        faces = self.observed["combinat.faces"]
        certify = (self.under[("linalg.rank", "combinat.automorphisms:algebraic")]
                   + self.under[("linalg.rank", "combinat.automorphisms:euclidean")])
        rows = self.under[("dualize.normalize", "discrete.lattice_points")]
        m = {
            "numfield.sign_calls": calls["numfield.sign"],
            "numfield.sign_s": incl("numfield.sign"),
            "numfield.inv_calls": calls["numfield.inv"],
            "numfield.inv_s": incl("numfield.inv"),
            "numfield.refine_calls": calls["numfield.refine_generator"],
            "numfield.gen_digits_max": self.observed["numfield.gen_digits_max"],
            "linalg.rank_calls": calls["linalg.rank"],
            "linalg.rank_s": incl("linalg.rank"),
            "linalg.rank_reaches_calls": calls["linalg.rank_reaches"],
            "linalg.rank_reaches_s": incl("linalg.rank_reaches"),
            "linalg.invert_calls": calls["linalg.invert"],
            "linalg.invert_s": incl("linalg.invert"),
            "linalg.det_calls": calls["linalg.det"],
            "linalg.det_s": incl("linalg.det"),
            "linalg.restrict_to_span_s": incl("linalg.restrict_to_span"),
            "dualize.calls": calls["dualize.dualize"],
            "dualize.s": incl("dualize.dualize"),
            "dualize.fm_steps": calls["dualize.fm_step"],
            "dualize.fm_step_s": incl("dualize.fm_step"),
            "dualize.extremality_s": s(self.direct_ns[("linalg.rank_reaches",
                                                       "dualize.dualize")]),
            "dualize.normalize_calls": calls["dualize.normalize"],
            "dualize.normalize_s": incl("dualize.normalize"),
            "dualize.sigmas_max": self.observed["dualize.sigmas_max"],
            "polyhedron.analyze_s": incl("polyhedron.analyze"),
            "polyhedron.self_s": s(layer_self["polyhedron"]),
            "combinat.f_vector_s": incl("combinat.f_vector"),
            "combinat.faces": faces,
            "combinat.rank_per_face": _ratio(
                self.under[("linalg.rank", "combinat.f_vector")], faces),
            "combinat.aut_s": incl("combinat.automorphisms"),
            "combinat.aut_order": self.observed["combinat.aut_order"],
            "combinat.aut_certify_calls": certify,
            "combinat.aut_useful_ratio": _ratio(
                self.observed["combinat.aut_order_geometric"], certify),
            "discrete.triangulate_s": incl("discrete.triangulate"),
            "discrete.simplices": self.observed["discrete.simplices"],
            "discrete.lattice_s": incl("discrete.lattice_points"),
            "discrete.lattice_calls": calls["discrete.lattice_points"],
            "discrete.project_rows": rows,
            "discrete.points_per_row": _ratio(self.observed["discrete.points"], rows),
            "discrete.integer_hull_s": incl("discrete.integer_hull"),
            "io.parse_s": incl("io.parse_input"),
            "io.write_s": incl("io.write_results") + incl("io.write_automorphisms"),
            "cli.other_s": s(other_ns),
        }
        for layer in LAYERS:
            if layer != "polyhedron":
                m[f"{layer}.self_s"] = s(layer_self[layer])
        m["trace.overhead"] = _ratio(traced_s, untraced_s)
        return m

    def self_shares(self):
        """Share of traced job wall time spent in each layer's own code."""
        total = sum(w for w, _ in self.job_wall_ns) or 1
        layer_self = Counter()
        for name, ns in self.self_ns.items():
            layer_self[name.split(".")[0]] += ns
        shares = {layer: layer_self[layer] / total for layer in LAYERS}
        shares["cli.other"] = sum(w - top for w, top in self.job_wall_ns) / total
        return shares

    def dump(self, path, job_names):
        record = {
            "absent": self.absent,
            "jobs": job_names,
            "span_fields": ["job", "id", "parent", "name", "start_ns", "end_ns"],
            "spans": self.spans,
            "aggregates": {
                name: {"calls": self.calls[name], "incl_s": self.incl_ns[name] / 1e9,
                       "self_s": self.self_ns[name] / 1e9}
                for name in sorted(self.calls)
            },
        }
        with open(path, "w") as fh:
            json.dump(record, fh)


def _ratio(num, den):
    return num / den if den else 0.0
