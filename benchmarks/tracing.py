"""In-memory span tracer for the benchmark's traced run.

A span is recorded around each call into a public layer function of
cubehom: name, start, end and parent span.  The program's source is not
touched: `Tracer.install` rebinds each traced function in every cubehom
module namespace that imports it by name (so `cube_degree` is wrapped in
`cubes`, `chains`, `spectral` and the package alike) and the traced
`Echelon` methods on the class; `uninstall` puts the originals back.

A layer's self time is its spans' duration minus the time covered by their
child spans, so self times of all spans under a root add up to the root's
duration.  Counts are taken at the same boundaries.  Generators
(`singular_cubes`) are charged only for the time spent inside `next()`,
which is the enumeration work; the consumer's work between yields belongs
to the consumer.
"""

import functools
import json
import sys
import time
from collections import Counter, defaultdict

_clock = time.perf_counter

# (module, attribute, span name, after-call hook name or None)
FUNCTIONS = (
    ("cubes", "cube_subgraphs", "cubes.subgraphs", "_after_subgraphs"),
    ("chains", "normalized_complex", "chains.complex", "_after_complex"),
    ("chains", "homology", "chains.homology", None),
    ("chains", "homology_presentation", "chains.homology", None),
    ("zlinalg", "smith_normal_form", "zlinalg.smith", None),
    ("spectral", "e1_page", "spectral.e1", None),
    ("spectral", "einfinity_report", "spectral.einf", None),
    ("cwcomplex", "build_cw_complex", "cwcomplex.build", "_after_cw"),
    ("cwcomplex", "cw_homology", "cwcomplex.homology", None),
    ("cwcomplex", "cell_to_degree_class", "cwcomplex.cellmap", None),
    ("monophobic", "check_graph", "monophobic.check", None),
    ("monophobic", "check_cube", "monophobic.cube", "_after_check_cube"),
    ("monophobic", "supported_face_count", "monophobic.face_count", None),
    ("graphs", "parse_edge_list", "graphs.parse", None),
    ("cli", "main", "cli", None),
)

# per-layer metric name -> unit, in report order
LAYER_UNITS = {
    "cubes.enumerate_s": "s",
    "cubes.enumerated": "count",
    "cubes.enumerate_rate": "1/s",
    "cubes.degree_s": "s",
    "cubes.degree_calls": "count",
    "cubes.degree_rate": "1/s",
    "cubes.subgraphs_s": "s",
    "cubes.subgraphs": "count",
    "chains.complex_s": "s",
    "chains.columns": "count",
    "chains.basis": "count",
    "chains.homology_s": "s",
    "zlinalg.echelon_add_s": "s",
    "zlinalg.echelon_adds": "count",
    "zlinalg.echelon_rank_gain_ratio": "ratio",
    "zlinalg.max_coeff_bits": "bits",
    "zlinalg.express_s": "s",
    "zlinalg.express_calls": "count",
    "zlinalg.smith_s": "s",
    "zlinalg.smith_calls": "count",
    "spectral.e1_s": "s",
    "spectral.einf_s": "s",
    "spectral.stream_s": "s",
    "spectral.stream_cubes": "count",
    "spectral.stream_degree_hit_ratio": "ratio",
    "spectral.stream_adds": "count",
    "cwcomplex.build_s": "s",
    "cwcomplex.cells": "count",
    "cwcomplex.homology_s": "s",
    "cwcomplex.cellmap_s": "s",
    "monophobic.check_s": "s",
    "monophobic.cubes_checked": "count",
    "monophobic.candidates": "count",
    "monophobic.face_count_s": "s",
    "monophobic.witnesses": "count",
    "graphs.parse_s": "s",
    "cli.self_s": "s",
}


def _ratio(num, den):
    return num / den if den else 0.0


class Tracer:
    """Spans and counters for one traced stretch of work.

    Spans are kept in memory up to `max_spans`; later spans still feed the
    self times and counts, and `dropped` says how many were not kept.
    """

    def __init__(self, max_spans=50_000):
        self.max_spans = max_spans
        self.origin = _clock()
        self.spans = []          # (id, parent id, name, start, end)
        self.dropped = 0
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.counts = Counter()  # named counts; tuple keys for per-dim ones
        self.stream = None       # (k, n + 1) inside quotient_homology
        self.last_echelon = None
        self.prev_echelon = None
        self._stack = []         # frames: [name, id, parent id, start, child]
        self._next_id = 1
        self._restore = []

    # -- spans --------------------------------------------------------------

    def _new_id(self):
        sid = self._next_id
        self._next_id += 1
        return sid

    def _top_id(self):
        return self._stack[-1][1] if self._stack else 0

    def _record(self, sid, parent, name, start, end):
        if len(self.spans) < self.max_spans:
            self.spans.append((sid, parent, name, start - self.origin,
                               end - self.origin))
        else:
            self.dropped += 1

    def push(self, name, sid=None):
        if sid is None:
            sid = self._new_id()
        self._stack.append([name, sid, self._top_id(), _clock(), 0.0])

    def pop(self, record=True):
        name, sid, parent, start, child = self._stack.pop()
        end = _clock()
        dur = end - start
        self.self_s[name] += dur - child
        if self._stack:
            self._stack[-1][4] += dur
        if record:
            self._record(sid, parent, name, start, end)
        return dur

    def span(self, name):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, name)

    # -- wrappers -------------------------------------------------------------

    def _wrap(self, name, fn, hook):
        tr = self
        after = getattr(self, hook) if hook else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tr.push(name)
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                tr.pop()
                tr.calls[name] += 1

        return traced

    def _wrap_enumerate(self, fn):
        tr = self
        name = "cubes.enumerate"

        @functools.wraps(fn)
        def traced(g, n, *args, **kwargs):
            sid = tr._new_id()
            parent = tr._top_id()
            start = _clock()
            tr.calls[name] += 1
            in_stream = tr.stream is not None and tr.stream[1] == n
            gen = fn(g, n, *args, **kwargs)
            try:
                while True:
                    tr.push(name, sid)
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        tr.pop(record=False)
                    tr.counts[name] += 1
                    tr.counts[(name, n)] += 1
                    if in_stream:
                        tr.counts["spectral.stream_cubes"] += 1
                    yield item
            finally:
                gen.close()
                tr._record(sid, parent, name, start, _clock())

        return traced

    def _wrap_degree(self, fn):
        tr = self
        name = "cubes.degree"

        @functools.wraps(fn)
        def traced(corners):
            tr.push(name)
            try:
                d = fn(corners)
                s = tr.stream
                if s is not None and len(corners) == 1 << s[1] and d == s[0]:
                    tr.counts["spectral.stream_hits"] += 1
                return d
            finally:
                tr.pop()
                tr.calls[name] += 1

        return traced

    def _wrap_stream(self, fn):
        tr = self
        name = "spectral.stream"

        @functools.wraps(fn)
        def traced(g, k, n, *args, **kwargs):
            outer = tr.stream
            tr.stream = (k, n + 1)
            tr.push(name)
            try:
                return fn(g, k, n, *args, **kwargs)
            finally:
                tr.pop()
                tr.stream = outer
                tr.calls[name] += 1

        return traced

    def _wrap_add(self, fn):
        tr = self
        name = "zlinalg.echelon_add"

        @functools.wraps(fn)
        def traced(ech, vec):
            tr.push(name)
            try:
                before = len(ech.rows)
                fn(ech, vec)
                # `add` reduces `vec` in place: afterwards it holds the
                # stored row (up to sign) or is empty
                if len(ech.rows) > before:
                    tr.counts["zlinalg.rank_gains"] += 1
                    bits = max(abs(v) for v in vec.values()).bit_length()
                    if bits > tr.counts["zlinalg.max_coeff_bits"]:
                        tr.counts["zlinalg.max_coeff_bits"] = bits
            finally:
                tr.pop()
                tr.calls[name] += 1
                if tr.stream is not None:
                    tr.counts["spectral.stream_adds"] += 1
                if ech is not tr.last_echelon:
                    tr.prev_echelon, tr.last_echelon = tr.last_echelon, ech

        return traced

    # -- counts taken from results ---------------------------------------------

    def _after_subgraphs(self, args, result):
        self.counts["cubes.subgraphs"] += len(result)

    def _after_complex(self, args, c):
        self.counts["chains.basis"] += sum(len(b) for b in c.basis)
        self.counts["chains.columns"] += sum(len(cols) for cols in c.columns)

    def _after_cw(self, args, c):
        for n, cells in enumerate(c.cells):
            self.counts["cwcomplex.cells"] += len(cells)
            self.counts[("cwcomplex.cells", n)] += len(cells)

    def _after_check_cube(self, args, result):
        if result[1] is not None:
            self.counts["monophobic.witnesses"] += 1

    # -- installation -----------------------------------------------------------

    def _rebind(self, orig, wrapper):
        """Replace `orig` by `wrapper` wherever a cubehom module binds it."""
        hit = False
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cubehom"
                                   or modname.startswith("cubehom.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is orig:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, orig))
                    hit = True
        if not hit:
            raise RuntimeError(f"{orig.__qualname__} is bound nowhere")

    def install(self):
        """Wrap every traced layer function; `cubehom.cli` must be imported."""
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {m: sys.modules["cubehom." + m]
                for m in ("cubes", "chains", "zlinalg", "spectral",
                          "cwcomplex", "monophobic", "graphs", "cli")}
        special = (
            ("cubes", "singular_cubes", self._wrap_enumerate),
            ("cubes", "cube_degree", self._wrap_degree),
            ("spectral", "quotient_homology", self._wrap_stream),
        )
        for mod, attr, make in special:
            orig = getattr(mods[mod], attr)
            self._rebind(orig, make(orig))
        for mod, attr, name, hook in FUNCTIONS:
            orig = getattr(mods[mod], attr)
            self._rebind(orig, self._wrap(name, orig, hook))
        ech = mods["zlinalg"].Echelon
        for attr, wrapper in (
                ("add", self._wrap_add(ech.add)),
                ("express", self._wrap("zlinalg.express", ech.express, None)),
                ("reduce", self._wrap("zlinalg.express", ech.reduce, None))):
            self._restore.append((ech, attr, getattr(ech, attr)))
            setattr(ech, attr, wrapper)
        return self

    def uninstall(self):
        for obj, attr, orig in reversed(self._restore):
            setattr(obj, attr, orig)
        self._restore.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- reporting ----------------------------------------------------------------

    def layer_metrics(self):
        """Self times, counts and rates per layer, named as in LAYER_UNITS."""
        s, c, n = self.self_s, self.calls, self.counts
        return {
            "cubes.enumerate_s": s["cubes.enumerate"],
            "cubes.enumerated": n["cubes.enumerate"],
            "cubes.enumerate_rate": _ratio(n["cubes.enumerate"],
                                           s["cubes.enumerate"]),
            "cubes.degree_s": s["cubes.degree"],
            "cubes.degree_calls": c["cubes.degree"],
            "cubes.degree_rate": _ratio(c["cubes.degree"], s["cubes.degree"]),
            "cubes.subgraphs_s": s["cubes.subgraphs"],
            "cubes.subgraphs": n["cubes.subgraphs"],
            "chains.complex_s": s["chains.complex"],
            "chains.columns": n["chains.columns"],
            "chains.basis": n["chains.basis"],
            "chains.homology_s": s["chains.homology"],
            "zlinalg.echelon_add_s": s["zlinalg.echelon_add"],
            "zlinalg.echelon_adds": c["zlinalg.echelon_add"],
            "zlinalg.echelon_rank_gain_ratio": _ratio(
                n["zlinalg.rank_gains"], c["zlinalg.echelon_add"]),
            "zlinalg.max_coeff_bits": n["zlinalg.max_coeff_bits"],
            "zlinalg.express_s": s["zlinalg.express"],
            "zlinalg.express_calls": c["zlinalg.express"],
            "zlinalg.smith_s": s["zlinalg.smith"],
            "zlinalg.smith_calls": c["zlinalg.smith"],
            "spectral.e1_s": s["spectral.e1"],
            "spectral.einf_s": s["spectral.einf"],
            "spectral.stream_s": s["spectral.stream"],
            "spectral.stream_cubes": n["spectral.stream_cubes"],
            "spectral.stream_degree_hit_ratio": _ratio(
                n["spectral.stream_hits"], n["spectral.stream_cubes"]),
            "spectral.stream_adds": n["spectral.stream_adds"],
            "cwcomplex.build_s": s["cwcomplex.build"],
            "cwcomplex.cells": n["cwcomplex.cells"],
            "cwcomplex.homology_s": s["cwcomplex.homology"],
            "cwcomplex.cellmap_s": s["cwcomplex.cellmap"],
            "monophobic.check_s": s["monophobic.check"] + s["monophobic.cube"],
            "monophobic.cubes_checked": c["monophobic.cube"],
            "monophobic.candidates": c["monophobic.face_count"],
            "monophobic.face_count_s": s["monophobic.face_count"],
            "monophobic.witnesses": n["monophobic.witnesses"],
            "graphs.parse_s": s["graphs.parse"],
            "cli.self_s": s["cli"],
        }

    def write_spans(self, path, header):
        """One JSON header line, then one line per kept span."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(dict(header, spans_kept=len(self.spans),
                                     spans_dropped=self.dropped),
                                sort_keys=True) + "\n")
            for sid, parent, name, start, end in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent,
                                     "name": name, "start": start,
                                     "end": end}) + "\n")


class _Span:
    __slots__ = ("tracer", "name")

    def __init__(self, tracer, name):
        self.tracer = tracer
        self.name = name

    def __enter__(self):
        self.tracer.push(self.name)
        return self

    def __exit__(self, *exc):
        self.tracer.pop()
        return False
