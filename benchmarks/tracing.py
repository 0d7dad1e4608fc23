"""Span tracing of bergrange, installed from outside the library.

``install`` rebinds every public function of the package's modules, in
every module namespace that holds it, to a wrapper that records a span.
Rebinding each namespace matters because ``checks`` and ``cli`` import the
functions they use by name.  The library source is not touched.

Spans are kept in memory and written out by the caller at the end of the
run.  A span records its job, its own id, its parent's id, its name
(``<module>.<function>``), start and end in nanoseconds, and a few
attributes (matrix size, angle count, bytes) read from the call.  Spans
are only recorded while a job is open, so warm-up and output checks
leave no trace.  Each job is enclosed in a ``bench.job`` span, whose self
time is the benchmark's own work inside the job.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict
from typing import NamedTuple

import numpy as np

LAYERS = ("core", "operators", "numrange", "checks", "cli")
BUILDERS = ("operators.build_toeplitz", "operators.build_weighted_composition", "operators.build_multiplication")
SWEEPS = ("numrange.support_function", "numrange.boundary_points")
HULLS = ("numrange.sample_image_hull", "numrange.convex_hull")
SERIALIZERS = ("cli.matrix_to_csv", "cli.rows_to_csv", "cli.rows_to_json", "cli.render_svg")

# computed flop model of one N x N complex Hermitian eigensolve, leading
# terms of LAPACK zheevd with a complex operation counted as 4 real flops:
# tridiagonal reduction 16/3 N^3; with eigenvectors, add the tridiagonal
# divide and conquer (4/3 N^3) and the back transformation (8 N^3)
FLOP_VALUES = 16.0 / 3.0
FLOP_VECTORS = 16.0 / 3.0 + 4.0 / 3.0 + 8.0


class Span(NamedTuple):
    job: int
    sid: int
    parent: int | None
    name: str
    start: int
    end: int
    attrs: dict | None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._next = 0

    def open(self) -> tuple:
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        return sid, parent, time.perf_counter_ns()

    def close(self, handle: tuple, name: str, attrs=None) -> None:
        end = time.perf_counter_ns()
        sid, parent, start = handle
        self._stack.pop()
        self.spans.append(Span(self.job, sid, parent, name, start, end, attrs))

    def begin_job(self, job: int) -> tuple:
        self.job = job
        return self.open()

    def end_job(self, handle: tuple) -> None:
        self.close(handle, "bench.job")
        self.job = None


def _size(a) -> int:
    return int(np.shape(getattr(a, "matrix", a))[0])


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _build_attrs(args, kwargs, out):
    return {"n": out.truncation}


def _bytes_out(args, kwargs, out):
    return {"bytes": len(out)}


_ATTRS = {
    **{name: _build_attrs for name in BUILDERS},
    **{name: _bytes_out for name in SERIALIZERS},
    "numrange.support_function": lambda a, k, out: {
        "n": _size(_arg(a, k, 0, "A")),
        "angles": int(np.size(out)),
        "vectors": False,
    },
    "numrange.boundary_points": lambda a, k, out: {
        "n": _size(_arg(a, k, 0, "A")),
        "angles": len(out),
        "vectors": True,
    },
    "numrange.convex_hull": lambda a, k, out: {
        "points_in": int(np.size(_arg(a, k, 0, "points"))),
        "vertices_out": int(out.size),
    },
    "checks.run_check": lambda a, k, out: {"id": _arg(a, k, 0, "check_id")},
    "cli.matrix_from_csv": lambda a, k, out: {"bytes": len(_arg(a, k, 0, "text"))},
}


def _traced(tracer: Tracer, name: str, fn):
    attrs = _ATTRS.get(name)

    @functools.wraps(fn)
    def call(*args, **kwargs):
        if tracer.job is None:
            return fn(*args, **kwargs)
        handle = tracer.open()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.close(handle, name)
            raise
        tracer.close(handle, name, attrs(args, kwargs, out) if attrs else None)
        return out

    return call


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer, wherever they are bound."""
    import importlib

    package = importlib.import_module("bergrange")
    modules = {layer: importlib.import_module(f"bergrange.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            if (
                attr.startswith("_")
                or isinstance(fn, type)
                or not callable(fn)
                or getattr(fn, "__module__", None) != mod.__name__
            ):
                continue
            wrapper = _traced(tracer, f"{layer}.{attr}", fn)
            for ns in namespaces:
                if vars(ns).get(attr) is fn:
                    setattr(ns, attr, wrapper)


# ---------------------------------------------------------------------------
# analysis


def self_times(spans) -> dict:
    """Self time of each span: its duration minus the durations of its children.

    Spans of one thread nest, so the children of a span cover disjoint
    parts of it and their durations add up to the time they cover.
    """
    covered = defaultdict(int)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    return {s.sid: s.end - s.start - covered[s.sid] for s in spans}


def _outermost(spans, names) -> list:
    """Spans named in ``names`` with no ancestor that is also named there."""
    by_id = {s.sid: s for s in spans}
    out = []
    for s in spans:
        if s.name not in names:
            continue
        p = s.parent
        while p is not None and by_id[p].name not in names:
            p = by_id[p].parent
        if p is None:
            out.append(s)
    return out


def _seconds(spans) -> float:
    return sum(s.end - s.start for s in spans) / 1e9


def _attr(span, key):
    # a call that raised has no attributes
    return span.attrs[key] if span.attrs else 0


def layer_metrics(spans, passes: int, check_ids, cache_hits: int, cache_misses: int) -> dict:
    """Per-layer metrics, each a total over the traced passes divided by their count."""
    selfs = self_times(spans)
    named = defaultdict(list)
    for s in spans:
        named[s.name].append(s)
    m = {}

    def put(key, value):
        m[key] = value / passes

    put("core.alpha_weight.calls", len(named["core.alpha_weight"]))
    put("core.alpha_weight.s", _seconds(named["core.alpha_weight"]))
    lookups = cache_hits + cache_misses
    m["core.alpha_weight.hit_ratio"] = cache_hits / lookups if lookups else 0.0

    builds = _outermost(spans, BUILDERS)
    put("operators.build.calls", len(builds))
    put("operators.build.s", _seconds(builds))
    put("operators.build.bytes", sum(16 * _attr(s, "n") ** 2 for s in builds))

    sweeps = _outermost(spans, SWEEPS)
    angles = sum(_attr(s, "angles") for s in sweeps)
    flop = sum(
        _attr(s, "angles") * _attr(s, "n") ** 3 * (FLOP_VECTORS if _attr(s, "vectors") else FLOP_VALUES)
        for s in sweeps
    )
    put("numrange.sweep.s", _seconds(sweeps))
    put("numrange.sweep.angles", angles)
    m["numrange.sweep.s_per_angle"] = _seconds(sweeps) / angles if angles else 0.0
    put("numrange.sweep.gflop", flop / 1e9)
    put("numrange.eig.calls", len(named["numrange.hermitian_extreme_eig"]))
    put("numrange.eig.s", _seconds(named["numrange.hermitian_extreme_eig"]))

    hulls = named["numrange.convex_hull"]
    put("numrange.hull.s", _seconds(_outermost(spans, HULLS)))
    put("numrange.hull.points_in", sum(_attr(s, "points_in") for s in hulls))
    put("numrange.hull.vertices_out", sum(_attr(s, "vertices_out") for s in hulls))

    per_check = defaultdict(float)
    for s in named["checks.run_check"]:
        per_check[_attr(s, "id")] += (s.end - s.start) / 1e9
    for cid in check_ids:
        put(f"checks.{cid}.s", per_check[cid])

    put("cli.parse.s", _seconds(named["cli.parse_config"]))
    serial = [s for name in SERIALIZERS for s in named[name]]
    put("cli.serialize.s", _seconds(serial))
    put("cli.serialize.bytes", sum(_attr(s, "bytes") for s in serial))
    put("cli.deserialize.s", _seconds(named["cli.matrix_from_csv"]))
    put("cli.deserialize.bytes", sum(_attr(s, "bytes") for s in named["cli.matrix_from_csv"]))

    layer_self = defaultdict(int)
    for s in spans:
        layer_self[s.name.split(".", 1)[0]] += selfs[s.sid]
    for layer in (*LAYERS, "bench"):
        put(f"{layer}.self_s", layer_self[layer] / 1e9)
    return m


def self_sum_error(spans, job_walls: dict) -> float:
    """Largest relative gap between a job's wall time and the sum of its spans' self times."""
    selfs = self_times(spans)
    per_job = defaultdict(int)
    for s in spans:
        per_job[s.job] += selfs[s.sid]
    return max(abs(per_job[j] / 1e9 - wall) / wall for j, wall in job_walls.items())
