"""Outside-in span tracing of the squig layers.

The tracer wraps public (and a few private) functions of the library from
the outside: each wrapped name is replaced in every ``squig`` module that
holds a reference to the same function object, so calls through
``squig.sin_n``, ``squig.squigfn.newton_invert`` or
``squig.geometry.integrate_smooth`` all pass through the wrapper.  No file
of the library changes.

Spans live in memory as ``[name, request, parent, start, end, raised,
count]`` lists and are written out only when the run ends.  ``request`` is
the benchmark call that caused the span (0 for set-up), ``parent`` the index
of the enclosing span, and ``count`` a per-call work count read from the
return value (integrand evaluations or Newton iterations) where the layer
reports one.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import defaultdict
from time import perf_counter


def _evaluations(result):
    return result.evaluations


def _tanh_sinh_evaluations(result):
    return result[2]


def _iterations(result):
    return result.iterations


def _hit(result):
    return 0 if result is None else 1


# (module, attribute, span name, work count read from the return value)
TARGETS = (
    ("squig.geometry", "make_context", "geometry.make_context", None),
    ("squig.geometry", "fold", "geometry.fold", None),
    ("squig.geometry", "contains_Sigma", "geometry.contains_Sigma", None),
    ("squig.squigfn", "sin_n", "squigfn.sin_n", None),
    ("squig.squigfn", "cos_n", "squigfn.cos_n", None),
    ("squig.squigfn", "arcsin_n", "squigfn.arcsin_n", None),
    ("squig.squigfn", "maclaurin", "squigfn.maclaurin", None),
    ("squig.squigfn", "_corner_invert", "squigfn.corner_chart", _hit),
    ("squig.squigfn", "_corner_forward", "squigfn.corner_forward", None),
    ("squig.squigfn", "_invert_slit_edge", "squigfn.slit_edge", None),
    ("squig.squigfn", "_edge_integral", "squigfn.edge_integral", None),
    ("squig.numerics", "newton_invert", "numerics.newton_invert", None),
    ("squig.numerics", "_newton_basic", "numerics.newton_pass", _iterations),
    ("squig.numerics", "sector_ray_integral", "numerics.sector_ray_integral", None),
    ("squig.numerics", "sector_segment_integral", "numerics.sector_segment_integral", None),
    ("squig.numerics", "integrate_smooth", "numerics.integrate_smooth", _evaluations),
    ("squig.numerics", "integrate_endpoint_singular",
     "numerics.integrate_endpoint_singular", _evaluations),
    ("squig.numerics", "integrate_tail", "numerics.integrate_tail", _evaluations),
    ("squig.numerics", "_tanh_sinh", "numerics.tanh_sinh", _tanh_sinh_evaluations),
    ("squig.numerics", "revert_series", "numerics.revert_series", None),
    ("squig.verify", "run_all", "verify.run_all", None),
)

NAME, REQUEST, PARENT, START, END, RAISED, COUNT = range(7)


class Tracer:
    """Installs wrappers, records spans, restores the library on uninstall."""

    def __init__(self):
        self.spans: list[list] = []
        self.request = 0
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if m is not None and (name == "squig" or name.startswith("squig."))]
        for module_name, attr, span_name, count in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapper = self._wrap(span_name, original, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._restore.append((module, key, original))

    def uninstall(self) -> None:
        for module, key, original in reversed(self._restore):
            setattr(module, key, original)
        self._restore.clear()

    def _wrap(self, name, fn, count):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, self.request, stack[-1] if stack else -1, 0.0, 0.0, True, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                rec[RAISED] = False
            finally:
                rec[END] = perf_counter()
                stack.pop()
            if count is not None:
                rec[COUNT] = count(result)
            return result

        return wrapper

    def write(self, path) -> None:
        """Dump every span as one JSON line (gzip), times in microseconds."""
        t0 = self.spans[0][START] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[NAME], "request": s[REQUEST], "parent": s[PARENT],
                    "start_us": round((s[START] - t0) * 1e6, 3),
                    "end_us": round((s[END] - t0) * 1e6, 3),
                    "raised": s[RAISED], "count": s[COUNT],
                }) + "\n")


def summarize(spans: list[list]) -> dict:
    """Per-layer totals: calls, raised, work counts, total and self time.

    Self time is a span's duration minus the durations of its direct child
    spans; with one caller thread the children never overlap.
    """
    child = [0.0] * len(spans)
    for s in spans:
        if s[PARENT] >= 0:
            child[s[PARENT]] += s[END] - s[START]
    out: dict = defaultdict(lambda: {"calls": 0, "raised": 0, "count": 0,
                                     "total_ms": 0.0, "self_ms": 0.0})
    for i, s in enumerate(spans):
        layer = out[s[NAME]]
        dur = s[END] - s[START]
        layer["calls"] += 1
        layer["raised"] += s[RAISED]
        layer["count"] += s[COUNT] or 0
        layer["total_ms"] += dur * 1e3
        layer["self_ms"] += (dur - child[i]) * 1e3
    return out


def routes(spans: list[list]) -> dict:
    """Which route each sin_n/cos_n request took, as shares of those requests.

    A request counts toward ``newton`` if any of its spans entered
    ``newton_invert``, toward ``corner`` if the corner chart returned a value,
    toward ``slit_edge`` if the real edge solve ran.
    """
    roots = {}
    seen = defaultdict(set)
    for s in spans:
        if s[REQUEST] == 0:
            continue
        if s[PARENT] < 0:
            roots[s[REQUEST]] = s[NAME]
        if s[NAME] == "numerics.newton_invert":
            seen[s[REQUEST]].add("newton")
        elif s[NAME] == "squigfn.corner_chart" and s[COUNT]:
            seen[s[REQUEST]].add("corner")
        elif s[NAME] == "squigfn.slit_edge":
            seen[s[REQUEST]].add("slit_edge")
    evals = [r for r, name in roots.items() if name in ("squigfn.sin_n", "squigfn.cos_n")]
    shares = {}
    for route in ("newton", "corner", "slit_edge"):
        hits = sum(1 for r in evals if route in seen[r])
        shares[route] = hits / len(evals) if evals else 0.0
    return shares
