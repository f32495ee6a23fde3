"""Spans recorded from the benchmark side of each call into granupore.

An operation-level call (``stability.classify``, ``simulate.run_box``, a CLI
subcommand) opens a span with a name, start, end, parent and operation id.
Calls made *through* the duck-typed proxies below (model methods and
forcing signals) happen up to a million times per workload, so they are
folded into their enclosing span as per-name call counts and total
durations: the self time of the parent is then its duration minus the sum
of those child totals, which is exact because every call is sequential.

Nothing here changes the package's modules; the proxies are objects the
benchmark passes in itself.
"""

from __future__ import annotations

import time
from collections import defaultdict

from granupore import Forcing

_clock = time.perf_counter


class Tracer:
    """In-memory span store, written out once when the run ends."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        #: Set when a proxy no longer fits the object it wraps; the metrics
        #: derived from proxied calls are then reported as not measured.
        self.untraceable = False

    def begin(self, name: str, op: str) -> dict:
        span = {
            "id": len(self.spans),
            "name": name,
            "op": op,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": _clock(),
            "end": None,
            "children": defaultdict(lambda: [0, 0.0]),
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: dict) -> None:
        span["end"] = _clock()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")

    def child(self, name: str, seconds: float) -> None:
        """Fold one proxied call into the innermost open span."""
        if self._stack:
            entry = self._stack[-1]["children"][name]
            entry[0] += 1
            entry[1] += seconds

    def totals(self, span_name: str, op_filter=None) -> tuple[float, dict]:
        """Summed duration of all spans called ``span_name`` (optionally only
        those whose op id passes ``op_filter``) and their child totals."""
        wall = 0.0
        children: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for span in self.spans:
            if span["name"] != span_name or (op_filter and not op_filter(span["op"])):
                continue
            wall += span["end"] - span["start"]
            for name, (count, secs) in span["children"].items():
                children[name][0] += count
                children[name][1] += secs
        return wall, children

    def dump(self) -> dict:
        """JSON-ready spans plus per-layer self times."""
        spans, self_time = [], defaultdict(float)
        for span in self.spans:
            duration = span["end"] - span["start"]
            child_secs = sum(s for _, s in span["children"].values())
            self_time[span["name"].split(".")[0]] += duration - child_secs
            for name, (_, secs) in span["children"].items():
                self_time[name.split(".")[0]] += secs
            spans.append({
                "id": span["id"],
                "name": span["name"],
                "op": span["op"],
                "parent": span["parent"],
                "start": span["start"],
                "end": span["end"],
                "children": {k: {"calls": c, "seconds": s} for k, (c, s) in span["children"].items()},
            })
        return {"spans": spans, "self_seconds_by_layer": dict(self_time)}


def _timed(fn, tracer: Tracer, name: str):
    def call(*args, **kwargs):
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.child(name, _clock() - t0)

    return call


class TracedModel:
    """Forwards every attribute to ``model``; times the four methods the
    sweep and the box call from outside."""

    TIMED = ("yield_function", "dilatancy", "i_eq", "phi_eq")

    def __init__(self, model, tracer: Tracer) -> None:
        self._model = model
        for method in self.TIMED:
            setattr(self, method, _timed(getattr(model, method), tracer, f"rheology.{method}"))

    def __getattr__(self, name):
        return getattr(self._model, name)


def traced_forcing(forcing, tracer: Tracer):
    """A ``Forcing`` rebuilt from the public one with timed ``shear(t)`` and
    ``p(t)``.  Raises when the object no longer has that shape; the caller
    then reruns the operation untraced."""
    return Forcing(
        shear=_timed(forcing.shear, tracer, "simulate.forcing_shear"),
        p=_timed(forcing.p, tracer, "simulate.forcing_p"),
    )
