"""In-memory spans recorded by benchmark code around its calls into flagsub.

A span has a name, a start and end time, the index of the span that
caused it (-1 for a root) and the id of the item it belongs to.  Spans
whose input is a complex or a subdivision map also carry ``faces_in``,
the number of faces of that input (total faces for a map), summed over
the inputs of the call.  Counters that are not tied to one call, such
as bytes written, are kept by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    parent: int
    item: object
    faces_in: int | None
    start: float = 0.0
    end: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self.tracer = tracer
        self.span = span

    def __enter__(self):
        self.span.start = perf_counter()

    def __exit__(self, *exc):
        self.span.end = perf_counter()
        self.tracer._stack.pop()


class Tracer:
    """Collects spans of one single-threaded run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {}
        self.item: object = None
        self._stack: list[int] = []

    def span(self, name: str, faces_in: int | None = None) -> _Open:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        s = Span(name, parent, self.item, faces_in)
        self.spans.append(s)
        return _Open(self, s)

    def call(self, name: str, faces_in: int | None, fn, *args, **kwargs):
        with self.span(name, faces_in):
            return fn(*args, **kwargs)

    def count(self, name: str, n: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def to_json(self) -> list[list]:
        return [
            [s.name, s.start, s.end, s.parent, s.item, s.faces_in]
            for s in self.spans
        ]


@dataclass
class Layer:
    calls: int = 0
    busy_s: float = 0.0
    self_s: float = 0.0
    faces_in: int = 0


def aggregate(spans: list[Span]) -> tuple[dict[str, Layer], float, float]:
    """Per-name totals, the summed root-span wall time, and the summed
    duration of leaf spans.

    ``busy_s`` counts each call's whole duration; ``self_s`` subtracts
    the time covered by its child spans.  Calls of one name never nest,
    so the busy time of a name is never counted twice.
    """
    child_time = [0.0] * len(spans)
    has_child = [False] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
            has_child[s.parent] = True
    layers: dict[str, Layer] = {}
    wall = leaf = 0.0
    for i, s in enumerate(spans):
        d = s.duration
        layer = layers.setdefault(s.name, Layer())
        layer.calls += 1
        layer.busy_s += d
        layer.self_s += d - child_time[i]
        layer.faces_in += s.faces_in or 0
        if s.parent < 0:
            wall += d
        if not has_child[i]:
            leaf += d
    return layers, wall, leaf
