"""In-memory spans around the benchmark's calls into the library's layers.

The benchmark calls every layer through ``call(name, fn, *args)``.  A
:class:`Tracer` records one :class:`Span` per call; :class:`NoTracer` calls
straight through, so traced and untraced passes run the same code.  Spans
are kept in memory and written out once, when the benchmark ends.
"""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass
from typing import Optional


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: Optional[int]
    run_id: str
    #: "prepare", "check", or "pass<N>" for the N-th traced pass
    phase: str
    #: UTF-8 size of the text the call read or wrote
    nbytes: int
    #: exception class name when the call raised
    error: Optional[str]

    @property
    def duration(self) -> float:
        return self.end - self.start


def _text_bytes(values) -> int:
    return sum(len(v.encode("utf-8")) for v in values if isinstance(v, str))


class NoTracer:
    phase = ""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.phase = "prepare"
        self.spans: list = []
        self._stack: list = []
        self._next_id = 0

    def call(self, name, fn, *args, **kwargs):
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        result = error = None
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        except Exception as e:
            error = type(e).__name__
            raise
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append(Span(span_id, name, start, end, parent, self.run_id,
                                   self.phase, _text_bytes(args + (result,)), error))

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(asdict(span)) + "\n")


class TracedLinks:
    """Stands in for a ``LinkRegistry`` as ``map_document``'s ``links``.

    Every ``resolve`` call becomes a ``links.resolve`` span, a child of
    the ``mapper.map_document`` span that is open at the time.
    """

    def __init__(self, registry, tracer):
        self._registry = registry
        self._tracer = tracer

    def resolve(self, curie: str):
        return self._tracer.call("links.resolve", self._registry.resolve, curie)


def self_time(spans, span_ids) -> float:
    """Summed duration of ``span_ids`` minus the time their direct children took."""
    children = sum(s.duration for s in spans if s.parent in span_ids)
    return sum(s.duration for s in spans if s.id in span_ids) - children
