"""Spans around the calls `ridgekit.pipeline` makes into each module.

`traced_pipeline` rebinds, for the duration of a `with` block, every
function `ridgekit.pipeline` calls by a module-level name: the `enh.*`
functions and the names it imports from `image`, `binary`, `minutiae` and
`evaluate`, plus its own `extract_from_image`, `run_eval` and `run_extract`.
The program then runs as is and each call records a span. Nothing under
`src/` changes.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

import ridgekit.pipeline as pipeline

LAYERS = ("image", "enhance", "binary", "minutiae", "evaluate", "pipeline")


@dataclass
class Span:
    name: str  # "<module>.<function>", e.g. "enhance.estimate_frequency"
    parent: int | None  # index into Tracer.spans
    image_id: str
    start_ns: int
    end_ns: int = 0
    counts: dict | None = None  # what `count` read from the return value

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


def _image_id(args) -> str:
    """Image id from a call's arguments: an `image_id` attribute (minutiae
    sets, match results), the stem of an image or minutiae file, or the
    string id that extract_from_image and extract_minutiae take second."""
    for a in args:
        if hasattr(a, "image_id"):
            return a.image_id
        if isinstance(a, (str, Path)) and str(a).endswith((".pgm", ".txt")):
            return Path(a).stem
    if len(args) > 1 and isinstance(args[1], str):
        return args[1]
    return ""


class Tracer:
    """Spans kept in memory in call order; `write` saves them at the end.

    `count(name, result)` turns a call's return value into a few numbers
    (or None); it runs after the span ends, inside the caller's span."""

    def __init__(self, count):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._count = count

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            image_id = _image_id(args)
            if not image_id and parent is not None:
                image_id = self.spans[parent].image_id
            span = Span(name, parent, image_id, 0)
            self._stack.append(len(self.spans))
            self.spans.append(span)
            span.start_ns = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            span.counts = self._count(name, result)
            return result
        return traced

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children.

        Raises if a child leaves its parent's interval or overlaps a sibling,
        since self times would then not add up to the parent's span."""
        own = [s.ns for s in self.spans]
        last_end: dict[int, int] = {}
        for s in self.spans:
            if s.parent is None:
                continue
            p = self.spans[s.parent]
            if not (p.start_ns <= s.start_ns <= s.end_ns <= p.end_ns
                    and s.start_ns >= last_end.get(s.parent, p.start_ns)):
                raise ValueError(f"span {s.name} is not nested in {p.name}")
            last_end[s.parent] = s.end_ns
            own[s.parent] -= s.ns
        return own

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for s in self.spans:
                f.write(json.dumps({
                    "name": s.name, "start_ns": s.start_ns, "end_ns": s.end_ns,
                    "parent": s.parent, "image_id": s.image_id, "counts": s.counts,
                }) + "\n")


class _ModuleProxy:
    """Stands in for a module; its public functions come back traced."""

    def __init__(self, module, tracer: Tracer):
        self._module = module
        self._tracer = tracer
        self._wrapped: dict[str, object] = {}

    def __getattr__(self, attr):
        obj = getattr(self._module, attr)
        if not inspect.isfunction(obj) or attr.startswith("_"):
            return obj
        if attr not in self._wrapped:
            layer = self._module.__name__.rsplit(".", 1)[1]
            self._wrapped[attr] = self._tracer.wrap(f"{layer}.{attr}", obj)
        return self._wrapped[attr]


@contextmanager
def traced_pipeline(tracer: Tracer):
    """Trace every module-level call `ridgekit.pipeline` makes into the
    layer modules, and its own public entry points."""
    names = vars(pipeline)
    originals = {}
    for attr, obj in list(names.items()):
        if attr.startswith("_"):
            continue
        if inspect.ismodule(obj) and obj.__name__.startswith("ridgekit."):
            originals[attr] = obj
            setattr(pipeline, attr, _ModuleProxy(obj, tracer))
        elif inspect.isfunction(obj) and obj.__module__.startswith("ridgekit."):
            layer = obj.__module__.rsplit(".", 1)[1]
            if layer in LAYERS:
                originals[attr] = obj
                setattr(pipeline, attr, tracer.wrap(f"{layer}.{obj.__name__}", obj))
    try:
        yield pipeline
    finally:
        for attr, obj in originals.items():
            setattr(pipeline, attr, obj)
