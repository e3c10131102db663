"""In-memory span recording for the traced run.

The benchmark wraps each call into a layer in a span named after that
layer (``pipeline.compile``, ``exec.build``, ``exec.traverse``, ...),
the same names the program's own tracer uses. Spans are kept in a list
and written out once, at exit, as JSON lines. With recording off,
:meth:`Recorder.span` costs one attribute test.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Optional


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: Optional[int]
    request: Optional[int]
    attrs: dict = field(default_factory=dict)
    child_seconds: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        """Duration minus the time covered by child spans (children
        nest sequentially inside their parent, so their sum is the
        covered part)."""
        return self.seconds - self.child_seconds


class Recorder:
    """Collects spans when ``enabled``; one open-span stack per thread."""

    def __init__(self, enabled: bool = False):
        self.enabled = enabled
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, request: Optional[int] = None, **attrs):
        if not self.enabled:
            yield None
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = parent.request
        record = Span(
            name=name,
            start=time.perf_counter(),
            end=0.0,
            span_id=next(self._ids),
            parent=parent.span_id if parent is not None else None,
            request=request,
            attrs=attrs,
        )
        stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.child_seconds += record.seconds
            self.spans.append(record)

    def write(self, path) -> None:
        with open(path, "w") as out:
            for span in self.spans:
                row = asdict(span)
                row.pop("child_seconds")
                row["self_seconds"] = span.self_seconds
                out.write(json.dumps(row, sort_keys=True) + "\n")
