"""In-memory spans around calls into the program's modules.

The benchmark never edits the program.  It replaces, for the length of a
measurement, the module attributes through which one layer calls another
(``jchsim.runner.mcwf_ensemble``, ``jchsim.critical.lindblad_evolve``, ...)
with a wrapper defined here that records a span and calls the original.
Spans stay in memory; ``self_times`` turns them into per-layer self times
once the measurement is over.
"""
from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str          # what was called, e.g. "observables.negativity"
    layer: str         # the layer it is charged to
    start: float
    end: float = 0.0
    parent: int = -1   # index of the enclosing span, -1 for a root
    child_time: float = 0.0


class Tracer:
    """Records spans; nested spans are charged to their own layer only."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._installed: list[tuple] = []

    @contextmanager
    def span(self, name: str, layer: str):
        record = Span(name=name, layer=layer, start=time.perf_counter(),
                      parent=self._stack[-1] if self._stack else -1)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self._stack.pop()
            record.end = time.perf_counter()
            if record.parent >= 0:
                self.spans[record.parent].child_time += record.end - record.start

    def install(self, targets) -> None:
        """Wrap each (owner, attribute, span name, layer) until ``uninstall``."""
        for owner, attr, name, layer in targets:
            original = getattr(owner, attr)
            setattr(owner, attr, self._wrap(original, name, layer))
            self._installed.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str, layer: str):
        def traced(*args, **kwargs):
            with self.span(name, layer):
                return fn(*args, **kwargs)
        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict:
        """Layer -> summed self time (span minus its direct children)."""
        out: dict = defaultdict(float)
        for record in self.spans:
            out[record.layer] += (record.end - record.start) - record.child_time
        return dict(out)

    def count(self, name: str) -> int:
        return sum(1 for r in self.spans if r.name == name)
