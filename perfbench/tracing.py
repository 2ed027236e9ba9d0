"""In-memory spans around the benchmark's own calls into distbeam.

A span records its name, the layer it belongs to (the distbeam module whose
public function it wraps: ``cli``, ``experiments``, ``search``, ``channel`` or
``oracle``), start and end, the index of the span that was open when it
started, and the id of the study it belongs to. Spans are timed on the
process CPU clock (``time.process_time``): the benchmark is single-threaded,
and on a shared virtual machine the time the process waits for a CPU is
noise, not work. Nothing is written until :meth:`Tracer.write` is called at the end of a run.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

LAYERS = ("cli", "experiments", "search", "channel", "oracle")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int | None
    run: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans for a sequence of studies; ``run`` is the current study id."""

    def __init__(self):
        self.spans: list[Span] = []
        self.run = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        layer = name.split(".", 1)[0]
        if layer not in LAYERS:
            raise ValueError(f"span {name!r} names no distbeam layer")
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, layer, time.process_time(), 0.0, parent, self.run))
        self._open.append(index)
        try:
            yield
        finally:
            self.spans[index].end = time.process_time()
            self._open.pop()

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children.

        Spans are opened by one thread in call order, so children never
        overlap each other and always lie inside their parent.
        """
        selfs = [s.duration for s in self.spans]
        for s in self.spans:
            if s.parent is not None:
                selfs[s.parent] -= s.duration
        return selfs

    def write(self, path) -> None:
        """One JSON object per line, plus the derived self time."""
        with open(path, "w", encoding="utf-8") as fh:
            for s, self_s in zip(self.spans, self.self_times()):
                fh.write(json.dumps({**asdict(s), "self": self_s}) + "\n")
