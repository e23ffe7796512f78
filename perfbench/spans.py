"""In-memory spans and counts recorded around the benchmark's calls into asyncopt.

A span covers one call the benchmark makes into a public function of one
library layer (or one benchmark stage, whose layer is ``bench``).  Spans are
kept in memory and written out once, when the run ends.  With tracing off
every method returns at once, so the untraced run pays only for a few
attribute lookups per call.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager

LAYERS = ("data", "objectives", "serial", "engine", "hypergraph", "sim")


class Tracer:
    def __init__(self, run_id: str, enabled: bool):
        self.run_id = run_id
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    @contextmanager
    def span(self, layer: str, name: str):
        if not self.enabled:
            yield
            return
        rec = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "run": self.run_id,
            "layer": layer,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def count(self, name: str, k: int = 1):
        if self.enabled:
            self.counts[name] += int(k)

    def self_times(self) -> dict:
        """Seconds per layer: each span's duration minus its children's."""
        child = Counter()
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out = {layer: 0.0 for layer in LAYERS}
        for s in self.spans:
            if s["layer"] in out:
                out[s["layer"]] += s["end"] - s["start"] - child[s["id"]]
        return out

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"run": self.run_id, "counts": dict(self.counts),
                       "spans": self.spans}, fh)


def timed(tracer: Tracer, layer: str, name: str, fn, *args, **kwargs):
    """Call fn inside a span; returns (result, wall seconds of the call)."""
    with tracer.span(layer, name):
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        dt = time.perf_counter() - t0
    return out, dt
