"""Call ledger and span recorder shared by the workloads and the layer sweep.

Every call the benchmark makes into crgx goes through `Probe.call`, which
times it, counts it as attempted, and counts it as failed if it raises.
Output checks go through `Probe.check`. With tracing on, each call also
becomes a span (name, start, end, parent) kept in memory; `self_seconds`
derives self time from them and `write` saves them when the run ends.
"""

from __future__ import annotations

import json
import time
import traceback
from pathlib import Path


class Probe:
    def __init__(self, trace: bool):
        self.trace = trace
        self.spans: list[list] = []      # [name, start, end, parent index or -1]
        self._open: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run one call; return (result, seconds). A raised exception is
        recorded as a failure and gives result None."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:
            result = None
            self.failed += 1
            self.errors.append(f"{name} raised:\n{traceback.format_exc()}")
        end = time.perf_counter()
        if self.trace:
            self.spans.append([name, start, end, self._open[-1] if self._open else -1])
        return result, end - start

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.errors.append(f"check failed: {what}")
        return ok

    def span(self, name: str):
        """Group the calls made inside a `with` block under one span."""
        return _Group(self, name)

    def self_seconds(self, first: int = 0, last: int | None = None) -> dict[str, float]:
        """Self time per module (the span name up to its first dot) over
        spans[first:last]: each span's duration minus its children's."""
        spans = self.spans[first:last]
        child = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= first and parent - first < len(spans):
                child[parent - first] += end - start
        totals: dict[str, float] = {}
        for (name, start, end, _), inner in zip(spans, child):
            module = name.split(".", 1)[0]
            totals[module] = totals.get(module, 0.0) + (end - start) - inner
        return totals

    def write(self, path: Path, extra: dict) -> None:
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [{"name": name, "start_s": start - origin, "end_s": end - origin,
                 "parent": parent} for name, start, end, parent in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(dict(extra, spans=rows), indent=1) + "\n")


class _Group:
    def __init__(self, probe: Probe, name: str):
        self.probe = probe
        self.name = name

    def __enter__(self):
        probe = self.probe
        if probe.trace:
            parent = probe._open[-1] if probe._open else -1
            probe._open.append(len(probe.spans))
            probe.spans.append([self.name, time.perf_counter(), None, parent])
        return self

    def __exit__(self, *exc):
        probe = self.probe
        if probe.trace:
            probe.spans[probe._open.pop()][2] = time.perf_counter()
        return False
