"""Spans and counters recorded around the benchmark's calls into privdist.

A span covers one call from the benchmark into one layer (a module of
``src/privdist``).  Its name is ``<layer>.<step>``; the layer is the part
before the dot.  Each span also records its scope: the set-up or the
replication that made the call.  Spans stay in memory and are aggregated
when the run ends.  ``NULL`` has the same interface and records nothing, so
the untraced run pays only for an empty context manager per call.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager

from privdist.errors import PrivDistError


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, scope)
        self.counts = defaultdict(float)
        self.scope = None  # ("setup", i) or ("rep", r)

    @contextmanager
    def span(self, name: str):
        layer = name.split(".", 1)[0]
        self.counts[layer + ".calls"] += 1
        start = time.perf_counter()
        try:
            yield
        except PrivDistError:
            self.counts[layer + ".failed"] += 1
            raise
        finally:
            self.spans.append((name, start, time.perf_counter(), self.scope))

    def count(self, name: str, value=1):
        self.counts[name] += value

    def seconds(self, kind: str) -> dict:
        """Total span time per span name, over the scopes of one kind."""
        out = defaultdict(float)
        for name, start, end, scope in self.spans:
            if scope is not None and scope[0] == kind:
                out[name] += end - start
        return out


class _NullTracer:
    scope = None

    @contextmanager
    def span(self, name: str):
        yield

    def count(self, name: str, value=1):
        pass


NULL = _NullTracer()
