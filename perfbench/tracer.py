"""Layer tracing for the benchmark, done from outside the simulator.

Every boundary is a module or class attribute of fwdsim, so a span or a
counter is installed by swapping the attribute for a wrapper and restoring it
afterwards; no file of the simulator changes. Two kinds of instrumentation:

* ``SpanRecorder`` times the coarse boundaries (name, start, end, parent span,
  run id), keeping spans in flat arrays in memory until the run ends;
* ``CallCounter`` counts hot inner calls in a separate pass, so that their
  wrappers never inflate a timed span.

Span timestamps are wall clock (``time.perf_counter``).
"""

from __future__ import annotations

import gzip
import math
import time
from array import array
from contextlib import contextmanager
from functools import wraps

# Coarse boundaries timed as spans: (span name, owner path, attribute). The
# owner path is resolved against the imported fwdsim package.
SPAN_POINTS = (
    ("Simulation.__init__", "engine.Simulation", "__init__"),
    ("Simulation.run", "engine.Simulation", "run"),
    ("planner.compute_plan", "planner", "compute_plan"),
    ("planner.bottleneck_path", "planner", "bottleneck_path"),
    ("protocol.node_cycle", "protocol", "node_cycle"),
    ("engine.inject_interference", "engine", "inject_interference"),
    ("engine.sample_access_latency", "engine", "sample_access_latency"),
    ("netmodel.build_grid_topology", "netmodel", "build_grid_topology"),
    ("lifetime.max_epoch_duration", "engine", "max_epoch_duration"),
    ("scenario.sample_pieces", "engine", "sample_pieces"),
)


def _owner(fw, path: str):
    obj = fw
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


@contextmanager
def patched(fw, replacements):
    """Swap ``(owner path, attribute, wrapper factory)`` triples in, and
    restore the originals on exit, whatever happens inside."""
    saved = []
    try:
        for path, attr, factory in replacements:
            owner = _owner(fw, path)
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, factory(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class SpanRecorder:
    """Nested spans in flat arrays: name id, start, end, parent index (-1 at
    the top) and run id (-1 outside any simulation run)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.run = array("l")
        self._stack = [-1]
        self.run_id = -1

    def wrap(self, name: str, fn):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        clock = time.perf_counter

        @wraps(fn)
        def span(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(self._stack[-1])
            self.run.append(self.run_id)
            self.end.append(0.0)
            self._stack.append(idx)
            self.start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                self.end[idx] = clock()
                self._stack.pop()
        return span

    def install(self, fw):
        return patched(fw, [(path, attr, lambda fn, n=name: self.wrap(n, fn))
                            for name, path, attr in SPAN_POINTS])

    def __len__(self) -> int:
        return len(self.start)

    def durations(self) -> tuple[list[float], list[float]]:
        """(duration, self time) per span; self time is the duration minus
        the part covered by direct children (spans nest, single thread)."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        covered = [0.0] * len(dur)
        for i, p in enumerate(self.parent):
            if p >= 0:
                covered[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, covered)]

    def write(self, path, run_labels: list[str]) -> None:
        """Gzipped CSV, one span per line, times in microseconds from the
        first span's start."""
        t0 = self.start[0] if len(self) else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as out:
            out.write("id,name,start_us,end_us,parent,run\n")
            for i in range(len(self)):
                rid = self.run[i]
                out.write(f"{i},{self.names[self.name[i]]},"
                          f"{(self.start[i] - t0) * 1e6:.3f},"
                          f"{(self.end[i] - t0) * 1e6:.3f},{self.parent[i]},"
                          f"{run_labels[rid] if rid >= 0 else ''}\n")


class CallCounter:
    """Exact call counts of hot inner calls, plus protocol messages by type
    and how many ``node_cycle`` calls did any work."""

    def __init__(self) -> None:
        self.counts: dict[str, int] = {
            "planner.compute_plan": 0,
            "planner.out_neighbors": 0,
            "planner.lifetime_from_spend": 0,
            "netmodel.path_writes": 0,
            "netmodel.install_path": 0,
            "protocol.node_cycle": 0,
            "protocol.node_cycle.useful": 0,
            "protocol.messages": 0,
        }
        self.messages: dict[str, int] = {}

    def _counting(self, key: str):
        counts = self.counts

        def factory(fn):
            @wraps(fn)
            def counted(*args, **kwargs):
                counts[key] += 1
                return fn(*args, **kwargs)
            return counted
        return factory

    def _message_counter(self, fn):
        counts, messages = self.counts, self.messages

        @wraps(fn)
        def send_message(sim, src, dst, msg):
            counts["protocol.messages"] += 1
            kind = type(msg).__name__
            messages[kind] = messages.get(kind, 0) + 1
            return fn(sim, src, dst, msg)
        return send_message

    def _node_cycle_counter(self, fn):
        counts = self.counts

        @wraps(fn)
        def node_cycle(ctx, cycle):
            before = counts["protocol.messages"] + counts["netmodel.path_writes"]
            counts["protocol.node_cycle"] += 1
            try:
                return fn(ctx, cycle)
            finally:
                if counts["protocol.messages"] + counts["netmodel.path_writes"] > before:
                    counts["protocol.node_cycle.useful"] += 1
        return node_cycle

    def install(self, fw):
        return patched(fw, [
            ("planner", "compute_plan", self._counting("planner.compute_plan")),
            ("planner.PlannerView", "out_neighbors",
             self._counting("planner.out_neighbors")),
            ("planner", "lifetime_from_spend",
             self._counting("planner.lifetime_from_spend")),
            ("netmodel.PathTable", "set_row", self._counting("netmodel.path_writes")),
            ("netmodel.PathTable", "drop_row", self._counting("netmodel.path_writes")),
            ("netmodel", "install_path", self._counting("netmodel.install_path")),
            ("engine.Simulation", "send_message", self._message_counter),
            ("protocol", "node_cycle", self._node_cycle_counter),
        ])


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]; 0.0 for no values."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def tail_quantile(n: int) -> float:
    """Highest of p99.9, p99, p90 and p50 with at least ten samples beyond it."""
    for q in (0.999, 0.99, 0.9):
        if n * (1.0 - q) >= 10:
            return q
    return 0.5
