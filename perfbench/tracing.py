"""Outside-in layer tracing: spans around calls into the program's seams.

Nothing here reaches inside ``src/``.  Every span is recorded by a
wrapper that sits on a public injection point of the program:

* :class:`TracedGrouping` is passed as ``Simulator(grouping=...)``;
* :class:`TracedBackend` is passed as ``Simulator(backend=...)``;
* :func:`timed_iter` wraps a session iterator (the generator, the feed);
* :class:`EpochTimer` and :class:`TimedSink` are service subscribers.

A span is ``(name, start, end, parent)``.  Spans are kept in memory in
flat typed columns (the month's generator alone records one span per
session) and summarised when the run ends.  A layer's number is its
*self* time: a span's duration minus the part of its interval that its
child spans cover.  Coverage is the share of the traced wall that named
spans account for; spans named :data:`EXCLUDED` (the benchmark's own
measuring work, such as pickling blocks to size them) are taken out of
the traced wall instead of being attributed to a layer.
"""

from __future__ import annotations

import pickle
import time
from array import array
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.sim.backends import ExecutionBackend
from repro.sim.grouping import GroupingStrategy

now = time.perf_counter

#: The root span of one traced pass.
ROOT = "pass"

#: Benchmark-side measuring work: removed from the traced wall.
EXCLUDED = "trace.excluded"


class SpanLog:
    """Spans in parallel columns; parents come from a stack of open spans."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_ids = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self._stack: List[int] = []

    def __len__(self) -> int:
        return len(self.starts)

    def current(self) -> int:
        """Index of the innermost open span, or -1 when none is open."""
        return self._stack[-1] if self._stack else -1

    def add(
        self, name: str, start: float, end: float, parent: Optional[int] = None
    ) -> int:
        """Record a finished span (parent: the innermost open span)."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        self.name_ids.append(name_id)
        self.starts.append(start)
        self.ends.append(end)
        self.parents.append(self.current() if parent is None else parent)
        return len(self.starts) - 1

    def open(self, name: str, start: Optional[float] = None) -> int:
        """Start a span that later spans nest under until :meth:`close`."""
        start = now() if start is None else start
        index = self.add(name, start, start)
        self._stack.append(index)
        return index

    def close(self, index: int, end: Optional[float] = None) -> None:
        """End the innermost open span, which must be ``index``."""
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(f"span {index} closed out of order")
        self._stack.pop()
        self.ends[index] = now() if end is None else end

    @contextmanager
    def span(self, name: str) -> Iterator[int]:
        """Record the body of a ``with`` block as one span."""
        index = self.open(name)
        try:
            yield index
        finally:
            self.close(index)

    def of(self, name: str) -> List[int]:
        """Indices of the spans called ``name``."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            return []
        return [i for i, n in enumerate(self.name_ids) if n == name_id]


def covered_length(
    intervals: Iterable[Tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start = max(start, reach)
        end = min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(log: SpanLog) -> List[float]:
    """Each span's duration minus the part of it its children cover."""
    children: Dict[int, List[Tuple[float, float]]] = {}
    starts, ends = log.starts, log.ends
    for index, parent in enumerate(log.parents):
        if parent >= 0:
            children.setdefault(parent, []).append((starts[index], ends[index]))
    result = []
    for index in range(len(log)):
        lo, hi = starts[index], ends[index]
        inner = children.get(index)
        covered = covered_length(inner, lo, hi) if inner else 0.0
        result.append((hi - lo) - covered)
    return result


def layer_totals(log: SpanLog) -> Dict[str, float]:
    """Summed self time per span name."""
    return {name: own for name, (_, _, own) in summary(log).items()}


def summary(log: SpanLog) -> Dict[str, List]:
    """Per span name: ``[count, total seconds, self seconds]``.

    This is the form in which a traced run writes its spans out.
    """
    table: Dict[str, List] = {}
    names, starts, ends = log.names, log.starts, log.ends
    for index, own in enumerate(self_times(log)):
        row = table.setdefault(names[log.name_ids[index]], [0, 0.0, 0.0])
        row[0] += 1
        row[1] += ends[index] - starts[index]
        row[2] += own
    return table


def traced_wall(log: SpanLog) -> float:
    """Total duration of the root spans, less the excluded spans' time."""
    root = sum(log.ends[i] - log.starts[i] for i in log.of(ROOT))
    excluded = sum(log.ends[i] - log.starts[i] for i in log.of(EXCLUDED))
    return root - excluded


def coverage(log: SpanLog) -> float:
    """Share of the traced wall covered by named (non-root) spans."""
    wall = traced_wall(log)
    if wall <= 0.0:
        return 0.0
    unattributed = layer_totals(log).get(ROOT, 0.0)
    return (wall - unattributed) / wall


def timed_iter(iterable: Iterable, log: SpanLog, name: str) -> Iterator:
    """Yield from ``iterable``, recording each ``next()`` as a span."""
    iterator = iter(iterable)
    add = log.add
    while True:
        start = now()
        try:
            item = next(iterator)
        except StopIteration:
            add(name, start, now())
            return
        add(name, start, now())
        yield item


class TracedGrouping(GroupingStrategy):
    """A grouping strategy that records ``grouping.plan`` spans.

    The plan span covers the whole ``plan()`` call.  Its child
    ``grouping.merge`` starts when the session stream is exhausted, so
    the plan span's self time is the ingest (sort and spill) and the
    merge span's is what follows (merge and shard write).  On a cache
    hit the stream is never read and neither child appears.
    """

    def __init__(self, inner: GroupingStrategy, log: SpanLog) -> None:
        self.inner = inner
        self.log = log
        self.name = inner.name
        self.supports_cache = inner.supports_cache
        #: ``GroupingStats`` of every plan built, in call order.
        self.stats: List = []

    def plan(self, sessions, horizon, policy, cache_token=None):
        log = self.log
        exhausted: List[float] = []

        def watched():
            yield from sessions
            exhausted.append(now())

        span = log.open("grouping.plan")
        try:
            plan = self.inner.plan(watched(), horizon, policy, cache_token=cache_token)
        finally:
            end = now()
            if exhausted:
                log.add("grouping.merge", exhausted[0], end)
            log.close(span, end)
        self.stats.append(plan.stats())
        return plan


class TracedBackend(ExecutionBackend):
    """A backend that times each block from the consumer's side.

    The time inside each ``next()`` on the inner block stream is the
    ``kernel`` span (the benchmark's backends run the kernel inline).
    The gap between a yield and the consumer's next ``next()`` is the
    fold, ``reduce.fold``.  Every block is also pickled to size it
    (``ship_bytes``, what a parallel backend would ship); that work is
    an :data:`EXCLUDED` span.
    """

    def __init__(self, inner: ExecutionBackend, log: SpanLog) -> None:
        self.inner = inner
        self.log = log
        self.name = inner.name
        self.blocks = 0
        self.tasks = 0
        self.ship_bytes = 0
        #: When the most recent block stream ran out.
        self.exhausted_at = 0.0

    def map_swarms(self, tasks, config):
        return self.inner.map_swarms(tasks, config)

    def map_swarms_multi(self, tasks, configs):
        return self.inner.map_swarms_multi(tasks, configs)

    def iter_outputs(self, tasks, config):
        return self._blocks(self.inner.iter_outputs(tasks, config))

    def iter_outputs_multi(self, tasks, configs):
        return self._blocks(self.inner.iter_outputs_multi(tasks, configs))

    def _blocks(self, blocks: Iterable) -> Iterator:
        log = self.log
        iterator = iter(blocks)
        while True:
            start = now()
            try:
                block = next(iterator)
            except StopIteration:
                self.exhausted_at = now()
                log.add("kernel", start, self.exhausted_at)
                return
            ready = now()
            log.add("kernel", start, ready)
            self.blocks += 1
            self.tasks += len(block[1])
            self.ship_bytes += len(pickle.dumps(block, pickle.HIGHEST_PROTOCOL))
            sized = now()
            log.add(EXCLUDED, ready, sized)
            yield block
            log.add("reduce.fold", sized, now())


class EpochTimer:
    """Service subscriber placed first: marks where an epoch's simulation ends.

    Records ``reduce.result`` from the backend's last block to this call
    (the epoch delta's result build), and sums the size of the checkpoint
    on disk, which at this point is the previous epoch's.
    """

    def __init__(self, log: SpanLog, backend: TracedBackend, checkpoint) -> None:
        self.log = log
        self.backend = backend
        self.checkpoint = checkpoint
        self.checkpoint_bytes = 0

    def __call__(self, event) -> None:
        self.log.add("reduce.result", self.backend.exhausted_at, now())
        if self.checkpoint.exists():
            self.checkpoint_bytes += self.checkpoint.stat().st_size


class TimedSink:
    """Wraps the durable sink subscriber in a ``service.sink`` span."""

    def __init__(self, sink, log: SpanLog) -> None:
        self.sink = sink
        self.log = log
        self.calls = 0

    def __call__(self, event) -> None:
        start = now()
        self.sink(event)
        self.log.add("service.sink", start, now())
        self.calls += 1


def add_checkpoint_spans(log: SpanLog, first: int = 0) -> List[float]:
    """Derive ``service.checkpoint`` spans; return each epoch close's duration.

    An epoch close runs ``grouping.plan`` ... subscribers, then writes
    its checkpoint.  The checkpoint therefore runs from the end of the
    sink span to the next close's plan start under the same parent, or
    to the end of that parent (the ingest or flush that closed it).
    Only spans recorded from index ``first`` on are considered.
    """
    plans = [
        (log.starts[i], log.parents[i]) for i in log.of("grouping.plan") if i >= first
    ]
    closes = []
    for sink in (i for i in log.of("service.sink") if i >= first):
        parent = log.parents[sink]
        begin = log.ends[sink]
        following = [s for s, p in plans if p == parent and s >= begin]
        end = min(following) if following else log.ends[parent]
        log.add("service.checkpoint", begin, end, parent=parent)
        opened = max(s for s, p in plans if p == parent and s <= begin)
        closes.append(end - opened)
    return closes
