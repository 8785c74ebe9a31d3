"""Span recording inside the daemon and the span-to-self-time reduction.

A span is one call into a layer's public function: name, start, end,
the span that caused it, and the request id it served.  Spans are kept
in memory and written out as JSON lines, one file per process, when the
process is done (the daemon at shutdown; a pool worker after every job,
because pool workers are not shut down cleanly enough to rely on exit
hooks).

The reduction turns spans into per-layer numbers.  A layer's self time
is its span's duration minus the part of that interval its child spans
cover (the union of the children, clipped to the parent, so parallel
children are not double-counted).  Pool workers are separate processes:
their root spans (``engine.job``) are attached to the daemon's
``engine.run`` span whose interval contains them.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

Interval = Tuple[float, float]


class Recorder:
    """Collects finished spans of one process (fork-aware)."""

    def __init__(self, out_dir: Path) -> None:
        self.out_dir = Path(out_dir)
        self._ids = itertools.count(1)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self) -> None:
        # A forked pool worker inherits the parent's buffer and the
        # forking thread's open-span stack; neither belongs to it.
        self.pid = os.getpid()
        self.spans: List[list] = []
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_request_id(self, request_id: Optional[str]) -> None:
        """Tag every span that ends from now on in this thread."""
        self._local.rid = request_id

    def wrap(self, name: str, fn: Callable, on_exit=None) -> Callable:
        """``fn`` recording one span named ``name`` per call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            sid = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append([
                    self.pid, sid, parent, name, start, end,
                    getattr(self._local, "rid", None),
                ])
                if on_exit is not None:
                    on_exit()

        return traced

    def flush(self) -> None:
        """Append this process's finished spans to its own file."""
        spans, self.spans = self.spans, []
        if not spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a", encoding="utf-8") as out:
            for span in spans:
                out.write(json.dumps(span) + "\n")


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------
class Span:
    __slots__ = ("pid", "sid", "parent", "name", "start", "end", "rid",
                 "children")

    def __init__(self, pid, sid, parent, name, start, end, rid=None):
        self.pid, self.sid, self.parent = int(pid), int(sid), int(parent)
        self.name, self.start, self.end = str(name), float(start), float(end)
        self.rid = rid
        self.children: List["Span"] = []

    @property
    def duration(self) -> float:
        return self.end - self.start

    def self_time(self) -> float:
        """Duration minus the union of the children's clipped intervals."""
        return self.duration - covered(
            (max(c.start, self.start), min(c.end, self.end))
            for c in self.children
        )


def covered(intervals: Iterable[Interval]) -> float:
    """Total length of the union of ``intervals`` (empty ones ignored)."""
    total, reach = 0.0, float("-inf")
    for lo, hi in sorted(i for i in intervals if i[1] > i[0]):
        if hi <= reach:
            continue
        total += hi - max(lo, reach)
        reach = hi
    return total


def load_spans(trace_dir: Path) -> List[Span]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as lines:
            spans.extend(Span(*json.loads(line)) for line in lines if line.strip())
    return spans


def link(spans: Sequence[Span], daemon_pid: int,
         worker_root: str = "engine.job", run_name: str = "engine.run") -> List[Span]:
    """Build the span tree in place; returns the roots.

    In-process parents come from the recorder's span stack.  Worker
    roots are attached to the daemon ``run_name`` span containing them
    (the latest-starting one when runs overlap); one that no run
    contains stays a root.  Every span then inherits the request id of
    its nearest tagged ancestor.
    """
    by_key = {(s.pid, s.sid): s for s in spans}
    runs = sorted((s for s in spans if s.pid == daemon_pid and s.name == run_name),
                  key=lambda s: s.start)
    roots = []
    for span in spans:
        parent = by_key.get((span.pid, span.parent)) if span.parent else None
        if parent is None and span.pid != daemon_pid and span.name == worker_root:
            enclosing = [r for r in runs if r.start <= span.start and span.end <= r.end]
            parent = enclosing[-1] if enclosing else None
        if parent is None:
            roots.append(span)
        else:
            parent.children.append(span)
    stack = [(root, root.rid) for root in roots]
    while stack:
        node, inherited = stack.pop()
        if node.rid is None:
            node.rid = inherited
        stack.extend((child, node.rid) for child in node.children)
    return roots


def layer_totals(spans: Iterable[Span]) -> Dict[str, Dict[str, float]]:
    """Per span name: call count, summed duration and summed self time (s)."""
    totals: Dict[str, Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for span in spans:
        row = totals[span.name]
        row["calls"] += 1
        row["total_s"] += span.duration
        row["self_s"] += span.self_time()
    return dict(totals)
