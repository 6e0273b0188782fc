"""In-memory spans recorded around calls into paramcrop, from outside it.

The benchmark never edits the package.  It replaces a public name in the
module where the caller looks it up (``paramcrop.simulator.sample`` is the
``sample`` that ``simulator`` calls) with a wrapper that opens a span, calls
the original and closes the span.  :class:`Patcher` puts the originals back.

Each span has a name, start, end, parent span and step id.  A step is a span
named :data:`STEP`; every span opened while it is the innermost open span of
its thread carries its id.  Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from pathlib import Path

STEP = "step"

clock = time.perf_counter


@dataclass(frozen=True, slots=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int  # id of the enclosing span, -1 for none
    step: int  # id of the enclosing step, -1 outside any step
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Open:
    __slots__ = ("id", "name", "start", "parent", "step")

    def __init__(self, span_id: int, name: str, start: float, parent: int, step: int):
        self.id = span_id
        self.name = name
        self.start = start
        self.parent = parent
        self.step = step


class Tracer:
    """Records spans and counts per thread; safe to share between threads."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._step_ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[Counter] = []
        # Parent for spans opened on a thread with nothing open, such as the
        # pool threads of a multi-run command: the outermost span of the
        # thread that started them.
        self._root = -1

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, step: bool = False) -> _Open:
        stack = self._stack()
        if stack:
            parent, step_id = stack[-1].id, stack[-1].step
        else:
            parent, step_id = self._root, -1
        span_id = next(self._ids)
        if step:
            step_id = next(self._step_ids)
        rec = _Open(span_id, name, clock(), parent, step_id)
        stack.append(rec)
        if parent == -1:
            self._root = span_id
        return rec

    def close(self, rec: _Open) -> None:
        """Close *rec* and any span still open inside it, such as a step."""
        end = clock()
        stack = self._stack()
        thread = threading.get_ident()
        while stack:
            top = stack.pop()
            self.spans.append(
                Span(top.id, top.name, top.start, end, top.parent, top.step, thread)
            )
            if top is rec:
                break
        if rec.id == self._root:
            self._root = -1

    def add(self, name: str, start: float, end: float) -> None:
        """Record a closed span inside the thread's innermost open span."""
        stack = self._stack()
        parent, step_id = (stack[-1].id, stack[-1].step) if stack else (self._root, -1)
        self.spans.append(
            Span(next(self._ids), name, start, end, parent, step_id, threading.get_ident())
        )

    @contextlib.contextmanager
    def span(self, name: str):
        """Context manager form of :meth:`open` / :meth:`close`."""
        rec = self.open(name)
        try:
            yield
        finally:
            self.close(rec)

    def step_boundary(self) -> None:
        """End the thread's open step, if any, and start the next one."""
        stack = self._stack()
        if stack and stack[-1].name == STEP:
            self.close(stack[-1])
        self.open(STEP, step=True)

    def wrap(self, name: str, fn, step: bool = False):
        """*fn* with a span named *name* around each call."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = self.open(name, step=step)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(rec)

        return traced

    def count(self, key: str, amount: float) -> None:
        """Add to a per-thread counter; :meth:`counts` sums the threads."""
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._lock:
                self._counters.append(counter)
        counter[key] += amount

    def counts(self) -> Counter:
        total: Counter = Counter()
        with self._lock:
            for counter in self._counters:
                total.update(counter)
        return total

    def dump(self, path: Path) -> None:
        """Write every closed span as one JSON list per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            fh.write('["id","name","start","end","parent","step","thread"]\n')
            for s in self.spans:
                fh.write(
                    json.dumps([s.id, s.name, s.start, s.end, s.parent, s.step, s.thread])
                    + "\n"
                )


class Patcher:
    """Replaces module attributes or dict entries, and restores them."""

    def __init__(self) -> None:
        self._saved: list[tuple[object, str, object]] = []

    def patch(self, container, key: str, make) -> None:
        """Replace ``container.key`` (or ``container[key]``) by ``make(original)``."""
        if isinstance(container, dict):
            original = container[key]
            container[key] = make(original)
        else:
            original = getattr(container, key)
            setattr(container, key, make(original))
        self._saved.append((container, key, original))

    def restore(self) -> None:
        for container, key, original in reversed(self._saved):
            if isinstance(container, dict):
                container[key] = original
            else:
                setattr(container, key, original)
        self._saved.clear()


def covered_time(parent: Span, children) -> float:
    """Length of the union of *children*'s intervals, clipped to *parent*."""
    intervals = sorted(
        (max(c.start, parent.start), min(c.end, parent.end)) for c in children
    )
    total, lo, hi = 0.0, None, None
    for start, end in intervals:
        if end <= start:
            continue
        if hi is None or start > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = start, end
        else:
            hi = max(hi, end)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover."""
    children: dict[int, list[Span]] = defaultdict(list)
    for s in spans:
        if s.parent >= 0:
            children[s.parent].append(s)
    return {s.id: s.duration - covered_time(s, children.get(s.id, ())) for s in spans}
