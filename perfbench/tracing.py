"""In-memory spans and counters recorded from outside the program.

The tracer replaces bindings (module attributes, class attributes, entries of
a tuple) with wrappers that time each call, and puts every original back in
``restore``. Wrappers only record while an op is open (``begin_op`` ..
``end_op``), so the benchmark's own checks run through them untraced.

Two kinds of wrapper:

* ``span``: one record per call — (idx, name, start, end, parent, op,
  thread, work) — where parent is the innermost open span of the calling
  thread, or, for a thread with no open span (a pool worker), the innermost
  open span of the thread that opened the op.
* ``leaf``: calls too frequent to record one by one (atom densities, the
  assignment solver) are summed per (parent, name, thread, nested) into
  [calls, seconds, work]. ``nested`` marks a leaf called inside another leaf
  (a Gaussian part inside a mixture atom), whose time is already inside the
  outer leaf and so must not count again toward the parent's children.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import NamedTuple

_LEAF = object()


class Span(NamedTuple):
    idx: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    thread: int
    work: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.leaves: dict[tuple, list] = {}
        self.counters: dict[str, int] = defaultdict(int)
        self._counter_lock = threading.Lock()
        self._ids = itertools.count()
        self._stacks: dict[int, list] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._root_thread: int | None = None
        self.op: int | None = None
        self.enabled = False

    # -- ops and counters ----------------------------------------------------

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._root_thread = threading.get_ident()
        self.enabled = True

    def end_op(self) -> None:
        self.enabled = False
        self.op = None

    def count(self, name: str, n: int) -> None:
        with self._counter_lock:
            self.counters[name] += n

    # -- wrappers ------------------------------------------------------------

    def _stack(self) -> tuple[int, list]:
        tid = threading.get_ident()
        stack = self._stacks.get(tid)
        if stack is None:
            stack = self._stacks.setdefault(tid, [])
        return tid, stack

    def _parent(self, tid: int, stack: list) -> int | None:
        for entry in reversed(stack):
            if entry is not _LEAF:
                return entry
        if tid != self._root_thread:
            for entry in reversed(self._stacks.get(self._root_thread, [])):
                if entry is not _LEAF:
                    return entry
        return None

    def span(self, fn, name, work=None, rename=None):
        """Wrap fn so each traced call records one span.

        ``work(args, kwargs, result)`` gives the span's work count and
        ``rename(result)`` its final name; both run after the clock stops.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tid, stack = tracer._stack()
            parent = tracer._parent(tid, stack)
            idx = next(tracer._ids)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(idx, name, start, end, parent, tracer.op, tid, 0))
                raise
            end = time.perf_counter()
            stack.pop()
            tracer.spans.append(
                Span(
                    idx,
                    rename(result) if rename else name,
                    start,
                    end,
                    parent,
                    tracer.op,
                    tid,
                    work(args, kwargs, result) if work else 0,
                )
            )
            return result

        return wrapper

    def leaf(self, fn, name, work=None):
        """Wrap fn so traced calls are summed per (parent, name, thread)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            tid, stack = tracer._stack()
            nested = bool(stack) and stack[-1] is _LEAF
            key = (tracer._parent(tid, stack), name, tid, nested)
            stack.append(_LEAF)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                acc = tracer.leaves.get(key)
                if acc is None:
                    acc = tracer.leaves[key] = [0, 0.0, 0]
                acc[0] += 1
                acc[1] += elapsed
                acc[2] += work(args, kwargs) if work else 0

        return wrapper

    # -- installing and restoring --------------------------------------------

    def patch(self, owner, attr: str, new) -> None:
        """setattr(owner, attr, new), remembering the original for restore."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def restore(self) -> None:
        """Put back every patched binding, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- output ---------------------------------------------------------------

    def write_jsonl(self, path) -> None:
        """Write spans, leaf sums and counters, one JSON object per line."""
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps(s._asdict()) + "\n")
            for (parent, name, tid, nested), (calls, seconds, work) in self.leaves.items():
                fh.write(json.dumps({
                    "leaf": name, "parent": parent, "thread": tid, "nested": nested,
                    "calls": calls, "seconds": seconds, "work": work,
                }) + "\n")
            fh.write(json.dumps({"counters": dict(self.counters)}) + "\n")


def union_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans, leaves=None) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover.

    Children recorded as spans count by the union of their intervals (clipped
    to the parent), so children running at once on two threads are not
    subtracted twice. Leaf sums run on their parent's thread and add their
    seconds, except nested leaves, which sit inside another leaf.
    """
    children: dict[int, list] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    leaf_cover: dict[int, float] = defaultdict(float)
    for (parent, _name, _tid, nested), (_calls, seconds, _work) in (leaves or {}).items():
        if parent is not None and not nested:
            leaf_cover[parent] += seconds
    out = {}
    for s in spans:
        clipped = [
            (max(a, s.start), min(b, s.end))
            for a, b in children.get(s.idx, ())
            if b > s.start and a < s.end
        ]
        covered = union_length(clipped) + leaf_cover.get(s.idx, 0.0)
        out[s.idx] = max(0.0, (s.end - s.start) - covered)
    return out
