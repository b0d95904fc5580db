"""In-memory spans for the traced run, and the self-time arithmetic.

A span records its name, start, end, parent span, process, thread and run
id, plus the counts its wrapper measured. Spans stay in memory and are
written out once, when the traced command ends. Start and end are read
twice: from the wall clock and from the thread's CPU clock. A span's self
time is its CPU duration minus that of its children on the same thread, so
time a replica thread spends waiting for the interpreter lock counts as no
layer's work.

A process forked from the traced one (a worker of a process pool) keeps
the wrapped functions. Its spans go to ``<path>.<pid>`` each time its last
open span closes, since such a worker may end without running exit hooks;
``load`` merges those files with the main one.
"""

from __future__ import annotations

import functools
import glob
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional


class SpanRecorder:
    def __init__(self, run_id: str, path: str):
        self.run_id = run_id
        self.path = path
        self.root_pid = os.getpid()
        # parent for spans opened on a thread with no open span, such as
        # the workers of a replica pool
        self.default_parent: Optional[int] = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._start_process()
        os.register_at_fork(after_in_child=self._forked)

    def _start_process(self) -> None:
        self.pid = os.getpid()
        self.spans: List[Dict[str, object]] = []
        # counts kept outside any span; replica threads share them
        self.counters: Dict[str, int] = {}
        self._lock = threading.Lock()
        self._open = 0

    def _forked(self) -> None:
        """In a forked child: the parent's open spans stay on the stack as
        parents, but the child records and writes only its own spans."""
        self._start_process()
        # span ids stay unique across processes
        self._ids = itertools.count(self.pid * 10 ** 7)

    def _stack(self) -> List[Dict[str, object]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        """Whether this thread is within an open span called ``name``."""
        return any(s["name"] == name for s in self._stack())

    @contextmanager
    def span(self, name: str) -> Iterator[Dict[str, object]]:
        stack = self._stack()
        parent = stack[-1]["id"] if stack else self.default_parent
        record: Dict[str, object] = {
            "id": next(self._ids), "name": name, "parent": parent,
            "run": self.run_id, "pid": self.pid,
            "thread": threading.get_ident(),
            "start": time.perf_counter(), "end": None,
            "cpu_start": time.thread_time(), "cpu_end": None,
        }
        stack.append(record)
        with self._lock:
            self._open += 1
        try:
            yield record
        finally:
            record["cpu_end"] = time.thread_time()
            record["end"] = time.perf_counter()
            stack.pop()
            # a span the parent opened before a fork belongs to the parent
            if record["pid"] == self.pid:
                with self._lock:
                    self.spans.append(record)
                    self._open -= 1
                    if self._open == 0 and self.pid != self.root_pid:
                        self._write(f"{self.path}.{self.pid}")

    def wrap(self, name: str, fn: Callable, *,
             measure: Optional[Callable] = None) -> Callable:
        """``fn`` with a span around each call. ``measure(args, kwargs)``
        runs before the call and returns a function of the result that
        gives the counts to store on the span."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                finish = measure(args, kwargs) if measure else None
                result = fn(*args, **kwargs)
                if finish is not None:
                    record.update(finish(result))
                return result
        return traced

    def count(self, name: str, n: int) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def write(self) -> None:
        with self._lock:
            self._write(self.path)

    def _write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"run": self.run_id, "spans": self.spans,
                       "counters": self.counters}, fh)


def load(path: str) -> Dict[str, object]:
    """The spans and counters of a traced command and of any process it
    forked."""
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    for child in sorted(glob.glob(glob.escape(path) + ".*")):
        with open(child, "r", encoding="utf-8") as fh:
            part = json.load(fh)
        doc["spans"] += part["spans"]
        for name, n in part["counters"].items():
            doc["counters"][name] = doc["counters"].get(name, 0) + n
    return doc


def cpu_time(span: Dict[str, object]) -> float:
    return span["cpu_end"] - span["cpu_start"]


def self_times(spans: List[Dict[str, object]]) -> Dict[int, float]:
    """Self time of every span, by span id. Children on the same thread
    of the same process run inside their parent's call, one after
    another, so their CPU durations are disjoint parts of the parent's."""
    out = {s["id"]: cpu_time(s) for s in spans}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and (parent["pid"], parent["thread"]) \
                == (s["pid"], s["thread"]):
            out[parent["id"]] -= cpu_time(s)
    return out
