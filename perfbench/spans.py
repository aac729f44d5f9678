"""Span recording around calls into the program's public functions.

A :class:`Tracer` keeps spans in memory — name, start, end, parent span
and the id of the operation (cell, job or program) in flight — and
writes them out once, when the benchmark ends.  :func:`instrument`
wraps public functions and methods of the program from the outside:
every module-level binding of a function (``from x import f`` copies
included) and every class attribute named is replaced by a recording
wrapper for the duration of a ``with`` block, so the program's own call
sites record spans without any change to its code.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from perfbench.stats import self_times, union_length


class Tracer:
    """In-memory span log.  Parents are tracked per thread, so spans
    opened by the campaign server's threads nest under their own
    callers, never under the benchmark loop's open span."""

    def __init__(self) -> None:
        #: [name, start, end, parent index, op id, thread name]
        self.spans: List[list] = []
        #: Id of the operation the benchmark loop has in flight; spans
        #: opened on any thread are attributed to it.
        self.op: Optional[str] = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = [name, time.perf_counter(), None, parent, self.op,
                  threading.current_thread().name]
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            stack.pop()

    def table(self, start: float, end: float) -> Tuple[Dict[str, dict], float]:
        """Per-name count, total and self time of the spans (all closed by
        now), plus the part of ``[start, end]`` no top-level span covers."""
        selfs = self_times([(s[1], s[2], s[3]) for s in self.spans])
        rows: Dict[str, dict] = {}
        for s, self_s in zip(self.spans, selfs):
            row = rows.setdefault(s[0], {"count": 0, "total_s": 0.0,
                                         "self_s": 0.0})
            row["count"] += 1
            row["total_s"] += s[2] - s[1]
            row["self_s"] += self_s
        top = [(max(s[1], start), min(s[2], end)) for s in self.spans
               if s[3] is None and s[2] > start and s[1] < end]
        return rows, (end - start) - union_length(top)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, op, thread) in enumerate(
                    self.spans):
                f.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "op": op, "thread": thread}) + "\n")


#: Called as ``after(args)`` once an instrumented call has returned.
Hook = Callable[[tuple], None]


def _wrap(tracer: Tracer, name: str, fn: Callable,
          after: Optional[Hook]) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            result = fn(*args, **kwargs)
        if after is not None:
            after(args)
        return result

    return wrapper


@contextmanager
def instrument(tracer: Tracer,
               functions: List[Tuple[str, Callable, Optional[Hook]]],
               methods: List[Tuple[str, type, str, Optional[Hook]]],
               module_prefix: str = "repro") -> Iterator[None]:
    """Record spans around ``functions`` ((span name, function, hook))
    and ``methods`` ((span name, class, attribute, hook)) while the block
    runs; every binding is restored on exit."""
    undo: List[Tuple[object, str, object]] = []
    try:
        for name, fn, hook in functions:
            wrapper = _wrap(tracer, name, fn, hook)
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "") or ""
                if not mod_name.startswith(module_prefix):
                    continue
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        undo.append((module, attr, value))
                        setattr(module, attr, wrapper)
        for name, cls, attr, hook in methods:
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, _wrap(tracer, name, original, hook))
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
