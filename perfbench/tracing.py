"""Outside-in span tracer for the benchmark's traced run.

The tracer wraps public functions of the program's layers -- class
attributes and the module-level names a caller module imported -- from the
benchmark's own code, and restores them afterwards.  Nothing in ``src/`` is
edited.  Each call to a wrapped function records one span: its name, start,
end, the span that caused it (the innermost open span on the same thread),
and a request id shared by every span under one root span.  Spans stay in
memory until :meth:`Tracer.dump` writes them out.

A span's self time is its duration minus the time its child spans cover;
because children nest strictly inside their parent on one thread, the self
times of all spans under a root add up to the root's duration.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import pathlib
import threading
import time
from collections import defaultdict

# Span layout (a list, so a finishing child can add to its parent in place).
NAME, START, END, PARENT, REQUEST, CHILD_TIME = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._requests = itertools.count(1)
        self._adopter: list | None = None  # see span(adopt_threads=True)

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1] if stack else self._adopter
        request = parent[REQUEST] if parent is not None else next(self._requests)
        span = [name, time.perf_counter(), 0.0, parent, request, 0.0]
        self.spans.append(span)
        stack.append(span)
        return span

    def _close(self, span: list) -> None:
        span[END] = time.perf_counter()
        self._stack().pop()
        parent = span[PARENT]
        if parent is not None:
            parent[CHILD_TIME] += span[END] - span[START]

    @contextlib.contextmanager
    def span(self, name: str, adopt_threads: bool = False):
        """Record a span around a block of the benchmark's own code.

        With ``adopt_threads``, spans that other threads open while this one
        is open, outside any span of their own, become its children: the
        block hands its work to worker threads and waits for it, so their
        time nests inside its own.
        """
        span = self._open(name)
        if adopt_threads:
            self._adopter = span
        try:
            yield span
        finally:
            self._adopter = None
            self._close(span)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, owner, attr: str, name: str | None, on_call=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        ``name`` None counts nothing and records no span; the wrapper then
        only runs ``on_call(args, kwargs, result, span)`` after each call
        (``span`` None).  Static methods stay static.
        """
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        is_static = isinstance(raw, staticmethod)
        func = raw.__func__ if is_static else raw

        if name is None:
            def wrapper(*args, **kwargs):
                result = func(*args, **kwargs)
                on_call(args, kwargs, result, None)
                return result
        else:
            def wrapper(*args, **kwargs):
                span = self._open(name)
                try:
                    result = func(*args, **kwargs)
                finally:
                    self._close(span)
                if on_call is not None:
                    on_call(args, kwargs, result, span)
                return result

        functools.update_wrapper(wrapper, func)
        setattr(owner, attr, staticmethod(wrapper) if is_static else wrapper)
        self._patches.append((owner, attr, raw))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    # -- summaries ---------------------------------------------------------

    def summary(self, since: int = 0) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds and self seconds."""
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for span in itertools.islice(self.spans, since, None):
            entry = out[span[NAME]]
            duration = span[END] - span[START]
            entry["calls"] += 1
            entry["total_s"] += duration
            entry["self_s"] += duration - span[CHILD_TIME]
        return dict(out)

    def roots_seconds(self, since: int = 0) -> float:
        return sum(s[END] - s[START]
                   for s in itertools.islice(self.spans, since, None)
                   if s[PARENT] is None)

    def dump(self, path: pathlib.Path) -> None:
        """Write every span as one tab-separated line."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w") as f:
            f.write("index\tname\tstart\tend\tparent\trequest\n")
            for i, span in enumerate(self.spans):
                parent = span[PARENT]
                f.write(f"{i}\t{span[NAME]}\t{span[START]:.9f}\t"
                        f"{span[END]:.9f}\t"
                        f"{index[id(parent)] if parent is not None else -1}\t"
                        f"{span[REQUEST]}\n")
