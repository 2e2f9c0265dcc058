"""In-memory spans around calls into stratsurv's public functions.

A traced run replaces module attributes of the program with wrappers that
record one span per call: name, start, end, parent span, operation id,
replicate id and a few attributes read from the arguments or the result.
The program itself is not modified; the patches are undone when the
``patched`` context exits. Spans stay in memory until ``dump`` writes them.
"""

from __future__ import annotations

import csv
import functools
import os
import time
from contextlib import contextmanager
from typing import Any, Callable

# Span record fields, kept as a list for low recording cost.
NAME, START, END, PARENT, OP, REPLICATE, ATTRS = range(7)


class Tracer:
    """Records nested spans of the calling process only.

    Wrappers installed before a pool forks are inherited by the workers; a
    worker's spans could never be collected, so there the wrapper only
    forwards the call.
    """

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        self.op: str | None = None
        self.replicate: int | None = None
        self._stack: list[int] = []
        self._pid = os.getpid()

    def wrap(self, name: str, fn: Callable,
             attrs: Callable | None = None,
             replicate_of: Callable | None = None) -> Callable:
        """Return ``fn`` wrapped so that each call records a span.

        ``attrs(args, kwargs, result, exc)`` returns the span's attributes;
        ``replicate_of(args, kwargs)`` returns a replicate id that later
        spans of the same operation inherit.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer._pid:
                return fn(*args, **kwargs)
            if replicate_of is not None:
                tracer.replicate = replicate_of(args, kwargs)
            stack = tracer._stack
            rec = [name, 0, 0, stack[-1] if stack else -1,
                   tracer.op, tracer.replicate, None]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            result = exc = None
            rec[START] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                rec[END] = time.perf_counter_ns()
                stack.pop()
                if attrs is not None:
                    rec[ATTRS] = attrs(args, kwargs, result, exc)

        return traced

    def start_op(self, op: str) -> None:
        self.op = op
        self.replicate = None

    def self_ns(self) -> list[int]:
        """Each span's duration minus the durations of its direct children."""
        child = [0] * len(self.spans)
        for rec in self.spans:
            if rec[PARENT] >= 0:
                child[rec[PARENT]] += rec[END] - rec[START]
        return [rec[END] - rec[START] - c for rec, c in zip(self.spans, child)]

    def dump(self, path: str) -> None:
        """Write every span, with its self time, as CSV."""
        self_ns = self.self_ns()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("index", "name", "start_ns", "end_ns", "self_ns",
                             "parent", "op", "replicate", "attrs"))
            for i, (rec, own) in enumerate(zip(self.spans, self_ns)):
                attrs = ";".join(f"{k}={v}" for k, v in (rec[ATTRS] or {}).items())
                writer.writerow((i, rec[NAME], rec[START], rec[END], own, rec[PARENT],
                                 rec[OP], "" if rec[REPLICATE] is None else rec[REPLICATE],
                                 attrs))


@contextmanager
def patched(tracer: Tracer, targets):
    """Install span wrappers for ``(module, attribute, name, attrs, replicate_of)``.

    A target the program no longer defines is skipped, so a refactor that
    removes a call site leaves its layer with no spans instead of failing.
    """
    saved = []
    try:
        for module, attr, name, attrs, replicate_of in targets:
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            saved.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn, attrs, replicate_of))
        yield tracer
    finally:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)
