"""Spans and counts recorded around calls into gradflux, from outside it.

A span is (name, start, end, parent, attrs); spans live in memory and are
written out once, when the run ends. With ``detail`` off only top-level
spans (the workload stages) are kept, so an untraced operation pays for one
clock read per stage and nothing else.
"""

import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self, detail):
        self.detail = detail
        self.spans = []          # [name, start, end, parent index, attrs]
        self.counts = Counter()
        self.notes = defaultdict(list)
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        if self._stack and not self.detail:
            yield
            return
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, attrs])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def count(self, name):
        if self.detail:
            self.counts[name] += 1

    def note(self, name, value):
        """Keep an observed value, such as an overlap, for the report."""
        if self.detail:
            self.notes[name].append(value)

    @contextmanager
    def wrapping(self, patches):
        """Temporarily route ``module.attr`` through a span.

        ``patches`` holds (module, attr, span name, attrs_fn); attrs_fn maps
        (args, kwargs, result) to span attributes. The library resolves these
        names through its module globals at call time, so its own internal
        calls are traced too.
        """
        saved = []
        try:
            for module, attr, name, attrs_fn in patches:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._traced(original, name, attrs_fn))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def _traced(self, fn, name, attrs_fn):
        @functools.wraps(fn)
        def call(*args, **kwargs):
            self.count(name + ".calls")
            with self.span(name):
                result = fn(*args, **kwargs)
                if attrs_fn is not None:
                    self.spans[self._stack[-1]][4].update(
                        attrs_fn(args, kwargs, result))
                return result
        return call

    # -- derived quantities ------------------------------------------------

    def select(self, name, within=None, **attrs):
        """Indices of spans called ``name`` with matching attrs.

        ``within`` restricts to descendants of the given span indices.
        """
        out = []
        for i, (n, _, _, _, a) in enumerate(self.spans):
            if n != name or any(a.get(k) != v for k, v in attrs.items()):
                continue
            if within is not None and not self._inside(i, within):
                continue
            out.append(i)
        return out

    def _inside(self, i, ancestors):
        p = self.spans[i][3]
        while p is not None:
            if p in ancestors:
                return True
            p = self.spans[p][3]
        return False

    def duration(self, i):
        return self.spans[i][2] - self.spans[i][1]

    def self_time(self, i):
        children = sum(self.duration(j) for j, s in enumerate(self.spans)
                       if s[3] == i)
        return self.duration(i) - children

    def median(self, indices, fn=None):
        fn = fn or self.duration
        return statistics.median(fn(i) for i in indices) if indices else 0.0

    def dump(self, path, extra):
        spans = [{"name": n, "start": s, "end": e, "parent": p, **a}
                 for n, s, e, p, a in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": spans, "counts": dict(self.counts),
                       "notes": dict(self.notes), **extra}, fh)
