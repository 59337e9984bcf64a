"""In-memory span recorder for the traced library pass.

A span is one call of a wrapped function: its name, start, end, the span
that was open when it started (its parent), and the row it ran for.  The
spans are kept in flat arrays while the pass runs and written out once at
the end.  A span's self time is its duration minus the durations of its
direct children.
"""

from __future__ import annotations

import contextlib
import gzip
import time
from array import array

SETUP_ROW = -1
REPORT_ROW = -2


class Tracer:
    def __init__(self):
        self.names = []                 # span name by id
        self._ids = {}
        self.name_of = array("H")       # per span: name id
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.row_of = array("i")
        self.row = SETUP_ROW            # row id stamped on new spans
        self._stack = [-1]

    def _name_id(self, name):
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid):
        i = len(self.start)
        self.name_of.append(nid)
        self.parent.append(self._stack[-1])
        self.row_of.append(self.row)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i):
        self.end[i] = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, observe=None):
        """A stand-in for fn that records one span per call.  observe, if
        given, is called as observe(args, result) after the span closes."""
        nid = self._name_id(name)
        open_span, close_span = self._open, self._close

        def traced(*args, **kwargs):
            i = open_span(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                close_span(i)
            if observe is not None:
                observe(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block of the benchmark's own code."""
        i = self._open(self._name_id(name))
        try:
            yield
        finally:
            self._close(i)

    def __len__(self):
        return len(self.start)

    def self_times(self):
        """Per span: duration minus the summed durations of its children."""
        own = array("d", (e - s for s, e in zip(self.start, self.end)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= self.end[i] - self.start[i]
        return own

    def roots(self):
        """Per span: the id of the outermost span enclosing it."""
        root = array("i", range(len(self.start)))
        for i, p in enumerate(self.parent):
            if p >= 0:
                root[i] = root[p]
        return root

    def write(self, path):
        """All spans as gzip-compressed tab-separated text: id, name, start,
        end, parent id, row id (-1 set-up, -2 report)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("id\tname\tstart\tend\tparent\trow\n")
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.names[self.name_of[i]]}\t{self.start[i]:.9f}\t"
                    f"{self.end[i]:.9f}\t{self.parent[i]}\t{self.row_of[i]}\n"
                )

