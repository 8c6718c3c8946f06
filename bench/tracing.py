"""Span timing for one benchmark pass.

Every span is aggregated per name as calls, total time and self time (total
minus the time covered by child spans). Coarse spans (the pass, its cells,
the benchmark's own phases and functions called a few hundred times per pass)
are also kept as full records with a parent link. Hot spans, called hundreds
of thousands of times, are only aggregated.

Wrappers are installed by patching a name where its caller looks it up, so
nothing under src/ is edited.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

CALLS, TOTAL, SELF, DEPTH, NESTED = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.origin = clock()
        self.stats: dict[str, list] = {}  # name -> [calls, total, self, depth, nested]
        self.samples: dict[str, float] = {}
        self.records: list[dict] = []  # coarse spans, in start order
        self._children: list[float] = []  # child time accumulated per open span
        self._open: list[int] = []  # indices of open coarse records

    def stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0, 0, 0])

    def _enter(self, st: list) -> None:
        if st[DEPTH]:
            st[NESTED] += 1  # a span inside itself means a name is wrapped twice
        st[DEPTH] += 1
        self._children.append(0.0)

    def _exit(self, st: list, elapsed: float) -> None:
        child = self._children.pop()
        st[CALLS] += 1
        st[TOTAL] += elapsed
        st[SELF] += elapsed - child
        st[DEPTH] -= 1
        if self._children:
            self._children[-1] += elapsed

    @contextmanager
    def span(self, name: str, label=None):
        """A coarse span: aggregated, and kept as a record with its parent."""
        st = self.stat(name)
        self._enter(st)
        t0 = self.clock()
        rec = {
            "id": len(self.records),
            "name": name,
            "label": label,
            "parent": self._open[-1] if self._open else None,
            "start_s": t0 - self.origin,
            "end_s": None,
        }
        self.records.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            t1 = self.clock()
            self._open.pop()
            rec["end_s"] = t1 - self.origin
            self._exit(st, t1 - t0)

    def wrap(self, name: str, fn, *, coarse: bool = False, before=None, after=None):
        """Return fn timed as span `name`.

        before(args, kwargs) runs at entry and after(args, kwargs, result) at
        exit, both inside the span; they sample counters for the layer.
        """

        def call(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            result = fn(*args, **kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        if coarse:
            @functools.wraps(fn)
            def spanned(*args, **kwargs):
                with self.span(name):
                    return call(*args, **kwargs)

            return spanned

        st = self.stat(name)
        clock, enter, leave = self.clock, self._enter, self._exit
        inner = fn if before is None and after is None else call

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            enter(st)
            t0 = clock()
            try:
                return inner(*args, **kwargs)
            finally:
                leave(st, clock() - t0)

        return spanned

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        """Replace owner.attr (a module global or a class attribute) by its
        wrapped version, where the caller looks the name up."""
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), **kw))

    def sample_max(self, name: str, value: float) -> None:
        if value > self.samples.get(name, 0):
            self.samples[name] = value

    def sample_add(self, name: str, value: float) -> None:
        self.samples[name] = self.samples.get(name, 0) + value

    def summary(self) -> dict:
        return {
            name: {"calls": st[CALLS], "total_s": st[TOTAL], "self_s": st[SELF], "nested": st[NESTED]}
            for name, st in self.stats.items()
        }
