"""Spans around calls into twinskein's layers, recorded from outside.

A Tracer replaces public functions with wrappers where their callers look
them up (for example ``twinskein.skein.canonicalize``, the name the engine
calls), records one span per call (name, start, end, parent span,
evaluation id) in memory, and puts every original back on ``restore``.
Self time is a span's duration minus the durations of its direct children;
calls are synchronous and single-threaded, so children never overlap.
"""

from __future__ import annotations

import time
from array import array
from collections import Counter

_MISSING = object()


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.span_eval = array("i")
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Evaluation the next spans belong to; -1 is set-up.
        self.eval_id = -1
        #: Counts taken at the layer boundaries by the on_exit hooks.
        self.counts: Counter = Counter()

    # -- recording --------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, owner, attr: str, name: str, on_exit=None) -> None:
        """Replace ``owner.attr`` by a recording wrapper.  ``on_exit(span,
        args, result)`` runs after the span closes, outside its time."""
        original = getattr(owner, attr)
        nid = self._name_id(name)
        tracer = self

        def traced(*args, **kwargs):
            span = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(tracer._open[-1] if tracer._open else -1)
            tracer.span_eval.append(tracer.eval_id)
            tracer.span_end.append(0.0)
            tracer._open.append(span)
            tracer.span_start.append(tracer.clock())
            try:
                out = original(*args, **kwargs)
            finally:
                tracer.span_end[span] = tracer.clock()
                tracer._open.pop()
            if on_exit is not None:
                on_exit(span, args, out)
            return out

        self._patches.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, traced)

    def restore(self) -> None:
        """Put back every attribute ``wrap`` replaced, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # -- reading ----------------------------------------------------------

    def duration(self, span: int) -> float:
        return self.span_end[span] - self.span_start[span]

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        n = len(self.span_start)
        child = [0.0] * n
        for i in range(n):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            dur = self.span_end[i] - self.span_start[i]
            row = out[self.names[self.span_name[i]]]
            row["calls"] += 1
            row["total_s"] += dur
            row["self_s"] += dur - child[i]
        return out

    def write_spans(self, f) -> None:
        """One CSV line per span, in the order the spans opened; ``parent``
        is the parent's line number (0-based, -1 for none)."""
        f.write("name,start_s,end_s,parent,evaluation\n")
        for i in range(len(self.span_start)):
            f.write(f"{self.names[self.span_name[i]]},{self.span_start[i]:.9f},"
                    f"{self.span_end[i]:.9f},{self.span_parent[i]},"
                    f"{self.span_eval[i]}\n")
