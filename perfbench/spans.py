"""In-memory span tracer for the benchmark's traced run.

Spans are recorded around the public callables of each layer by patching
the attribute the caller looks up.  A name a module bound at import time
(``from .codecs import decode_postings_many``) is a separate binding, so
``wrap`` is called once per binding and ``restore`` puts every original
back.  Only the benchmark's own process is traced; work inside Ray workers
shows up as the wall of the call that waits for it.

A span is ``(name, start_ns, end_ns, parent, request)``: ``parent`` is the
index of the enclosing span (-1 for none) and ``request`` the id the
harness set for the operation in flight.  Spans stay in memory until
``dump``.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.request])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    # -- patching --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, span: bool = True,
             count_out=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records a span named
        ``name`` (or, with ``span=False``, only counts calls).
        ``count_out(result)`` adds to the counter ``name + ".out"``."""
        orig = getattr(owner, attr)
        tracer = self

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            tracer.counts[name] += 1
            if not span:
                return orig(*args, **kwargs)
            idx = tracer.begin(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                tracer.end(idx)
            if count_out is not None:
                tracer.counts[name + ".out"] += count_out(out)
            return out

        self._patched.append((owner, attr, orig))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, orig in reversed(self._patched):
            setattr(owner, attr, orig)
        self._patched.clear()

    # -- analysis --------------------------------------------------------
    def self_ns(self, lo: int = 0, hi: int | None = None) -> dict[str, list]:
        """Per span name ``[total self ns, n spans]`` over spans[lo:hi]
        (self = duration minus the time covered by direct children)."""
        spans = self.spans[lo:hi]
        child_ns = defaultdict(int)
        for s in spans:
            if s[3] >= lo:
                child_ns[s[3]] += s[2] - s[1]
        out: dict[str, list] = defaultdict(lambda: [0, 0])
        for i, s in enumerate(spans, start=lo):
            acc = out[s[0]]
            acc[0] += s[2] - s[1] - child_ns[i]
            acc[1] += 1
        return dict(out)

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                                  "request"],
                       "spans": self.spans, "counts": dict(self.counts)}, f)
