"""In-memory span recorder for the traced benchmark pass.

A span is (name, start, end, parent, call id): `parent` is the index of
the enclosing span (-1 for a root) and `call id` numbers the unit call
the span belongs to. Spans are kept in a list and written out once, at
the end of the run. A span's self time is its duration minus the time
covered by its direct children; children never overlap because the
benchmark is single-threaded.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, call_id]
        self._stack: list[int] = []
        self.call_id = -1

    def start_call(self, call_id: int) -> None:
        """Begin a new unit call; drops spans left open by a failed one."""
        self.call_id = call_id
        self._stack.clear()

    def begin(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.call_id])
        self._stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        span = self.spans[idx]
        span[2] = _now()
        self._stack.pop()
        return span[2] - span[1]

    @contextmanager
    def span(self, name: str):
        idx = self.begin(name)
        try:
            yield
        finally:
            self.end(idx)

    @contextmanager
    def wrapping(self, module, attr: str, name: str):
        """Record a span around every call to `module.attr` while active."""
        orig = getattr(module, attr)

        def traced(*args, **kwargs):
            idx = self.begin(name)
            try:
                return orig(*args, **kwargs)
            finally:
                self.end(idx)

        setattr(module, attr, traced)
        try:
            yield
        finally:
            setattr(module, attr, orig)

    def totals(self, first: int = 0) -> tuple[dict, dict, dict]:
        """(inclusive seconds, self seconds, span count) per name, from span `first` on."""
        child = defaultdict(float)
        for name, start, end, parent, _ in self.spans[first:]:
            if parent >= first:
                child[parent] += end - start
        incl: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        count: dict[str, int] = defaultdict(int)
        for i, (name, start, end, _, _) in enumerate(self.spans[first:], first):
            incl[name] += end - start
            own[name] += end - start - child[i]
            count[name] += 1
        return incl, own, count

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, call_id in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "call": call_id}
                    )
                    + "\n"
                )
