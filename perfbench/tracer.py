"""Spans recorded from outside the program.

A :class:`Tracer` replaces a public function (or method) of the
program with a wrapper that times each call and hands the result to
an optional observer.  The wrapper is installed on the object the
caller looks the name up on at call time, so the program's own code
is unchanged.  Spans nest per thread: a span's self time is its
duration minus the time covered by the wrapped calls made inside it.

Wrappers stay for the life of the process, which runs one benchmark
phase.  Spans are kept in memory and written out once, by
:meth:`write`.
"""

from __future__ import annotations

import functools
import json
import threading
import time
from typing import Callable, List, Optional, Tuple


class Tracer:
    def __init__(self) -> None:
        #: ``(layer, start, end, self_s)`` per finished call.
        self.spans: List[Tuple[str, float, float, float]] = []
        self._local = threading.local()

    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, layer: str,
             observe: Optional[Callable] = None) -> None:
        """Replace ``owner.attr`` with a traced wrapper.

        ``observe(result)`` runs after each call, outside the span.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = time.perf_counter()
                covered = stack.pop()
                if stack:
                    stack[-1] += end - start
                tracer.spans.append((layer, start, end, end - start - covered))
            if observe is not None:
                observe(result)
            return result

        setattr(owner, attr, traced)

    # ------------------------------------------------------------------
    def calls(self, layer: str) -> int:
        return sum(1 for span in self.spans if span[0] == layer)

    def total_s(self, layer: str) -> float:
        return sum(end - start for name, start, end, _ in self.spans
                   if name == layer)

    def self_s(self, layer: str) -> float:
        return sum(own for name, _, _, own in self.spans if name == layer)

    def write(self, path) -> None:
        """One JSON object per span, in completion order."""
        with open(path, "w") as fh:
            for name, start, end, own in self.spans:
                fh.write(json.dumps({"layer": name, "start": start,
                                     "end": end, "self_s": own}) + "\n")
